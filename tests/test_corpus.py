"""Ingestion, record parsing, and per-account aggregation."""

import csv
import gc
import html
import json
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botminer import corpus as corpus_mod
from botminer.corpus import (
    LENIENT,
    RATE_LIFETIME,
    STRICT,
    AccountStats,
    Tweet,
    _Parser,
    build_corpus,
    extract_source_app,
    ingest,
    parse_record,
    parse_timestamp,
)
from botminer.detector import classify
from botminer.errors import EmptyCorpusError, MalformedRecordError
from botminer.pipeline import write_classifications

from conftest import WEB_CLIENT, columns_of, corpus_of, record, tweet, write_ndjson


# ---------------------------------------------------------------------------
# extract_source_app
# ---------------------------------------------------------------------------

def test_source_app_from_anchor():
    assert extract_source_app('<a href="http://ifttt.com">IFTTT</a>') == "IFTTT"


def test_source_app_empty_is_unknown():
    assert extract_source_app("") == "unknown"
    assert extract_source_app(None) == "unknown"


def test_source_app_bare_string_passthrough():
    assert extract_source_app("Twitter for iPhone") == "Twitter for iPhone"
    assert extract_source_app("  padded  ") == "padded"


def test_source_app_entities_and_attributes():
    raw = '<a href="x" rel="nofollow">Q &amp; A</a>'
    assert extract_source_app(raw) == "Q & A"
    assert extract_source_app('<a href="x"></a>') == '<a href="x"></a>'  # empty anchor: raw fallback


# entities named, decimal, hex, unterminated, unknown and absent; whitespace
# str.strip removes (no-break space included); non-ASCII text
_SOURCE_PIECES = ("&amp;", "&#38;", "&#x26;", "&", "AT&T", "&amp", "&foo;", " ", "\t",
                  "\n", "\u00a0", "é", "Ωμέγα", "日本", "Web", "Client")


@given(st.lists(st.sampled_from(_SOURCE_PIECES), max_size=8), st.booleans())
@example(["&#38;"], True)
@example([" Q ", "&amp;", " A "], True)
def test_source_app_unescapes_exactly_as_html(pieces, anchored):
    inner = "".join(pieces)
    if anchored:
        raw = f'<a href="https://app.example/?a=1&amp;b=2" rel="nofollow">{inner}</a>'
        expected = html.unescape(inner).strip() or raw.strip()
    else:  # a bare string is used as-is
        raw = inner
        expected = inner.strip() or "unknown"
    assert extract_source_app(raw) == expected


def test_source_app_never_empty():
    for raw in ("", "   ", None, "<a></a>", "x", '<a href="y">ok</a>'):
        assert extract_source_app(raw) != ""


# ---------------------------------------------------------------------------
# parse_timestamp / parse_record
# ---------------------------------------------------------------------------

def test_parse_timestamp_formats_agree():
    iso = parse_timestamp("2017-12-30T13:08:45Z")
    legacy = parse_timestamp("Sat Dec 30 13:08:45 +0000 2017")
    assert iso == legacy
    assert iso.utcoffset().total_seconds() == 0


def test_parse_timestamp_naive_is_utc():
    dt = parse_timestamp("2017-12-30T13:08:45")
    assert dt.tzinfo is not None
    assert dt == parse_timestamp("2017-12-30T13:08:45Z")


def test_parse_timestamp_spellings_of_one_instant_agree():
    spellings = ["2017-12-30T13:08:45Z", "2017-12-30T13:08:45+00:00",
                 "2017-12-30T14:08:45+01:00", "2017-12-30T13:08:45",
                 "Sat Dec 30 13:08:45 +0000 2017"]
    parsed = [parse_timestamp(raw) for raw in spellings]
    assert all(dt == parsed[0] and dt.tzinfo is timezone.utc for dt in parsed)
    assert len({repr(dt) for dt in parsed}) == 1


def test_parse_timestamp_garbage():
    with pytest.raises(MalformedRecordError):
        parse_timestamp("yesterday-ish")


def test_parse_record_roundtrip():
    t, author = parse_record(record(i="42", text="hello", account="a9", screen_name="sn",
                                    followers=7, friends=3, statuses=55))
    assert t.id == "42"
    assert t.author_id == "a9"
    assert (author.followers, author.friends, author.statuses_total) == (7, 3, 55)
    assert t.source_app == "Twitter Web Client"
    assert not t.is_retweet


@pytest.mark.parametrize("missing", ["id", "text", "created_at", "user"])
def test_parse_record_missing_required(missing):
    rec = record()
    del rec[missing]
    with pytest.raises(MalformedRecordError):
        parse_record(rec)


def test_parse_record_missing_user_id():
    rec = record()
    del rec["user"]["id"]
    with pytest.raises(MalformedRecordError):
        parse_record(rec)


def test_parse_record_negative_count():
    with pytest.raises(MalformedRecordError):
        parse_record(record(followers=-1))


def test_parse_record_counts_default_to_zero():
    rec = record()
    del rec["user"]["followers_count"]
    rec["user"]["friends_count"] = None
    _, author = parse_record(rec)
    assert author.followers == 0
    assert author.friends == 0


def test_parse_record_nfc_normalization():
    # e + combining acute composes to the single codepoint
    t = tweet(text="café")
    assert t.text == "café"


def test_retweet_detection_variants():
    assert tweet(text="RT @user: old news").is_retweet
    assert tweet(retweet_of="12345").is_retweet
    assert tweet(retweeted_status={"id": "1"}).is_retweet
    assert not tweet(text="heart RT means nothing here").is_retweet
    assert not tweet(retweet_of=None).is_retweet


_ABSENT = object()  # the key is left out of the record


def test_retweet_rule_table(tmp_path):
    # a retweet: text starting "RT @", a retweeted_status that is present and
    # not null, or a retweeted_status_id that is present, not null and not ""
    recs, expected = [], []
    for status in (_ABSENT, None, {}, False, {"id": "1"}):
        for status_id in (_ABSENT, None, "", 0, "0", "12"):
            for text in ("x", "RT @u: x", " RT @u", "rt @u"):
                rec = record(i=str(len(recs)), text=text)
                if status is not _ABSENT:
                    rec["retweeted_status"] = status
                if status_id is not _ABSENT:
                    rec["retweeted_status_id"] = status_id
                recs.append(rec)
                expected.append(text.startswith("RT @") or status not in (_ABSENT, None)
                                or status_id not in (_ABSENT, None, ""))
    corpus = ingest(write_ndjson(tmp_path / "c.ndjson", recs), STRICT)
    for got in ([parse_record(rec)[0].is_retweet for rec in recs], list(corpus.is_retweet)):
        assert got == expected
        assert all(type(flag) is bool for flag in got)  # so each flag is True or False itself


def test_user_created_defaults_to_tweet_time():
    t, author = parse_record(record())
    assert author.account_created_at == t.created_at
    _, author2 = parse_record(record(account_created="2015-01-01T00:00:00Z"))
    assert author2.account_created_at.year == 2015


@pytest.mark.parametrize("field, value", [
    ("user.verified", "false"),  # a truthy string must not read as True
    ("user.verified", 1),
    ("user.followers_count", 12.7),  # no silent truncation
    ("user.followers_count", 12.0),
    ("user.friends_count", True),  # bool is not a count
    ("user.statuses_count", "100"),
    ("user.followers_count", float("inf")),
    ("user.followers_count", 2**63),
    ("user.id", ["a"]),
    ("user.id", 1.5),
    ("user.created_at", 1420070400),
    ("user.screen_name", 7),
    ("id", True),
    ("id", 4.2),
    ("id", "\ud800x"),  # valid JSON, but not writable as UTF-8
    ("text", ["a"]),  # no "['a']"
    ("text", 5),
    ("created_at", 1514635200),
    ("created_at", "0001-01-01T00:00:00+01:00"),  # before datetime.min in UTC
    ("source", {"name": "app"}),
    ("user", ["u1"]),
])
def test_parse_record_rejects_wrong_types(field, value):
    rec = record()
    target, key = (rec["user"], field[5:]) if field.startswith("user.") else (rec, field)
    target[key] = value
    with pytest.raises(MalformedRecordError):
        parse_record(rec)


def test_parse_record_checks_fields_in_a_fixed_order():
    # every field is bad; mending them one at a time shows each check's
    # message in the order the checks run
    rec = {"id": 1.5, "text": 5, "created_at": 7, "source": 7, "user": ["u"]}
    user = {"id": 1.5, "created_at": 7, "screen_name": 7, "followers_count": -1,
            "friends_count": -1, "verified": 1, "statuses_count": -1}
    steps = [
        ("user has type list", rec, "user", user),
        ("id has type float", rec, "id", "1"),
        ("id has type float", user, "id", "u1"),
        ("text has type int", rec, "text", "hello"),
        ("created_at has type int", rec, "created_at", "2017-12-30T12:00:00Z"),
        ("created_at has type int", user, "created_at", "yesterday"),
        ("screen_name has type int", user, "screen_name", "sn"),
        ("followers_count out of range: -1", user, "followers_count", 1),
        ("friends_count out of range: -1", user, "friends_count", 2),
        ("verified has type int", user, "verified", False),
        ("statuses_count out of range: -1", user, "statuses_count", 3),
        ("unparseable timestamp 'yesterday'", user, "created_at", "2015-01-01T00:00:00Z"),
        ("source has type int", rec, "source", ""),
    ]
    for message, target, key, mended in steps:
        with pytest.raises(MalformedRecordError) as err:
            parse_record(rec)
        assert str(err.value) == message
        target[key] = mended
    t, author = parse_record(rec)
    assert (t.id, t.author_id, author.followers, author.friends) == ("1", "u1", 1, 2)


def test_parse_record_accepts_int_ids_and_null_defaults():
    rec = record(i=42, account=7, source=None)
    rec["user"].update(verified=None, screen_name=None, created_at=None)
    t, author = parse_record(rec)
    assert (t.id, t.author_id) == ("42", "7")
    assert author.verified is False
    assert author.account_created_at == t.created_at
    assert t.source_app == "unknown"
    assert parse_record(record(verified=True))[1].verified is True
    assert parse_record(record(followers=2**63 - 1))[1].followers == 2**63 - 1


edge_values = st.sampled_from([
    True, False, 0, -1, 12.7, float("inf"), float("nan"), 2**63, 10**400, "", "false",
    "RT @x", "2017-12-30T12:00:00Z", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | edge_values
    | st.builds(lambda dt, tz: dt.isoformat() + tz, st.datetimes(),
                st.sampled_from(["", "Z", "+01:00", "-23:59"])),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)
TOP_FIELDS = ("id", "text", "created_at", "source", "user",
              "retweeted_status", "retweeted_status_id")
USER_FIELDS = ("id", "screen_name", "followers_count", "friends_count",
               "verified", "statuses_count", "created_at")
edits = st.lists(st.tuples(st.booleans(), st.integers(0, 6), edge_values | json_values),
                 min_size=1, max_size=4)


def _parses_or_is_malformed(value):
    try:
        t, author = parse_record(value)
    except MalformedRecordError:
        return
    assert isinstance(t.id, str) and isinstance(t.author_id, str)
    assert isinstance(author.verified, bool)
    assert all(type(n) is int and n >= 0 for n in
               (author.followers, author.friends, author.statuses_total))


@given(json_values)
def test_parse_record_arbitrary_json_raises_only_malformed(value):
    _parses_or_is_malformed(value)


@settings(max_examples=500)
@given(edits)
def test_parse_record_edited_fields_raise_only_malformed(changes):
    rec = record(account_created="2015-01-01T00:00:00Z")
    for in_user, k, value in changes:
        if in_user and isinstance(rec.get("user"), dict):
            rec["user"][USER_FIELDS[k]] = value
        else:
            rec[TOP_FIELDS[k]] = value
    _parses_or_is_malformed(rec)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_three_valid_lines(tmp_path):
    path = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", account="a"), record(i="2", account="b"), record(i="3", account="a"),
    ])
    corpus = ingest(path)
    assert len(corpus) == 3
    assert set(corpus.accounts) == {"a", "b"}
    assert corpus.skipped_count == 0


def test_ingest_lenient_skips_malformed(tmp_path):
    path = tmp_path / "c.ndjson"
    lines = [json.dumps(record(i="1")), "{not json", json.dumps(record(i="2"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = ingest(path, LENIENT)
    assert len(corpus) == 2
    assert corpus.skipped_count == 1


def test_ingest_strict_names_line(tmp_path):
    path = tmp_path / "c.ndjson"
    lines = [json.dumps(record(i="1")), json.dumps(record(i="2")), "{broken"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 3"):
        ingest(path, STRICT)


def test_ingest_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.ndjson"
    body = json.dumps(record(i="1")) + "\n\n   \n" + json.dumps(record(i="2")) + "\n"
    path.write_text(body, encoding="utf-8")
    corpus = ingest(path, STRICT)
    assert len(corpus) == 2
    assert corpus.skipped_count == 0


def test_ingest_duplicate_ids_last_wins(tmp_path):
    path = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", text="first"), record(i="1", text="second"),
    ])
    corpus = ingest(path)
    assert len(corpus) == 1
    assert corpus.duplicate_count == 1
    assert corpus.texts[0] == "second"


def test_ingest_empty_corpus(tmp_path):
    path = tmp_path / "c.ndjson"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        ingest(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(OSError):
        ingest(tmp_path / "nope.ndjson")


def test_ingest_rejects_unknown_strictness(tmp_path):
    path = write_ndjson(tmp_path / "c.ndjson", [record()])
    with pytest.raises(ValueError):
        ingest(path, "casual")


def test_ingest_checks_rate_basis_before_reading(tmp_path):
    with pytest.raises(ValueError, match="rate basis"):
        ingest(tmp_path / "missing.ndjson", rate_basis="bogus")


def _line(**kw) -> bytes:
    return json.dumps(record(**kw)).encode("utf-8")


BAD_LINES = {
    "bad_utf8_byte": b"\xff",
    "bad_utf8_in_text": _line(i="x", text="cafe").replace(b"cafe", b"caf\xe9"),
    "count_overflow": _line(i="x", followers=12345).replace(b"12345", b"1e400"),
    # one past what ingest's int64 count columns hold
    **{f"{field}_past_int64": _line(i="x", **{field: 2**63})
       for field in ("followers", "friends", "statuses")},
    "timestamp_overflow": _line(i="x", created_at="0001-01-01T00:00:00+01:00"),
    "int_past_digit_limit": b'{"id": ' + b"1" * 5000 + b"}",
    "deep_nesting": b"[" * 100_000,
    "lone_surrogate_id": _line(i="\ud800"),
    # screen names are not kept, but one that is not a string still fails its record
    **{f"screen_name_{type(v).__name__}": _line(i="x", screen_name=v)
       for v in (7, True, 1.5, ["sn"], {"name": "sn"})},
}


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_ingest_lenient_skips_and_counts_bad_line(tmp_path, bad):
    path = tmp_path / "c.ndjson"
    path.write_bytes(b"\n".join([_line(i="1"), bad, _line(i="2")]) + b"\n")
    corpus = ingest(path, LENIENT)
    assert [t.id for t in corpus.tweets] == ["1", "2"]
    assert corpus.skipped_count == 1


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_ingest_strict_names_bad_line(tmp_path, bad):
    path = tmp_path / "c.ndjson"
    path.write_bytes(b"\n".join([_line(i="1"), bad, _line(i="2")]) + b"\n")
    with pytest.raises(MalformedRecordError, match=r"^line 2: "):
        ingest(path, STRICT)


def test_ingest_crlf_and_utf8_text(tmp_path):
    path = tmp_path / "c.ndjson"
    path.write_bytes(_line(i="1") + b"\r\n" + _line(i="2", text="Tehran café ☕") + b"\r\n")
    corpus = ingest(path, STRICT)
    assert [t.text for t in corpus.tweets] == ["hello world", "Tehran café ☕"]


def test_ingest_deterministic(tmp_path):
    recs = [record(i=str(k), account=f"a{k % 3}", minutes=k) for k in range(20)]
    p1 = write_ndjson(tmp_path / "one.ndjson", recs)
    p2 = write_ndjson(tmp_path / "two.ndjson", recs)
    c1, c2 = ingest(p1), ingest(p2)
    assert tuple(c1.tweets) == tuple(c2.tweets)
    assert c1.accounts == c2.accounts
    assert [t.id for t in c1.tweets] == [str(k) for k in range(20)]  # order preserved


def test_ingest_high_follower_account_fixture(tmp_path):
    path = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", account="dw", screen_name="Davewellwisher",
               followers=27374, friends=15854,
               source='<a href="http://ifttt.com">IFTTT</a>'),
    ])
    corpus = ingest(path)
    stats = corpus.accounts["dw"]
    assert stats.followers == 27374
    assert stats.friends == 15854
    assert corpus.source_apps[0] == "IFTTT"


_EDGE_COUNTS = [0, 256, 257, 2**31, 2**63 - 1]  # cached, uncached, 32-bit, int64 max


def test_counts_reach_account_stats_as_exact_ints(tmp_path):
    # the counts pass through int64 arrays in ingest and tuples in build_corpus
    recs = [record(i=str(k), account=f"a{k}", followers=n, friends=_EDGE_COUNTS[-1 - k],
                   statuses=n) for k, n in enumerate(_EDGE_COUNTS)]
    for corpus in (ingest(write_ndjson(tmp_path / "c.ndjson", recs)), corpus_of(*recs)):
        stats = [corpus.accounts[f"a{k}"] for k in range(len(_EDGE_COUNTS))]
        counts = [(s.followers, s.friends, s.statuses_total) for s in stats]
        assert counts == [(n, _EDGE_COUNTS[-1 - k], n) for k, n in enumerate(_EDGE_COUNTS)]
        assert all(type(c) is int for row in counts for c in row)


def test_ingest_one_line_per_chunk_gives_the_same_corpus(default_synth):
    corpus = ingest(default_synth[0])
    with mock.patch.object(corpus_mod, "_CHUNK_HINT", 1):
        per_line = ingest(default_synth[0])
    assert per_line.tweets.columns == corpus.tweets.columns
    assert per_line.accounts.columns == corpus.accounts.columns
    assert ((per_line.skipped_count, per_line.duplicate_count, per_line.span_start,
             per_line.span_end)
            == (corpus.skipped_count, corpus.duplicate_count, corpus.span_start,
                corpus.span_end))


def test_ingest_keeps_non_ascii_tweet_ids_and_composes_text(tmp_path):
    # ids are kept as written, NFD ones too; only texts are NFC-normalized
    ids = ["tw\u00e9", "\U0001f642", "twe\u0301", "1"]
    texts = ["cafe\u0301", "\U0001f642 twe\u0301", "hello", "caf\u00e9"]
    path = write_ndjson(tmp_path / "c.ndjson", map(record, ids, texts))
    corpus = ingest(path, STRICT)
    assert list(corpus.ids) == ids
    assert list(corpus.texts) == ["caf\u00e9", "\U0001f642 tw\u00e9", "hello", "caf\u00e9"]
    detection = classify(corpus)
    write_classifications(tmp_path / "c.csv", "f", detection, "csv")
    write_classifications(tmp_path / "c.jsonl", "f", detection, "jsonl")
    with open(tmp_path / "c.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    assert [row[0] for row in rows] == ids
    lines = (tmp_path / "c.jsonl").read_text("utf-8").splitlines()
    assert [json.loads(line)["tweet_id"] for line in lines] == ids


# ---------------------------------------------------------------------------
# account aggregates / rates
# ---------------------------------------------------------------------------

def test_rate_corpus_window_24h():
    # 12 tweets from one account; a second account pins the span to 24 h
    recs = [record(i=str(k), account="busy", minutes=k) for k in range(12)]
    recs += [record(i="edge0", account="quiet", minutes=0),
             record(i="edge1", account="quiet", minutes=24 * 60)]
    corpus = corpus_of(*recs)
    assert corpus.span_days == pytest.approx(1.0)
    assert corpus.accounts["busy"].tweets_per_day == pytest.approx(12.0)


def test_rate_lifetime_basis():
    corpus = corpus_of(record(statuses=7300, account_created="2016-12-30T12:00:00Z"),
                       rate_basis=RATE_LIFETIME)
    stats = corpus.accounts["u1"]
    assert stats.tweets_per_day == pytest.approx(7300 / 365)
    assert stats.tweets_per_day == pytest.approx(20.0)


def test_rate_lifetime_minimum_one_day():
    # account born at the tweet instant: age clamps to 1 day
    corpus = corpus_of(record(statuses=50), rate_basis=RATE_LIFETIME)
    assert corpus.accounts["u1"].tweets_per_day == pytest.approx(50.0)


def test_latest_snapshot_wins():
    corpus = corpus_of(record(i="1", minutes=0, followers=100),
                       record(i="2", minutes=5, followers=110))
    assert corpus.accounts["u1"].followers == 110


def test_latest_snapshot_wins_out_of_time_order():
    corpus = corpus_of(record(i="1", minutes=5, followers=110),
                       record(i="2", minutes=0, followers=100),
                       record(i="3", minutes=1, account="u2"))
    assert corpus.accounts["u1"].followers == 110
    assert list(corpus.accounts) == ["u1", "u2"]


def test_latest_snapshot_position_breaks_timestamp_tie():
    corpus = corpus_of(record(i="1", minutes=0, followers=100),
                       record(i="2", minutes=0, followers=110))
    assert corpus.accounts["u1"].followers == 110


def test_account_tweet_counts_partition_corpus():
    recs = [record(i=str(k), account=f"a{k % 4}", minutes=k) for k in range(17)]
    corpus = corpus_of(*recs)
    assert sum(s.tweets_in_corpus for s in corpus.accounts.values()) == len(corpus)


def test_span_floor_one_hour():
    corpus = corpus_of(record(i="1", minutes=0), record(i="2", minutes=1))
    assert corpus.span_days == pytest.approx(1 / 24)
    # 2 tweets over the floored hour
    assert corpus.accounts["u1"].tweets_per_day == pytest.approx(48.0)


def test_build_corpus_empty():
    with pytest.raises(EmptyCorpusError):
        build_corpus(())


def test_build_corpus_rejects_ragged_columns_and_a_wrong_column_count():
    columns = columns_of([parse_record(record()), parse_record(record(i="2"))])
    with pytest.raises(ValueError, match="unequal length"):
        build_corpus([*columns[:-1], columns[-1][:1]])
    with pytest.raises(ValueError, match="unequal length"):
        build_corpus([columns[0][:1], *columns[1:]])
    # the last is the layout that had a screen-name column before the counts
    for wrong in (columns[:-1], [*columns, columns[-1]],
                  [*columns[:6], ("user1", "user1"), *columns[6:]]):
        with pytest.raises(ValueError, match="not one per field"):
            build_corpus(wrong)


# ---------------------------------------------------------------------------
# corpus.tweets: Tweets built from the columns on demand
# ---------------------------------------------------------------------------

view_rows = st.lists(st.tuples(
    st.sampled_from(["hello", "RT @x hello", " café ", "bye"]),
    st.integers(0, 90),                             # minutes
    st.sampled_from(["u1", "u2", "u3"]),
    st.sampled_from([WEB_CLIENT, "Twitter for iPhone", ""]),
), min_size=1, max_size=12)


@given(view_rows)
def test_tweet_view_equals_tuple_of_parse_record_tweets(rows):
    pairs = [parse_record(record(i=f"t{k}", text=text, minutes=minutes, account=account,
                                 source=source))
             for k, (text, minutes, account, source) in enumerate(rows)]
    corpus = build_corpus(columns_of(pairs))
    expected = tuple(tweet for tweet, _ in pairs)
    view = corpus.tweets

    assert len(view) == len(corpus) == len(expected)
    assert tuple(view) == expected and all(type(t) is Tweet for t in view)
    assert (corpus.ids, corpus.texts, corpus.created_at, corpus.source_apps,
            corpus.is_retweet, corpus.author_ids) == tuple(zip(*expected))


def test_ingest_keeps_no_tracked_object_per_tweet(default_synth):
    gc.collect()
    before = len(gc.get_objects())
    corpus = ingest(default_synth[0])
    gc.collect()
    growth = len(gc.get_objects()) - before
    assert growth < len(corpus) / 10
    assert growth < len(corpus.accounts) / 10  # none per account either


# ---------------------------------------------------------------------------
# corpus.accounts: AccountStats built from the per-account columns on demand
# ---------------------------------------------------------------------------

@given(view_rows)
def test_account_view_is_a_mapping_of_account_stats(rows):
    corpus = build_corpus(columns_of(
        parse_record(record(i=f"t{k}", text=text, minutes=minutes, account=account,
                            followers=minutes))
        for k, (text, minutes, account, _) in enumerate(rows)))
    view = corpus.accounts
    as_dict = dict(view.items())

    assert view == as_dict and as_dict == view and not view != as_dict
    assert list(view) == list(dict.fromkeys(corpus.author_ids)) == list(view.keys())
    assert list(view.values()) == list(as_dict.values()) == [view[a] for a in view]
    assert len(view) == len(view.values()) == len(as_dict)
    assert all(type(s) is AccountStats and s.account_id == a for a, s in as_dict.items())
    assert tuple(zip(*as_dict.values())) == view.columns
    assert (corpus.author_ids[0] in view and "nobody" not in view
            and as_dict[corpus.author_ids[0]] in view.values())
    with pytest.raises(KeyError):
        view["nobody"]
    assert view.get("nobody") is None
    if len(view) > 1:
        assert view != dict(list(as_dict.items())[1:])


# ---------------------------------------------------------------------------
# ingest reuses the parse of a tweet time equal to the previous record's, and
# parses each distinct account time and source once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("minutes", [[0, 0, 0], [0, 5, 0], [0, 0, 5, 5, 0]],
                         ids=["equal", "A_B_A", "A_A_B_B_A"])
def test_ingest_tweet_times_equal_parse_timestamp(tmp_path, minutes):
    recs = [record(i=str(k), minutes=m) for k, m in enumerate(minutes)]
    corpus = ingest(write_ndjson(tmp_path / "c.ndjson", recs), STRICT)
    assert corpus.created_at == tuple(parse_timestamp(r["created_at"]) for r in recs)


def test_ingest_reports_a_malformed_time_on_every_line(tmp_path):
    bad = [record(i="1"), record(i="2")]
    for rec in bad:
        rec["created_at"] = "yesterday"
    path = write_ndjson(tmp_path / "c.ndjson", bad + [record(i="3")])
    corpus = ingest(path, LENIENT)
    assert list(corpus.ids) == ["3"]
    assert corpus.skipped_count == 2
    with pytest.raises(MalformedRecordError) as alone:
        parse_record(bad[0])
    with pytest.raises(MalformedRecordError) as strict:
        ingest(path, STRICT)
    assert str(strict.value) == f"line 1: {alone.value}"


_TIME_SUFFIXES = ("", "Z", "+00:00", "-00:00", "+01:00", "-23:59")
# the legacy spelling, garbage, and offsets that move an instant out of datetime's range
_FIXED_TIMES = ("Sat Dec 30 13:08:45 +0000 2017", "yesterday",
                "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00")
time_spellings = st.one_of(
    st.builds(lambda dt, suffix: dt.isoformat() + suffix,
              st.datetimes(), st.sampled_from(_TIME_SUFFIXES)),
    st.sampled_from(_FIXED_TIMES))
# a few spellings, drawn again and again, so that records share and repeat times
tweet_times = st.lists(time_spellings, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


def _parse_or_error(raw):
    try:
        return parse_timestamp(raw)
    except MalformedRecordError as exc:
        return exc


@example(times=["2017-12-30T13:08:45+01:00"] * 2 + ["2017-12-30T13:08:45"])
@example(times=["0001-01-01T00:00:00+01:00", "0001-01-01T00:00:00+01:00", "yesterday"])
@given(tweet_times)
def test_ingest_tweet_times_are_parse_timestamp(tmp_path_factory, times):
    recs = [record(i=str(k)) for k in range(len(times))]
    for rec, raw in zip(recs, times):
        rec["created_at"] = raw
    path = write_ndjson(tmp_path_factory.mktemp("times") / "c.ndjson", recs)
    parsed = [_parse_or_error(raw) for raw in times]
    kept = [dt for dt in parsed if isinstance(dt, datetime)]
    if kept:
        corpus = ingest(path, LENIENT)
        assert corpus.created_at == tuple(kept)
        assert all(dt.tzinfo is timezone.utc for dt in corpus.created_at)
        assert corpus.skipped_count == len(parsed) - len(kept)
    else:
        with pytest.raises(EmptyCorpusError):
            ingest(path, LENIENT)
    bad = [k for k, dt in enumerate(parsed) if not isinstance(dt, datetime)]
    if bad:
        with pytest.raises(MalformedRecordError) as alone:
            parse_record(recs[bad[0]])
        with pytest.raises(MalformedRecordError) as strict:
            ingest(path, STRICT)
        assert str(strict.value) == f"line {bad[0] + 1}: {alone.value}"
    else:
        assert ingest(path, STRICT).created_at == tuple(kept)


def test_ingest_tries_fromisoformat_once_per_new_time(tmp_path):
    # v1.1 and offset times leave the inline ISO path, and are not tried again
    times = ["Sat Dec 30 13:08:45 +0000 2017", "Sat Dec 30 13:08:45 +0000 2017",
             "Sat Dec 30 14:08:45 +0100 2017", "2017-12-30T13:08:45+01:00",
             "2017-12-30T13:08:45+01:00", "Sun Dec 31 00:00:00 -0500 2017",
             "Sat Dec 30 13:08:45 +0000 2017", "2017-12-30T13:08:45Z"]
    recs = [record(i=str(k)) for k in range(len(times))]  # no account time to parse
    for rec, raw in zip(recs, times):
        rec["created_at"] = raw
    path = write_ndjson(tmp_path / "c.ndjson", recs)
    want = tuple(map(parse_timestamp, times))
    new_times = sum(raw != prev for raw, prev in zip(times, [None] + times))
    with mock.patch.object(corpus_mod, "_fromisoformat", wraps=datetime.fromisoformat) as iso:
        corpus = ingest(path, STRICT)
    assert iso.call_count == new_times == 6
    assert corpus.created_at == want
    assert all(dt.tzinfo is timezone.utc for dt in corpus.created_at)


def test_parser_keeps_no_tweet_time():
    # tweet times are nearly all distinct, so only account times are kept
    parser = _Parser()
    for k in range(50):
        parser.parse(record(i=str(k), minutes=k, account_created="2015-01-01T00:00:00Z"))
    assert len(parser._timestamps) == 1


@pytest.mark.parametrize("changes", [{"verified": 1}, {"followers_count": 5.0}],
                         ids=["verified_1", "followers_5.0"])
def test_ingest_skips_retyped_user_after_equal_valid_one(tmp_path, changes):
    # True == 1 and 5 == 5.0, but only the first of each is valid JSON input
    good = record(i="1", verified=True, followers=5)
    bad = record(i="2", verified=True, followers=5)
    bad["user"].update(changes)
    path = write_ndjson(tmp_path / "c.ndjson", [good, bad])
    corpus = ingest(path, LENIENT)
    assert [t.id for t in corpus.tweets] == ["1"]
    assert corpus.skipped_count == 1
    with pytest.raises(MalformedRecordError) as alone:
        parse_record(bad)
    with pytest.raises(MalformedRecordError) as strict:
        ingest(path, STRICT)
    assert str(strict.value) == f"line 2: {alone.value}"


def test_ingest_author_without_created_at_takes_each_tweet_time(tmp_path):
    path = write_ndjson(tmp_path / "c.ndjson", [record(i="1", account="a", minutes=0),
                                                record(i="2", account="b", minutes=30)])
    corpus = ingest(path)
    first, second = corpus.tweets
    assert corpus.accounts["a"].account_created_at == first.created_at
    assert corpus.accounts["b"].account_created_at == second.created_at


_U1 = {"id": "u1", "screen_name": "a", "followers_count": 10, "friends_count": 20,
       "verified": False, "statuses_count": 100, "created_at": "2015-01-01T00:00:00Z"}
ORACLE_USERS = [  # the valid payloads, then the malformed ones
    _U1,
    dict(_U1, followers_count=12, statuses_count=101),
    {"id": "u2", "followers_count": 5, "verified": True},  # no created_at: the tweet's
    {"id": 7, "screen_name": None, "verified": None, "created_at": ""},
    dict(_U1, followers_count=10.0),  # equal to _U1 in Python, not in JSON
    dict(_U1, verified=0),
    dict(_U1, statuses_count=-1),
    dict(_U1, screen_name=7),
    {"id": "u4", "created_at": "yesterday"},
    {"id": ["u5"]},
    {"screen_name": "no id"},
]


def _mostly(valid, malformed):
    return st.sampled_from(valid * 4 + malformed)


oracle_items = st.one_of(
    st.fixed_dictionaries({
        "id": _mostly(["1", "2", "3", 4], [True]),
        "text": _mostly(["hello", "RT @x hello", "café"], [3]),
        "created_at": _mostly(["2017-12-30T12:00:00Z", "2017-12-30T12:05:00+01:00",
                               "Sat Dec 30 13:08:45 +0000 2017", "2017-12-30T12:00:00"],
                              ["soon", 1514635200]),
        "source": _mostly([WEB_CLIENT, '<a href="x" rel="nofollow">Q &amp; A</a>',
                           "Twitter for iPhone", "", None], [7]),
        "user": _mostly([0, 1, 2, 3], list(range(4, len(ORACLE_USERS)))),
    }),
    st.sampled_from([[], "not a record", None]))
oracle_lines = st.lists(oracle_items, min_size=1, max_size=25)


def _oracle_reference(lines):
    """ingest done line by line with json.loads and parse_record.

    Returns the (Tweet, AccountSnapshot) pairs by tweet id (the last record
    of an id wins, at the first one's position), the skipped and duplicate
    counts, and the strict-mode error.
    """
    by_id, skipped, duplicates, first_error = {}, 0, 0, None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise MalformedRecordError(f"invalid JSON: {exc}") from None
            pair = parse_record(obj)
        except MalformedRecordError as exc:
            skipped += 1
            first_error = first_error or f"line {lineno}: {exc}"
            continue
        duplicates += pair[0].id in by_id
        by_id[pair[0].id] = pair
    return by_id, skipped, duplicates, first_error


def _assert_ingest_matches_oracle(path, lines):
    by_id, skipped, duplicates, first_error = _oracle_reference(lines)

    if by_id:
        corpus = ingest(path, LENIENT)
        assert tuple(corpus.tweets) == tuple(t for t, _ in by_id.values())
        assert (corpus.skipped_count, corpus.duplicate_count) == (skipped, duplicates)
        # accounts: the latest snapshot by (created_at, position), every tweet
        assert list(corpus.accounts) == list(dict.fromkeys(t.author_id for t in corpus.tweets))
        for acct, stats in corpus.accounts.items():
            own = [(t.created_at, pos, author)
                   for pos, (t, author) in enumerate(by_id.values()) if t.author_id == acct]
            latest = max(own, key=lambda e: e[:2])[2]
            assert (stats.followers, stats.friends, stats.verified,
                    stats.statuses_total, stats.account_created_at) == latest
            assert stats.tweets_in_corpus == len(own)
    else:
        with pytest.raises(EmptyCorpusError):
            ingest(path, LENIENT)

    if first_error is not None:
        with pytest.raises(MalformedRecordError) as strict:
            ingest(path, STRICT)
        assert str(strict.value) == first_error
    elif by_id:
        assert len(ingest(path, STRICT)) == len(by_id)
    else:  # blank lines only
        with pytest.raises(EmptyCorpusError):
            ingest(path, STRICT)


def _assert_ingest_matches_oracle_in_any_chunks(path, lines):
    """The oracle check with the default chunk, then with every line its own
    chunk, so that errors, blank lines and repeated ids fall on chunk edges."""
    _assert_ingest_matches_oracle(path, lines)
    with mock.patch.object(corpus_mod, "_CHUNK_HINT", 1):
        _assert_ingest_matches_oracle(path, lines)


def _write_lines(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("oracle") / "c.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _oracle_line(item) -> str:
    return json.dumps(dict(item, user=ORACLE_USERS[item["user"]])
                      if isinstance(item, dict) else item)


# A duplicated id whose earlier record is the account's latest by created_at
# and carries other counts: that record is replaced (its id stays first), so
# its snapshot must not reach corpus.accounts: followers 10 from user 0 of the
# replacing record, not 12 from user 1.
_REPLACED_LATEST = [
    {"id": "1", "text": "hello", "created_at": "Sat Dec 30 13:08:45 +0000 2017",
     "source": "", "user": 1},
    {"id": "2", "text": "hello", "created_at": "2017-12-30T12:05:00+01:00", "source": "",
     "user": 0},
    {"id": "1", "text": "hello", "created_at": "2017-12-30T12:00:00Z", "source": "", "user": 0},
]


@example(drawn=_REPLACED_LATEST)
@given(oracle_lines)
def test_ingest_equals_parse_record_per_line(tmp_path_factory, drawn):
    lines = [_oracle_line(item) for item in drawn]
    _assert_ingest_matches_oracle_in_any_chunks(_write_lines(tmp_path_factory, lines), lines)


@example(drawn=_REPLACED_LATEST)
@given(oracle_lines)
def test_build_corpus_resolves_repeated_ids_as_ingest(tmp_path_factory, drawn):
    # build_corpus over the parse_record rows of the lines, repeated ids
    # included, is the Corpus ingest makes of those lines
    lines = [_oracle_line(item) for item in drawn]
    pairs = []
    for line in lines:
        try:
            pairs.append(parse_record(json.loads(line)))
        except MalformedRecordError:
            continue
    if not pairs:
        with pytest.raises(EmptyCorpusError):
            build_corpus(columns_of(pairs))
        return
    built = build_corpus(columns_of(pairs))
    ingested = ingest(_write_lines(tmp_path_factory, lines))
    assert built.ids == ingested.ids
    assert built.duplicate_count == ingested.duplicate_count == len(pairs) - len(set(built.ids))
    assert tuple(built.tweets) == tuple(ingested.tweets)
    assert dict(built.accounts.items()) == dict(ingested.accounts.items())


# Text json.loads is touchy about, put around a record line: a BOM, whitespace
# that str.strip removes but JSON does not allow, and trailing garbage.
_PREFIXES = ["", "", "\ufeff", " ", "\t", "\x0c", "\x85", "\xa0", "\u2028", "\x1c"]
_SUFFIXES = ["", "", " ", "\r", "\x0c", "\x85", "\xa0", "\ufeff", " x", "}", "{}", ",",
             " \x85 ]", "\x00"]
_DEEP = 100_000  # far past the recursion limit
touchy_lines = st.lists(st.one_of(
    st.builds(lambda item, pre, post: pre + _oracle_line(item) + post,
              oracle_items, st.sampled_from(_PREFIXES), st.sampled_from(_SUFFIXES)),
    st.sampled_from([
        "[" * _DEEP,
        "[" * _DEEP + "]" * _DEEP,
        _oracle_line(_REPLACED_LATEST[1])[:-1] + ', "x": ' + "[" * _DEEP + "]" * _DEEP + "}",
        _oracle_line(_REPLACED_LATEST[1])[:-1] + ', "x": ' + "[" * 20 + "]" * 20 + "}",
        "\ufeff", "\x85", "\xa0 \x0c", "{} {}", '"text"', "1e400", "NaN",
    ])), min_size=1, max_size=8)


@settings(max_examples=200)
@example(lines=["\ufeff{}"])
@example(lines=["{} x"])
@example(lines=["[" * _DEEP])
@example(lines=["\x85" + _oracle_line(_REPLACED_LATEST[1]) + "\xa0"])
@given(touchy_lines)
def test_ingest_decodes_a_line_exactly_as_json_loads(tmp_path_factory, lines):
    # a line is skipped exactly when json.loads(line.strip()) raises (or the
    # record is malformed), and strict mode reports json.loads's own message
    _assert_ingest_matches_oracle_in_any_chunks(_write_lines(tmp_path_factory, lines), lines)


def test_ingest_calls_json_loads_only_for_a_bad_line(default_synth, tmp_path):
    # json.loads only names a bad line's fault; records decode through scan_once
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join([json.dumps(record()), "{} x", "\ufeff{}"]) + "\n",
                   encoding="utf-8")
    with mock.patch.object(corpus_mod.json, "loads", wraps=json.loads) as loads:
        ingest(default_synth[0])
        assert loads.call_count == 0
        assert ingest(bad).skipped_count == 2
        assert loads.call_count == 2
