"""Ingestion, record parsing, and per-account aggregation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botminer.corpus import (
    LENIENT,
    RATE_LIFETIME,
    STRICT,
    account_stats,
    build_corpus,
    extract_source_app,
    ingest,
    parse_record,
    parse_timestamp,
)
from botminer.errors import EmptyCorpusError, MalformedRecordError

from conftest import WEB_CLIENT, corpus_of, record, tweet, write_ndjson


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


def test_parse_timestamp_garbage():
    with pytest.raises(MalformedRecordError):
        parse_timestamp("yesterday-ish")


def test_parse_record_roundtrip():
    t = tweet(i="42", text="hello", account="a9", screen_name="sn",
              followers=7, friends=3, statuses=55)
    assert t.id == "42"
    assert t.author_id == "a9"
    assert t.author.screen_name == "sn"
    assert (t.author.followers, t.author.friends, t.author.statuses_total) == (7, 3, 55)
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
    t = parse_record(rec)
    assert t.author.followers == 0
    assert t.author.friends == 0


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


def test_user_created_defaults_to_tweet_time():
    t = tweet()
    assert t.author.account_created_at == t.created_at
    t2 = tweet(account_created="2015-01-01T00:00:00Z")
    assert t2.author.account_created_at.year == 2015


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


def test_parse_record_accepts_int_ids_and_null_defaults():
    rec = record(i=42, account=7, source=None)
    rec["user"].update(verified=None, screen_name=None, created_at=None)
    t = parse_record(rec)
    assert (t.id, t.author_id) == ("42", "7")
    assert t.author.verified is False
    assert t.author.screen_name == ""
    assert t.author.account_created_at == t.created_at
    assert (t.source_raw, t.source_app) == ("", "unknown")
    assert tweet(verified=True).author.verified is True
    assert tweet(followers=2**63 - 1).author.followers == 2**63 - 1


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
        t = parse_record(value)
    except MalformedRecordError:
        return
    assert isinstance(t.id, str) and isinstance(t.author_id, str)
    assert isinstance(t.author.verified, bool)
    assert all(type(n) is int and n >= 0 for n in
               (t.author.followers, t.author.friends, t.author.statuses_total))


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
    assert corpus.tweets[0].text == "second"


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


def _line(**kw) -> bytes:
    return json.dumps(record(**kw)).encode("utf-8")


BAD_LINES = {
    "bad_utf8_byte": b"\xff",
    "bad_utf8_in_text": _line(i="x", text="cafe").replace(b"cafe", b"caf\xe9"),
    "count_overflow": _line(i="x", followers=12345).replace(b"12345", b"1e400"),
    "timestamp_overflow": _line(i="x", created_at="0001-01-01T00:00:00+01:00"),
    "int_past_digit_limit": b'{"id": ' + b"1" * 5000 + b"}",
    "deep_nesting": b"[" * 100_000,
    "lone_surrogate_id": _line(i="\ud800"),
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
    assert c1.tweets == c2.tweets
    assert c1.accounts == c2.accounts
    assert [t.id for t in c1.tweets] == [str(k) for k in range(20)]  # order preserved


def test_ingest_high_follower_account_fixture(tmp_path):
    path = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", account="dw", screen_name="Davewellwisher",
               followers=27374, friends=15854,
               source='<a href="http://ifttt.com">IFTTT</a>'),
    ])
    stats = ingest(path).accounts["dw"]
    assert stats.followers == 27374
    assert stats.friends == 15854
    assert stats.sources_used == frozenset({"IFTTT"})


# ---------------------------------------------------------------------------
# account_stats / rates
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


def test_account_stats_rebasis():
    corpus = corpus_of(record(statuses=7300, account_created="2016-12-30T12:00:00Z"))
    assert account_stats(corpus) is corpus.accounts
    relifed = account_stats(corpus, RATE_LIFETIME)
    assert relifed["u1"].tweets_per_day == pytest.approx(20.0)


def test_build_corpus_empty():
    with pytest.raises(EmptyCorpusError):
        build_corpus(())


def test_sources_used_collects_all_apps():
    corpus = corpus_of(
        record(i="1", source='<a href="h">IFTTT</a>'),
        record(i="2", minutes=1, source="Twitter for iPhone"),
        record(i="3", minutes=2, source=""),
    )
    assert corpus.accounts["u1"].sources_used == frozenset(
        {"IFTTT", "Twitter for iPhone", "unknown"})


# ---------------------------------------------------------------------------
# ingest parses each distinct timestamp and source once
# ---------------------------------------------------------------------------

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
    path = write_ndjson(tmp_path / "c.ndjson",
                        [record(i="1", minutes=0), record(i="2", minutes=30)])
    first, second = ingest(path).tweets
    assert first.author.account_created_at == first.created_at
    assert second.author.account_created_at == second.created_at


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
    {"id": "u4", "created_at": "yesterday"},
    {"id": ["u5"]},
    {"screen_name": "no id"},
]


def _mostly(valid, malformed):
    return st.sampled_from(valid * 4 + malformed)


oracle_lines = st.lists(st.one_of(
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
    st.sampled_from([[], "not a record", None])), min_size=1, max_size=25)


def _oracle_reference(lines):
    """ingest done line by line with parse_record.

    Returns the tweets by id (the last record of an id wins), the skipped
    and duplicate counts, and the strict-mode error.
    """
    by_id, skipped, duplicates, first_error = {}, 0, 0, None
    for lineno, line in enumerate(lines, start=1):
        obj = json.loads(line)
        try:
            tweet = parse_record(obj)
        except MalformedRecordError as exc:
            skipped += 1
            first_error = first_error or f"line {lineno}: {exc}"
            continue
        duplicates += tweet.id in by_id
        by_id[tweet.id] = tweet
    return by_id, skipped, duplicates, first_error


@given(oracle_lines)
def test_ingest_equals_parse_record_per_line(tmp_path_factory, drawn):
    lines = [json.dumps(dict(item, user=ORACLE_USERS[item["user"]])
                        if isinstance(item, dict) else item) for item in drawn]
    path = tmp_path_factory.mktemp("oracle") / "c.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    by_id, skipped, duplicates, first_error = _oracle_reference(lines)

    if by_id:
        corpus = ingest(path, LENIENT)
        assert corpus.tweets == tuple(by_id.values())
        assert (corpus.skipped_count, corpus.duplicate_count) == (skipped, duplicates)
        # accounts: the latest snapshot by (created_at, position), every tweet, every app
        for acct, stats in corpus.accounts.items():
            own = [(t.created_at, pos, t) for pos, t in enumerate(corpus.tweets)
                   if t.author_id == acct]
            latest = max(own, key=lambda e: e[:2])[2].author
            assert (stats.followers, stats.statuses_total, stats.verified) == (
                latest.followers, latest.statuses_total, latest.verified)
            assert stats.tweets_in_corpus == len(own)
            assert stats.sources_used == {t.source_app for _, _, t in own}
    else:
        with pytest.raises(EmptyCorpusError):
            ingest(path, LENIENT)

    if first_error is None:
        assert len(ingest(path, STRICT)) == len(by_id)
    else:
        with pytest.raises(MalformedRecordError) as strict:
            ingest(path, STRICT)
        assert str(strict.value) == first_error
