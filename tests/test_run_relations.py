"""Whole-run relations: input changes that must leave the artifacts alone.

Each test draws a small corpus, changes it in one way, runs the whole
pipeline on both, and checks that the artifacts differ only where the change
says they may.  test_golden pins today's bytes; these check that what the run
ignores (line order, id spelling, unused lexicon words, junk lines) it
really ignores.
"""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from botminer.pipeline import PipelineSettings, execute_pipeline
from botminer.textmine import load_lexicon

from conftest import BOT_APP, WEB_CLIENT, record

ACCOUNTS = ("a1", "a2", "a3", "a4", "a5")
# lexicon words of both signs, the two zero words, a stop word, the query
# term, a URL, a hashtag and a mention
WORDS = ("good", "hope", "peace", "bad", "war", "crisis", "people", "news", "video",
         "the", "iran", "http://t.co/x", "#FreeIran", "@someone")
# the bundled lexicon plus a zero polarity of each sign
SIGNED_ZERO_LEXICON = "".join(f"{word}\t{value!r}\n" for word, value in load_lexicon().items())
SIGNED_ZERO_LEXICON += "people\t0.0\nnews\t-0.0\n"
# strings no record ever holds: a name that csv.writer quotes, and non-ASCII
NEW_IDS = st.text(st.sampled_from('xyz,"é '), min_size=1, max_size=4)

# a few runs per example, each a whole pipeline on up to 20 records
relation_settings = settings(max_examples=40)


@st.composite
def drawn_records(draw, distinct_ids=False):
    """Record dicts of a few accounts, at distinct times, in time order.

    Each account keeps a profile (a follower count, a friend count that may be
    near it, a verified flag) that drifts a little from record to record, so
    which snapshot is the latest matters.  Tweet ids repeat unless
    *distinct_ids*.
    """
    profiles = {account: (draw(st.sampled_from((50, 150, 500, 5000))),
                          draw(st.sampled_from((1.0, 1.05, 0.3))),
                          draw(st.sampled_from((False, False, False, True))))
                for account in ACCOUNTS}
    n = draw(st.integers(2, 20))
    records = []
    for k in range(n):
        account = draw(st.sampled_from(ACCOUNTS))
        followers, friend_share, verified = profiles[account]
        followers += draw(st.integers(0, 3))
        records.append(record(
            i=f"t{k}" if distinct_ids else f"t{draw(st.integers(0, n - 1))}",
            text=" ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))),
            minutes=k, account=account, source=draw(st.sampled_from((WEB_CLIENT, BOT_APP))),
            followers=followers, friends=round(followers * friend_share), verified=verified,
            statuses=100 + k, retweet_of=draw(st.sampled_from((None, None, "t0")))))
    return records


def _lines(records) -> list:
    return [json.dumps(rec) + "\n" for rec in records]


def _run(lines, lexicon: str = SIGNED_ZERO_LEXICON):
    """The artifacts (file name -> bytes) of a run on *lines*."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.ndjson").write_bytes(b"".join(
            line if isinstance(line, bytes) else line.encode("utf-8") for line in lines))
        (root / "lexicon.tsv").write_text(lexicon, encoding="utf-8")
        execute_pipeline(root / "corpus.ndjson", root / "out",
                         PipelineSettings(lexicon_path=root / "lexicon.tsv"))
        return {path.name: path.read_bytes() for path in (root / "out").iterdir()}


def _without(artifacts, name):
    return {k: v for k, v in artifacts.items() if k != name}


def _classification_rows(artifacts) -> list:
    return list(csv.reader(artifacts["classifications.csv"].decode("utf-8").splitlines()))


# blank lines, and lines that are no record: not JSON, not an object, a record
# missing its fields, a wrong field type, bad UTF-8
BLANK_LINES = ("\n", "  \t\n")
MALFORMED_LINES = ("{not json\n", "[1, 2]\n", '{"id": "t0"}\n', b"\xff\xfe{}\n",
                   json.dumps(record(i="t0", followers="10")) + "\n")


@relation_settings
@given(drawn_records(), st.lists(st.tuples(st.integers(0, 20),
                                           st.sampled_from(BLANK_LINES + MALFORMED_LINES))))
def test_junk_lines_change_only_skipped_records(records, junk):
    lines = _lines(records)
    base = _run(lines)
    for at, line in sorted(junk, key=lambda pair: pair[0], reverse=True):
        lines.insert(at, line)
    got = _run(lines)
    assert _without(got, "run_summary.json") == _without(base, "run_summary.json")
    report = json.loads(base["run_summary.json"])
    report["corpus"]["skipped_records"] = sum(line not in BLANK_LINES for _, line in junk)
    assert json.loads(got["run_summary.json"]) == report


@relation_settings
@given(drawn_records(), st.lists(NEW_IDS, min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
                                 unique=True))
def test_renaming_accounts_changes_no_artifact(records, new_ids):
    rename = dict(zip(ACCOUNTS, new_ids))
    renamed = [{**rec, "user": {**rec["user"], "id": rename[rec["user"]["id"]]}}
               for rec in records]
    assert _run(_lines(renamed)) == _run(_lines(records))


@relation_settings
@given(drawn_records(), st.lists(NEW_IDS, min_size=20, max_size=20, unique=True))
def test_renaming_tweets_changes_only_the_id_column(records, new_ids):
    rename = dict(zip((f"t{k}" for k in range(20)), new_ids))
    base = _run(_lines(records))
    got = _run(_lines({**rec, "id": rename[rec["id"]]} for rec in records))
    assert _without(got, "classifications.csv") == _without(base, "classifications.csv")
    base_rows, got_rows = _classification_rows(base), _classification_rows(got)
    assert got_rows[:2] == base_rows[:2]  # the fingerprint and the header
    assert got_rows[2:] == [[rename[tweet_id], *rest] for tweet_id, *rest in base_rows[2:]]


@relation_settings
@given(drawn_records(), st.lists(st.sampled_from(("unheard", "absent", "@nobody", "#nobody")),
                                 min_size=1, unique=True),
       st.sampled_from((-1.5, 0.0, 0.25)))
def test_unused_lexicon_words_change_only_the_fingerprint(records, words, value):
    lines = _lines(records)
    base = _run(lines)
    got = _run(lines, SIGNED_ZERO_LEXICON + "".join(f"{word}\t{value}\n" for word in words))
    fingerprints = [json.loads(run["run_summary.json"])["config_fingerprint"]
                    for run in (base, got)]
    assert fingerprints[0] != fingerprints[1]
    for name, data in base.items():
        assert got[name].replace(fingerprints[1].encode(), fingerprints[0].encode()) == data


@relation_settings
@given(drawn_records(distinct_ids=True), st.randoms(use_true_random=False))
def test_permuting_lines_changes_only_the_classification_order(records, random):
    lines = _lines(records)
    base = _run(lines)
    random.shuffle(lines)
    got = _run(lines)
    assert _without(got, "classifications.csv") == _without(base, "classifications.csv")
    base_rows, got_rows = _classification_rows(base), _classification_rows(got)
    assert got_rows[:2] == base_rows[:2]
    assert sorted(got_rows[2:]) == sorted(base_rows[2:])
