"""Shared builders for the test suite."""

import json
import shutil
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import settings

from botminer.corpus import Corpus, build_corpus, parse_record
from botminer.detector import Detection
from botminer.textmine import cooccurrence

BASE = datetime(2017, 12, 30, 12, 0, 0, tzinfo=timezone.utc)
WEB_CLIENT = '<a href="http://twitter.com" rel="nofollow">Twitter Web Client</a>'
BOT_APP = '<a href="http://twittbot.net/" rel="nofollow">twittbot.net</a>'  # on the bundled list

# property tests: the same examples on every run, no per-example time limit
# (timings on a loaded 2-core machine vary too much), no example database
settings.register_profile("botminer", derandomize=True, deadline=None, database=None)
settings.load_profile("botminer")


def record(i="1", text="hello world", minutes=0.0, source=WEB_CLIENT,
           account="u1", screen_name="user1", followers=10, friends=20,
           verified=False, statuses=100, retweet_of=None, account_created=None,
           **extra):
    """One ingestion-format record dict; keyword args override the defaults."""
    rec = {
        "id": i,
        "text": text,
        "created_at": (BASE + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "source": source,
        "user": {
            "id": account,
            "screen_name": screen_name,
            "followers_count": followers,
            "friends_count": friends,
            "verified": verified,
            "statuses_count": statuses,
        },
    }
    if account_created is not None:
        rec["user"]["created_at"] = account_created
    if retweet_of is not None:
        rec["retweeted_status_id"] = retweet_of
    rec.update(extra)
    return rec


def tweet(**kw):
    """The Tweet of one record (parse_record also returns its author snapshot)."""
    return parse_record(record(**kw))[0]


def corpus_of(*recs, rate_basis="corpus-window"):
    return build_corpus(columns_of(map(parse_record, recs)), rate_basis=rate_basis)


def columns_of(pairs):
    """parse_record pairs as build_corpus takes them: one column per field."""
    return list(zip(*(tweet + author for tweet, author in pairs)))


def tweets_of(texts):
    """corpus.tweets of one tweet per text, with ids "0", "1", ...

    The Corpus is built from its columns, so *texts* may be empty, which
    build_corpus does not allow.
    """
    n = len(texts)
    columns = (tuple(map(str, range(n))), tuple(texts), (BASE,) * n, ("web",) * n,
               (False,) * n, ("u1",) * n)
    return Corpus(*columns, {}, BASE, BASE, 0, 0).tweets


def detection_of(classifications):
    """A Detection of *classifications*, each outcome coded first seen first
    as classify codes them; no activity threshold (NaN)."""
    code_of, tweet_ids, codes = {}, [], []
    for c in classifications:
        tweet_ids.append(c.tweet_id)
        codes.append(code_of.setdefault((c.label, c.hits, c.verified_override), len(code_of)))
    return Detection(tuple(tweet_ids), bytes(codes), tuple(code_of), float("nan"))


def doc(*tokens):
    """The token streams of one doc, as cooccurrence takes them; ``+`` joins several."""
    return (tokens,)


def docs_of(token_lists):
    """The token streams of one doc per token list."""
    return tuple(map(tuple, token_lists))


def term_counts(groups):
    """Each group's token counts, the input group_word_sentiment_samples takes."""
    return {key: cooccurrence(streams).term_freq for key, streams in groups.items()}


def write_ndjson(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def default_synth(tmp_path_factory):
    """Default synthetic corpus (500 humans / 25 bots), generated once."""
    from botminer.syngen import SynthConfig, generate

    root = tmp_path_factory.mktemp("synth_default")
    corpus_path = root / "corpus.ndjson"
    truth_path = root / "ground_truth.csv"
    truth = generate(SynthConfig(), corpus_path, truth_path)
    return corpus_path, truth_path, truth


@pytest.fixture(scope="session")
def scale_corpus(tmp_path_factory):
    """The paper-scale corpus (~900k tweets, ~400 MB), generated once, removed at teardown."""
    from botminer.syngen import SynthConfig, generate

    root = tmp_path_factory.mktemp("synth_scale")
    corpus_path = root / "big.ndjson"
    cfg = SynthConfig(seed=13, n_humans=60000, n_bots=3000, bot_rate_mean=200.0)
    generate(cfg, corpus_path, root / "truth.csv")
    yield corpus_path
    shutil.rmtree(root)
