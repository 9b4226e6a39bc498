"""Acceptance gate: one test per release criterion, each with its runtime budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; add ``-s`` to see the measured numbers.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import botminer
from botminer.corpus import ingest
from botminer.detector import (
    ActivityStrategy,
    Classification,
    DetectorConfig,
    Label,
    Rule,
    activity_rule,
    activity_threshold,
    classify,
    duplicate_rule,
    group_summary,
    ratio_rule,
    source_rule,
)
from botminer.pipeline import execute_pipeline
from botminer.stats import LINEAR, ks_two_sample, quantile
from botminer.syngen import SynthConfig, evaluate_detection, generate, load_ground_truth
from botminer.textmine import TokenizedDoc, build_vocab, cooccurrence, tfidf_weight

from conftest import corpus_of, record, tweet


def stats_of(followers=10, friends=10, rate=1.0):
    from datetime import datetime, timezone

    from botminer.corpus import AccountStats

    return AccountStats(
        account_id="a", screen_name="a", followers=followers, friends=friends,
        verified=False, statuses_total=0, tweets_in_corpus=1, tweets_per_day=rate,
        account_created_at=datetime(2017, 1, 1, tzinfo=timezone.utc))


def test_criterion_1_detector_examples():
    """Every detector example behaves exactly as documented, in under 1 s."""
    t0 = time.perf_counter()
    cfg = DetectorConfig()

    # source rule
    assert source_rule(tweet(source='<a href="x">twittbot</a>'), cfg).rule is Rule.SOURCE
    assert source_rule(tweet(source='<a href="x">Twitter for iPhone</a>'), cfg) is None
    ifttt_only = DetectorConfig(suspicious_sources=frozenset({"ifttt"}))
    assert source_rule(tweet(source='<a href="x">IFTTT</a>'), ifttt_only) is not None

    # ratio rule (follower/friend pairs from high- and low-skew accounts)
    assert ratio_rule(stats_of(followers=7492, friends=7841), cfg) is not None
    assert ratio_rule(stats_of(followers=27374, friends=15854), cfg) is None
    assert ratio_rule(stats_of(followers=50, friends=50), cfg) is None

    # activity threshold, both strategies
    assert activity_threshold(range(1, 101), cfg) == 95
    iqr_cfg = DetectorConfig(activity_strategy=ActivityStrategy.IQR_FENCE)
    assert activity_threshold(range(1, 11), iqr_cfg) == pytest.approx(14.5)
    assert activity_threshold([5, 5, 5, 5], cfg) == 5
    assert activity_threshold([5, 5, 5, 5], iqr_cfg) == pytest.approx(5.0)

    # activity rule is strictly greater-than
    assert activity_rule(stats_of(rate=1082), 165) is not None
    assert activity_rule(stats_of(rate=165), 165) is None
    assert activity_rule(stats_of(rate=97), 165) is None

    # duplicate rule
    dup = duplicate_rule(corpus_of(record(i="1", text="same"),
                                   record(i="2", text="same", minutes=1)), cfg)
    assert set(dup) == {"1", "2"}
    dup = duplicate_rule(corpus_of(record(i="1", text="same"),
                                   record(i="2", text="same", minutes=1,
                                          retweet_of="77")), cfg)
    assert dup == {}
    dup = duplicate_rule(corpus_of(record(i="1", text="A"),
                                   record(i="2", text="A ", minutes=1),
                                   record(i="3", text="A", minutes=2)), cfg)
    assert set(dup) == {"1", "2", "3"}

    # combination: one rule -> Suspicious, two -> Bot, verified -> override
    quiet = [record(i=f"q{k}", account=f"quiet{k}", text=f"quiet {k}", minutes=k * 60)
             for k in range(24)]
    single = corpus_of(record(i="s", source='<a href="x">twittbot</a>'), *quiet)
    got = {c.tweet_id: c for c in classify(single, cfg)}["s"]
    assert got.label is Label.SUSPICIOUS and got.rules == (Rule.SOURCE,)

    busy = [record(i=f"b{k}", account="busy", text=f"post {k}", minutes=k * 45,
                   source='<a href="x">twittbot</a>') for k in range(30)]
    got = {c.tweet_id: c for c in classify(corpus_of(*(quiet + busy)), cfg)}["b0"]
    assert got.label is Label.BOT
    assert set(got.rules) == {Rule.SOURCE, Rule.ACTIVITY}

    busy_verified = [record(i=f"b{k}", account="busy", text="cloned", minutes=k * 45,
                            followers=5000, friends=5100, verified=True,
                            source='<a href="x">twittbot</a>') for k in range(30)]
    got = {c.tweet_id: c for c in classify(corpus_of(*(quiet + busy_verified)), cfg)}["b0"]
    assert got.label is Label.NO_BOT and got.verified_override
    assert len(got.rules) >= 3  # source + ratio + activity + duplicate suppressed

    # group summary, inclusive convention
    cls = ([Classification(f"n{k}", Label.NO_BOT, frozenset()) for k in range(8)]
           + [Classification("s", Label.SUSPICIOUS, frozenset())]
           + [Classification("b", Label.BOT, frozenset())])
    summary = group_summary(cls)
    assert summary[Label.SUSPICIOUS].count == 2
    assert (summary[Label.NO_BOT].share, summary[Label.SUSPICIOUS].share,
            summary[Label.BOT].share) == (0.8, 0.2, 0.1)
    all_clean = group_summary(Classification(str(k), Label.NO_BOT, frozenset())
                              for k in range(10))
    assert all_clean[Label.NO_BOT].share == 1.0
    assert all_clean[Label.BOT].count == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: detector examples in {elapsed:.3f}s (< 1s)")


def test_criterion_2_threshold_properties():
    """Quantile flags <= 5% of accounts; IQR fence never sits below Q3."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    quantile_cfg = DetectorConfig()  # q = 0.95, nearest-rank
    fence_cfg = DetectorConfig(activity_strategy=ActivityStrategy.IQR_FENCE)
    for _ in range(1000):
        n = rng.randint(1, 300)
        rates = [rng.choice([0.0, 1.0, rng.uniform(0, 500), rng.expovariate(0.02)])
                 for _ in range(n)]
        cutoff = activity_threshold(rates, quantile_cfg)
        flagged = sum(1 for r in rates if r > cutoff)
        assert flagged / n <= 0.05 + 1e-12
        fence = activity_threshold(rates, fence_cfg)
        q3 = quantile(rates, 0.75, LINEAR)
        assert fence >= q3 - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 2: 1000 rate vectors in {elapsed:.2f}s (< 5s)")


def _brute_force_d(a, b):
    points = sorted(set(a) | set(b))
    return max(abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b))
               for x in points)


def test_criterion_3_ks_oracle():
    """KS d matches brute force to 1e-12; identical -> p=1; disjoint -> d=1."""
    t0 = time.perf_counter()
    rng = random.Random(102)
    for _ in range(500):
        a = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        res = ks_two_sample(Counter(a), Counter(b))
        assert abs(res.d_statistic - _brute_force_d(a, b)) <= 1e-12
        same = ks_two_sample(Counter(a), Counter(a))
        assert same.d_statistic == 0.0 and same.p_value == 1.0
        low = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        high = [rng.randint(3, 4) for _ in range(rng.randint(1, 8))]
        assert ks_two_sample(Counter(low), Counter(high)).d_statistic == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 3: 500 KS sample pairs in {elapsed:.2f}s (< 5s)")


def test_criterion_4_tfidf_oracle():
    """TF-IDF equals tf * ln(N/df) to 1e-12 on random mini-corpora; zero law."""
    t0 = time.perf_counter()
    rng = random.Random(103)
    for _ in range(50):
        terms = [f"w{i}" for i in range(rng.randint(2, 20))]
        docs = [TokenizedDoc(f"d{k}", tuple(rng.choice(terms)
                                            for _ in range(rng.randint(1, 15))))
                for k in range(rng.randint(1, 10))]
        vocab = build_vocab(cooccurrence(docs), min_df=0.0, max_df=1.0)
        n = len(docs)
        df = Counter()
        for d in docs:
            df.update(set(d.tokens))
        oracle_sums = Counter()
        for d in docs:
            counts = Counter(d.tokens)
            for term, count in counts.items():
                expected = count * math.log(n / df[term])
                weight = tfidf_weight(count, vocab.n_docs, vocab.doc_freq[term])
                assert abs(weight - expected) <= 1e-12
                oracle_sums[term] += expected
        assert set(vocab.tfidf_sums) == set(oracle_sums)
        for term, total in oracle_sums.items():
            assert abs(vocab.tfidf_sums[term] - total) <= 1e-12
        for term, freq in df.items():
            if freq == n:  # zero law: ubiquitous terms weigh nothing
                assert vocab.tfidf_sums[term] == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 4: 50 TF-IDF mini-corpora in {elapsed:.2f}s (< 5s)")


def test_criterion_5_cooccurrence_brute_force():
    """Window counts equal exhaustive pair enumeration; symmetric throughout."""
    t0 = time.perf_counter()
    rng = random.Random(104)
    words = [f"w{i}" for i in range(9)]
    checked = 0
    for _ in range(300):
        tokens = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        window = rng.randint(1, 5)
        model = cooccurrence([TokenizedDoc("d", tuple(tokens))], window)
        expected = Counter()
        for i in range(len(tokens)):
            for j in range(i + 1, min(i + window, len(tokens) - 1) + 1):
                if tokens[i] != tokens[j]:
                    expected[tuple(sorted((tokens[i], tokens[j])))] += 1
        assert model.pair_counts == dict(expected)
        for w1, w2 in expected:
            assert model.count(w1, w2) == model.count(w2, w1)
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 5: co-occurrence brute force in {elapsed:.2f}s (< 5s)")


def test_criterion_6_end_to_end_synthetic(tmp_path):
    """Default synthetic corpus: detection quality + sentiment direction + KS."""
    t0 = time.perf_counter()
    corpus_path = tmp_path / "corpus.ndjson"
    truth_path = tmp_path / "truth.csv"
    generate(SynthConfig(), corpus_path, truth_path)  # 500 humans, 25 bots
    out = tmp_path / "artifacts"
    summary = execute_pipeline(corpus_path, out)

    # detection quality measured from the emitted classification artifact
    rows = (out / "classifications.csv").read_text("utf-8").splitlines()[2:]
    parsed = []
    for row in rows:
        tweet_id, label = row.split(",")[:2]
        parsed.append(Classification(tweet_id, Label(label), frozenset()))
    corpus = ingest(corpus_path)
    report = evaluate_detection(parsed, corpus, load_ground_truth(truth_path))
    assert report.recall is not None and report.recall >= 0.6
    assert report.false_positive_rate is not None
    assert report.false_positive_rate <= 0.08

    # sentiment direction + distribution separation
    bot_mean = summary.mean_sentiment["Bot"]
    nobot_mean = summary.mean_sentiment["NoBot"]
    assert bot_mean is not None and nobot_mean is not None
    assert bot_mean < nobot_mean
    ks = summary.ks_comparisons["NoBot_vs_Bot"]
    assert ks is not None and ks["p_value"] < 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 6: recall={report.recall:.2f} "
          f"fpr={report.false_positive_rate:.3f} bot_mean={bot_mean:+.3f} "
          f"nobot_mean={nobot_mean:+.3f} ks_p={ks['p_value']:.2e} "
          f"in {elapsed:.1f}s (< 60s)")


def test_criterion_7_determinism(default_synth, tmp_path):
    """Two pipeline runs: byte-identical artifacts, no pathological slowdown."""
    corpus_path, _, _ = default_synth
    t0 = time.perf_counter()
    execute_pipeline(corpus_path, tmp_path / "one")
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    execute_pipeline(corpus_path, tmp_path / "two")
    second = time.perf_counter() - t0

    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes()), name
    # a repeat run must not cost more than 2x the first (plus timer noise)
    assert second < 2 * first + 0.5
    print(f"\n[PASS] criterion 7: {len(names)} artifacts byte-identical; "
          f"runs {first:.2f}s / {second:.2f}s")


@pytest.mark.scale
def test_criterion_8_scale_smoke(scale_corpus):
    """Paper-scale corpus (~900k tweets): ingest+classify+summarize < 5 min, < 4 GB."""
    corpus_path = scale_corpus  # generated once per session, untimed
    with open(corpus_path, encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
    assert 850_000 <= n_lines <= 950_000

    t0 = time.perf_counter()
    corpus = ingest(corpus_path)
    classifications = classify(corpus, DetectorConfig())
    summary = group_summary(classifications)
    elapsed = time.perf_counter() - t0

    assert len(corpus) == n_lines
    assert sum(1 for _ in classifications) == n_lines
    assert summary[Label.NO_BOT].count > 0 and summary[Label.BOT].count > 0
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1048576
    assert elapsed < 300.0
    assert peak_gib < 4.0
    print(f"\n[PASS] criterion 8: {n_lines} tweets in {elapsed:.1f}s (< 300s), "
          f"peak {peak_gib:.2f} GiB (< 4 GiB)")

# runs in a fresh interpreter, so its peak RSS is the pipeline's own
_PIPELINE_CHILD = """
import json, sys, time
from botminer.pipeline import execute_pipeline

t0 = time.perf_counter()
summary = execute_pipeline(sys.argv[1], sys.argv[2])
elapsed = time.perf_counter() - t0
with open("/proc/self/status", encoding="ascii") as fh:
    hwm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"elapsed": elapsed, "hwm_kib": hwm_kib, "tweets": summary.total_tweets}))
"""


@pytest.mark.scale
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_criterion_9_pipeline_scale(scale_corpus, tmp_path):
    """Paper-scale corpus: the whole execute_pipeline < 120 s, peak RSS < 2 GiB.

    The budget may only be tightened, down to the 60 s / 1.5 GiB target.
    """
    src_root = Path(botminer.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src_root), env.get("PYTHONPATH"))))
    out = tmp_path / "artifacts"
    proc = subprocess.run([sys.executable, "-c", _PIPELINE_CHILD, str(scale_corpus), str(out)],
                          env=env, capture_output=True, text=True, timeout=900, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    peak_gib = result["hwm_kib"] / 1048576

    assert 850_000 <= result["tweets"] <= 950_000
    assert (out / "run_summary.json").is_file()
    assert result["elapsed"] < 120.0
    assert peak_gib < 2.0
    print(f"\n[PASS] criterion 9: {result['tweets']} tweets through execute_pipeline in "
          f"{result['elapsed']:.1f}s (< 120s), peak {peak_gib:.2f} GiB (< 2 GiB)")
