"""Rule-by-rule detector behavior and the three-step combination."""

import itertools
import random
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from botminer.corpus import AccountStats
from botminer.detector import (
    ActivityStrategy,
    Classification,
    DetectorConfig,
    Label,
    Rule,
    RuleHit,
    activity_rule,
    activity_threshold,
    classify,
    duplicate_rule,
    fold_groups,
    group_summary,
    load_detector_config,
    load_suspicious_sources,
    parse_activity_strategy,
    ratio_rule,
    source_rule,
)
from botminer.errors import ConfigError

from conftest import corpus_of, record, tweet

EPOCH = datetime(2017, 1, 1, tzinfo=timezone.utc)


def stats_of(followers=10, friends=10, rate=1.0, verified=False, account="a1"):
    return AccountStats(
        account_id=account, screen_name=account, followers=followers,
        friends=friends, verified=verified, statuses_total=100,
        tweets_in_corpus=1, tweets_per_day=rate, account_created_at=EPOCH)


def config_with(**kw):
    kw.setdefault("suspicious_sources", frozenset({"twittbot"}))
    return DetectorConfig(**kw)


# ---------------------------------------------------------------------------
# source rule
# ---------------------------------------------------------------------------

def test_source_rule_listed_app():
    t = tweet(source='<a href="http://twittbot.net">twittbot</a>')
    hit = source_rule(t, config_with())
    assert hit is not None and hit.rule is Rule.SOURCE


def test_source_rule_official_app_clean():
    t = tweet(source='<a href="x">Twitter for iPhone</a>')
    assert source_rule(t, DetectorConfig()) is None


def test_source_rule_case_insensitive():
    t = tweet(source='<a href="http://ifttt.com">IFTTT</a>')
    assert source_rule(t, config_with(suspicious_sources=frozenset({"ifttt"}))) is not None
    assert source_rule(t, DetectorConfig()) is not None  # bundled list carries it too


# ---------------------------------------------------------------------------
# ratio rule
# ---------------------------------------------------------------------------

def test_ratio_rule_near_equal_counts():
    hit = ratio_rule(stats_of(followers=7492, friends=7841), DetectorConfig())
    assert hit is not None and hit.rule is Rule.RATIO  # gap ~0.0445


def test_ratio_rule_skewed_counts():
    assert ratio_rule(stats_of(followers=27374, friends=15854), DetectorConfig()) is None


def test_ratio_rule_follower_floor():
    assert ratio_rule(stats_of(followers=50, friends=50), DetectorConfig()) is None
    # floor is strict: exactly 100 followers still fails
    assert ratio_rule(stats_of(followers=100, friends=100), DetectorConfig()) is None
    assert ratio_rule(stats_of(followers=101, friends=101), DetectorConfig()) is not None


def test_ratio_rule_tolerance_boundary_inclusive():
    # gap 100/1000 = 0.10 exactly
    assert ratio_rule(stats_of(followers=1000, friends=900), DetectorConfig()) is not None
    assert ratio_rule(stats_of(followers=1000, friends=899), DetectorConfig()) is None


def test_ratio_rule_zero_counts_safe():
    assert ratio_rule(stats_of(followers=0, friends=0), DetectorConfig()) is None


# ---------------------------------------------------------------------------
# activity threshold + rule
# ---------------------------------------------------------------------------

def test_activity_threshold_quantile_default():
    assert activity_threshold(range(1, 101), DetectorConfig()) == 95


def test_activity_threshold_iqr_fence():
    cfg = config_with(activity_strategy=ActivityStrategy.IQR_FENCE)
    assert activity_threshold(range(1, 11), cfg) == pytest.approx(14.5)


def test_activity_threshold_median_base_variant():
    cfg = config_with(activity_strategy=ActivityStrategy.IQR_FENCE, iqr_fence_base="median")
    # median 5.5 + 1.5 * 4.5
    assert activity_threshold(range(1, 11), cfg) == pytest.approx(12.25)


def test_activity_threshold_constant_rates():
    assert activity_threshold([5, 5, 5, 5], DetectorConfig()) == 5
    cfg = config_with(activity_strategy=ActivityStrategy.IQR_FENCE)
    assert activity_threshold([5, 5, 5, 5], cfg) == pytest.approx(5.0)


def test_activity_threshold_empty():
    with pytest.raises(ValueError):
        activity_threshold([], DetectorConfig())


def test_activity_rule_strict_comparison():
    assert activity_rule(stats_of(rate=1082), 165).rule is Rule.ACTIVITY
    assert activity_rule(stats_of(rate=165), 165) is None
    assert activity_rule(stats_of(rate=97), 165) is None


# ---------------------------------------------------------------------------
# duplicate rule
# ---------------------------------------------------------------------------

def test_duplicate_rule_pair_of_identical_texts():
    corpus = corpus_of(record(i="1", text="same again"),
                       record(i="2", text="same again", minutes=1),
                       record(i="3", text="different", minutes=2))
    hits = duplicate_rule(corpus, DetectorConfig())
    assert set(hits) == {"1", "2"}
    assert all(h.rule is Rule.DUPLICATE for h in hits.values())


def test_duplicate_rule_retweets_exempt():
    corpus = corpus_of(record(i="1", text="same again"),
                       record(i="2", text="same again", minutes=1, retweet_of="99"))
    assert duplicate_rule(corpus, DetectorConfig()) == {}


def test_duplicate_rule_trims_whitespace():
    corpus = corpus_of(record(i="1", text="A"),
                       record(i="2", text="A ", minutes=1),
                       record(i="3", text="A", minutes=2))
    assert set(duplicate_rule(corpus, DetectorConfig())) == {"1", "2", "3"}


def test_duplicate_rule_cluster_floor():
    corpus = corpus_of(record(i="1", text="x"), record(i="2", text="x", minutes=1))
    cfg = config_with(duplicate_min_cluster=3)
    assert duplicate_rule(corpus, cfg) == {}


def test_duplicate_rule_retweets_never_anchor():
    # three identical retweets: cluster never forms
    corpus = corpus_of(*[record(i=str(k), text="RT @x: spam", minutes=k) for k in range(3)],
                       record(i="9", text="lonely", minutes=9))
    assert duplicate_rule(corpus, DetectorConfig()) == {}


# ---------------------------------------------------------------------------
# classify: three-step combination
# ---------------------------------------------------------------------------

def _mixed_corpus(busy_source, busy_verified=False):
    """24 quiet one-tweet accounts + 1 busy account with 30 tweets over 24 h."""
    recs = [record(i=f"q{k}", account=f"quiet{k}", text=f"quiet {k}", minutes=k * 60)
            for k in range(24)]
    recs += [record(i=f"b{k}", account="busy", text=f"post {k}", minutes=k * 45,
                    source=busy_source, verified=busy_verified) for k in range(30)]
    return corpus_of(*recs)


def test_classify_single_rule_is_suspicious():
    corpus = corpus_of(record(i="1", source='<a href="x">twittbot</a>'),
                       record(i="2", text="unrelated", account="other", minutes=60))
    by_id = {c.tweet_id: c for c in classify(corpus, DetectorConfig())}
    assert by_id["1"].label is Label.SUSPICIOUS
    assert by_id["1"].rules == (Rule.SOURCE,)
    assert by_id["2"].label is Label.NO_BOT


def test_classify_two_rules_is_bot():
    corpus = _mixed_corpus('<a href="x">twittbot</a>')
    detection = classify(corpus, DetectorConfig())
    assert detection.threshold == activity_threshold(
        [a.tweets_per_day for a in corpus.accounts.values()], DetectorConfig())
    by_id = {c.tweet_id: c for c in detection}
    c = by_id["b0"]
    assert c.label is Label.BOT
    assert set(c.rules) == {Rule.SOURCE, Rule.ACTIVITY}
    assert not c.verified_override
    # quiet accounts untouched
    assert by_id["q0"].label is Label.NO_BOT


def test_classify_verified_override():
    corpus = _mixed_corpus('<a href="x">twittbot</a>', busy_verified=True)
    c = {c.tweet_id: c for c in classify(corpus, DetectorConfig())}["b0"]
    assert c.label is Label.NO_BOT
    assert c.verified_override
    assert len(c.rules) >= 2  # hits are kept for reporting


def test_classify_verified_without_hits_is_plain_nobot():
    corpus = corpus_of(record(i="1", verified=True),
                       record(i="2", text="unrelated", account="other", minutes=60))
    c = {c.tweet_id: c for c in classify(corpus, DetectorConfig())}["1"]
    assert c.label is Label.NO_BOT
    assert not c.verified_override  # override only marks suppressed hits


def test_classify_account_rules_propagate_to_every_tweet():
    recs = [record(i=str(k), account="eq", followers=5000, friends=5100,
                   text=f"n{k}", minutes=k) for k in range(3)]
    recs.append(record(i="x", account="other", minutes=90))
    labels = {c.tweet_id: c for c in classify(corpus_of(*recs), DetectorConfig())}
    for k in range(3):
        assert labels[str(k)].rules == (Rule.RATIO,)
        assert labels[str(k)].label is Label.SUSPICIOUS


def test_classify_duplicate_plus_ratio_is_bot():
    recs = [record(i=str(k), account="eq", followers=5000, friends=5100,
                   text="same text", minutes=k) for k in range(2)]
    recs.append(record(i="x", account="other", minutes=90))
    labels = {c.tweet_id: c for c in classify(corpus_of(*recs), DetectorConfig())}
    assert labels["0"].label is Label.BOT
    assert set(labels["0"].rules) == {Rule.RATIO, Rule.DUPLICATE}


def test_classify_is_pure():
    corpus = _mixed_corpus('<a href="x">twittbot</a>')
    cfg = DetectorConfig()
    assert classify(corpus, cfg) == classify(corpus, cfg)


def test_classify_label_lattice_and_hit_counts():
    rng = random.Random(21)
    pool = ["twittbot", "Zapier", "Twitter Web Client", "IFTTT"]
    recs = []
    for a in range(30):
        followers = rng.randint(0, 2000)
        friends = rng.randint(0, 2000)
        for k in range(rng.randint(1, 3)):
            recs.append(record(
                i=f"t{a}_{k}", account=f"a{a}", followers=followers, friends=friends,
                text=rng.choice(["alpha", "beta", f"unique {a} {k}"]),
                minutes=rng.uniform(0, 24 * 60),
                source=f'<a href="x">{rng.choice(pool)}</a>'))
    for c in classify(corpus_of(*recs), DetectorConfig()):
        n = len(c.rules)
        if c.verified_override:
            assert c.label is Label.NO_BOT
        elif c.label is Label.BOT:
            assert n >= 2
        elif c.label is Label.SUSPICIOUS:
            assert n == 1
        else:
            assert n == 0


def test_classify_monotone_in_source_list():
    rng = random.Random(22)
    pool = ["twittbot", "Zapier", "dlvr.it", "Twitter Web Client"]
    recs = []
    for a in range(25):
        for k in range(rng.randint(1, 2)):
            recs.append(record(
                i=f"t{a}_{k}", account=f"a{a}",
                followers=rng.randint(0, 500), friends=rng.randint(0, 500),
                verified=rng.random() < 0.1,
                text=rng.choice(["alpha", f"solo {a} {k}"]),
                minutes=rng.uniform(0, 24 * 60),
                source=f'<a href="x">{rng.choice(pool)}</a>'))
    corpus = corpus_of(*recs)
    rank = {Label.NO_BOT: 0, Label.SUSPICIOUS: 1, Label.BOT: 2}
    small = classify(corpus, config_with(suspicious_sources=frozenset({"twittbot"})))
    large = classify(corpus, config_with(
        suspicious_sources=frozenset({"twittbot", "zapier", "dlvr.it"})))
    for before, after in zip(small, large):
        assert rank[after.label] >= rank[before.label]


def test_classify_never_bots_verified_authors():
    rng = random.Random(23)
    recs = []
    for a in range(20):
        recs.append(record(i=f"t{a}", account=f"a{a}", verified=True,
                           followers=300, friends=300, text="same everywhere",
                           minutes=rng.uniform(0, 24 * 60),
                           source='<a href="x">twittbot</a>'))
    for c in classify(corpus_of(*recs), DetectorConfig()):
        assert c.label is Label.NO_BOT


def test_quantile_threshold_flags_at_most_one_minus_q():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 120)
        rates = [rng.choice([0.5, 1.0, 2.0, rng.uniform(0, 50)]) for _ in range(n)]
        q = rng.uniform(0.05, 0.95)
        cfg = config_with(activity_quantile=q)
        threshold = activity_threshold(rates, cfg)
        flagged = sum(1 for r in rates if r > threshold)
        assert flagged <= (1 - q) * n + 1e-9


def _classify_per_tweet(corpus, config):
    """Reference for classify: every rule evaluated and combined for every tweet."""
    threshold = activity_threshold([a.tweets_per_day for a in corpus.accounts.values()], config)
    duplicates = duplicate_rule(corpus, config)
    out = []
    for tweet in corpus.tweets:
        account = corpus.accounts[tweet.author_id]
        hits = [hit for hit in (ratio_rule(account, config), activity_rule(account, threshold),
                                source_rule(tweet, config), duplicates.get(tweet.id))
                if hit is not None]
        n_rules = len({hit.rule for hit in hits})
        label = Label.BOT if n_rules >= 2 else Label.SUSPICIOUS if n_rules else Label.NO_BOT
        override = bool(n_rules) and account.verified
        out.append(Classification(tweet.id, Label.NO_BOT if override else label,
                                  frozenset(hits), override))
    return out


oracle_rows = st.lists(st.tuples(
    st.integers(0, 5),                              # account
    st.sampled_from([50, 150, 160, 1000]),          # followers
    st.sampled_from([0, 150, 155, 900]),            # friends
    st.booleans(),                                  # verified
    st.sampled_from(["twittbot", "Zapier", "Twitter Web Client", "IFTTT"]),
    st.sampled_from(["alpha", "beta", "RT @x alpha", " alpha ", "gamma"]),
    st.integers(0, 24 * 60),                        # minutes
), min_size=1, max_size=30)


@given(oracle_rows, st.sampled_from([
    config_with(activity_quantile=0.5),
    config_with(activity_strategy=ActivityStrategy.IQR_FENCE, iqr_multiplier=0.1,
                suspicious_sources=frozenset({"twittbot", "zapier"}), duplicate_min_cluster=3),
]))
def test_classify_equals_per_tweet_loop(rows, config):
    corpus = corpus_of(*(record(i=f"t{k}", account=f"a{a}", followers=followers,
                                friends=friends, verified=verified, text=text,
                                source=f'<a href="x">{app}</a>', minutes=minutes)
                         for k, (a, followers, friends, verified, app, text, minutes)
                         in enumerate(rows)))
    detection = classify(corpus, config)
    reference = _classify_per_tweet(corpus, config)
    assert list(detection) == reference  # ids, labels, hit sets and overrides
    assert [c.rules for c in detection] == [c.rules for c in reference]
    assert (Counter(h for c in detection for h in c.hits)
            == Counter(h for c in reference for h in c.hits))


# ---------------------------------------------------------------------------
# group_summary
# ---------------------------------------------------------------------------

def _cls(label, n):
    return [Classification(f"{label.value}{k}", label, frozenset()) for k in range(n)]


def test_group_summary_inclusive_suspicious():
    summary = group_summary(_cls(Label.NO_BOT, 8) + _cls(Label.SUSPICIOUS, 1) + _cls(Label.BOT, 1))
    assert summary[Label.NO_BOT].count == 8
    assert summary[Label.SUSPICIOUS].count == 2  # includes the Bot tweet
    assert summary[Label.BOT].count == 1
    assert summary[Label.NO_BOT].share == pytest.approx(0.8)
    assert summary[Label.SUSPICIOUS].share == pytest.approx(0.2)
    assert summary[Label.BOT].share == pytest.approx(0.1)


def test_group_summary_all_nobot():
    summary = group_summary(_cls(Label.NO_BOT, 5))
    assert summary[Label.NO_BOT].share == 1.0
    assert summary[Label.SUSPICIOUS].count == 0
    assert summary[Label.BOT].count == 0


def test_group_summary_large_scale_shares():
    # 899,745 tweets with 118,071 suspicious-or-worse of which 10,126 bots
    nobot = Classification("n", Label.NO_BOT, frozenset())
    susp = Classification("s", Label.SUSPICIOUS, frozenset())
    bot = Classification("b", Label.BOT, frozenset())
    stream = itertools.chain(
        itertools.repeat(nobot, 899_745 - 118_071),
        itertools.repeat(susp, 118_071 - 10_126),
        itertools.repeat(bot, 10_126))
    summary = group_summary(stream)
    assert summary[Label.SUSPICIOUS].count == 118_071
    assert summary[Label.SUSPICIOUS].share == pytest.approx(0.1312, abs=1e-4)
    assert summary[Label.BOT].share == pytest.approx(0.0113, abs=1e-4)


def test_group_summary_empty():
    with pytest.raises(ValueError):
        group_summary([])


counts = st.dictionaries(st.sampled_from("abc"), st.integers(1, 9))


@given(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99), counts, counts, counts)
def test_fold_groups_suspicious_is_suspicious_only_plus_bot(n, s, b, hn, hs, hb):
    assert fold_groups({Label.NO_BOT: n, Label.SUSPICIOUS: s, Label.BOT: b}) == {
        Label.NO_BOT: n, Label.SUSPICIOUS: s + b, Label.BOT: b}
    folded = fold_groups({Label.NO_BOT: Counter(hn), Label.SUSPICIOUS: Counter(hs),
                          Label.BOT: Counter(hb)})
    assert folded[Label.SUSPICIOUS] == Counter(hs) + Counter(hb)
    assert (folded[Label.NO_BOT], folded[Label.BOT]) == (Counter(hn), Counter(hb))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_values():
    cfg = DetectorConfig()
    assert cfg.min_followers == 100
    assert cfg.ratio_tolerance == 0.10
    assert cfg.activity_strategy is ActivityStrategy.QUANTILE
    assert cfg.activity_quantile == 0.95
    assert cfg.iqr_multiplier == 1.5
    assert cfg.duplicate_min_cluster == 2
    assert "twittbot" in cfg.suspicious_sources


def test_config_validation():
    for kw in ({"activity_quantile": 0.0}, {"activity_quantile": 1.0},
               {"iqr_multiplier": 0.0}, {"ratio_tolerance": 1.5},
               {"duplicate_min_cluster": 1}, {"min_followers": -1},
               {"iqr_fence_base": "q2"}, {"suspicious_sources": frozenset()}):
        with pytest.raises(ConfigError):
            DetectorConfig(**kw)


def test_config_normalizes_source_case():
    cfg = config_with(suspicious_sources=frozenset({"TwittBot", "IFTTT"}))
    assert cfg.suspicious_sources == frozenset({"twittbot", "ifttt"})


def test_parse_activity_strategy_aliases():
    assert parse_activity_strategy("quantile") is ActivityStrategy.QUANTILE
    assert parse_activity_strategy("iqr") is ActivityStrategy.IQR_FENCE
    assert parse_activity_strategy("IqrFence") is ActivityStrategy.IQR_FENCE
    with pytest.raises(ConfigError):
        parse_activity_strategy("zscore")


def test_load_suspicious_sources_file(tmp_path):
    path = tmp_path / "sources.txt"
    path.write_text("# automation apps\nMyBot\n\n  dlvr.it  \n", encoding="utf-8")
    assert load_suspicious_sources(path) == frozenset({"mybot", "dlvr.it"})


def test_load_suspicious_sources_empty_file(tmp_path):
    path = tmp_path / "sources.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_suspicious_sources(path)


def test_load_detector_config_file(tmp_path):
    (tmp_path / "sources.txt").write_text("MyBot\n", encoding="utf-8")
    cfg_path = tmp_path / "detector.cfg"
    cfg_path.write_text(
        "# tuning\n"
        "min_followers = 50\n"
        "ratio_tolerance = 0.2\n"
        "activity_strategy = iqr\n"
        "iqr_multiplier = 2.0\n"
        "sources_file = sources.txt\n",
        encoding="utf-8")
    cfg = load_detector_config(cfg_path)
    assert cfg.min_followers == 50
    assert cfg.ratio_tolerance == 0.2
    assert cfg.activity_strategy is ActivityStrategy.IQR_FENCE
    assert cfg.iqr_multiplier == 2.0
    assert cfg.suspicious_sources == frozenset({"mybot"})


def test_load_detector_config_explicit_sources_win(tmp_path):
    (tmp_path / "a.txt").write_text("appa\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("appb\n", encoding="utf-8")
    cfg_path = tmp_path / "detector.cfg"
    cfg_path.write_text("sources_file = a.txt\n", encoding="utf-8")
    cfg = load_detector_config(cfg_path, sources_path=tmp_path / "b.txt")
    assert cfg.suspicious_sources == frozenset({"appb"})


def test_load_detector_config_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "detector.cfg"
    cfg_path.write_text("min_folowers = 10\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_detector_config(cfg_path)


def test_load_detector_config_rejects_bad_value(tmp_path):
    cfg_path = tmp_path / "detector.cfg"
    cfg_path.write_text("min_followers = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_detector_config(cfg_path)


def test_load_detector_config_rejects_bad_syntax(tmp_path):
    cfg_path = tmp_path / "detector.cfg"
    cfg_path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line|expected"):
        load_detector_config(cfg_path)


def test_rule_hit_reasons_are_informative():
    hit = ratio_rule(stats_of(followers=7492, friends=7841), DetectorConfig())
    assert "7492" in hit.reason and "7841" in hit.reason
    t = tweet(source='<a href="x">twittbot</a>')
    assert "twittbot" in source_rule(t, DetectorConfig()).reason