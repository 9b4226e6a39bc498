"""Pipeline orchestration, artifact layout, and the CLI wrapper."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from botminer import pipeline, textmine
from botminer.cli import build_parser, main
from botminer.corpus import ingest
from botminer.detector import (
    ActivityStrategy,
    Classification,
    Detection,
    DetectorConfig,
    GroupShare,
    Label,
    Rule,
    classify,
    fold_groups,
    group_summary,
)
from botminer.errors import ConfigError, PipelineStageError
from botminer.pipeline import (
    CLASSIFICATION_FILES,
    PipelineSettings,
    compare_group_sentiment,
    corpus_report,
    detection_report,
    execute_pipeline,
    run_pipeline,
    settings_from_flags,
    write_classifications,
)
from botminer.syngen import SynthConfig, generate
from botminer.textmine import group_word_sentiment_samples

from conftest import detection_of, docs_of, record, term_counts, write_ndjson

EXPECTED_ARTIFACTS = {
    "classifications.csv", "run_summary.json",
    "wordcloud_nobot.csv", "wordcloud_suspicious.csv", "wordcloud_bot.csv",
    "cooccurrence_nobot.csv", "cooccurrence_suspicious.csv", "cooccurrence_bot.csv",
    "ecdf_nobot.csv", "ecdf_suspicious.csv", "ecdf_bot.csv",
}


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    """Small mixed corpus: 30 humans, 3 bots (~1000 tweets)."""
    root = tmp_path_factory.mktemp("pipeline_synth")
    corpus = root / "corpus.ndjson"
    generate(SynthConfig(seed=11, n_humans=30, n_bots=3), corpus, root / "truth.csv")
    return corpus


# ---------------------------------------------------------------------------
# execute_pipeline
# ---------------------------------------------------------------------------

def test_pipeline_writes_expected_artifacts(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    summary = execute_pipeline(synth_corpus, out)
    assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS
    assert sorted(summary.report["artifacts"]) == sorted(EXPECTED_ARTIFACTS)
    fingerprint = PipelineSettings().fingerprint()
    assert summary.report["config_fingerprint"] == fingerprint
    for name in EXPECTED_ARTIFACTS - {"run_summary.json"}:
        first = (out / name).read_text("utf-8").splitlines()[0]
        assert first == f"# config_fingerprint={fingerprint}"


@pytest.mark.parametrize("first, second", [("csv", "jsonl"), ("jsonl", "csv")])
def test_rerun_in_other_format_removes_stale_classifications(synth_corpus, tmp_path,
                                                             first, second):
    out = tmp_path / "artifacts"
    execute_pipeline(synth_corpus, out, PipelineSettings(output_format=first))
    summary = execute_pipeline(synth_corpus, out, PipelineSettings(output_format=second))
    assert sorted(os.listdir(out)) == sorted(summary.report["artifacts"])
    assert f"classifications.{second}" in summary.report["artifacts"]


def test_pipeline_loads_each_list_once(synth_corpus, tmp_path, monkeypatch):
    loads = Counter()
    for name in ("load_stopwords", "load_lexicon"):
        def counting(*args, _real=getattr(textmine, name), _name=name):
            loads[_name] += 1
            return _real(*args)
        monkeypatch.setattr(textmine, name, counting)
    summary = execute_pipeline(synth_corpus, tmp_path / "artifacts")
    assert loads == {"load_stopwords": 1, "load_lexicon": 1}
    assert summary.report["config_fingerprint"] == PipelineSettings().fingerprint()


def test_pipeline_summary_file_contents(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    summary = execute_pipeline(synth_corpus, out)
    on_disk = json.loads((out / "run_summary.json").read_text("utf-8"))
    assert on_disk == summary.report
    assert set(on_disk) == {"artifacts", "config_fingerprint", "corpus",
                            "detection", "sentiment"}
    assert "timings" not in (out / "run_summary.json").read_text("utf-8")
    # measured, just not persisted
    assert list(summary.timings) == ["ingest", "detect", "analyze", "compare", "report"]

    corpus_info = on_disk["corpus"]
    assert corpus_info["total_tweets"] == sum(
        1 for line in synth_corpus.read_text("utf-8").splitlines() if line)
    disjoint = on_disk["detection"]["disjoint_label_shares"]
    assert sum(v["share"] for v in disjoint.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(v["count"] for v in disjoint.values()) == corpus_info["total_tweets"]
    inclusive = on_disk["detection"]["inclusive_label_shares"]
    assert inclusive["Suspicious"]["count"] >= inclusive["Bot"]["count"]
    assert inclusive["Suspicious"]["count"] == (
        disjoint["Suspicious"]["count"] + disjoint["Bot"]["count"])
    assert set(on_disk["sentiment"]["ks_comparisons"]) == {
        "NoBot_vs_Bot", "NoBot_vs_Suspicious", "Suspicious_vs_Bot"}


def test_summary_counts_equal_per_tweet_counts(tmp_path):
    bot_app = '<a href="x">twittbot</a>'
    recs = [record(i=f"h{k}", account=f"h{k}", text=f"hope {k}", minutes=k) for k in range(30)]
    recs += [record(i=f"b{k}", account="busy", text=f"terror {k}", minutes=k,
                    followers=500, friends=510, source=bot_app) for k in range(8)]
    recs += [record(i=f"d{k}", account=f"d{k}", text="good bad", minutes=k) for k in range(2)]
    recs += [record(i=f"v{k}", account="v", verified=True, source=bot_app, text="hope",
                    minutes=k) for k in range(2)]
    out = tmp_path / "artifacts"
    summary = execute_pipeline(write_ndjson(tmp_path / "c.ndjson", recs), out)
    rows = (out / "classifications.csv").read_text("utf-8").splitlines()[2:]
    labels, rules, overrides = Counter(), Counter(), 0
    for row in rows:
        _, label, fired, override = row.split(",")
        labels[label] += 1
        rules.update(fired.split("|") if fired else ())
        overrides += override == "true"
    detection = summary.report["detection"]
    assert overrides == detection["verified_overrides"] == 2
    assert {k: v["count"] for k, v in detection["disjoint_label_shares"].items()} == {
        label.value: labels[label.value] for label in Label}
    assert detection["rule_hits"] == {rule.value: rules[rule.value] for rule in Rule}
    assert min(detection["rule_hits"].values()) > 0


class _LengthOnly:
    """A code column that has a length but cannot be read."""

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        raise AssertionError("the codes were read after the Detection was built")


def test_detection_counts_its_codes_once(synth_corpus):
    detection = classify(ingest(synth_corpus))
    codes = detection.codes
    assert detection.counts == tuple(Counter(codes)[c] for c in range(len(detection.outcomes)))
    config = DetectorConfig()

    def figures():
        return (detection_report(detection, config), detection.label_counts(),
                group_summary(detection))

    before = figures()
    detection.codes = _LengthOnly(len(codes))
    assert figures() == before


def test_pipeline_is_byte_deterministic(synth_corpus, tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    execute_pipeline(synth_corpus, out1)
    execute_pipeline(synth_corpus, out2)
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_pipeline_iqr_strategy_echoed(synth_corpus, tmp_path):
    settings = PipelineSettings(
        detector=DetectorConfig(activity_strategy=ActivityStrategy.IQR_FENCE))
    summary = execute_pipeline(synth_corpus, tmp_path / "a", settings)
    assert summary.report["detection"]["activity_strategy"] == "IqrFence"
    assert summary.report["detection"]["activity_threshold"] > 0


def test_pipeline_empty_corpus_names_ingest_stage(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "artifacts"
    with pytest.raises(PipelineStageError, match="stage 'ingest' failed") as err:
        execute_pipeline(empty, out)
    assert err.value.stage == "ingest"
    assert list(out.iterdir()) == []  # nothing left behind


def _disk_full(*args):
    """A write_classifications that fails, after every table was staged."""
    raise OSError("disk full")


def test_pipeline_single_group_publishes_null_comparisons(tmp_path, monkeypatch):
    # every tweet NoBot: the two flagged groups are empty, so no pair compares
    corpus = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", text="good zibble"),
        record(i="2", text="bad dorple", minutes=5),
    ])
    out = tmp_path / "artifacts"
    summary = execute_pipeline(corpus, out)
    assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS
    sentiment = summary.report["sentiment"]
    assert sentiment["ks_comparisons"] == {
        "NoBot_vs_Bot": None, "NoBot_vs_Suspicious": None, "Suspicious_vs_Bot": None}
    assert sentiment["group_means"] == {"NoBot": 0.0, "Suspicious": None, "Bot": None}
    header_only = {"wordcloud": "term,count,tfidf_sum\n",
                   "cooccurrence": "term,neighbor,association\n",
                   "ecdf": "value,cumulative_probability\n"}
    fingerprint = summary.report["config_fingerprint"]
    for table, header in header_only.items():
        for slug in ("suspicious", "bot"):
            assert (out / f"{table}_{slug}.csv").read_text("utf-8") == (
                f"# config_fingerprint={fingerprint}\n{header}")
    assert (out / "ecdf_nobot.csv").read_text("utf-8").splitlines()[2:] == [
        "-1.0,0.5", "1.0,1.0"]

    # a run that fails after its tables were staged leaves nothing behind
    monkeypatch.setattr(pipeline, "write_classifications", _disk_full)
    with pytest.raises(PipelineStageError, match="stage 'report' failed") as err:
        execute_pipeline(corpus, tmp_path / "again")
    assert err.value.stage == "report"
    assert list((tmp_path / "again").iterdir()) == []  # partial tables were removed


def test_failed_rerun_keeps_previous_artifacts(synth_corpus, tmp_path, monkeypatch):
    out = tmp_path / "artifacts"
    execute_pipeline(synth_corpus, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(pipeline, "write_classifications", _disk_full)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("good\t1\n", encoding="utf-8")  # another fingerprint in every table
    with pytest.raises(PipelineStageError, match="stage 'report' failed"):
        execute_pipeline(synth_corpus, out, PipelineSettings(lexicon_path=str(lexicon)))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_lexicon_word_filtered_out_as_stop_word_or_query_term_is_rejected(synth_corpus, tmp_path):
    # tokens are filtered before the lexicon lookup, so "against" (a bundled
    # stop word) and the query term could never be counted
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("good\t1\nagainst\t-1\n", encoding="utf-8")
    settings = PipelineSettings(lexicon_path=str(lexicon))
    with pytest.raises(ConfigError, match=r"\['against'\]"):
        settings.load_lists()
    with pytest.raises(PipelineStageError, match="stage 'setup' failed.*against"):
        execute_pipeline(synth_corpus, tmp_path / "out", settings)
    lexicon.write_text("good\t1\nWar\t-1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\['war'\].*'War'"):
        PipelineSettings(lexicon_path=str(lexicon), query_term="War").load_lists()
    assert len(PipelineSettings(lexicon_path=str(lexicon)).load_lists()[1]) == 2


def test_lexicon_word_starting_with_http_is_rejected(tmp_path):
    # the tokenizer drops every token starting with "http" as a URL piece
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("good\t1\nhttps\t-1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\['https'\].*'http'"):
        PipelineSettings(lexicon_path=str(lexicon)).load_lists()
    assert textmine.tokenize_text("good https news", textmine.load_stopwords()) == ["good", "news"]
    lexicon.write_text("good\t1\nhtt\t-1\n", encoding="utf-8")
    assert len(PipelineSettings(lexicon_path=str(lexicon)).load_lists()[1]) == 2


def test_pipeline_empty_bot_group_keeps_headers(tmp_path):
    # one account trips only the ratio rule: Suspicious exists, Bot stays empty
    corpus = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", account="eq", followers=5000, friends=5000, text="bad war tonight"),
        record(i="2", account="eq", followers=5000, friends=5000,
               text="hope peace tomorrow", minutes=1),
        record(i="3", account="clean", text="good news everyone", minutes=2),
        record(i="4", account="clean", text="terror attack reported", minutes=3),
    ])
    out = tmp_path / "artifacts"
    summary = execute_pipeline(corpus, out)
    fingerprint = summary.report["config_fingerprint"]
    assert (out / "ecdf_bot.csv").read_text("utf-8") == (
        f"# config_fingerprint={fingerprint}\nvalue,cumulative_probability\n")
    body = json.loads((out / "run_summary.json").read_text("utf-8"))
    assert body["sentiment"]["ks_comparisons"]["NoBot_vs_Bot"] is None
    assert body["sentiment"]["ks_comparisons"]["NoBot_vs_Suspicious"] is not None
    assert body["sentiment"]["group_means"]["Bot"] is None
    assert body["detection"]["inclusive_label_shares"]["Suspicious"]["count"] == 2


def test_pipeline_ecdf_files_are_valid_distributions(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    execute_pipeline(synth_corpus, out)
    for slug in ("nobot", "suspicious", "bot"):
        lines = (out / f"ecdf_{slug}.csv").read_text("utf-8").splitlines()
        rows = [line.split(",") for line in lines[2:]]
        probs = [float(p) for _, p in rows]
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(1.0)


def test_pipeline_jsonl_classifications(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    summary = execute_pipeline(synth_corpus, out, PipelineSettings(output_format="jsonl"))
    assert "classifications.jsonl" in summary.report["artifacts"]
    lines = (out / "classifications.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == summary.report["corpus"]["total_tweets"]
    first = json.loads(lines[0])
    assert set(first) == {"tweet_id", "label", "rules", "verified_override",
                          "config_fingerprint"}
    assert first["config_fingerprint"] == summary.report["config_fingerprint"]


def test_classification_csv_rows_match_objects(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    summary = execute_pipeline(synth_corpus, out)
    lines = (out / "classifications.csv").read_text("utf-8").splitlines()
    assert lines[1] == "tweet_id,label,rules,verified_override"
    assert len(lines) == summary.report["corpus"]["total_tweets"] + 2
    labels = {line.split(",")[1] for line in lines[2:]}
    assert labels <= {"NoBot", "Suspicious", "Bot"}


def test_write_classifications_standalone(tmp_path):
    cls = [Classification("t1", Label.BOT, frozenset()),
           Classification("t2", Label.NO_BOT, frozenset(), verified_override=True)]
    path = tmp_path / "cls.csv"
    write_classifications(path, "cafe0123", detection_of(cls), "csv")
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "# config_fingerprint=cafe0123"
    assert lines[2] == "t1,Bot,,false"
    assert lines[3] == "t2,NoBot,,true"


# ---------------------------------------------------------------------------
# group comparisons
# ---------------------------------------------------------------------------

LEX = {"bad": -1.0, "good": 1.0}


def test_compare_group_sentiment_identical_groups():
    samples = {Label.NO_BOT: Counter([1.0, -1.0]), Label.BOT: Counter([1.0, -1.0]),
               Label.SUSPICIOUS: Counter()}
    out = compare_group_sentiment(samples)
    assert out["NoBot_vs_Bot"].d_statistic == 0.0
    assert out["NoBot_vs_Bot"].p_value == 1.0
    assert out["NoBot_vs_Suspicious"] is None  # empty side skipped
    assert out["Suspicious_vs_Bot"] is None


def test_compare_group_sentiment_reports_every_pair():
    # one non-empty group, or none: every pair is reported, each skipped
    for samples in ({Label.NO_BOT: Counter([1.0]), Label.SUSPICIOUS: Counter(),
                     Label.BOT: Counter()}, {label: Counter() for label in Label}):
        assert compare_group_sentiment(samples) == {
            "NoBot_vs_Bot": None, "NoBot_vs_Suspicious": None, "Suspicious_vs_Bot": None}


def test_compare_groups_disjoint_supports():
    docs = docs_of([["bad"], ["bad"], ["good"], ["good"]])
    cls = [Classification("d0", Label.BOT, frozenset()),
           Classification("d1", Label.BOT, frozenset()),
           Classification("d2", Label.NO_BOT, frozenset()),
           Classification("d3", Label.NO_BOT, frozenset())]
    groups = detection_of(cls).by_label(docs)
    out = compare_group_sentiment(
        fold_groups(group_word_sentiment_samples(term_counts(groups), LEX)))
    assert out["NoBot_vs_Bot"].d_statistic == 1.0
    # Bot words mirror into Suspicious, so that pair is degenerate-equal
    assert out["Suspicious_vs_Bot"].d_statistic == 0.0


# ---------------------------------------------------------------------------
# settings / flags
# ---------------------------------------------------------------------------

def test_settings_defaults():
    s = PipelineSettings()
    assert s.rate_basis == "corpus-window"
    assert s.strictness == "lenient"
    assert s.output_format == "csv"
    assert (s.min_df, s.max_df, s.window) == (0.01, 0.45, 5)


def test_settings_rejects_bad_format():
    with pytest.raises(ConfigError):
        PipelineSettings(output_format="xml")


@pytest.mark.parametrize("kw", [
    {"window": 0}, {"window": "5"}, {"window": 5.0}, {"window": True},
    {"min_df": 0.5, "max_df": 0.2}, {"min_df": 0.3, "max_df": 0.3}, {"min_df": -0.1},
    {"max_df": 1.5}, {"min_df": None}, {"max_df": float("nan")}, {"min_df": "0.01"},
    {"strictness": "strcit"}, {"rate_basis": "x"}, {"rate_basis": "window"},
    {"output_format": "CSV"}, {"k_terms": 0}, {"k_neighbors": 0}, {"k_terms": 2.0},
    {"query_term": None}, {"detector": None}, {"stopwords_path": 3}, {"lexicon_path": b"x"},
    {"query_term": "Iran!"}, {"query_term": "iran protests"}, {"query_term": ""},
    # the fingerprint writes every field as JSON; repr cannot name this case
    pytest.param({"window": 10**5000}, id="{'window': 10**5000}"),
    # finite as floats, so they reach the band check, whose message cuts them
    pytest.param({"min_df": 10**300}, id="{'min_df': 10**300}"),
    pytest.param({"max_df": -10**300}, id="{'max_df': -10**300}"),
], ids=repr)
def test_settings_reject_bad_fields(kw):
    with pytest.raises(ConfigError, match=next(iter(kw))) as caught:
        PipelineSettings(**kw)
    assert len(str(caught.value)) <= 120


@pytest.mark.parametrize("config, field, sign, digits", [
    (SynthConfig, "seed", 1, 5000), (SynthConfig, "seed", 1, 4000),
    (SynthConfig, "span_hours", 1, 5000), (DetectorConfig, "min_followers", -1, 5000),
    (DetectorConfig, "min_followers", -1, 4000), (DetectorConfig, "ratio_tolerance", 1, 5000),
    (PipelineSettings, "window", 1, 5000), (PipelineSettings, "window", -1, 4000),
    # fields that are not numbers name the rejected value through errors.shown too
    (DetectorConfig, "iqr_fence_base", 1, 5000), (PipelineSettings, "rate_basis", 1, 5000),
    (PipelineSettings, "detector", 1, 5000), (PipelineSettings, "query_term", -1, 5000),
    (PipelineSettings, "lexicon_path", 1, 4000),
])
def test_configs_reject_a_huge_int_without_formatting_it(config, field, sign, digits):
    # 10**5000 has more digits than str writes by default; 10**4000 is only long
    with pytest.raises(ConfigError) as caught:
        config(**{field: sign * 10**digits})
    message = str(caught.value)
    assert message.startswith(f"{field} must ") and len(message) < 160


def test_replace_and_make_check_fields():
    detector = DetectorConfig()
    settings = PipelineSettings()
    for bad in (lambda: detector._replace(activity_quantile=1.5),
                lambda: settings._replace(window=0),
                lambda: DetectorConfig._make({**detector._asdict(), "min_followers": -1}.values()),
                lambda: PipelineSettings._make((*settings[:-1], 3))):
        with pytest.raises(ConfigError):
            bad()
    tighter = detector._replace(activity_strategy="IqrFence", suspicious_sources={"Bot"})
    assert type(tighter) is DetectorConfig
    assert tighter.activity_strategy is ActivityStrategy.IQR_FENCE
    assert tighter.suspicious_sources == frozenset({"bot"})  # normalized as by the constructor
    assert settings._replace(window=3) == PipelineSettings(window=3)
    assert PipelineSettings._make(settings) == settings


def test_settings_accept_ints_for_reals():
    s = PipelineSettings(min_df=0, max_df=1)
    assert (s.min_df, s.max_df) == (0, 1)


def test_bad_setting_runs_no_stage(tmp_path, monkeypatch):
    corpus = write_ndjson(tmp_path / "c.ndjson", [record()])

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(pipeline.corpus_mod, "ingest", no_stage)
    monkeypatch.setattr(PipelineSettings, "load_lists", no_stage)
    # quantile and ratio_tolerance override fields of an already built DetectorConfig
    for flags in ({"quantile": 1.5}, {"ratio_tolerance": -0.5}):
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(corpus, flags=flags, out_dir=tmp_path / "out")
        assert err.value.stage == "config"
        assert isinstance(err.value.cause, ConfigError)
    assert not (tmp_path / "out").exists()


def test_settings_from_flags_precedence(tmp_path):
    cfg = tmp_path / "detector.cfg"
    cfg.write_text("activity_quantile = 0.9\nmin_followers = 42\n", encoding="utf-8")
    s = settings_from_flags(cfg, {"quantile": 0.8})
    assert s.detector.activity_quantile == 0.8  # flag beats file
    assert s.detector.min_followers == 42       # file beats default


def test_settings_from_flags_full_set(tmp_path):
    src = tmp_path / "sources.txt"
    src.write_text("botapp\n", encoding="utf-8")
    flags = {
        "sources": str(src), "activity_strategy": "iqr", "quantile": 0.9,
        "ratio_tolerance": 0.2, "rate_basis": "lifetime", "strict": True, "format": "jsonl",
        "lexicon": "lex.tsv", "stopwords": "stop.txt",
    }
    assert tuple(flags) == pipeline.FLAGS
    s = settings_from_flags(None, flags)
    assert s.detector.suspicious_sources == frozenset({"botapp"})
    assert s.detector.activity_strategy is ActivityStrategy.IQR_FENCE
    assert s.detector.activity_quantile == 0.9
    assert s.detector.ratio_tolerance == 0.2
    assert s.rate_basis == "lifetime"
    assert s.strictness == "strict"
    assert s.output_format == "jsonl"
    assert (s.lexicon_path, s.stopwords_path) == ("lex.tsv", "stop.txt")
    assert s._replace(detector=DetectorConfig()) == PipelineSettings(
        rate_basis="lifetime", strictness="strict", output_format="jsonl",
        lexicon_path="lex.tsv", stopwords_path="stop.txt")  # no other field moved
    assert settings_from_flags(None, {"strict": False}) == PipelineSettings()


def test_settings_from_flags_rejects_unknown():
    with pytest.raises(ValueError, match="unknown pipeline flags"):
        settings_from_flags(None, {"bogus": 1})
    with pytest.raises(ValueError, match=r"unknown pipeline flags: \['window'\]"):
        settings_from_flags(None, {"window": 3})  # a settings field, not a CLI flag
    # only the CLI's spellings of a rate basis
    for rate_basis in ("fortnight", "corpus-window", "Lifetime"):
        with pytest.raises(ValueError, match="rate basis"):
            settings_from_flags(None, {"rate_basis": rate_basis})


# settings fields that are no CLI flag, so settings_from_flags rejects them
FORMER_FLAGS = ("iqr_multiplier", "iqr_fence_base", "min_followers", "duplicate_min_cluster",
                "query_term", "min_df", "max_df", "window", "k_terms", "k_neighbors")


@pytest.mark.parametrize("flag", pipeline.FLAGS + FORMER_FLAGS)
def test_settings_from_flags_none_means_unset(flag):
    """None leaves a CLI flag unset; any other key is unknown, even when None."""
    if flag in pipeline.FLAGS:
        assert settings_from_flags(None, {flag: None}) == settings_from_flags(None, {})
    else:
        with pytest.raises(ValueError, match=f"unknown pipeline flags: \\['{flag}'\\]"):
            settings_from_flags(None, {flag: None})


def test_run_pipeline_wraps_config_errors(tmp_path):
    corpus = write_ndjson(tmp_path / "c.ndjson", [record()])
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(corpus, flags={"bogus": 1}, out_dir=tmp_path / "out")
    assert err.value.stage == "config"


def test_fingerprint_stable_and_sensitive(tmp_path):
    base = PipelineSettings()
    assert base.fingerprint() == PipelineSettings().fingerprint() == "8ce6488eb20f63f1"
    assert base.fingerprint(base.load_lists()) == base.fingerprint()
    assert len(base.fingerprint()) == 16
    int(base.fingerprint(), 16)  # hex
    tweaked = PipelineSettings(detector=DetectorConfig(ratio_tolerance=0.2))
    assert tweaked.fingerprint() != base.fingerprint()
    assert PipelineSettings(window=4).fingerprint() != base.fingerprint()
    # query terms in cleaned form, in any case, stay valid with the same fingerprints
    assert PipelineSettings(query_term="iran").fingerprint() == "8ce6488eb20f63f1"
    assert PipelineSettings(query_term="Iran").fingerprint() == "0bac5cfb8d6f28dd"
    assert PipelineSettings(query_term="#iran").fingerprint() == "3a8f7901146e8de8"
    # a lexicon line for a hashtag token is an entry, not a comment, so it is hashed
    lexicon = tmp_path / "lexicon.tsv"
    bundled = (Path(textmine.__file__).with_name("data") / "lexicon.tsv").read_text("utf-8")
    lexicon.write_text(bundled, encoding="utf-8")
    assert PipelineSettings(lexicon_path=lexicon).fingerprint() == "8ce6488eb20f63f1"
    lexicon.write_text(bundled + "#freeiran\t-1.5\n", encoding="utf-8")
    assert PipelineSettings(lexicon_path=lexicon).fingerprint() != "8ce6488eb20f63f1"


def test_fingerprint_hashes_source_content(tmp_path):
    src = tmp_path / "sources.txt"
    src.write_text("twittbot\n", encoding="utf-8")
    only_twittbot = PipelineSettings(
        detector=DetectorConfig(suspicious_sources=frozenset({"twittbot"})))
    default = PipelineSettings()
    assert only_twittbot.fingerprint() != default.fingerprint()


@pytest.mark.parametrize("settings", [
    PipelineSettings(window=4),
    PipelineSettings(query_term="#iran"),
    PipelineSettings(detector=DetectorConfig(suspicious_sources=frozenset({"twittbot"}))),
], ids=["window", "query_term", "sources"])
def test_fingerprint_is_hashlib_sha256_of_its_payload(settings, monkeypatch):
    """The built-in SHA-256 gives hashlib's digest of the bytes the fingerprint hashes."""
    import hashlib

    blobs = []
    builtin = pipeline.sha256

    def recording(blob):
        blobs.append(blob)
        return builtin(blob)

    monkeypatch.setattr(pipeline, "sha256", recording)
    fingerprint = settings.fingerprint()
    assert len(blobs) == 1 and json.loads(blobs[0])
    assert fingerprint == hashlib.sha256(blobs[0]).hexdigest()[:16]


_HASHLIB_CHILD = """
import sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None  # no built-in SHA-256 module
import hashlib
from botminer import pipeline
print(pipeline.sha256 is hashlib.sha256, pipeline.PipelineSettings().fingerprint())
"""


def test_fingerprint_falls_back_to_hashlib():
    assert _run_child(_HASHLIB_CHILD).split() == ["True", "8ce6488eb20f63f1"]


# one changed value per settings field; a path field's file holds other content
DETECTOR_CHANGES = {
    "min_followers": 101,
    "ratio_tolerance": 0.2,
    "activity_strategy": ActivityStrategy.IQR_FENCE,
    "activity_quantile": 0.9,
    "iqr_multiplier": 2.0,
    "iqr_fence_base": "median",
    "duplicate_min_cluster": 3,
    "suspicious_sources": frozenset({"twittbot"}),
}
SETTINGS_CHANGES = {
    "detector": DetectorConfig(min_followers=5),
    "rate_basis": "lifetime",
    "strictness": "strict",
    "output_format": "jsonl",
    "query_term": "trump",
    "min_df": 0.02,
    "max_df": 0.5,
    "window": 4,
    "k_terms": 10,
    "k_neighbors": 3,
    "stopwords_path": "the\nand\n",
    "lexicon_path": "good\t1\nbad\t-1\n",
}


@pytest.mark.parametrize("owner, field", [("detector", f) for f in DETECTOR_CHANGES]
                         + [("settings", f) for f in SETTINGS_CHANGES])
def test_fingerprint_changes_with_every_field(tmp_path, owner, field):
    assert list(DETECTOR_CHANGES) == list(DetectorConfig._fields)
    assert list(SETTINGS_CHANGES) == list(PipelineSettings._fields)
    base = PipelineSettings()
    if owner == "detector":
        changed = base._replace(detector=base.detector._replace(
            **{field: DETECTOR_CHANGES[field]}))
        assert getattr(changed.detector, field) != getattr(base.detector, field)
    else:
        value = SETTINGS_CHANGES[field]
        if field.endswith("_path"):
            path = tmp_path / field
            path.write_text(value, encoding="utf-8")
            value = str(path)
        changed = base._replace(**{field: value})
        assert getattr(changed, field) != getattr(base, field)
    assert changed.fingerprint() != base.fingerprint()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_synth_then_ingest_check(tmp_path, capsys):
    out = tmp_path / "synth"
    code = main(["synth", "--out", str(out), "--seed", "3",
                 "--humans", "5", "--bots", "1"])
    assert code == 0
    assert (out / "corpus.ndjson").exists()
    assert (out / "ground_truth.csv").exists()
    capsys.readouterr()

    code = main(["ingest-check", str(out / "corpus.ndjson")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "tweets:" in stdout
    assert "accounts: 6" in stdout
    assert "skipped records: 0" in stdout


def test_ingest_check_prints_the_summary_corpus_section(tmp_path, capsys):
    bot_app = '<a href="x">twittbot</a>'
    recs = [record(i="1", text="hope", minutes=0), record(i="2", text="terror", minutes=5),
            record(i="1", text="hope again", minutes=1),  # replaces the first "1"
            record(i="3", text="terror", minutes=3, account="b", source=bot_app)]
    path = write_ndjson(tmp_path / "c.ndjson", recs)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    summary = execute_pipeline(path, tmp_path / "out")
    section = summary.report["corpus"]
    assert section == {**corpus_report(ingest(path)), "rate_basis": "corpus-window"}
    assert main(["ingest-check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "tweets: 3\n"
        "accounts: 2\n"
        "span: 2017-12-30T12:01:00+00:00 .. 2017-12-30T12:05:00+00:00 (0.042 days)\n"
        "skipped records: 1\n"
        "duplicate ids: 1\n")
    assert (section["total_tweets"], section["total_accounts"], section["span_start"],
            section["skipped_records"], section["duplicate_ids"]) == (
        3, 2, "2017-12-30T12:01:00+00:00", 1, 1)


@pytest.mark.parametrize("flags, field", [
    (["--human-rate", "inf"], "human_rate_mean"),
    (["--human-rate", "1e308"], "human_rate_mean"),
    (["--bot-rate", "nan"], "bot_rate_mean"),
    # a statuses_count past 2**63 - 1; the short span keeps each account to a few tweets
    (["--bot-rate", "1e17", "--span-hours", "1e-15"], "bot_rate_mean"),
    (["--span-hours", "inf"], "span_hours"),
    (["--span-hours", "nan"], "span_hours"),
    (["--span-hours", "1e308"], "span_hours"),
    # every statuses_count fits, but the run may draw up to 6e15 tweets
    (["--human-rate", "2e15"], "human_rate_mean"),
    (["--seed", "-1"], "seed"),  # SplitMix64 seeds are in [0, 2**64 - 1]
])
def test_cli_synth_rejects_non_finite_or_overflowing_settings(tmp_path, capsys,
                                                              flags, field):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--humans", "2", "--bots", "1", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("botminer:") and field in err
    assert not out.exists()


def test_cli_detect_prints_share_table(synth_corpus, capsys):
    assert main(["detect", str(synth_corpus)]) == 0
    stdout = capsys.readouterr().out
    assert "NoBot" in stdout and "Suspicious" in stdout and "Bot" in stdout
    assert "(includes Bot)" in stdout
    assert "activity threshold:" in stdout


def test_cli_detect_strategy_flag(synth_corpus, capsys):
    assert main(["detect", str(synth_corpus), "--activity-strategy", "iqr"]) == 0
    assert "(IqrFence)" in capsys.readouterr().out


def test_cli_detect_writes_records(synth_corpus, tmp_path, capsys):
    out = tmp_path / "det"
    assert main(["detect", str(synth_corpus), "--out", str(out),
                 "--format", "jsonl"]) == 0
    assert (out / "classifications.jsonl").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_detect_failed_write_keeps_previous_file(synth_corpus, tmp_path, monkeypatch):
    out = tmp_path / "det"
    assert main(["detect", str(synth_corpus), "--out", str(out)]) == 0
    before = (out / "classifications.csv").read_bytes()
    real_write = pipeline.write_classifications

    def write_then_fail(path, fingerprint, detection, fmt):
        def ids():
            for i, tweet_id in enumerate(detection.tweet_ids):
                if i == 10:
                    raise OSError("disk full")
                yield tweet_id
        real_write(path, fingerprint, Detection(ids(), detection.codes, detection.outcomes,
                                                detection.threshold), fmt)

    monkeypatch.setattr(pipeline, "write_classifications", write_then_fail)
    assert main(["detect", str(synth_corpus), "--out", str(out),
                 "--ratio-tolerance", "0.2"]) == 1
    assert os.listdir(out) == ["classifications.csv"]
    assert (out / "classifications.csv").read_bytes() == before


@pytest.mark.parametrize("flags", [[], ["--rate-basis", "lifetime",
                                         "--activity-strategy", "iqr"]])
def test_cli_detect_and_run_print_one_label_table(synth_corpus, tmp_path, capsys, flags):
    assert main(["detect", str(synth_corpus), *flags]) == 0
    table = capsys.readouterr().out
    assert main(["run", str(synth_corpus), "--out", str(tmp_path / "art"), *flags]) == 0
    lines = table.splitlines()
    assert len(lines) == 5 and lines[-1].startswith("activity threshold:")
    assert capsys.readouterr().out.startswith(table)


def test_cli_run_full_pipeline(synth_corpus, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", str(synth_corpus), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "config fingerprint:" in captured.out
    assert "group mean sentiment" in captured.out
    assert "timing ingest:" in captured.err  # timings go to stderr only
    assert (out / "run_summary.json").exists()


def test_cli_run_on_bot_free_synth_publishes(tmp_path, capsys):
    # nothing is flagged: the run writes every file and skips every KS pair
    assert main(["synth", "--out", str(tmp_path), "--seed", "7",
                 "--humans", "3", "--bots", "0"]) == 0
    out = tmp_path / "report"
    assert main(["run", str(tmp_path / "corpus.ndjson"), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS
    assert capsys.readouterr().out.count("skipped (empty group)") == 3


def test_cli_analyze_reports_ks(synth_corpus, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["analyze", str(synth_corpus), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "KS comparisons" in stdout
    assert "NoBot_vs_Bot" in stdout


def test_cli_missing_file_is_error(tmp_path, capsys):
    assert main(["ingest-check", str(tmp_path / "nope.ndjson")]) == 1
    assert "botminer:" in capsys.readouterr().err


def test_cli_overflowing_record_is_skipped_or_named(tmp_path, capsys):
    path = tmp_path / "c.ndjson"
    bad = json.dumps(record(i="2", followers=12345)).replace("12345", "1e400")
    path.write_text("\n".join([json.dumps(record(i="1")), bad]) + "\n", encoding="utf-8")
    assert main(["ingest-check", str(path)]) == 0
    assert "skipped records: 1" in capsys.readouterr().out
    assert main(["ingest-check", str(path), "--strict"]) == 1
    assert "line 2:" in capsys.readouterr().err


def test_cli_empty_corpus_names_stage(tmp_path, capsys):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("", encoding="utf-8")
    assert main(["run", str(empty), "--out", str(tmp_path / "out")]) == 1
    assert "stage 'ingest' failed" in capsys.readouterr().err


def test_cli_out_that_is_a_file_names_setup_stage(synth_corpus, tmp_path, capsys):
    out = tmp_path / "F"
    out.write_bytes(b"kept")
    assert main(["run", str(synth_corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("botminer: stage 'setup' failed: ")
    assert out.read_bytes() == b"kept"


def test_cli_dests_are_the_pipeline_flags():
    parser = build_parser()
    dests = set()
    for argv in (["ingest-check", "c"], ["detect", "c"], ["analyze", "c", "--out", "o"],
                 ["run", "c", "--out", "o"]):
        dests |= vars(parser.parse_args(argv)).keys()
    not_flags = {"corpus", "out", "config", "command", "func", "full_report"}
    assert dests - not_flags == set(pipeline.FLAGS)


def test_cli_ingest_check_has_no_rate_basis(capsys):
    # what ingest-check prints does not depend on the rate basis
    with pytest.raises(SystemExit) as exc:
        main(["ingest-check", "c", "--rate-basis", "lifetime"])
    assert exc.value.code == 2
    assert "--rate-basis" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["detect", "c"], ["analyze", "c", "--out", "o"],
                                  ["run", "c", "--out", "o"]])
def test_cli_formats_are_the_classification_files(argv, capsys):
    parser = build_parser()
    for fmt in CLASSIFICATION_FILES:
        assert parser.parse_args(argv + ["--format", fmt]).format == fmt
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["--format", "xml"])
    choices = re.search(r"choose from (.*)\)", capsys.readouterr().err).group(1)
    assert choices.replace("'", "").split(", ") == list(CLASSIFICATION_FILES)


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# what the package exported when it imported syngen and rng eagerly, less the
# SentimentLexicon class (load_lexicon returns a plain dict) and group_docs
# (Detection.by_label splits the token streams)
PACKAGE_NAMES = [
    "AccountSnapshot", "AccountStats", "ActivityStrategy", "BotminerError", "Classification",
    "ConfigError", "CooccurrenceModel", "Corpus", "Detection", "DetectionReport",
    "DetectorConfig", "Ecdf", "EmptyCorpusError", "KsResult", "Label", "MalformedRecordError",
    "PipelineSettings", "PipelineStageError", "Rule", "RunSummary", "SplitMix64",
    "SynthConfig", "TokenizedDoc", "Tweet", "VocabModel", "activity_rule",
    "activity_threshold", "build_corpus", "build_vocab", "classify", "cooccurrence",
    "duplicate_rule", "ecdf", "evaluate_detection", "execute_pipeline", "extract_source_app",
    "fold_groups", "generate", "group_mean_sentiment", "group_summary",
    "group_word_sentiment_samples", "ingest", "ks_two_sample", "load_detector_config",
    "load_ground_truth", "load_lexicon", "load_stopwords", "load_suspicious_sources",
    "quantile", "ratio_rule", "run_pipeline", "settings_from_flags", "source_rule",
    "tfidf_weight", "tokenize_corpus", "top_cooccurrents",
]
PACKAGE_MODULES = ["corpus", "detector", "errors", "listfile", "pipeline", "rng", "stats",
                   "syngen", "textmine"]
SYNGEN_NAMES = ["DetectionReport", "SplitMix64", "SynthConfig", "evaluate_detection",
                "generate", "load_ground_truth"]  # from syngen and rng, loaded on first use

_IMPORT_CHILD = """
import json, sys
before = set(sys.modules)
import botminer.cli, botminer.pipeline
out = {"loaded": sorted(set(sys.modules) - before)}
import botminer
names, lazy, modules = json.loads(sys.argv[1])
out["eager_missing"] = [n for n in names if n not in lazy and not hasattr(botminer, n)]
out["syngen_after_eager"] = "botminer.syngen" in sys.modules
botminer.SynthConfig
out["syngen_after_lazy"] = "botminer.syngen" in sys.modules
out["missing"] = [n for n in names + modules if not hasattr(botminer, n)]
star = {}
exec("from botminer import *", star)
out["star_missing"] = [n for n in names if n not in star]
print(json.dumps(out))
"""


def _run_child(code: str, *args) -> str:
    """The stdout of *code*, run to success in a fresh interpreter that imports
    this checkout's botminer.

    The child runs with ``-S``: without ``site``, whose ``.pth`` files may preload
    stdlib modules, a pin on what botminer loads holds in any environment."""
    src_root = Path(pipeline.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src_root), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_module_a_run_does_not_use():
    """dataclasses and inspect (its import), syngen and rng (synth's), html (an
    escaped source's), csv (a CSV writer's), array (ingest's), hashlib with
    OpenSSL behind it and importlib.resources with zipfile stay unloaded."""
    names = json.dumps([PACKAGE_NAMES, SYNGEN_NAMES, PACKAGE_MODULES])
    out = json.loads(_run_child(_IMPORT_CHILD, names))
    unused = {"dataclasses", "inspect", "botminer.syngen", "botminer.rng",
              "html", "html.entities", "csv", "hashlib", "_hashlib",
              "importlib.resources", "zipfile", "array"}
    assert "botminer.pipeline" in out["loaded"]
    assert unused.isdisjoint(out["loaded"])
    assert out["eager_missing"] == [] and not out["syngen_after_eager"]
    assert out["syngen_after_lazy"]  # on first access to one of its names
    assert out["missing"] == [] and out["star_missing"] == []


_PACKAGE_CHILD = """
import json, sys
import botminer
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.startswith("botminer.")),
                  "all": botminer.__all__, "dir": dir(botminer)}))
"""


def test_package_import_loads_no_submodule():
    """`import botminer` alone loads none of its modules, yet lists every
    exported name and module in `__all__` and `dir`."""
    out = json.loads(_run_child(_PACKAGE_CHILD))
    assert out["loaded"] == []
    assert out["all"] == PACKAGE_NAMES
    assert set(PACKAGE_NAMES + PACKAGE_MODULES) <= set(out["dir"])


def test_each_package_name_is_its_modules_own():
    import botminer

    for name in PACKAGE_NAMES:
        value = getattr(botminer, name)
        module = value.__module__.removeprefix("botminer.")
        assert module in PACKAGE_MODULES, name
        assert value is getattr(getattr(botminer, module), name), name


_COMMAND_CHILD = """
import json, sys
before = set(sys.modules)
from botminer.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def _modules_loaded_by(argv) -> set:
    """The modules one CLI command loads, run to success in a fresh interpreter."""
    out = json.loads(_run_child(_COMMAND_CHILD, json.dumps(argv)).splitlines()[-1])
    assert out["code"] == 0
    return set(out["loaded"])


def test_commands_load_html_and_csv_only_when_they_use_them(synth_corpus, tmp_path):
    detect = _modules_loaded_by(["detect", str(synth_corpus), "--format", "jsonl",
                                 "--out", str(tmp_path / "detect")])
    assert {"html", "html.entities", "csv"}.isdisjoint(detect)
    run = _modules_loaded_by(["run", str(synth_corpus), "--out", str(tmp_path / "run")])
    assert "csv" in run and {"html", "html.entities"}.isdisjoint(run)
    # array holds ingest's packed counts; synth ingests nothing
    assert "array" in detect and "array" in run
    synth = _modules_loaded_by(["synth", "--out", str(tmp_path / "synth"), "--humans", "5",
                                "--bots", "1"])
    assert "array" not in synth

    # one tweet's source anchor holds an entity; only that source's app is listed
    lines = synth_corpus.read_text(encoding="utf-8").splitlines()
    escaped = json.loads(lines[0])
    escaped["source"] = '<a href="https://qa.example" rel="nofollow">Q &amp; A</a>'
    corpus = tmp_path / "escaped.ndjson"
    corpus.write_text("\n".join([json.dumps(escaped), *lines[1:]]) + "\n", encoding="utf-8")
    sources = tmp_path / "sources.txt"
    sources.write_text("Q & A\n", encoding="utf-8")
    out = tmp_path / "escaped"
    loaded = _modules_loaded_by(["detect", str(corpus), "--sources", str(sources),
                                 "--format", "jsonl", "--out", str(out)])
    assert "html" in loaded and "csv" not in loaded
    records = (out / "classifications.jsonl").read_text(encoding="utf-8").splitlines()
    flagged = [r["tweet_id"] for r in map(json.loads, records) if "Source" in r["rules"]]
    assert flagged == [escaped["id"]]


@pytest.mark.parametrize("argv", [
    ["run", "{corpus}", "--out", "{out}"],
    ["analyze", "{corpus}", "--out", "{out}", "--format", "jsonl"],
    ["detect", "{corpus}", "--out", "{out}"],
    ["detect", "{corpus}", "--out", "{out}", "--format", "jsonl"],
    ["ingest-check", "{corpus}"],
    ["synth", "--out", "{out}", "--humans", "5", "--bots", "1"],
], ids=["run", "analyze", "detect-csv", "detect-jsonl", "ingest-check", "synth"])
def test_no_command_loads_hashlib(argv, synth_corpus, tmp_path):
    """The fingerprint hashes with the built-in SHA-256, so no run maps OpenSSL."""
    argv = [a.format(corpus=synth_corpus, out=tmp_path / "out") for a in argv]
    assert {"hashlib", "_hashlib", "zipfile"}.isdisjoint(_modules_loaded_by(argv))


# ---------------------------------------------------------------------------
# leftovers of killed runs; classification records formatted once per outcome
# ---------------------------------------------------------------------------

posix_only = pytest.mark.skipif(os.name != "posix",
                                reason="staging directories are only probed on POSIX")


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


@posix_only
def test_successful_runs_remove_leftover_staging_dirs(synth_corpus, tmp_path, capsys):
    # a run killed mid-way (SIGKILL, OOM) never removes its staging directory
    out = tmp_path / "artifacts"
    killed = out / f".partial-{_dead_pid()}-k1lled_x"
    killed.mkdir(parents=True)
    (killed / "wordcloud_bot.csv").write_text("half", encoding="utf-8")
    summary = execute_pipeline(synth_corpus, out)
    assert sorted(os.listdir(out)) == sorted(summary.report["artifacts"])

    det = tmp_path / "det"
    (det / f".partial-{_dead_pid()}-k1lled_x").mkdir(parents=True)
    assert main(["detect", str(synth_corpus), "--out", str(det)]) == 0
    assert os.listdir(det) == ["classifications.csv"]
    capsys.readouterr()


@posix_only
def test_successful_runs_keep_staging_dirs_of_live_runs(synth_corpus, tmp_path, capsys):
    out = tmp_path / "artifacts"
    live = out / f".partial-{os.getpid()}-runn1ng_"  # a run still writing into out
    live.mkdir(parents=True)
    (live / "wordcloud_bot.csv").write_text("half", encoding="utf-8")
    own = out / ".partial-stale"  # not a staging directory's name
    own.mkdir()
    summary = execute_pipeline(synth_corpus, out)
    assert sorted(os.listdir(out)) == sorted([*summary.report["artifacts"], live.name, own.name])
    assert (live / "wordcloud_bot.csv").read_text(encoding="utf-8") == "half"
    capsys.readouterr()


FINGERPRINT = "cafe0123"
HIT_SETS = [
    frozenset(),
    frozenset({Rule.SOURCE}),
    frozenset({Rule.RATIO, Rule.ACTIVITY}),
    frozenset({Rule.DUPLICATE}),
    frozenset({Rule.DUPLICATE, Rule.SOURCE, Rule.RATIO}),
]
tweet_ids = st.text() | st.sampled_from(
    ["é", "日本語", 'say "hi"', "back\\slash", "tab\tline\nfeed", "cr\r", "  ",
     "\x00\x1f\x7f", "line\u2028sep\u2029", "", ",", "a,b", "😀", '""'])
classification_lists = st.lists(st.builds(
    Classification, tweet_ids, st.sampled_from(list(Label)), st.sampled_from(HIT_SETS),
    st.booleans()), max_size=20)


def _check_written_per_record(root, cls, detection):
    """write_classifications(detection) against a per-Classification reference."""
    write_classifications(root / "c.jsonl", FINGERPRINT, detection, "jsonl")
    expected = "".join(json.dumps({
        "tweet_id": c.tweet_id,
        "label": c.label.value,
        "rules": [r.value for r in c.rules],
        "verified_override": c.verified_override,
        "config_fingerprint": FINGERPRINT,
    }, sort_keys=True, separators=(",", ":")) + "\n" for c in cls)
    assert (root / "c.jsonl").read_bytes() == expected.encode("utf-8")

    write_classifications(root / "c.csv", FINGERPRINT, detection, "csv")
    buf = io.StringIO()
    buf.write(f"# config_fingerprint={FINGERPRINT}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tweet_id", "label", "rules", "verified_override"])
    for c in cls:
        writer.writerow([c.tweet_id, c.label.value, "|".join(r.value for r in c.rules),
                         str(c.verified_override).lower()])
    assert (root / "c.csv").read_bytes() == buf.getvalue().encode("utf-8")


@given(classification_lists)
def test_write_classifications_equals_per_record_reference(tmp_path_factory, cls):
    _check_written_per_record(tmp_path_factory.mktemp("records"), cls, detection_of(cls))


# any encodable id (no lone surrogates), and ids that csv.writer must quote or
# that sit next to a quoting character
csv_ids = st.text(st.characters(blacklist_categories=("Cs",))) | st.sampled_from(
    ["", ",", '"', "\r", "\n", "\r\n", "a,b", 'say "hi"', "é,ü", "日本\n語", " lead", "😀"])


@given(st.lists(st.tuples(csv_ids, st.sampled_from(list(Label)), st.sampled_from(HIT_SETS),
                          st.booleans()), max_size=30))
@example([("", Label.BOT, HIT_SETS[3], False), ("é", Label.NO_BOT, HIT_SETS[0], True)])
@example([("1", Label.BOT, HIT_SETS[2], False), ("cr\r", Label.BOT, HIT_SETS[2], False)])
def test_csv_classifications_equal_csv_writer_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_classifications(path, FINGERPRINT, detection_of([Classification(*r) for r in rows]),
                          "csv")
    buf = io.StringIO(newline="")
    buf.write(f"# config_fingerprint={FINGERPRINT}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tweet_id", "label", "rules", "verified_override"])
    writer.writerows([tweet_id, label.value, "|".join(sorted(r.value for r in hits)),
                      "true" if override else "false"] for tweet_id, label, hits, override in rows)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@given(classification_lists)
def test_detection_readers_equal_per_classification_reference(tmp_path_factory, cls):
    detection = detection_of(cls)
    assert list(detection) == cls
    assert len(detection) == len(cls)
    assert len(set(detection.outcomes)) == len(detection.outcomes)  # one code per outcome

    labels = Counter(c.label for c in cls)
    assert detection.label_counts() == {label: labels[label] for label in Label}
    if cls:
        inclusive = {Label.NO_BOT: labels[Label.NO_BOT], Label.BOT: labels[Label.BOT],
                     Label.SUSPICIOUS: labels[Label.SUSPICIOUS] + labels[Label.BOT]}
        assert group_summary(detection) == {
            label: GroupShare(n, n / len(cls)) for label, n in inclusive.items()}
    else:
        with pytest.raises(ValueError):
            group_summary(detection)

    streams = tuple((f"w{i}",) for i in range(len(cls)))
    assert detection.by_label(streams) == {
        label: tuple(s for s, c in zip(streams, cls) if c.label is label) for label in Label}

    _check_written_per_record(tmp_path_factory.mktemp("records"), cls, detection)
