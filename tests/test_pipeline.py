"""Pipeline orchestration, artifact layout, and the CLI wrapper."""

import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from botminer import pipeline, textmine
from botminer.cli import main
from botminer.detector import (
    ActivityStrategy,
    Classification,
    DetectorConfig,
    Label,
    Rule,
    RuleHit,
    fold_groups,
)
from botminer.errors import PipelineStageError
from botminer.pipeline import (
    PipelineSettings,
    compare_group_sentiment,
    execute_pipeline,
    run_pipeline,
    settings_from_flags,
    write_classifications,
)
from botminer.syngen import SynthConfig, generate
from botminer.textmine import SentimentLexicon, group_docs, group_word_sentiment_samples

from conftest import docs_of, record, write_ndjson

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
    assert sorted(summary.artifacts) == sorted(EXPECTED_ARTIFACTS)
    fingerprint = PipelineSettings().fingerprint()
    assert summary.config_fingerprint == fingerprint
    for name in EXPECTED_ARTIFACTS - {"run_summary.json"}:
        first = (out / name).read_text("utf-8").splitlines()[0]
        assert first == f"# config_fingerprint={fingerprint}"


@pytest.mark.parametrize("first, second", [("csv", "jsonl"), ("jsonl", "csv")])
def test_rerun_in_other_format_removes_stale_classifications(synth_corpus, tmp_path,
                                                             first, second):
    out = tmp_path / "artifacts"
    execute_pipeline(synth_corpus, out, PipelineSettings(output_format=first))
    summary = execute_pipeline(synth_corpus, out, PipelineSettings(output_format=second))
    assert sorted(os.listdir(out)) == sorted(summary.artifacts)
    assert f"classifications.{second}" in summary.artifacts


def test_pipeline_loads_each_list_once(synth_corpus, tmp_path, monkeypatch):
    loads = Counter()
    for name in ("load_stopwords", "load_lexicon"):
        def counting(*args, _real=getattr(textmine, name), _name=name):
            loads[_name] += 1
            return _real(*args)
        monkeypatch.setattr(textmine, name, counting)
    summary = execute_pipeline(synth_corpus, tmp_path / "artifacts")
    assert loads == {"load_stopwords": 1, "load_lexicon": 1}
    assert summary.config_fingerprint == PipelineSettings().fingerprint()


def test_pipeline_summary_file_contents(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    summary = execute_pipeline(synth_corpus, out)
    on_disk = json.loads((out / "run_summary.json").read_text("utf-8"))
    assert on_disk == summary.to_dict()
    assert set(on_disk) == {"artifacts", "config_fingerprint", "corpus",
                            "detection", "sentiment"}
    assert "timings" not in (out / "run_summary.json").read_text("utf-8")
    assert summary.timings  # measured, just not persisted

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
    assert overrides == summary.verified_overrides == 2
    assert {k: v["count"] for k, v in summary.disjoint_shares.items()} == {
        label.value: labels[label.value] for label in Label}
    assert summary.rule_hits == {rule.value: rules[rule.value] for rule in Rule}
    assert min(summary.rule_hits.values()) > 0


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
    assert summary.activity_strategy == "IqrFence"
    assert summary.activity_threshold > 0


def test_pipeline_empty_corpus_names_ingest_stage(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "artifacts"
    with pytest.raises(PipelineStageError, match="stage 'ingest' failed") as err:
        execute_pipeline(empty, out)
    assert err.value.stage == "ingest"
    assert list(out.iterdir()) == []  # nothing left behind


def test_pipeline_single_group_fails_compare_and_cleans_up(tmp_path):
    # every tweet NoBot: word-sentiment comparison has nothing to compare
    corpus = write_ndjson(tmp_path / "c.ndjson", [
        record(i="1", text="blargh zibble"),
        record(i="2", text="wumpus dorple", minutes=5),
    ])
    out = tmp_path / "artifacts"
    with pytest.raises(PipelineStageError, match="stage 'compare' failed") as err:
        execute_pipeline(corpus, out)
    assert err.value.stage == "compare"
    assert list(out.iterdir()) == []  # partial tables were removed


def test_failed_rerun_keeps_previous_artifacts(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    execute_pipeline(synth_corpus, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("matchesnothing\t1\n", encoding="utf-8")
    with pytest.raises(PipelineStageError, match="stage 'compare' failed"):
        execute_pipeline(synth_corpus, out, PipelineSettings(lexicon_path=str(lexicon)))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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
    fingerprint = summary.config_fingerprint
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
    assert "classifications.jsonl" in summary.artifacts
    lines = (out / "classifications.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == summary.total_tweets
    first = json.loads(lines[0])
    assert set(first) == {"tweet_id", "label", "rules", "verified_override",
                          "config_fingerprint"}
    assert first["config_fingerprint"] == summary.config_fingerprint


def test_classification_csv_rows_match_objects(synth_corpus, tmp_path):
    out = tmp_path / "artifacts"
    summary = execute_pipeline(synth_corpus, out)
    lines = (out / "classifications.csv").read_text("utf-8").splitlines()
    assert lines[1] == "tweet_id,label,rules,verified_override"
    assert len(lines) == summary.total_tweets + 2
    labels = {line.split(",")[1] for line in lines[2:]}
    assert labels <= {"NoBot", "Suspicious", "Bot"}


def test_write_classifications_standalone(tmp_path):
    cls = [Classification("t1", Label.BOT, frozenset()),
           Classification("t2", Label.NO_BOT, frozenset(), verified_override=True)]
    path = tmp_path / "cls.csv"
    write_classifications(path, "cafe0123", cls, "csv")
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "# config_fingerprint=cafe0123"
    assert lines[2] == "t1,Bot,,false"
    assert lines[3] == "t2,NoBot,,true"


# ---------------------------------------------------------------------------
# group comparisons
# ---------------------------------------------------------------------------

LEX = SentimentLexicon({"bad": -1, "good": 1})


def test_compare_group_sentiment_identical_groups():
    samples = {Label.NO_BOT: Counter([1.0, -1.0]), Label.BOT: Counter([1.0, -1.0]),
               Label.SUSPICIOUS: Counter()}
    out = compare_group_sentiment(samples)
    assert out["NoBot_vs_Bot"].d_statistic == 0.0
    assert out["NoBot_vs_Bot"].p_value == 1.0
    assert out["NoBot_vs_Suspicious"] is None  # empty side skipped
    assert out["Suspicious_vs_Bot"] is None


def test_compare_group_sentiment_needs_two_groups():
    with pytest.raises(ValueError):
        compare_group_sentiment({Label.NO_BOT: Counter([1.0]), Label.SUSPICIOUS: Counter(),
                                 Label.BOT: Counter()})


def test_compare_groups_disjoint_supports():
    docs = docs_of([["bad"], ["bad"], ["good"], ["good"]])
    cls = [Classification("d0", Label.BOT, frozenset()),
           Classification("d1", Label.BOT, frozenset()),
           Classification("d2", Label.NO_BOT, frozenset()),
           Classification("d3", Label.NO_BOT, frozenset())]
    out = compare_group_sentiment(
        fold_groups(group_word_sentiment_samples(group_docs(cls, docs), LEX)))
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
    with pytest.raises(ValueError):
        PipelineSettings(output_format="xml")


def test_settings_from_flags_precedence(tmp_path):
    cfg = tmp_path / "detector.cfg"
    cfg.write_text("activity_quantile = 0.9\nmin_followers = 42\n", encoding="utf-8")
    s = settings_from_flags(cfg, {"quantile": 0.8})
    assert s.detector.activity_quantile == 0.8  # flag beats file
    assert s.detector.min_followers == 42       # file beats default


def test_settings_from_flags_full_set(tmp_path):
    src = tmp_path / "sources.txt"
    src.write_text("botapp\n", encoding="utf-8")
    s = settings_from_flags(None, {
        "sources": src, "activity_strategy": "iqr", "ratio_tolerance": 0.2,
        "rate_basis": "lifetime", "strict": True, "format": "jsonl",
        "query_term": "tehran", "min_df": 0.0, "max_df": 0.9, "window": 3,
        "k_terms": 10, "k_neighbors": 2,
    })
    assert s.detector.suspicious_sources == frozenset({"botapp"})
    assert s.detector.activity_strategy is ActivityStrategy.IQR_FENCE
    assert s.detector.ratio_tolerance == 0.2
    assert s.rate_basis == "lifetime"
    assert s.strictness == "strict"
    assert s.output_format == "jsonl"
    assert (s.query_term, s.min_df, s.max_df) == ("tehran", 0.0, 0.9)
    assert (s.window, s.k_terms, s.k_neighbors) == (3, 10, 2)


def test_settings_from_flags_rejects_unknown():
    with pytest.raises(ValueError, match="unknown pipeline flags"):
        settings_from_flags(None, {"bogus": 1})
    with pytest.raises(ValueError, match="rate basis"):
        settings_from_flags(None, {"rate_basis": "fortnight"})


def test_run_pipeline_wraps_config_errors(tmp_path):
    corpus = write_ndjson(tmp_path / "c.ndjson", [record()])
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(corpus, flags={"bogus": 1}, out_dir=tmp_path / "out")
    assert err.value.stage == "config"


def test_fingerprint_stable_and_sensitive():
    base = PipelineSettings()
    assert base.fingerprint() == PipelineSettings().fingerprint() == "8ce6488eb20f63f1"
    assert base.fingerprint(base.load_lists()) == base.fingerprint()
    assert len(base.fingerprint()) == 16
    int(base.fingerprint(), 16)  # hex
    tweaked = PipelineSettings(detector=DetectorConfig(ratio_tolerance=0.2))
    assert tweaked.fingerprint() != base.fingerprint()
    assert PipelineSettings(window=4).fingerprint() != base.fingerprint()


def test_fingerprint_hashes_source_content(tmp_path):
    src = tmp_path / "sources.txt"
    src.write_text("twittbot\n", encoding="utf-8")
    only_twittbot = PipelineSettings(
        detector=DetectorConfig(suspicious_sources=frozenset({"twittbot"})))
    default = PipelineSettings()
    assert only_twittbot.fingerprint() != default.fingerprint()


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

    def write_then_fail(path, fingerprint, classifications, fmt):
        def rows():
            for i, c in enumerate(classifications):
                if i == 10:
                    raise OSError("disk full")
                yield c
        real_write(path, fingerprint, rows(), fmt)

    monkeypatch.setattr(pipeline, "write_classifications", write_then_fail)
    assert main(["detect", str(synth_corpus), "--out", str(out),
                 "--ratio-tolerance", "0.2"]) == 1
    assert os.listdir(out) == ["classifications.csv"]
    assert (out / "classifications.csv").read_bytes() == before


def test_cli_run_full_pipeline(synth_corpus, tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", str(synth_corpus), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "config fingerprint:" in captured.out
    assert "group mean sentiment" in captured.out
    assert "timing ingest:" in captured.err  # timings go to stderr only
    assert (out / "run_summary.json").exists()


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


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])

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
    assert sorted(os.listdir(out)) == sorted(summary.artifacts)

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
    assert sorted(os.listdir(out)) == sorted([*summary.artifacts, live.name, own.name])
    assert (live / "wordcloud_bot.csv").read_text(encoding="utf-8") == "half"
    capsys.readouterr()


FINGERPRINT = "cafe0123"
HIT_SETS = [
    frozenset(),
    frozenset({RuleHit(Rule.SOURCE, "posted via suspicious app 'x'")}),
    frozenset({RuleHit(Rule.RATIO, "r"), RuleHit(Rule.ACTIVITY, "a")}),
    frozenset({RuleHit(Rule.DUPLICATE, "shared by 2"), RuleHit(Rule.DUPLICATE, "shared by 3")}),
    frozenset({RuleHit(Rule.DUPLICATE, "d"), RuleHit(Rule.SOURCE, "s"), RuleHit(Rule.RATIO, "r")}),
]
tweet_ids = st.text() | st.sampled_from(
    ["é", "日本語", 'say "hi"', "back\\slash", "tab\tline\nfeed", "cr\r", "  ",
     "\x00\x1f\x7f", "line\u2028sep\u2029", "", ",", "a,b", "😀", '""'])
classification_lists = st.lists(st.builds(
    Classification, tweet_ids, st.sampled_from(list(Label)), st.sampled_from(HIT_SETS),
    st.booleans()), max_size=20)


@given(classification_lists)
def test_write_classifications_equals_per_record_reference(tmp_path_factory, cls):
    root = tmp_path_factory.mktemp("records")
    write_classifications(root / "c.jsonl", FINGERPRINT, cls, "jsonl")
    expected = "".join(json.dumps({
        "tweet_id": c.tweet_id,
        "label": c.label.value,
        "rules": [r.value for r in c.rules],
        "verified_override": c.verified_override,
        "config_fingerprint": FINGERPRINT,
    }, sort_keys=True, separators=(",", ":")) + "\n" for c in cls)
    assert (root / "c.jsonl").read_bytes() == expected.encode("utf-8")

    write_classifications(root / "c.csv", FINGERPRINT, cls, "csv")
    buf = io.StringIO()
    buf.write(f"# config_fingerprint={FINGERPRINT}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tweet_id", "label", "rules", "verified_override"])
    for c in cls:
        writer.writerow([c.tweet_id, c.label.value, "|".join(r.value for r in c.rules),
                         str(c.verified_override).lower()])
    assert (root / "c.csv").read_bytes() == buf.getvalue().encode("utf-8")
