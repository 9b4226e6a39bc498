"""perfbench's per-layer counters and quality check still read what the pipeline returns.

perfbench/spans.py computes counts from the arguments and results of the
calls it wraps, and perfbench/checks.py scores a run's labels through
syngen.evaluate_detection; if a type changes shape under them, they break or
read wrong.  This loads both modules from their files and applies them to
real outputs, and traces one whole CLI run as a traced benchmark run
does.  perfbench/worker.py times set-up by resolving each workload's
flags; those must resolve to the settings its argv gives the CLI.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from botminer import cli, pipeline
from botminer.cli import main
from botminer.corpus import ingest
from botminer.detector import classify
from botminer.syngen import evaluate_detection
from botminer.textmine import load_stopwords, tokenize_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text("utf-8"))["workloads"]


def _load(name):
    """perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counters_read_tokenize_and_classify_outputs(default_synth):
    counters = _load("spans").COUNTERS
    corpus = ingest(default_synth[0])
    args = (corpus.tweets, load_stopwords())
    docs = tokenize_corpus(*args)
    counts = counters["textmine.tokenize_corpus"](args, docs)
    assert counts["texts"] == len(corpus)
    assert counts["distinct_texts"] == len(set(corpus.texts))
    assert counts["tokens"] == sum(map(len, docs.streams)) > 0

    detection = classify(corpus)
    hits = counters["detector.classify"]((corpus,), detection)["rule_hits"]
    assert hits == sum(len(rules) * n for (_, rules, _), n
                       in zip(detection.outcomes, detection.counts)) > 0


def test_detection_quality_equals_evaluate_detection(default_synth):
    corpus_path, _, truth = default_synth
    corpus = ingest(corpus_path)
    detection = classify(corpus)
    labels = [(c.tweet_id, c.label.value) for c in detection]  # as read from the label file
    report = _load("checks").detection_quality(labels, dict(zip(corpus.ids, corpus.author_ids)),
                                               truth)
    assert report == evaluate_detection(detection, corpus, truth)
    assert report.recall > 0


def test_traced_run_reaches_every_layer_and_counts(default_synth, tmp_path, monkeypatch):
    spans = _load("spans")
    # Tracer.install replaces these attributes; monkeypatch puts them back
    for module_name, functions in spans.WRAPPED.items():
        module = importlib.import_module(f"botminer.{module_name}")
        for name in functions:
            monkeypatch.setattr(module, name, getattr(module, name))
    monkeypatch.setattr(pipeline.PipelineSettings, "fingerprint",
                        pipeline.PipelineSettings.fingerprint)
    tracer = spans.Tracer()
    tracer.install()

    out = tmp_path / "out"
    assert cli.main(["run", str(default_synth[0]), "--out", str(out)]) == 0
    artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
    metrics, absent = spans.layer_metrics(tracer.spans, artifact_bytes)
    assert absent == []
    # every wrapped call is reached, not only every layer: a run that skipped
    # corpus.build_corpus would read corpus.aggregate_s as 0 and still reach "corpus"
    reached = {s[spans.NAME] for s in tracer.spans}
    assert reached >= {f"{module_name}.{name}" for module_name, functions in spans.WRAPPED.items()
                       for name in functions}
    counted ={s[spans.NAME] for s in tracer.spans if s[spans.COUNTS]}
    assert counted == set(spans.COUNTERS)
    assert metrics["detector.rule_hits"] > 0 and metrics["textmine.tokens"] > 0


class _Resolved(BaseException):
    """Ends a CLI run once it has resolved its settings (no handler catches it)."""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_flags_resolve_as_its_argv(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    resolve = pipeline.settings_from_flags
    resolved = []

    def resolve_and_stop(config_path, flags):
        resolved.append(resolve(config_path, flags))
        raise _Resolved

    monkeypatch.setattr(pipeline, "settings_from_flags", resolve_and_stop)
    argv = [arg.format(corpus=tmp_path / "corpus.ndjson", out=tmp_path / "out")
            for arg in workload["argv"]]
    with pytest.raises(_Resolved):
        main(argv)
    assert resolved == [resolve(None, workload["flags"])]
