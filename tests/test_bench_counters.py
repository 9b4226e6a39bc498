"""perfbench's per-layer counters still read what the pipeline returns.

perfbench/spans.py computes counts from the arguments and results of the
calls it wraps; if a return type changes shape under it, its counters break
or read wrong.  This loads the module from its file and applies its counters
to real outputs.
"""

import importlib.util
from pathlib import Path

from botminer.corpus import ingest
from botminer.detector import classify
from botminer.textmine import load_stopwords, tokenize_corpus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _counters():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COUNTERS


def test_counters_read_tokenize_and_classify_outputs(default_synth):
    counters = _counters()
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
                       in zip(detection.outcomes, detection.counts())) > 0
