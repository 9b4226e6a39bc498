"""Spans around botminer's public calls, installed from outside the package.

The tracer replaces module attributes with timing wrappers, so calls made
through the module (``corpus_mod.ingest``) or through a module's own globals
(``classify`` calling ``duplicate_rule``) are both seen.  Only functions a
run calls at most a few dozen times are wrapped; per-record functions are
left alone and their counts are read from returned objects instead.

Spans stay in memory as lists and are written out once, after the run.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# span layout: [name, start_s, end_s, parent_index, peak_rss_start_kib,
#               peak_rss_end_kib, counts]
NAME, START, END, PARENT, RSS_START, RSS_END, COUNTS = range(7)

# module -> public functions to wrap; span name is "<module>.<function>"
WRAPPED = {
    "corpus": ("ingest", "build_corpus"),
    "detector": ("classify", "duplicate_rule", "activity_threshold", "group_summary"),
    "textmine": ("tokenize_corpus", "build_vocab", "cooccurrence", "top_cooccurrents",
                 "group_mean_sentiment", "group_word_sentiment_samples"),
    "stats": ("ecdf", "ks_two_sample"),
    "pipeline": ("run_pipeline", "compare_group_sentiment", "write_classifications"),
    "cli": ("main",),
}

# counts read from a wrapped call's arguments and result: span name -> fn(args, result)
COUNTERS = {
    "corpus.ingest": lambda args, corp: {
        "tweets": len(corp),
        "records_in": len(corp) + corp.skipped_count + corp.duplicate_count,
        "records_skipped": corp.skipped_count,
        "accounts": len(corp.accounts),
    },
    "detector.classify": lambda args, out: {"rule_hits": sum(len(c.hits) for c in out)},
    "textmine.tokenize_corpus": lambda args, docs: {
        "texts": len(docs),
        "distinct_texts": len({t.text for t in args[0]}),
        "tokens": sum(len(d.tokens) for d in docs),
    },
    "textmine.build_vocab": lambda args, vocab: {"docs": vocab.n_docs},
    "textmine.group_word_sentiment_samples": lambda args, samples: {
        "values": sum(len(v) for v in samples.values()),
    },
    "stats.ks_two_sample": lambda args, res: {"points": res.n1 + res.n2},
}

_COUNT_SPAN = "trace.count"  # time spent computing counts; belongs to no layer


def peak_rss_kib() -> int:
    """Peak resident set size of this process so far, in KiB.

    On Linux this is VmHWM.  ru_maxrss is not used there: across fork and exec
    it keeps the parent's peak, so a worker would report the harness's size.
    """
    if sys.platform.startswith("linux"):
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects nested spans for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, peak_rss_kib(), 0, None]
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter()
        span[RSS_END] = peak_rss_kib()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                # a sibling span, so counting is charged to no layer's self time
                count_span = self._open(_COUNT_SPAN)
                try:
                    span[COUNTS] = counter(args, result)
                finally:
                    self._close(count_span)
            return result

        return traced

    def install(self):
        """Wrap every function in WRAPPED plus PipelineSettings.fingerprint."""
        import importlib

        for module_name, functions in WRAPPED.items():
            module = importlib.import_module(f"botminer.{module_name}")
            for fn_name in functions:
                setattr(module, fn_name,
                        self.wrap(f"{module_name}.{fn_name}", getattr(module, fn_name)))
        settings_cls = importlib.import_module("botminer.pipeline").PipelineSettings
        settings_cls.fingerprint = self.wrap("pipeline.fingerprint", settings_cls.fingerprint)


def _durations(spans):
    """Per span: (duration, self time, self peak-RSS growth in KiB)."""
    dur = [s[END] - s[START] for s in spans]
    growth = [s[RSS_END] - s[RSS_START] for s in spans]
    self_t = list(dur)
    self_g = list(growth)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= dur[i]
            self_g[s[PARENT]] -= growth[i]
    return dur, self_t, self_g


# per-layer metric -> unit; the order is the order they are printed in
LAYER_METRICS = {
    "corpus.ingest_s": "s",
    "corpus.parse_self_s": "s",
    "corpus.aggregate_s": "s",
    "corpus.records_in": "count",
    "corpus.records_skipped": "count",
    "corpus.accounts": "count",
    "corpus.rss_growth_mib": "MiB",
    "detector.classify_s": "s",
    "detector.duplicate_rule_s": "s",
    "detector.threshold_s": "s",
    "detector.threshold_calls": "count",
    "detector.group_summary_s": "s",
    "detector.rule_hits": "count",
    "detector.rss_growth_mib": "MiB",
    "textmine.tokenize_s": "s",
    "textmine.tokens": "count",
    "textmine.distinct_text_ratio": "ratio",
    "textmine.vocab_s": "s",
    "textmine.cooccurrence_s": "s",
    "textmine.group_docs_ratio": "ratio",
    "textmine.top_cooccurrents_s": "s",
    "textmine.sentiment_s": "s",
    "textmine.sentiment_values": "count",
    "textmine.rss_growth_mib": "MiB",
    "stats.ecdf_s": "s",
    "stats.ks_s": "s",
    "stats.ks_points": "count",
    "pipeline.fingerprint_s": "s",
    "pipeline.fingerprint_calls": "count",
    "pipeline.write_classifications_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "cli.self_s": "s",
}


def layer_metrics(spans, artifact_bytes: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced run, plus the layers it never entered.

    A layer that never ran reports 0 for each of its metrics and is listed
    as absent, so a reader can tell "not reached" from "fast".
    """
    dur, self_t, self_g = _durations(spans)
    total = {}
    self_total = {}
    calls = {}
    counts = {}
    layer_growth = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + dur[i]
        self_total[name] = self_total.get(name, 0.0) + self_t[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_growth[layer] = layer_growth.get(layer, 0) + self_g[i]
        for key, value in (s[COUNTS] or {}).items():
            counts[f"{name}:{key}"] = counts.get(f"{name}:{key}", 0) + value

    def t(name):
        return total.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def mib(layer):
        return layer_growth.get(layer, 0) / 1024.0

    tweets = c("corpus.ingest:tweets")
    m = {
        "corpus.ingest_s": t("corpus.ingest"),
        "corpus.parse_self_s": self_total.get("corpus.ingest", 0.0),
        "corpus.aggregate_s": t("corpus.build_corpus"),
        "corpus.records_in": c("corpus.ingest:records_in"),
        "corpus.records_skipped": c("corpus.ingest:records_skipped"),
        "corpus.accounts": c("corpus.ingest:accounts"),
        "corpus.rss_growth_mib": mib("corpus"),
        "detector.classify_s": t("detector.classify"),
        "detector.duplicate_rule_s": t("detector.duplicate_rule"),
        "detector.threshold_s": t("detector.activity_threshold"),
        "detector.threshold_calls": calls.get("detector.activity_threshold", 0),
        "detector.group_summary_s": t("detector.group_summary"),
        "detector.rule_hits": c("detector.classify:rule_hits"),
        "detector.rss_growth_mib": mib("detector"),
        "textmine.tokenize_s": t("textmine.tokenize_corpus"),
        "textmine.tokens": c("textmine.tokenize_corpus:tokens"),
        "textmine.distinct_text_ratio": ratio(c("textmine.tokenize_corpus:distinct_texts"),
                                              c("textmine.tokenize_corpus:texts")),
        "textmine.vocab_s": t("textmine.build_vocab"),
        "textmine.cooccurrence_s": t("textmine.cooccurrence"),
        "textmine.group_docs_ratio": ratio(c("textmine.build_vocab:docs"), tweets),
        "textmine.top_cooccurrents_s": t("textmine.top_cooccurrents"),
        "textmine.sentiment_s": (t("textmine.group_mean_sentiment")
                                 + t("textmine.group_word_sentiment_samples")),
        "textmine.sentiment_values": c("textmine.group_word_sentiment_samples:values"),
        "textmine.rss_growth_mib": mib("textmine"),
        "stats.ecdf_s": t("stats.ecdf"),
        "stats.ks_s": t("stats.ks_two_sample"),
        "stats.ks_points": c("stats.ks_two_sample:points"),
        "pipeline.fingerprint_s": t("pipeline.fingerprint"),
        "pipeline.fingerprint_calls": calls.get("pipeline.fingerprint", 0),
        "pipeline.write_classifications_s": t("pipeline.write_classifications"),
        "pipeline.self_s": (self_total.get("pipeline.run_pipeline", 0.0)
                            + self_total.get("pipeline.compare_group_sentiment", 0.0)),
        "pipeline.artifact_bytes": artifact_bytes,
        "cli.self_s": self_total.get("cli.main", 0.0),
    }
    entered = {s[NAME].split(".", 1)[0] for s in spans}
    absent = sorted({name.split(".", 1)[0] for name in WRAPPED} - entered)
    return m, absent
