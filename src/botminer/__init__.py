"""botminer: heuristic social-bot detection and tweet-corpus text mining.

The package splits into six parts: `corpus` (ingestion of newline-delimited
tweet dumps), `detector` (four metadata heuristics plus their combination),
`textmine` (tokenization, TF-IDF, co-occurrence, lexicon sentiment), `stats`
(quantiles, ECDFs, two-sample KS test), `syngen` (deterministic synthetic
corpora with planted ground truth), and `pipeline`/`cli` (orchestration and
report artifacts).

Importing the package loads none of its modules.  Each exported name, and
each module, resolves through the module ``__getattr__`` on first access and
imports its module then; `cli` and `pipeline` import the modules they use
themselves.  So `syngen` and `rng`, which no `run`, `analyze` or `detect`
needs, stay unloaded until something asks for them.  Two stdlib modules load
on use too: `csv` when a CSV file is written (``detect --format jsonl``
writes none), and `html` only to unescape a source anchor that holds ``&``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it, each imported on first access
_EXPORTS = {
    "corpus": ("AccountSnapshot", "AccountStats", "Corpus", "Tweet", "build_corpus",
               "extract_source_app", "ingest"),
    "detector": ("ActivityStrategy", "Classification", "Detection", "DetectorConfig", "Label",
                 "Rule", "activity_rule", "activity_threshold", "classify", "duplicate_rule",
                 "fold_groups", "group_summary", "load_detector_config",
                 "load_suspicious_sources", "ratio_rule", "source_rule"),
    "errors": ("BotminerError", "ConfigError", "EmptyCorpusError", "MalformedRecordError",
               "PipelineStageError"),
    "listfile": (),
    "pipeline": ("PipelineSettings", "RunSummary", "execute_pipeline", "run_pipeline",
                 "settings_from_flags"),
    "rng": ("SplitMix64",),
    "stats": ("Ecdf", "KsResult", "ecdf", "ks_two_sample", "quantile"),
    "syngen": ("DetectionReport", "SynthConfig", "evaluate_detection", "generate",
               "load_ground_truth"),
    "textmine": ("CooccurrenceModel", "TokenizedDoc", "VocabModel",
                 "build_vocab", "cooccurrence", "group_mean_sentiment",
                 "group_word_sentiment_samples", "load_lexicon", "load_stopwords",
                 "tfidf_weight", "tokenize_corpus", "top_cooccurrents"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """An exported name or a submodule, imported on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
