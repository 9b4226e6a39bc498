"""botminer: heuristic social-bot detection and tweet-corpus text mining.

The package splits into six parts: `corpus` (ingestion of newline-delimited
tweet dumps), `detector` (four metadata heuristics plus their combination),
`textmine` (tokenization, TF-IDF, co-occurrence, lexicon sentiment), `stats`
(quantiles, ECDFs, two-sample KS test), `syngen` (deterministic synthetic
corpora with planted ground truth), and `pipeline`/`cli` (orchestration and
report artifacts).

`syngen` and `rng` load on first use: no `run`, `analyze` or `detect` needs
them, so importing the package or the CLI does not.  Their names below
(`SynthConfig`, `generate`, `SplitMix64`, ...) resolve through the module
``__getattr__`` and import them then.  Two stdlib modules load on use too:
`csv` when a CSV file is written (``detect --format jsonl`` writes none), and
`html` only to unescape a source anchor that holds ``&``.  Every command
pays for what importing the CLI loads, so nothing loads there that a command
may not use.
"""

import importlib

from .corpus import (
    AccountSnapshot,
    AccountStats,
    Corpus,
    Tweet,
    build_corpus,
    extract_source_app,
    ingest,
)
from .detector import (
    ActivityStrategy,
    Classification,
    Detection,
    DetectorConfig,
    Label,
    Rule,
    activity_rule,
    activity_threshold,
    classify,
    duplicate_rule,
    fold_groups,
    group_summary,
    load_detector_config,
    load_suspicious_sources,
    ratio_rule,
    source_rule,
)
from .errors import (
    BotminerError,
    ConfigError,
    EmptyCorpusError,
    MalformedRecordError,
    PipelineStageError,
)
from .pipeline import (
    PipelineSettings,
    RunSummary,
    execute_pipeline,
    run_pipeline,
    settings_from_flags,
)
from .stats import Ecdf, KsResult, ecdf, ks_two_sample, quantile
from .textmine import (
    CooccurrenceModel,
    SentimentLexicon,
    TokenizedDoc,
    VocabModel,
    build_vocab,
    cooccurrence,
    group_docs,
    group_mean_sentiment,
    group_word_sentiment_samples,
    load_lexicon,
    load_stopwords,
    tfidf_weight,
    tokenize_corpus,
    top_cooccurrents,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first access
_LAZY = {
    "SplitMix64": "rng",
    "DetectionReport": "syngen",
    "SynthConfig": "syngen",
    "evaluate_detection": "syngen",
    "generate": "syngen",
    "load_ground_truth": "syngen",
}

__all__ = [
    "AccountSnapshot", "AccountStats", "Corpus", "Tweet", "build_corpus",
    "extract_source_app", "ingest",
    "ActivityStrategy", "Classification", "Detection", "DetectorConfig", "Label", "Rule",
    "activity_rule", "activity_threshold", "classify", "duplicate_rule", "fold_groups",
    "group_summary", "load_detector_config", "load_suspicious_sources", "ratio_rule",
    "source_rule",
    "BotminerError", "ConfigError", "EmptyCorpusError", "MalformedRecordError",
    "PipelineStageError",
    "PipelineSettings", "RunSummary", "execute_pipeline", "run_pipeline",
    "settings_from_flags",
    "Ecdf", "KsResult", "ecdf", "ks_two_sample", "quantile",
    "CooccurrenceModel", "SentimentLexicon", "TokenizedDoc", "VocabModel", "build_vocab",
    "cooccurrence", "group_docs", "group_mean_sentiment", "group_word_sentiment_samples",
    "load_lexicon", "load_stopwords", "tfidf_weight", "tokenize_corpus", "top_cooccurrents",
    *_LAZY,
]


def __getattr__(name):
    """A lazy name, or the rng or syngen module itself, imported on first access."""
    if name in ("rng", "syngen"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value
