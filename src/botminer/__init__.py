"""botminer: heuristic social-bot detection and tweet-corpus text mining.

The package splits into six parts: `corpus` (ingestion of newline-delimited
tweet dumps), `detector` (four metadata heuristics plus their combination),
`textmine` (tokenization, TF-IDF, co-occurrence, lexicon sentiment), `stats`
(quantiles, ECDFs, two-sample KS test), `syngen` (deterministic synthetic
corpora with planted ground truth), and `pipeline`/`cli` (orchestration and
report artifacts).
"""

from .corpus import (
    AccountSnapshot,
    AccountStats,
    Corpus,
    Tweet,
    account_stats,
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
    RuleHit,
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
from .rng import SplitMix64
from .stats import Ecdf, KsResult, ecdf, iqr, ks_two_sample, quantile
from .syngen import DetectionReport, SynthConfig, evaluate_detection, generate, load_ground_truth
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
