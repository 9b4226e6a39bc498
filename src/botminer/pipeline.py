"""End-to-end orchestration: ingest, detect, analyze, compare, report.

Every artifact starts with a ``# config_fingerprint=...`` comment so outputs
can always be traced back to the exact configuration that produced them.
Artifacts are byte-identical across runs with the same inputs: stage timings
are kept on the returned RunSummary object (and printed by the CLI) but are
deliberately left out of run_summary.json.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from . import corpus as corpus_mod
from . import detector as detector_mod
from . import stats as stats_mod
from . import textmine as textmine_mod
from .detector import DetectorConfig, Label
from .errors import PipelineStageError
from .stats import KsResult

__all__ = [
    "GROUP_SLUGS",
    "COMPARISON_PAIRS",
    "CLASSIFICATION_FILES",
    "PipelineSettings",
    "RunSummary",
    "settings_from_flags",
    "compare_group_sentiment",
    "write_classifications",
    "save_classifications",
    "execute_pipeline",
    "run_pipeline",
]

GROUP_SLUGS = {
    Label.NO_BOT: "nobot",
    Label.SUSPICIOUS: "suspicious",
    Label.BOT: "bot",
}

COMPARISON_PAIRS = (
    (Label.NO_BOT, Label.BOT),
    (Label.NO_BOT, Label.SUSPICIOUS),
    (Label.SUSPICIOUS, Label.BOT),
)

# output_format -> name of the per-tweet classification file
CLASSIFICATION_FILES = {"csv": "classifications.csv", "jsonl": "classifications.jsonl"}

# A run's temporary directory in --out is named .partial-<pid>-<mkdtemp suffix>.
_STAGING_PREFIX = ".partial-"
_STAGING_NAME = re.compile(r"\.partial-(\d+)-[a-z0-9_]{8}")


@dataclass(frozen=True)
class PipelineSettings:
    """Everything that influences pipeline output, in one fingerprintable bag."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    rate_basis: str = corpus_mod.RATE_CORPUS_WINDOW
    strictness: str = corpus_mod.LENIENT
    output_format: str = "csv"  # classification file format: csv | jsonl
    query_term: str = textmine_mod.DEFAULT_QUERY_TERM
    min_df: float = 0.01
    max_df: float = 0.45
    window: int = 5
    k_terms: int = 20
    k_neighbors: int = 5
    stopwords_path: str | None = None
    lexicon_path: str | None = None

    def __post_init__(self):
        if self.output_format not in CLASSIFICATION_FILES:
            raise ValueError(f"output_format must be csv or jsonl, got {self.output_format!r}")

    def load_lists(self) -> tuple:
        """The (stop-word set, SentimentLexicon) pair read from the configured files."""
        return (textmine_mod.load_stopwords(self.stopwords_path),
                textmine_mod.load_lexicon(self.lexicon_path))

    def fingerprint(self, lists: tuple | None = None) -> str:
        """sha256 over the resolved configuration (content, not file paths).

        *lists* is the load_lists() pair a run uses, so the hash covers
        exactly those objects; it is loaded here when omitted.
        """
        stopwords, lexicon = self.load_lists() if lists is None else lists
        payload = {
            "detector": {
                "min_followers": self.detector.min_followers,
                "ratio_tolerance": self.detector.ratio_tolerance,
                "activity_strategy": self.detector.activity_strategy.value,
                "activity_quantile": self.detector.activity_quantile,
                "iqr_multiplier": self.detector.iqr_multiplier,
                "iqr_fence_base": self.detector.iqr_fence_base,
                "duplicate_min_cluster": self.detector.duplicate_min_cluster,
                "suspicious_sources": sorted(self.detector.suspicious_sources),
            },
            "rate_basis": self.rate_basis,
            "strictness": self.strictness,
            "output_format": self.output_format,
            "query_term": self.query_term,
            "min_df": self.min_df,
            "max_df": self.max_df,
            "window": self.window,
            "k_terms": self.k_terms,
            "k_neighbors": self.k_neighbors,
            "stopwords": sorted(stopwords),
            "lexicon": sorted(lexicon.polarity.items()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunSummary:
    """Outcome of one pipeline run.

    ``timings`` lives only on this object; the JSON written to disk excludes
    it so repeated runs stay byte-identical.
    """

    config_fingerprint: str
    total_tweets: int
    total_accounts: int
    span_start: str
    span_end: str
    skipped_records: int
    duplicate_ids: int
    rate_basis: str
    activity_strategy: str
    activity_threshold: float
    label_shares: dict          # inclusive counts/shares per label
    disjoint_shares: dict       # per-label counts/shares with Bot carved out
    rule_hits: dict             # rule -> tweets with that rule firing
    verified_overrides: int
    mean_sentiment: dict        # label -> mean per-tweet score or None
    ks_comparisons: dict        # "A_vs_B" -> dict or None
    artifacts: list
    timings: dict

    def to_dict(self) -> dict:
        return {
            "config_fingerprint": self.config_fingerprint,
            "corpus": {
                "total_tweets": self.total_tweets,
                "total_accounts": self.total_accounts,
                "span_start": self.span_start,
                "span_end": self.span_end,
                "skipped_records": self.skipped_records,
                "duplicate_ids": self.duplicate_ids,
                "rate_basis": self.rate_basis,
            },
            "detection": {
                "activity_strategy": self.activity_strategy,
                "activity_threshold": self.activity_threshold,
                "inclusive_label_shares": self.label_shares,
                "disjoint_label_shares": self.disjoint_shares,
                "rule_hits": self.rule_hits,
                "verified_overrides": self.verified_overrides,
            },
            "sentiment": {
                "group_means": self.mean_sentiment,
                "ks_comparisons": self.ks_comparisons,
            },
            "artifacts": self.artifacts,
        }


def compare_group_sentiment(samples: Mapping[Label, Mapping[float, int]]) -> dict:
    """KS-compare word-level sentiment histograms between label groups.

    Returns {"NoBot_vs_Bot": KsResult | None, ...}; a pair with an empty side
    is reported as None (skipped).  Fewer than two non-empty groups means
    there is nothing to compare at all, which is an error.
    """
    non_empty = [label for label in Label if samples.get(label)]
    if len(non_empty) < 2:
        raise ValueError("group comparison needs at least two non-empty groups")
    out = {}
    for a, b in COMPARISON_PAIRS:
        key = f"{a.value}_vs_{b.value}"
        sa = samples.get(a) or ()
        sb = samples.get(b) or ()
        out[key] = stats_mod.ks_two_sample(sa, sb) if sa and sb else None
    return out


def _write_table(path: Path, fingerprint: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_fingerprint={fingerprint}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _per_outcome(classifications, render):
    """(tweet id, render(c)) for each classification c, in order.

    Classifications with the same label, hits and override share one
    rendering, so render runs once per distinct outcome.
    """
    rendered = {}
    for c in classifications:
        key = (c.label, c.hits, c.verified_override)
        value = rendered.get(key)
        if value is None:
            value = rendered[key] = render(c)
        yield c.tweet_id, value


def write_classifications(path: Path, fingerprint: str, classifications, fmt: str):
    """Write per-tweet classification records as csv or jsonl.

    Only the tweet id is formatted per record; the rest of each row is
    formatted once per distinct outcome.
    """
    if fmt == "csv":
        def cells(c):
            return (c.label.value, "|".join(r.value for r in c.rules),
                    str(c.verified_override).lower())

        _write_table(path, fingerprint, ["tweet_id", "label", "rules", "verified_override"],
                     ((tweet_id, *rest) for tweet_id, rest in _per_outcome(classifications, cells)))
    else:
        def template(c):
            # the record with a marker for the id, split around it: the id is
            # the last string field (keys are sorted, verified_override is a bool)
            record = json.dumps({
                "tweet_id": "",
                "label": c.label.value,
                "rules": [r.value for r in c.rules],
                "verified_override": c.verified_override,
                "config_fingerprint": fingerprint,
            }, sort_keys=True, separators=(",", ":"))
            head, _, tail = record.rpartition('""')
            return head, tail + "\n"

        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{head}{json.dumps(tweet_id)}{tail}"
                          for tweet_id, (head, tail) in _per_outcome(classifications, template))


@contextmanager
def _staging_dir(out_dir: Path):
    """A temporary directory made inside out_dir, removed on exit.

    Files written there reach out_dir only through _publish, so a failure
    before it leaves out_dir's files as they were.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{_STAGING_PREFIX}{os.getpid()}-", dir=out_dir))
    try:
        yield work_dir
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _process_alive(pid: int) -> bool:
    """Whether a process with this id runs (assumed so where it cannot be told)."""
    if os.name != "posix":
        return True  # os.kill there ends the process instead of probing it
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass  # another user's process, or an id too large to tell: keep
    return True


def _publish(work_dir: Path, names):
    """Move the named files from a _staging_dir into its out_dir, in order.

    Then remove the staging directories in out_dir whose run is dead: runs
    killed before their own clean-up leave them behind.  Staging directories
    of live runs, and entries named otherwise, are kept.
    """
    out_dir = work_dir.parent
    for name in names:
        os.replace(work_dir / name, out_dir / name)
    for entry in out_dir.iterdir():
        m = _STAGING_NAME.fullmatch(entry.name)
        if m and entry != work_dir and entry.is_dir() and not _process_alive(int(m[1])):
            shutil.rmtree(entry, ignore_errors=True)


def save_classifications(out_dir, fingerprint: str, classifications, fmt: str) -> Path:
    """Write the classification file into out_dir all-or-nothing; returns its path."""
    out_dir = Path(out_dir)
    name = CLASSIFICATION_FILES[fmt]
    with _staging_dir(out_dir) as work_dir:
        write_classifications(work_dir / name, fingerprint, classifications, fmt)
        _publish(work_dir, [name])
    return out_dir / name


def execute_pipeline(corpus_path, out_dir, settings: PipelineSettings | None = None) -> RunSummary:
    """Run the full chain on a corpus file and write all artifacts to out_dir.

    Writes per-group word-cloud, co-occurrence and sentiment-ECDF tables, the
    per-tweet classification file, and run_summary.json.  Artifacts are
    written to a temporary directory inside out_dir and moved into place only
    when every stage succeeded, so a failed run leaves the previous run's
    artifacts as they were; a successful one removes the other format's
    classification file.  PipelineStageError names the stage that died.
    """
    if settings is None:
        settings = PipelineSettings()
    out_dir = Path(out_dir)
    with _staging_dir(out_dir) as work_dir:
        timings: dict[str, float] = {}
        stage = "setup"
        try:
            stopwords, lexicon = lists = settings.load_lists()
            fingerprint = settings.fingerprint(lists)

            stage = "ingest"
            t0 = time.perf_counter()
            corpus = corpus_mod.ingest(corpus_path, strictness=settings.strictness,
                                       rate_basis=settings.rate_basis)
            timings[stage] = time.perf_counter() - t0

            stage = "detect"
            t0 = time.perf_counter()
            classifications = detector_mod.classify(corpus, settings.detector)
            shares = detector_mod.group_summary(classifications)
            timings[stage] = time.perf_counter() - t0

            stage = "analyze"
            t0 = time.perf_counter()
            docs = textmine_mod.tokenize_corpus(corpus.tweets, stopwords, settings.query_term)
            label_docs = textmine_mod.group_docs(classifications, docs)
            models = detector_mod.fold_groups(
                {label: textmine_mod.cooccurrence(ldocs, settings.window)
                 for label, ldocs in label_docs.items()})

            for label, slug in GROUP_SLUGS.items():
                model = models[label]
                cloud_rows = []
                edge_rows = []
                if model.n_docs:
                    vocab = textmine_mod.build_vocab(model, settings.min_df, settings.max_df)
                    counts = vocab.counts
                    cloud_rows = [(term, counts[term], vocab.tfidf_sums[term])
                                  for term in sorted(vocab.terms,
                                                     key=lambda t: (-counts[t], t))]
                    edge_rows = textmine_mod.top_cooccurrents(
                        model, settings.k_terms, settings.k_neighbors)
                _write_table(work_dir / f"wordcloud_{slug}.csv", fingerprint,
                             ["term", "count", "tfidf_sum"], cloud_rows)
                _write_table(work_dir / f"cooccurrence_{slug}.csv", fingerprint,
                             ["term", "neighbor", "association"], edge_rows)

            samples = detector_mod.fold_groups(
                textmine_mod.group_word_sentiment_samples(label_docs, lexicon))
            mean_sentiment = textmine_mod.group_mean_sentiment(
                samples, {label: model.n_docs for label, model in models.items()})
            timings[stage] = time.perf_counter() - t0

            stage = "compare"
            t0 = time.perf_counter()
            for label, slug in GROUP_SLUGS.items():
                points = []
                if samples[label]:
                    points = stats_mod.ecdf(samples[label]).points()
                _write_table(work_dir / f"ecdf_{slug}.csv", fingerprint,
                             ["value", "cumulative_probability"], points)
            ks_results = compare_group_sentiment(samples)
            timings[stage] = time.perf_counter() - t0

            stage = "report"
            t0 = time.perf_counter()
            class_name = CLASSIFICATION_FILES[settings.output_format]
            write_classifications(work_dir / class_name, fingerprint, classifications,
                                  settings.output_format)

            rule_hits = {rule.value: 0 for rule in detector_mod.Rule}
            overrides = 0
            disjoint_counts = {label: 0 for label in Label}
            outcomes = Counter((c.label, c.hits, c.verified_override) for c in classifications)
            for (label, hits, override), n in outcomes.items():
                disjoint_counts[label] += n
                if override:
                    overrides += n
                for rule in {h.rule for h in hits}:
                    rule_hits[rule.value] += n
            total = len(corpus)
            disjoint = {label.value: {"count": n, "share": n / total}
                        for label, n in disjoint_counts.items()}

            summary = RunSummary(
                config_fingerprint=fingerprint,
                total_tweets=len(corpus),
                total_accounts=len(corpus.accounts),
                span_start=corpus.span_start.isoformat(),
                span_end=corpus.span_end.isoformat(),
                skipped_records=corpus.skipped_count,
                duplicate_ids=corpus.duplicate_count,
                rate_basis=settings.rate_basis,
                activity_strategy=settings.detector.activity_strategy.value,
                activity_threshold=classifications.threshold,
                label_shares={label.value: {"count": gs.count, "share": gs.share}
                              for label, gs in shares.items()},
                disjoint_shares=disjoint,
                rule_hits=rule_hits,
                verified_overrides=overrides,
                mean_sentiment={label.value: mean_sentiment[label] for label in Label},
                ks_comparisons={key: (None if res is None else {
                    "d_statistic": res.d_statistic, "p_value": res.p_value,
                    "n1": res.n1, "n2": res.n2}) for key, res in ks_results.items()},
                artifacts=sorted(os.listdir(work_dir)) + ["run_summary.json"],
                timings=timings,
            )
            with open(work_dir / "run_summary.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            _publish(work_dir, summary.artifacts)  # run_summary.json last
            for name in CLASSIFICATION_FILES.values():
                if name != class_name:
                    (out_dir / name).unlink(missing_ok=True)
            timings[stage] = time.perf_counter() - t0
            summary.timings = dict(timings)
            return summary
        except Exception as exc:
            raise PipelineStageError(stage, exc) from exc


_RATE_BASIS_ALIASES = {
    "window": corpus_mod.RATE_CORPUS_WINDOW,
    "corpus-window": corpus_mod.RATE_CORPUS_WINDOW,
    "lifetime": corpus_mod.RATE_LIFETIME,
}


def settings_from_flags(config_path=None, flags: Mapping | None = None) -> PipelineSettings:
    """Resolve a detector config file plus flag overrides into PipelineSettings.

    Precedence: dataclass defaults < config file < flags.  Flag keys mirror
    the CLI: activity_strategy, quantile, ratio_tolerance, sources, lexicon,
    stopwords, rate_basis, strict, format, and the text-mining knobs
    (query_term, min_df, max_df, window, k_terms, k_neighbors).
    """
    flags = dict(flags or {})
    sources = flags.pop("sources", None)
    if config_path is not None:
        det = detector_mod.load_detector_config(config_path, sources_path=sources)
    elif sources is not None:
        det = DetectorConfig(suspicious_sources=detector_mod.load_suspicious_sources(sources))
    else:
        det = DetectorConfig()

    det_overrides = {}
    if flags.get("activity_strategy") is not None:
        det_overrides["activity_strategy"] = detector_mod.parse_activity_strategy(
            str(flags.pop("activity_strategy")))
    for flag, field_name in (("quantile", "activity_quantile"),
                             ("ratio_tolerance", "ratio_tolerance"),
                             ("iqr_multiplier", "iqr_multiplier"),
                             ("iqr_fence_base", "iqr_fence_base"),
                             ("min_followers", "min_followers"),
                             ("duplicate_min_cluster", "duplicate_min_cluster")):
        if flags.get(flag) is not None:
            det_overrides[field_name] = flags.pop(flag)
        else:
            flags.pop(flag, None)
    if det_overrides:
        det = replace(det, **det_overrides)

    kwargs = {"detector": det}
    rate_basis = flags.pop("rate_basis", None)
    if rate_basis is not None:
        try:
            kwargs["rate_basis"] = _RATE_BASIS_ALIASES[str(rate_basis).lower()]
        except KeyError:
            raise ValueError(f"unknown rate basis {rate_basis!r}") from None
    if flags.pop("strict", False):
        kwargs["strictness"] = corpus_mod.STRICT
    fmt = flags.pop("format", None)
    if fmt is not None:
        kwargs["output_format"] = fmt
    for flag, field_name in (("lexicon", "lexicon_path"), ("stopwords", "stopwords_path"),
                             ("query_term", "query_term"), ("min_df", "min_df"),
                             ("max_df", "max_df"), ("window", "window"),
                             ("k_terms", "k_terms"), ("k_neighbors", "k_neighbors")):
        value = flags.pop(flag, None)
        if value is not None:
            kwargs[field_name] = value
    if flags:
        raise ValueError(f"unknown pipeline flags: {sorted(flags)}")
    return PipelineSettings(**kwargs)


def run_pipeline(corpus_path, config_path=None, out_dir="artifacts",
                 flags: Mapping | None = None) -> RunSummary:
    """Entry point taking a detector config file plus flat flag overrides."""
    try:
        settings = settings_from_flags(config_path, flags)
    except Exception as exc:
        raise PipelineStageError("config", exc) from exc
    return execute_pipeline(corpus_path, out_dir, settings)
