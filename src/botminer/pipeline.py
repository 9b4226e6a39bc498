"""End-to-end orchestration: ingest, detect, analyze, compare, report.

Every artifact starts with a ``# config_fingerprint=...`` comment so outputs
can always be traced back to the exact configuration that produced them.
A run returns RunSummary(report, timings): ``report`` is the run_summary.json
document, whose ``corpus`` and ``detection`` sections corpus_report and
detection_report build (``ingest-check`` and ``detect`` print the same
sections).  Artifacts are byte-identical across runs with the
same inputs: stage timings are kept on RunSummary (and printed by the CLI)
but are deliberately left out of run_summary.json.
"""

from __future__ import annotations

import io
import json
import operator
import os
import re
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping, NamedTuple

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto on every run
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import corpus as corpus_mod
from . import detector as detector_mod
from . import stats as stats_mod
from . import textmine as textmine_mod
from .detector import Classification, Detection, DetectorConfig, Label
from .errors import ConfigError, PipelineStageError, check_int, check_real, shown

__all__ = [
    "GROUP_SLUGS",
    "COMPARISON_PAIRS",
    "CLASSIFICATION_FILES",
    "PipelineSettings",
    "RunSummary",
    "corpus_report",
    "detection_report",
    "FLAGS",
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


_DEFAULT_DETECTOR = object()  # detector default: a DetectorConfig() per settings


class _SettingsFields(NamedTuple):
    detector: DetectorConfig = _DEFAULT_DETECTOR
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


class PipelineSettings(_SettingsFields):
    """Everything that influences pipeline output, in one fingerprintable bag.

    A named tuple whose fields are checked at construction, so a bad setting
    fails (ConfigError) before any corpus byte is read; ``_make`` and
    ``_replace`` check them too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds through _make, so this checks both
        return cls(*super()._make(iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.detector is _DEFAULT_DETECTOR:
            self = super().__new__(cls, **{**self._asdict(), "detector": DetectorConfig()})
        elif not isinstance(self.detector, DetectorConfig):
            raise ConfigError(f"detector must be a DetectorConfig, got {shown(self.detector)}")
        for name, allowed in (
                ("rate_basis", (corpus_mod.RATE_CORPUS_WINDOW, corpus_mod.RATE_LIFETIME)),
                ("strictness", (corpus_mod.LENIENT, corpus_mod.STRICT)),
                ("output_format", tuple(CLASSIFICATION_FILES))):
            value = getattr(self, name)
            if type(value) is not str or value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {shown(value)}")
        if type(self.query_term) is not str:
            raise ConfigError(f"query_term must be a str, got {shown(self.query_term)}")
        # tokens are compared with it lowercased; any other form filters nothing
        textmine_mod.check_cleaned(self.query_term.lower(), "query_term")
        check_real("min_df", self.min_df)
        check_real("max_df", self.max_df)
        if not 0.0 <= self.min_df < self.max_df <= 1.0:
            raise ConfigError("the document-frequency band needs 0 <= min_df < max_df <= 1, "
                              f"got min_df={shown(self.min_df)}, max_df={shown(self.max_df)}")
        for name in ("window", "k_terms", "k_neighbors"):
            check_int(name, getattr(self, name), 1)
        for name in ("stopwords_path", "lexicon_path"):
            path = getattr(self, name)
            if path is not None and not isinstance(path, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path or None, got {shown(path)}")
        return self

    def load_lists(self) -> tuple:
        """The (stop-word set, lexicon dict) pair read from the configured files.

        Tokens are filtered before the lexicon lookup, so a lexicon word that
        tokenization drops (a stop word, the query term or a word starting with
        ``http``) could never count: ConfigError.
        """
        stopwords = textmine_mod.load_stopwords(self.stopwords_path)
        lexicon = textmine_mod.load_lexicon(self.lexicon_path)
        unreachable = textmine_mod.dropped_words(lexicon, stopwords, self.query_term)
        if unreachable:
            raise ConfigError(f"lexicon words {unreachable} are stop words, the query term "
                              f"{self.query_term!r} or URL pieces starting with 'http', "
                              "so they would never be counted")
        return stopwords, lexicon

    def fingerprint(self, lists: tuple | None = None) -> str:
        """sha256 over the resolved configuration (content, not file paths).

        *lists* is the load_lists() pair a run uses, so the hash covers
        exactly those objects; it is loaded here when omitted.
        """
        stopwords, lexicon = self.load_lists() if lists is None else lists
        detector = {**self.detector._asdict(),
                    "activity_strategy": self.detector.activity_strategy.value,
                    "suspicious_sources": sorted(self.detector.suspicious_sources)}
        payload = {**self._asdict(), "detector": detector,
                   "stopwords": sorted(stopwords), "lexicon": sorted(lexicon.items())}
        del payload["stopwords_path"], payload["lexicon_path"]  # their content is hashed
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode("utf-8")).hexdigest()[:16]


class RunSummary(NamedTuple):
    """Outcome of one pipeline run.

    ``report`` is the run_summary.json document as written.  ``timings``
    lives only on this object; the file excludes it so repeated runs stay
    byte-identical.
    """

    report: dict
    timings: dict


def corpus_report(corpus: corpus_mod.Corpus) -> dict:
    """What loaded: the ``corpus`` section of run_summary.json, less its
    ``rate_basis``, which ``ingest-check`` prints too."""
    return {
        "total_tweets": len(corpus),
        "total_accounts": len(corpus.accounts),
        "span_start": corpus.span_start.isoformat(),
        "span_end": corpus.span_end.isoformat(),
        "skipped_records": corpus.skipped_count,
        "duplicate_ids": corpus.duplicate_count,
    }


def detection_report(detection: Detection, config: DetectorConfig) -> dict:
    """The ``detection`` section of run_summary.json, which ``detect`` prints too.

    Inclusive shares come from group_summary (Suspicious includes Bot);
    disjoint ones count each tweet under its own label.
    """
    rule_hits = {rule.value: 0 for rule in detector_mod.Rule}
    overrides = 0
    for (_, hits, override), n in zip(detection.outcomes, detection.counts):
        if override:
            overrides += n
        for rule in hits:
            rule_hits[rule.value] += n
    total = len(detection)
    return {
        "activity_strategy": config.activity_strategy.value,
        "activity_threshold": detection.threshold,
        "inclusive_label_shares": {
            label.value: {"count": gs.count, "share": gs.share}
            for label, gs in detector_mod.group_summary(detection).items()},
        "disjoint_label_shares": {label.value: {"count": n, "share": n / total}
                                  for label, n in detection.label_counts().items()},
        "rule_hits": rule_hits,
        "verified_overrides": overrides,
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
    import csv  # loaded by the first CSV a run writes: detect --format jsonl writes none

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_fingerprint={fingerprint}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _may_need_quoting(values) -> bool:
    """Whether csv.writer might quote any of the strings *values*.

    It quotes a cell holding the delimiter, the quote character or a line
    break; which line breaks depends on the Python version, so both count.
    """
    joined = "".join(values)
    return any(char in joined for char in ',"\r\n')


def write_classifications(path: Path, fingerprint: str, detection: Detection, fmt: str):
    """Write per-tweet classification records as csv or jsonl.

    Only the tweet id is formatted per record; the rest of each row is
    formatted once per outcome code.
    """
    outcomes = [Classification("", *outcome) for outcome in detection.outcomes]
    if fmt == "csv":
        import csv

        row = io.StringIO()
        writer = csv.writer(row, lineterminator="\n")

        def render(cells) -> str:
            row.seek(0)
            row.truncate()
            writer.writerow(cells)
            return row.getvalue()

        # each outcome's row with an empty id, which is its first cell
        tails = [render(("", c.label.value, "|".join(r.value for r in c.rules),
                         str(c.verified_override).lower())) for c in outcomes]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# config_fingerprint={fingerprint}\n")
            fh.write(render(("tweet_id", "label", "rules", "verified_override")))
            cells = detection.tweet_ids
            if _may_need_quoting(cells):
                cells = [render((tweet_id, ""))[:-2] for tweet_id in cells]  # minus ",\n"
            fh.writelines(map(operator.add, cells, map(tails.__getitem__, detection.codes)))
    else:
        # each outcome's record with an empty id, split around it: the id is
        # the last string field (keys are sorted, verified_override is a bool)
        heads, tails = [], []
        for c in outcomes:
            head, _, tail = json.dumps({
                "tweet_id": "",
                "label": c.label.value,
                "rules": [r.value for r in c.rules],
                "verified_override": c.verified_override,
                "config_fingerprint": fingerprint,
            }, sort_keys=True, separators=(",", ":")).rpartition('""')
            heads.append(head)
            tails.append(tail + "\n")
        # what json.dumps(str) calls under default settings, minus its wrappers
        encode_str = json.encoder.encode_basestring_ascii
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{heads[code]}{encode_str(tweet_id)}{tails[code]}"
                          for tweet_id, code in zip(detection.tweet_ids, detection.codes))


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


def save_classifications(out_dir, fingerprint: str, detection: Detection, fmt: str) -> Path:
    """Write the classification file into out_dir all-or-nothing; returns its path."""
    out_dir = Path(out_dir)
    name = CLASSIFICATION_FILES[fmt]
    with _staging_dir(out_dir) as work_dir:
        write_classifications(work_dir / name, fingerprint, detection, fmt)
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
    timings: dict[str, float] = {}
    stage = "setup"
    try:
        with _staging_dir(out_dir) as work_dir:
            stopwords, lexicon = lists = settings.load_lists()
            fingerprint = settings.fingerprint(lists)

            stage = "ingest"
            t0 = time.perf_counter()
            corpus = corpus_mod.ingest(corpus_path, strictness=settings.strictness,
                                       rate_basis=settings.rate_basis)
            timings[stage] = time.perf_counter() - t0

            stage = "detect"
            t0 = time.perf_counter()
            detection = detector_mod.classify(corpus, settings.detector)
            detection_section = detection_report(detection, settings.detector)
            timings[stage] = time.perf_counter() - t0

            stage = "analyze"
            t0 = time.perf_counter()
            docs = textmine_mod.tokenize_corpus(corpus.tweets, stopwords, settings.query_term)
            label_streams = textmine_mod.group_docs(detection, docs.streams)
            models = detector_mod.fold_groups(
                {label: textmine_mod.cooccurrence(streams, settings.window)
                 for label, streams in label_streams.items()})
            samples = textmine_mod.group_word_sentiment_samples(
                {label: model.term_freq for label, model in models.items()}, lexicon)

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
            write_classifications(work_dir / class_name, fingerprint, detection,
                                  settings.output_format)

            report = {
                "config_fingerprint": fingerprint,
                "corpus": {**corpus_report(corpus), "rate_basis": settings.rate_basis},
                "detection": detection_section,
                "sentiment": {
                    "group_means": {label.value: mean_sentiment[label] for label in Label},
                    "ks_comparisons": {key: None if res is None else res._asdict()
                                       for key, res in ks_results.items()},
                },
                "artifacts": sorted(os.listdir(work_dir)) + ["run_summary.json"],
            }
            with open(work_dir / "run_summary.json", "w", encoding="utf-8", newline="\n") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            _publish(work_dir, report["artifacts"])  # run_summary.json last
            for name in CLASSIFICATION_FILES.values():
                if name != class_name:
                    (out_dir / name).unlink(missing_ok=True)
            timings[stage] = time.perf_counter() - t0
            return RunSummary(report, timings)
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc


_RATE_BASIS_ALIASES = {"window": corpus_mod.RATE_CORPUS_WINDOW,
                       "lifetime": corpus_mod.RATE_LIFETIME}
_STRICTNESS = {False: corpus_mod.LENIENT, True: corpus_mod.STRICT}

# The CLI's flags, keyed by argparse dest -> (the settings type holding the
# field the flag sets, that field, what turns the CLI's value into the field's)
_FLAG_FIELDS = {
    "sources": (DetectorConfig, "suspicious_sources", detector_mod.load_suspicious_sources),
    "activity_strategy": (DetectorConfig, "activity_strategy",
                          detector_mod.parse_activity_strategy),
    "quantile": (DetectorConfig, "activity_quantile", None),
    "ratio_tolerance": (DetectorConfig, "ratio_tolerance", None),
    "rate_basis": (PipelineSettings, "rate_basis", _RATE_BASIS_ALIASES.__getitem__),
    "strict": (PipelineSettings, "strictness", _STRICTNESS.__getitem__),
    "format": (PipelineSettings, "output_format", None),
    "lexicon": (PipelineSettings, "lexicon_path", None),
    "stopwords": (PipelineSettings, "stopwords_path", None),
}
FLAGS = tuple(_FLAG_FIELDS)


def settings_from_flags(config_path=None, flags: Mapping | None = None) -> PipelineSettings:
    """Resolve a detector config file plus the CLI's flags into PipelineSettings.

    *flags* maps names in FLAGS, the CLI's argparse dests, to the values the
    CLI gives them; None leaves a flag unset.  Precedence: field defaults <
    config file < flags.  Every other field is set on PipelineSettings or
    DetectorConfig, or in the config file.
    """
    flags = {} if flags is None else flags
    unknown = flags.keys() - _FLAG_FIELDS.keys()
    if unknown:
        raise ValueError(f"unknown pipeline flags: {sorted(unknown)}")
    flags = {flag: value for flag, value in flags.items() if value is not None}
    fields = {DetectorConfig: {}, PipelineSettings: {}}
    if config_path is not None:
        # a sources flag replaces the file's sources_file, which is then not read
        fields[DetectorConfig] = detector_mod.load_detector_config(
            config_path, sources_path=flags.pop("sources", None))._asdict()
    for flag, value in flags.items():
        owner, field, convert = _FLAG_FIELDS[flag]
        try:
            fields[owner][field] = value if convert is None else convert(value)
        except KeyError:
            raise ValueError(f"unknown {flag.replace('_', ' ')} {value!r}") from None
    return PipelineSettings(detector=DetectorConfig(**fields[DetectorConfig]),
                            **fields[PipelineSettings])


def run_pipeline(corpus_path, config_path=None, out_dir="artifacts",
                 flags: Mapping | None = None) -> RunSummary:
    """Entry point taking a detector config file plus flat flag overrides."""
    try:
        settings = settings_from_flags(config_path, flags)
    except Exception as exc:
        raise PipelineStageError("config", exc) from exc
    return execute_pipeline(corpus_path, out_dir, settings)
