"""Metadata-heuristic bot detection.

Four per-tweet/per-account rules (source app, friend-follower ratio,
posting-rate outlier, duplicate text) feed a three-step combination:
one distinct rule firing marks a tweet Suspicious, two or more mark it Bot,
and a verified author trumps everything back to NoBot.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Collection
from enum import Enum
from functools import partial
from itertools import compress, repeat
from operator import not_
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from . import stats
from .corpus import Corpus
from .errors import ConfigError, check_int, check_real, shown
from .listfile import read_entries

__all__ = [
    "Rule",
    "Label",
    "GROUPS_OF",
    "fold_groups",
    "ActivityStrategy",
    "Classification",
    "Detection",
    "GroupShare",
    "DetectorConfig",
    "load_suspicious_sources",
    "load_detector_config",
    "source_rule",
    "ratio_rule",
    "activity_threshold",
    "activity_rule",
    "duplicate_rule",
    "classify",
    "group_summary",
]


class Rule(str, Enum):
    SOURCE = "Source"
    RATIO = "Ratio"
    ACTIVITY = "Activity"
    DUPLICATE = "Duplicate"


class Label(str, Enum):
    NO_BOT = "NoBot"
    SUSPICIOUS = "Suspicious"
    BOT = "Bot"


# label -> the groups a tweet with that label is reported in: Bot tweets are
# a subset of Suspicious (anything with at least one rule firing)
GROUPS_OF = {
    Label.NO_BOT: (Label.NO_BOT,),
    Label.SUSPICIOUS: (Label.SUSPICIOUS,),
    Label.BOT: (Label.BOT, Label.SUSPICIOUS),
}


def fold_groups(per_label: Mapping) -> dict:
    """Per-group totals from per-label values, with membership from GROUPS_OF.

    *per_label* maps each disjoint label to a value that supports ``+``
    (a count, a Counter, a CooccurrenceModel); each group's total adds the
    values of the labels it contains, in *per_label* order.
    """
    groups = {}
    for label, value in per_label.items():
        for group in GROUPS_OF[label]:
            groups[group] = groups[group] + value if group in groups else value
    return groups


class ActivityStrategy(str, Enum):
    QUANTILE = "Quantile"
    IQR_FENCE = "IqrFence"


class Classification(NamedTuple):
    """Final verdict for one tweet."""

    tweet_id: str
    label: Label
    hits: frozenset  # of Rule
    verified_override: bool = False

    @property
    def rules(self) -> tuple:
        """The rules that fired, in stable order."""
        return tuple(sorted(self.hits, key=lambda r: r.value))


def _code(code_of: dict, key: tuple) -> int:
    """The code of *key* (an outcome, or an account kind): first seen, first coded."""
    return code_of.setdefault(key, len(code_of))


class Detection:
    """Classifications in corpus order, plus the activity threshold they used.

    Each tweet's verdict is one code: ``outcomes[codes[i]]`` is the
    ``(label, hits, verified_override)`` of tweet ``tweet_ids[i]``.  Equal
    codes are one int object, so no object lives per tweet.  ``counts[k]``
    is the number of tweets with code ``k``, counted once here; the
    per-label and per-rule figures read it.  Iterating builds one
    Classification per tweet.
    """

    __slots__ = ("tweet_ids", "codes", "outcomes", "threshold", "counts")

    def __init__(self, tweet_ids: tuple, codes: list, outcomes: tuple, threshold: float):
        self.tweet_ids = tweet_ids
        self.codes = codes
        self.outcomes = outcomes
        self.threshold = threshold
        self.counts = tuple(map(Counter(codes).__getitem__, range(len(outcomes))))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        outcomes = self.outcomes
        return (Classification(tid, *outcomes[code])
                for tid, code in zip(self.tweet_ids, self.codes))

    def label_counts(self) -> dict:
        """The number of tweets with each label, disjoint (Bot not in Suspicious)."""
        disjoint = dict.fromkeys(Label, 0)
        for (label, _, _), n in zip(self.outcomes, self.counts):
            disjoint[label] += n
        return disjoint


class GroupShare(NamedTuple):
    count: int
    share: float


def load_suspicious_sources(path=None) -> frozenset:
    """Load the suspicious client-app list (one name per line, '#' comments).

    Names are matched case-insensitively, so they are stored lowercased.
    Without a path the bundled default list is used.
    """
    names = {line.lower() for _, line in read_entries(path, "suspicious_sources.txt")}
    if not names:
        raise ConfigError("suspicious source list is empty")
    return frozenset(names)


_BUNDLED = object()  # suspicious_sources default: the bundled list, read per config


class _DetectorFields(NamedTuple):
    min_followers: int = 100
    ratio_tolerance: float = 0.10
    activity_strategy: ActivityStrategy = ActivityStrategy.QUANTILE
    activity_quantile: float = 0.95
    iqr_multiplier: float = 1.5
    iqr_fence_base: str = "q3"  # "q3" (upper fence) or "median"
    duplicate_min_cluster: int = 2
    suspicious_sources: frozenset = _BUNDLED


class DetectorConfig(_DetectorFields):
    """Tunable knobs for the four rules and their combination.

    A named tuple whose fields are checked and normalized at construction
    (ConfigError), by ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _replace builds through _make, so this checks both
        return cls(*super()._make(iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_int("min_followers", self.min_followers, 0)
        for name in ("ratio_tolerance", "activity_quantile", "iqr_multiplier"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.ratio_tolerance <= 1.0:
            raise ConfigError("ratio_tolerance must be in [0, 1], "
                              f"got {shown(self.ratio_tolerance)}")
        if not 0.0 < self.activity_quantile < 1.0:
            raise ConfigError("activity_quantile must be in (0, 1), "
                              f"got {shown(self.activity_quantile)}")
        if self.iqr_multiplier <= 0.0:
            raise ConfigError(f"iqr_multiplier must be > 0, got {shown(self.iqr_multiplier)}")
        if self.iqr_fence_base not in ("q3", "median"):
            raise ConfigError("iqr_fence_base must be 'q3' or 'median', "
                              f"got {shown(self.iqr_fence_base)}")
        check_int("duplicate_min_cluster", self.duplicate_min_cluster, 2)
        strategy = _exact_strategy(self.activity_strategy)
        sources = self.suspicious_sources
        if sources is _BUNDLED:
            sources = load_suspicious_sources()
        if (isinstance(sources, str) or not isinstance(sources, Collection)
                or not all(isinstance(s, str) for s in sources)):
            raise ConfigError(f"suspicious_sources must be a collection of str, got {sources!r:.80}")
        sources = frozenset(s.lower() for s in sources)  # case-insensitive matching
        if not sources:
            raise ConfigError("suspicious_sources must not be empty")
        return super().__new__(cls, **{**self._asdict(), "activity_strategy": strategy,
                                       "suspicious_sources": sources})


_STRATEGY_ALIASES = {
    "quantile": ActivityStrategy.QUANTILE,
    "iqr": ActivityStrategy.IQR_FENCE,
    "iqrfence": ActivityStrategy.IQR_FENCE,
}


def _exact_strategy(raw) -> ActivityStrategy:
    """The strategy whose enum value is *raw*, or a ConfigError."""
    try:
        return ActivityStrategy(raw)
    except ValueError:
        raise ConfigError(f"unknown activity strategy {shown(raw)}") from None


def parse_activity_strategy(raw: str) -> ActivityStrategy:
    """Accept either enum values or the short CLI spellings."""
    alias = _STRATEGY_ALIASES.get(raw.strip().lower())
    return _exact_strategy(raw) if alias is None else alias


def load_detector_config(path, sources_path=None) -> DetectorConfig:
    """Build a DetectorConfig from a ``key = value`` text file.

    Recognized keys mirror the DetectorConfig fields; ``sources_file`` points to a
    suspicious-app list resolved relative to the config file.  An explicit
    *sources_path* argument wins over the file's ``sources_file`` key.  A ``#``
    at the start of a line or after whitespace starts a comment.  Each key may
    appear once.
    """
    path = Path(path)
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in read_entries(path):
        line = re.split(r"\s#", line, maxsplit=1)[0]
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        first = line_of.setdefault(key, lineno)
        if first != lineno:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first}")
        raw[key] = value.strip()

    kwargs = {}
    defaults = _DetectorFields._field_defaults
    for key, value in raw.items():
        if key == "sources_file":
            continue
        if key not in defaults or key == "suspicious_sources":  # sources come from a file
            raise ConfigError(f"{path}: unknown config key {key!r}")
        convert = parse_activity_strategy if key == "activity_strategy" else type(defaults[key])
        try:
            kwargs[key] = convert(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None

    if sources_path is not None:
        kwargs["suspicious_sources"] = load_suspicious_sources(sources_path)
    elif "sources_file" in raw:
        kwargs["suspicious_sources"] = load_suspicious_sources(
            (path.parent / raw["sources_file"]).resolve())
    return DetectorConfig(**kwargs)


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------

def source_rule(app: str, config: DetectorConfig) -> Rule | None:
    """Fire when a tweet's client app is on the suspicious list."""
    return Rule.SOURCE if app.lower() in config.suspicious_sources else None


def ratio_rule(followers: int, friends: int, config: DetectorConfig) -> Rule | None:
    """Fire on an account's near-equal follower/friend counts above the follower floor."""
    larger = max(followers, friends)
    if (followers > config.min_followers and larger > 0
            and abs(followers - friends) / larger <= config.ratio_tolerance):
        return Rule.RATIO
    return None


def activity_threshold(rates: Iterable[float], config: DetectorConfig) -> float:
    """Population posting-rate cutoff (tweets/day) under the configured strategy."""
    data = sorted(rates)
    if not data:
        raise ValueError("activity_threshold needs a non-empty rate population")
    if config.activity_strategy is ActivityStrategy.QUANTILE:
        return stats.quantile(data, config.activity_quantile, stats.NEAREST_RANK)
    q1 = stats.quantile(data, 0.25, stats.LINEAR)
    q3 = stats.quantile(data, 0.75, stats.LINEAR)
    base = q3 if config.iqr_fence_base == "q3" else stats.quantile(data, 0.5, stats.LINEAR)
    return base + config.iqr_multiplier * (q3 - q1)


def activity_rule(tweets_per_day: float, threshold: float) -> Rule | None:
    """Fire when an account posts strictly faster than the population cutoff."""
    return Rule.ACTIVITY if tweets_per_day > threshold else None


def duplicate_rule(corpus: Corpus, config: DetectorConfig) -> set:
    """The ids of tweets whose non-retweet text is shared by other tweets.

    Texts are compared after whitespace trimming; clusters smaller than
    ``duplicate_min_cluster`` do not fire.  Retweets are exempt because
    duplication is their normal mode of existence.
    """
    # each original's text, stripped once
    texts = list(map(str.strip, compress(corpus.texts, map(not_, corpus.is_retweet))))
    shared = {text for text, n in Counter(texts).items() if n >= config.duplicate_min_cluster}
    originals = compress(corpus.ids, map(not_, corpus.is_retweet))
    return set(compress(originals, map(shared.__contains__, texts)))


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

class _OutcomeCodes(dict):
    """(kind, app, is duplicate) -> outcome code, each key combined once.

    A kind indexes *kinds*, whose entries are an account's (ratio rule,
    activity rule, verified flag).  ``code_of`` maps each outcome
    ``(label, hits, verified_override)`` to its code, first seen first.
    """

    def __init__(self, kinds: list, config: DetectorConfig):
        super().__init__()
        self._kinds = kinds
        self._config = config
        self.code_of: dict[tuple, int] = {}

    def __missing__(self, key: tuple) -> int:
        kind, app, duplicate = key
        ratio, activity, verified = self._kinds[kind]
        source = source_rule(app, self._config)
        hits = frozenset(rule for rule in (ratio, activity, source,
                                           Rule.DUPLICATE if duplicate else None)
                         if rule is not None)
        label = Label.BOT if len(hits) >= 2 else Label.SUSPICIOUS if hits else Label.NO_BOT
        override = bool(hits) and verified
        if override:
            label = Label.NO_BOT  # verified authors are trusted outright
        code = self[key] = _code(self.code_of, (label, hits, override))
        return code


def classify(corpus: Corpus, config: DetectorConfig | None = None) -> Detection:
    """Classify every tweet in the corpus.

    Account-level rules (ratio, activity) propagate to all of the account's
    tweets; tweet-level rules (source, duplicate) apply individually.  The
    activity threshold is computed over the whole corpus population first.
    Returns a Detection: the Classifications in corpus order, with that
    threshold.  Its tweet ids are the corpus's id column itself.
    """
    if config is None:
        config = DetectorConfig()
    accounts = corpus.accounts.columns
    threshold = activity_threshold(accounts.tweets_per_day, config)
    duplicates = duplicate_rule(corpus, config)

    # Accounts with the same account rules and verified flag classify alike:
    # each distinct (ratio, activity, verified) is one kind, numbered in
    # first-seen order.
    kinds: dict[tuple, int] = {}
    account_kinds = zip(map(ratio_rule, accounts.followers, accounts.friends, repeat(config)),
                        map(activity_rule, accounts.tweets_per_day, repeat(threshold)),
                        accounts.verified)
    kind_of = dict(zip(accounts.account_id, map(partial(_code, kinds), account_kinds)))

    # A tweet's outcome follows from its account's kind, its app and whether
    # its text is a duplicate; each such key is combined and coded once.
    outcome_codes = _OutcomeCodes(list(kinds), config)
    keys = zip(map(kind_of.__getitem__, corpus.author_ids), corpus.source_apps,
               map(duplicates.__contains__, corpus.ids))
    codes = list(map(outcome_codes.__getitem__, keys))
    return Detection(corpus.ids, codes, tuple(outcome_codes.code_of), threshold)


def group_summary(detection: Detection) -> dict:
    """Counts and shares per label group, with membership from GROUPS_OF.

    The Suspicious row includes the Bot row, so shares do not sum to 1.
    """
    total = len(detection)
    if total == 0:
        raise ValueError("group_summary of empty classification list")
    counts = fold_groups(detection.label_counts())
    return {label: GroupShare(n, n / total) for label, n in counts.items()}
