"""Metadata-heuristic bot detection.

Four per-tweet/per-account rules (source app, friend-follower ratio,
posting-rate outlier, duplicate text) feed a three-step combination:
one distinct rule firing marks a tweet Suspicious, two or more mark it Bot,
and a verified author trumps everything back to NoBot.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from . import stats
from .corpus import AccountStats, Corpus, Tweet
from .errors import ConfigError
from .listfile import read_entries

__all__ = [
    "Rule",
    "Label",
    "GROUPS_OF",
    "fold_groups",
    "ActivityStrategy",
    "RuleHit",
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


@dataclass(frozen=True)
class RuleHit:
    """One rule firing, with a human-readable reason."""

    rule: Rule
    reason: str


@dataclass(frozen=True, slots=True)
class Classification:
    """Final verdict for one tweet."""

    tweet_id: str
    label: Label
    hits: frozenset  # of RuleHit
    verified_override: bool = False

    @property
    def rules(self) -> tuple:
        """Distinct rules that fired, in stable order."""
        return tuple(sorted({h.rule for h in self.hits}, key=lambda r: r.value))


class Detection(list):
    """Classifications in corpus order, plus the activity threshold they used."""

    def __init__(self, classifications, threshold: float):
        super().__init__(classifications)
        self.threshold = threshold


@dataclass(frozen=True)
class GroupShare:
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


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable knobs for the four rules and their combination."""

    min_followers: int = 100
    ratio_tolerance: float = 0.10
    activity_strategy: ActivityStrategy = ActivityStrategy.QUANTILE
    activity_quantile: float = 0.95
    iqr_multiplier: float = 1.5
    iqr_fence_base: str = "q3"  # "q3" (upper fence) or "median"
    duplicate_min_cluster: int = 2
    suspicious_sources: frozenset = field(default_factory=load_suspicious_sources)

    def __post_init__(self):
        if self.min_followers < 0:
            raise ConfigError(f"min_followers must be >= 0, got {self.min_followers}")
        if not 0.0 <= self.ratio_tolerance <= 1.0:
            raise ConfigError(f"ratio_tolerance must be in [0, 1], got {self.ratio_tolerance}")
        if not 0.0 < self.activity_quantile < 1.0:
            raise ConfigError(f"activity_quantile must be in (0, 1), got {self.activity_quantile}")
        if self.iqr_multiplier <= 0.0:
            raise ConfigError(f"iqr_multiplier must be > 0, got {self.iqr_multiplier}")
        if self.iqr_fence_base not in ("q3", "median"):
            raise ConfigError(f"iqr_fence_base must be 'q3' or 'median', got {self.iqr_fence_base!r}")
        if self.duplicate_min_cluster < 2:
            raise ConfigError(f"duplicate_min_cluster must be >= 2, got {self.duplicate_min_cluster}")
        if not isinstance(self.activity_strategy, ActivityStrategy):
            object.__setattr__(self, "activity_strategy", ActivityStrategy(self.activity_strategy))
        # case-insensitive matching: normalize once
        object.__setattr__(self, "suspicious_sources",
                           frozenset(s.lower() for s in self.suspicious_sources))
        if not self.suspicious_sources:
            raise ConfigError("suspicious_sources must not be empty")


_STRATEGY_ALIASES = {
    "quantile": ActivityStrategy.QUANTILE,
    "iqr": ActivityStrategy.IQR_FENCE,
    "iqrfence": ActivityStrategy.IQR_FENCE,
}


def parse_activity_strategy(raw: str) -> ActivityStrategy:
    """Accept either enum values or the short CLI spellings."""
    try:
        return ActivityStrategy(raw)
    except ValueError:
        try:
            return _STRATEGY_ALIASES[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"unknown activity strategy {raw!r}") from None


def load_detector_config(path, sources_path=None) -> DetectorConfig:
    """Build a DetectorConfig from a ``key = value`` text file.

    Recognized keys mirror the dataclass fields; ``sources_file`` points to a
    suspicious-app list resolved relative to the config file.  An explicit
    *sources_path* argument wins over the file's ``sources_file`` key.
    """
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, line in read_entries(path):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()

    kwargs = {}
    converters = {
        "min_followers": int,
        "ratio_tolerance": float,
        "activity_strategy": parse_activity_strategy,
        "activity_quantile": float,
        "iqr_multiplier": float,
        "iqr_fence_base": str,
        "duplicate_min_cluster": int,
    }
    for key, value in raw.items():
        if key == "sources_file":
            continue
        if key not in converters:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            kwargs[key] = converters[key](value)
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

def source_rule(tweet: Tweet, config: DetectorConfig) -> RuleHit | None:
    """Fire when the tweet's client app is on the suspicious list."""
    if tweet.source_app.lower() in config.suspicious_sources:
        return RuleHit(Rule.SOURCE, f"posted via suspicious app {tweet.source_app!r}")
    return None


def ratio_rule(account: AccountStats, config: DetectorConfig) -> RuleHit | None:
    """Fire on near-equal follower/friend counts above the follower floor."""
    followers, friends = account.followers, account.friends
    larger = max(followers, friends)
    if followers > config.min_followers and larger > 0:
        gap = abs(followers - friends) / larger
        if gap <= config.ratio_tolerance:
            return RuleHit(
                Rule.RATIO,
                f"followers={followers} friends={friends} "
                f"relative gap {gap:.4f} <= {config.ratio_tolerance}",
            )
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


def activity_rule(account: AccountStats, threshold: float) -> RuleHit | None:
    """Fire when the account posts strictly faster than the population cutoff."""
    if account.tweets_per_day > threshold:
        return RuleHit(
            Rule.ACTIVITY,
            f"{account.tweets_per_day:.2f} tweets/day > threshold {threshold:.2f}",
        )
    return None


def duplicate_rule(corpus: Corpus, config: DetectorConfig) -> dict:
    """Map tweet id -> RuleHit for identical non-retweet texts.

    Texts are compared after whitespace trimming; clusters smaller than
    ``duplicate_min_cluster`` do not fire.  Retweets are exempt because
    duplication is their normal mode of existence.
    """
    clusters: dict[str, list] = defaultdict(list)
    for tweet in corpus.tweets:
        if tweet.is_retweet:
            continue
        clusters[tweet.text.strip()].append(tweet.id)
    hits = {}
    for ids in clusters.values():
        if len(ids) >= config.duplicate_min_cluster:
            hit_reason = f"identical text shared by {len(ids)} non-retweet tweets"
            for tweet_id in ids:
                hits[tweet_id] = RuleHit(Rule.DUPLICATE, hit_reason)
    return hits


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def classify(corpus: Corpus, config: DetectorConfig | None = None) -> Detection:
    """Classify every tweet in the corpus.

    Account-level rules (ratio, activity) propagate to all of the account's
    tweets; tweet-level rules (source, duplicate) apply individually.  The
    activity threshold is computed over the whole corpus population first.
    Returns the Classifications in corpus order, with that threshold.
    """
    if config is None:
        config = DetectorConfig()
    threshold = activity_threshold(
        (a.tweets_per_day for a in corpus.accounts.values()), config)
    duplicate_hits = duplicate_rule(corpus, config)

    # Accounts with the same rule hits and verified flag classify alike: each
    # distinct (hits, verified) pair is one kind, numbered in first-seen order.
    kinds: dict[tuple, int] = {}
    kind_of: dict[str, int] = {}
    for acct_id, account in corpus.accounts.items():
        hits = tuple(hit for hit in (ratio_rule(account, config),
                                     activity_rule(account, threshold)) if hit is not None)
        kind_of[acct_id] = kinds.setdefault((hits, account.verified), len(kinds))
    kind_list = list(kinds)

    # A tweet's outcome follows from its account's kind, its app and its
    # duplicate hit; each is combined once.
    outcomes: dict[tuple, tuple] = {}  # (kind, app, duplicate reason) -> outcome
    out = Detection((), threshold)
    for tweet in corpus.tweets:
        kind = kind_of[tweet.author.account_id]
        duplicate = duplicate_hits.get(tweet.id)
        key = (kind, tweet.source_app, None if duplicate is None else duplicate.reason)
        outcome = outcomes.get(key)
        if outcome is None:
            account_hits, verified = kind_list[kind]
            hits = [hit for hit in (*account_hits, source_rule(tweet, config), duplicate)
                    if hit is not None]
            distinct = {h.rule for h in hits}
            if len(distinct) >= 2:
                label = Label.BOT
            elif len(distinct) == 1:
                label = Label.SUSPICIOUS
            else:
                label = Label.NO_BOT
            override = False
            if distinct and verified:
                label = Label.NO_BOT  # verified authors are trusted outright
                override = True
            outcome = outcomes[key] = (label, frozenset(hits), override)
        out.append(Classification(tweet.id, *outcome))
    return out


def group_summary(classifications: Iterable[Classification]) -> dict:
    """Counts and shares per label group, with membership from GROUPS_OF.

    The Suspicious row includes the Bot row, so shares do not sum to 1.
    """
    disjoint = Counter(c.label for c in classifications)
    total = sum(disjoint.values())
    if total == 0:
        raise ValueError("group_summary of empty classification list")
    counts = fold_groups({label: disjoint[label] for label in Label})
    return {label: GroupShare(n, n / total) for label, n in counts.items()}
