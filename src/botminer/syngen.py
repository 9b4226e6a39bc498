"""Synthetic tweet-corpus generator with planted ground truth.

Produces a newline-delimited JSON dump shaped exactly like a real capture
plus a companion account_id,label file, so the detector and the analysis
chain can be verified end to end at desk scale.  Output is a pure function
of the config: same settings, same bytes.

Planted behaviors per account class:

* humans post at ~human_rate_mean tweets/day from official apps, follower
  and friend counts independent, occasionally retweet, 2% verified;
* bots post at ~bot_rate_mean tweets/day, mostly from suspicious apps
  (bot_suspicious_source_prob), mostly with near-equal follower/friend
  counts (bot_ratio_equalized_prob, relative gap <= 0.05), and clone a
  shared template text on bot_duplicate_prob of their tweets;
* bot texts skew negative (bot_negative_skew) versus humans
  (human_negative_skew), so sentiment separates the groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import Corpus
from .detector import Classification, Label
from .errors import ConfigError, check_int, check_real, shown
from .listfile import read_entries
from .rng import SplitMix64

__all__ = [
    "SynthConfig",
    "DetectionReport",
    "generate",
    "load_ground_truth",
    "evaluate_detection",
]

# fixed origin so timestamps are reproducible and span a known window
_BASE_EPOCH = datetime(2017, 12, 30, 0, 0, 0, tzinfo=timezone.utc)
# the longest span whose timestamps datetime can still hold
_MAX_SPAN_HOURS = (datetime.max.replace(tzinfo=timezone.utc) - _BASE_EPOCH) / timedelta(hours=1)
_TEMPLATE_POOL = 12

# word pools; sentiment words must stay aligned with data/lexicon.tsv
_FILLER = ("the", "and", "for", "with", "this", "that", "from", "have", "will", "about")
_NEUTRAL = ("people", "news", "today", "world", "government", "country", "city",
            "street", "report", "video", "watch", "live", "media", "minister",
            "president", "oil", "economy", "election", "internet", "tonight")
_POSITIVE = ("good", "great", "hope", "peace", "free", "freedom", "support",
             "happy", "strong", "proud", "justice", "truth", "help")
_NEGATIVE = ("bad", "terror", "war", "hate", "kill", "death", "attack", "crisis",
             "corrupt", "regime", "violence", "fear", "threat", "enemy", "evil",
             "prison", "danger")
_HASHTAGS = ("#IranProtests", "#Tehran", "#FreeIran", "#News", "#Breaking")
_URL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

# account ages in days, drawn uniformly from these inclusive ranges
_HUMAN_AGE_DAYS = (200, 3000)
_BOT_AGE_DAYS = (20, 400)
_MAX_COUNT = 2**63 - 1  # the largest statuses_count ingest accepts
# generate holds every record in memory (about 0.7 KiB and 24 us each on a
# 2-core Xeon), so this bounds a run at about 3.3 GiB and two minutes
_MAX_TWEETS = 5_000_000
_MAX_SEED = 2**64 - 1  # SplitMix64 keeps 64 bits of the seed; a larger one would alias

_OFFICIAL_APPS = (
    ("Twitter for iPhone", "http://twitter.com/download/iphone"),
    ("Twitter for Android", "http://twitter.com/download/android"),
    ("Twitter Web Client", "http://twitter.com"),
    ("Twitter Lite", "https://mobile.twitter.com"),
    ("TweetDeck", "https://about.twitter.com/products/tweetdeck"),
)
_BOT_APPS = (
    ("twittbot.net", "http://twittbot.net/"),
    ("IFTTT", "https://ifttt.com"),
    ("www.AgendaofEvil.com", "http://www.agendaofevil.com"),
    ("pipes.cyberguerril.org", "http://pipes.cyberguerril.org"),
    ("www.rightstreem.com", "http://www.rightstreem.com"),
)

_PROBABILITIES = ("bot_ratio_equalized_prob", "bot_suspicious_source_prob",
                  "bot_duplicate_prob", "bot_negative_skew",
                  "human_negative_skew", "verified_human_prob")


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; every field participates in the deterministic stream."""

    seed: int = 7
    n_humans: int = 500
    n_bots: int = 25
    span_hours: float = 24.0
    human_rate_mean: float = 5.0
    bot_rate_mean: float = 300.0
    bot_ratio_equalized_prob: float = 0.9
    bot_suspicious_source_prob: float = 0.8
    bot_duplicate_prob: float = 0.3
    bot_negative_skew: float = 0.7
    human_negative_skew: float = 0.45
    verified_human_prob: float = 0.02

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        if self.seed > _MAX_SEED:
            raise ConfigError(f"seed must be <= {_MAX_SEED}, got {shown(self.seed)}")
        check_int("n_humans", self.n_humans, 0)
        check_int("n_bots", self.n_bots, 0)
        if self.n_humans + self.n_bots == 0:
            raise ConfigError("nothing to generate: zero accounts")
        for name in ("span_hours", "human_rate_mean", "bot_rate_mean") + _PROBABILITIES:
            check_real(name, getattr(self, name))
        if not 0 < self.span_hours <= _MAX_SPAN_HOURS:
            raise ConfigError(f"span_hours must be in (0, {_MAX_SPAN_HOURS:.0f}], "
                              f"got {shown(self.span_hours)}")
        for name, (_, oldest) in (("human_rate_mean", _HUMAN_AGE_DAYS),
                                  ("bot_rate_mean", _BOT_AGE_DAYS)):
            mean = getattr(self, name)
            # statuses_count is rate * age, with a drawn rate of at most mean * 1.5
            if not 0 < mean * 1.5 * oldest <= _MAX_COUNT:
                raise ConfigError(f"{name} must be > 0 and keep statuses_count "
                                  f"<= {_MAX_COUNT}, got {shown(mean)}")
        # an account draws max(1, round(rate * span_days)) tweets, rate < 1.5 * mean;
        # each draws one at least, so the account count is checked first, which
        # keeps the float products from overflowing
        span_days = self.span_hours / 24.0
        if (self.n_humans + self.n_bots > _MAX_TWEETS
                or self.n_humans * max(1.0, 1.5 * self.human_rate_mean * span_days)
                + self.n_bots * max(1.0, 1.5 * self.bot_rate_mean * span_days) > _MAX_TWEETS):
            raise ConfigError(f"n_humans, n_bots, span_hours, human_rate_mean and "
                              f"bot_rate_mean may draw more than {_MAX_TWEETS} tweets")
        for name in _PROBABILITIES:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {shown(p)}")


def _anchor(app: tuple) -> str:
    name, href = app
    return f'<a href="{href}" rel="nofollow">{name}</a>'


def _short_url(rng: SplitMix64) -> str:
    return "https://t.co/" + "".join(rng.choice(_URL_ALPHABET) for _ in range(8))


def _compose_text(rng: SplitMix64, negative_skew: float) -> str:
    """One tweet body: filler/topic/sentiment words, maybe a hashtag or URL."""
    n_words = rng.randint(6, 12)
    words = []
    for _ in range(n_words):
        r = rng.random()
        if r < 0.20:
            words.append(rng.choice(_FILLER))
        elif r < 0.50:
            words.append(rng.choice(_NEUTRAL))
        elif rng.chance(negative_skew):
            words.append(rng.choice(_NEGATIVE))
        else:
            words.append(rng.choice(_POSITIVE))
    if rng.chance(0.5):
        words.insert(rng.randint(0, len(words) - 1), "Iran")
    if rng.chance(0.35):
        words.append(rng.choice(_HASHTAGS))
    if rng.chance(0.15):
        words.append(_short_url(rng))
    return " ".join(words)


def _iso(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _human(rng: SplitMix64, config: SynthConfig, templates: tuple):
    """A human's (followers, friends, verified, age_days) and its tweet drawer."""
    verified = rng.chance(config.verified_human_prob)
    if verified:
        # media-style account; half get an exactly equalized ratio so the
        # corpus always exercises the verified override suppressing a hit
        followers = rng.randint(1000, 50000)
        friends = followers if rng.chance(0.5) else rng.randint(10, 2000)
    else:
        followers = rng.randint(10, 2000)
        friends = rng.randint(10, 2000)
    age_days = rng.randint(*_HUMAN_AGE_DAYS)

    def tweet() -> tuple:
        source = _anchor(rng.choice(_OFFICIAL_APPS))
        if not rng.chance(0.12):
            return _compose_text(rng, config.human_negative_skew), source, False
        # half the retweets echo a template verbatim: identical texts that
        # must stay exempt from the duplicate rule
        if rng.chance(0.5):
            return "RT @newswire: " + rng.choice(templates), source, True
        return "RT @afriend: " + _compose_text(rng, config.human_negative_skew), source, True

    return (followers, friends, verified, age_days), tweet


def _bot(rng: SplitMix64, config: SynthConfig, templates: tuple):
    """A bot's (followers, friends, verified, age_days) and its tweet drawer."""
    followers = rng.randint(150, 30000)
    if rng.chance(config.bot_ratio_equalized_prob):
        # truncation keeps the relative gap <= 0.05 of the larger count
        delta = int(followers * 0.05 * rng.random())
        friends = followers + delta if rng.chance(0.5) else followers - delta
    else:
        friends = rng.randint(10, 2000)
    apps = _BOT_APPS if rng.chance(config.bot_suspicious_source_prob) else _OFFICIAL_APPS
    source = _anchor(rng.choice(apps))
    age_days = rng.randint(*_BOT_AGE_DAYS)

    def tweet() -> tuple:
        if rng.chance(config.bot_duplicate_prob):
            return rng.choice(templates), source, False
        return _compose_text(rng, config.bot_negative_skew), source, False

    return (followers, friends, False, age_days), tweet


def generate(config: SynthConfig, corpus_path, truth_path) -> dict:
    """Write the synthetic corpus and its ground-truth file.

    Returns the ground-truth mapping account_id -> "human" | "bot".  Records
    land in the corpus file sorted by (created_at, tweet id) like a capture
    replayed in order; all draws come from one SplitMix64 stream seeded with
    config.seed, so identical configs give byte-identical files.
    """
    rng = SplitMix64(config.seed)
    span_secs = max(int(config.span_hours * 3600), 1)
    span_days = config.span_hours / 24.0
    iso_of: dict[int, str] = {}

    # shared texts that duplicate-happy bots clone verbatim
    templates = tuple(_compose_text(rng, config.bot_negative_skew)
                      for _ in range(_TEMPLATE_POOL))

    records = []  # (created_at_iso, tweet_id, serialized line)
    truth: dict[str, str] = {}
    # humans first, then bots, each in index order: the draw order is the output
    for label, count, rate_mean, draw, screen_name in (
            ("human", config.n_humans, config.human_rate_mean, _human, "human_{:05d}"),
            ("bot", config.n_bots, config.bot_rate_mean, _bot, "bot_{:04d}")):
        for i in range(count):
            acct_id = f"{label[0]}{i:06d}"
            truth[acct_id] = label
            rate = rate_mean * (0.5 + rng.random())
            (followers, friends, verified, age_days), tweet = draw(rng, config, templates)
            user = {
                "id": acct_id,
                "screen_name": screen_name.format(i),
                "followers_count": followers,
                "friends_count": friends,
                "verified": verified,
                "statuses_count": int(rate * age_days),
                "created_at": _iso(_BASE_EPOCH - timedelta(days=age_days)),
            }
            for _ in range(max(1, round(rate * span_days))):
                offset = rng.randint(0, span_secs - 1)
                created = iso_of.get(offset)
                if created is None:
                    created = iso_of[offset] = _iso(_BASE_EPOCH + timedelta(seconds=offset))
                text, source, is_retweet = tweet()
                tweet_id = f"t{len(records):08d}"
                record = {"id": tweet_id, "text": text, "created_at": created,
                          "source": source, "user": user}
                if is_retweet:
                    record["retweeted_status_id"] = str(900_000_000 + len(records))
                records.append((created, tweet_id,
                                json.dumps(record, sort_keys=True, separators=(",", ":"))))

    records.sort()
    corpus_path = Path(corpus_path)
    truth_path = Path(truth_path)
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        for _, _, line in records:
            fh.write(line)
            fh.write("\n")
    with open(truth_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("account_id,label\n")
        for acct in sorted(truth):
            fh.write(f"{acct},{truth[acct]}\n")
    return truth


def load_ground_truth(path) -> dict:
    """Read an account_id,label file back into a dict; each account id may
    appear once."""
    truth, line_of = {}, {}
    for lineno, line in read_entries(path):
        if line == "account_id,label":
            continue
        acct, _, label = line.partition(",")
        acct, label = acct.strip(), label.strip().lower()
        if label not in ("human", "bot"):
            raise ConfigError(f"ground truth line {lineno}: label must be human|bot, "
                              f"got {shown(label)}")
        first = line_of.setdefault(acct, lineno)
        if first != lineno:
            raise ConfigError(f"ground truth line {lineno}: {shown(acct)} repeats line {first}")
        truth[acct] = label
    return truth


@dataclass(frozen=True)
class DetectionReport:
    """Account-level detection quality against planted ground truth."""

    recall: float | None
    false_positive_rate: float | None
    true_bots: int
    true_humans: int
    predicted_bot_accounts: frozenset


def evaluate_detection(classifications: Iterable[Classification], corpus: Corpus,
                       truth: Mapping[str, str]) -> DetectionReport:
    """Score detection at account granularity.

    An account counts as detected when any of its tweets is labeled Bot.
    Recall is detected/true bots; the false positive rate is the share of
    true humans wrongly detected.  Either is None when its class is absent.
    """
    author_of = {t.id: t.author_id for t in corpus.tweets}
    predicted = set()
    for c in classifications:
        if c.label is Label.BOT:
            author = author_of.get(c.tweet_id)
            if author is None:
                raise ValueError(f"classification for unknown tweet {c.tweet_id!r}")
            predicted.add(author)
    bots = {a for a, label in truth.items() if label == "bot"}
    humans = {a for a, label in truth.items() if label == "human"}
    recall = len(predicted & bots) / len(bots) if bots else None
    fpr = len(predicted & humans) / len(humans) if humans else None
    return DetectionReport(recall, fpr, len(bots), len(humans), frozenset(predicted))
