"""Ingestion of newline-delimited JSON tweet dumps into an in-memory corpus.

Records follow the streaming-API shape: top-level ``id``, ``text``,
``created_at``, ``source`` plus a nested ``user`` object.  Only those four
top-level fields and ``user.id`` are required; everything else gets a
conservative default so partial dumps still load in lenient mode.
"""

from __future__ import annotations

import html
import json
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping

from .errors import EmptyCorpusError, MalformedRecordError

__all__ = [
    "LENIENT",
    "STRICT",
    "RATE_CORPUS_WINDOW",
    "RATE_LIFETIME",
    "Tweet",
    "AccountSnapshot",
    "AccountStats",
    "Corpus",
    "extract_source_app",
    "parse_timestamp",
    "parse_record",
    "ingest",
    "build_corpus",
    "account_stats",
]

LENIENT = "lenient"
STRICT = "strict"

RATE_CORPUS_WINDOW = "corpus-window"
RATE_LIFETIME = "lifetime"

_MIN_SPAN = timedelta(hours=1)  # rate denominator floor for near-instant corpora
_ANCHOR_RE = re.compile(r"<a\b[^>]*>(.*?)</a>", re.IGNORECASE | re.DOTALL)
_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True, slots=True)
class AccountSnapshot:
    """Author state embedded in a single tweet record."""

    account_id: str
    screen_name: str
    followers: int
    friends: int
    verified: bool
    statuses_total: int
    account_created_at: datetime


@dataclass(frozen=True, slots=True)
class Tweet:
    """One normalized tweet."""

    id: str
    text: str
    created_at: datetime
    source_raw: str
    source_app: str
    is_retweet: bool
    author: AccountSnapshot

    @property
    def author_id(self) -> str:
        return self.author.account_id


@dataclass(frozen=True, slots=True)
class AccountStats:
    """Per-account aggregate over the corpus (latest snapshot wins)."""

    account_id: str
    screen_name: str
    followers: int
    friends: int
    verified: bool
    statuses_total: int
    tweets_in_corpus: int
    tweets_per_day: float
    account_created_at: datetime
    sources_used: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True, slots=True)
class Corpus:
    """An ingested corpus plus per-account aggregates."""

    tweets: tuple
    accounts: Mapping[str, AccountStats]
    span_start: datetime
    span_end: datetime
    skipped_count: int
    duplicate_count: int
    rate_basis: str

    @property
    def span_days(self) -> float:
        """Observation span in days, floored at one hour."""
        span = self.span_end - self.span_start
        if span < _MIN_SPAN:
            span = _MIN_SPAN
        return span.total_seconds() / _SECONDS_PER_DAY

    def __len__(self) -> int:
        return len(self.tweets)


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp (or the legacy streaming format) to UTC."""
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        try:
            # e.g. "Sat Dec 30 13:08:45 +0000 2017"
            dt = datetime.strptime(raw, "%a %b %d %H:%M:%S %z %Y")
        except ValueError:
            raise MalformedRecordError(f"unparseable timestamp {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise MalformedRecordError(f"timestamp out of range {raw!r}") from None


def extract_source_app(source_raw) -> str:
    """Client app name from the raw ``source`` field.

    The field usually carries an HTML anchor; we keep its inner text.  A bare
    string is used as-is.  The result is never empty: unusable values map to
    ``"unknown"`` so downstream string matching stays total.
    """
    if source_raw:
        m = _ANCHOR_RE.search(str(source_raw))
        if m:
            inner = html.unescape(m.group(1)).strip()
            if inner:
                return inner
        trimmed = str(source_raw).strip()
        if trimmed:
            return trimmed
    return "unknown"


_REQUIRED = object()
_MAX_COUNT = 2**63 - 1  # Twitter counts are 64-bit; far larger ints overflow float math


def _field(obj: Mapping, key: str, types: tuple, default=_REQUIRED):
    """obj[key] checked against *types* (exact types, so bool is not an int).

    A missing or null value is *default*, or malformed when there is none.
    """
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise MalformedRecordError(f"missing required field {key!r}")
        return default
    if type(value) not in types:
        raise MalformedRecordError(f"{key} has type {type(value).__name__}")
    return value


def _count_field(user: Mapping, key: str) -> int:
    count = _field(user, key, (int,), 0)
    if not 0 <= count <= _MAX_COUNT:
        raise MalformedRecordError(f"{key} out of range: {count}")
    return count


class _Parser:
    """parse_record for the records of one ingest.

    Each distinct timestamp string and ``source`` string is parsed once and
    its result shared by every tweet that repeats it.  Only successful
    parses are kept, so a malformed timestamp is checked (and reported)
    again wherever it occurs.
    """

    def __init__(self):
        self._timestamps: dict[str, datetime] = {}
        self._sources: dict[str, str] = {}

    def _timestamp(self, raw: str) -> datetime:
        dt = self._timestamps.get(raw)
        if dt is None:
            dt = self._timestamps[raw] = parse_timestamp(raw)
        return dt

    def parse(self, obj: Mapping) -> Tweet:
        """See parse_record."""
        if type(obj) is not dict and not isinstance(obj, Mapping):
            raise MalformedRecordError("record is not a JSON object")
        user = _field(obj, "user", (dict,))
        try:
            tweet_id = str(_field(obj, "id", (str, int)))
            tweet_id.encode("utf-8")  # an id with a lone surrogate could not be written out
            account_id = str(_field(user, "id", (str, int)))
        except ValueError as exc:  # that, or str() of an int id past the digit limit
            raise MalformedRecordError(str(exc)) from None
        text = unicodedata.normalize("NFC", _field(obj, "text", (str,)))
        created_at = self._timestamp(_field(obj, "created_at", (str,)))
        raw_user_created = _field(user, "created_at", (str,), "")

        author = AccountSnapshot(
            account_id=account_id,
            screen_name=_field(user, "screen_name", (str,), ""),
            followers=_count_field(user, "followers_count"),
            friends=_count_field(user, "friends_count"),
            verified=_field(user, "verified", (bool,), False),
            statuses_total=_count_field(user, "statuses_count"),
            account_created_at=(self._timestamp(raw_user_created) if raw_user_created
                                else created_at),
        )
        is_retweet = (
            obj.get("retweeted_status") is not None
            or obj.get("retweeted_status_id") not in (None, "")
            or text.startswith("RT @")
        )
        raw_source = _field(obj, "source", (str,), "")
        source_app = self._sources.get(raw_source)
        if source_app is None:
            source_app = self._sources[raw_source] = extract_source_app(raw_source)
        return Tweet(
            id=tweet_id,
            text=text,
            created_at=created_at,
            source_raw=raw_source,
            source_app=source_app,
            is_retweet=is_retweet,
            author=author,
        )


def parse_record(obj: Mapping) -> Tweet:
    """Normalize one decoded JSON object into a Tweet.

    Raises MalformedRecordError on structural problems: missing required
    fields, a field of the wrong JSON type (nothing is coerced), a tweet id
    that cannot be written as UTF-8, unparseable or out-of-range timestamps,
    negative or oversized counts.
    """
    return _Parser().parse(obj)


def _lifetime_days(account_created: datetime, span_end: datetime) -> float:
    age = (span_end - account_created).total_seconds() / _SECONDS_PER_DAY
    return max(age, 1.0)  # brand-new accounts count as one day old


def _aggregate_accounts(tweets, span_days: float, span_end: datetime,
                        rate_basis: str) -> dict:
    # latest snapshot per account decides followers/friends/verified/statuses
    # (of equal timestamps, the later tweet's)
    latest: dict[str, tuple] = {}  # account_id -> (created_at, snapshot)
    n_tweets: dict[str, int] = {}
    sources: dict[str, set] = {}
    for tweet in tweets:
        author = tweet.author
        acct = author.account_id
        seen = latest.get(acct)
        if seen is None:
            latest[acct] = (tweet.created_at, author)
            n_tweets[acct] = 1
            sources[acct] = {tweet.source_app}
        else:
            if tweet.created_at >= seen[0]:
                latest[acct] = (tweet.created_at, author)
            n_tweets[acct] += 1
            sources[acct].add(tweet.source_app)

    out = {}
    for acct, (_, snap) in latest.items():
        if rate_basis == RATE_CORPUS_WINDOW:
            rate = n_tweets[acct] / span_days
        elif rate_basis == RATE_LIFETIME:
            rate = snap.statuses_total / _lifetime_days(snap.account_created_at, span_end)
        else:
            raise ValueError(f"unknown rate basis {rate_basis!r}")
        out[acct] = AccountStats(
            account_id=acct,
            screen_name=snap.screen_name,
            followers=snap.followers,
            friends=snap.friends,
            verified=snap.verified,
            statuses_total=snap.statuses_total,
            tweets_in_corpus=n_tweets[acct],
            tweets_per_day=rate,
            account_created_at=snap.account_created_at,
            sources_used=frozenset(sources[acct]),
        )
    return out


def build_corpus(tweets: Iterable[Tweet], rate_basis: str = RATE_CORPUS_WINDOW,
                 skipped_count: int = 0, duplicate_count: int = 0) -> Corpus:
    """Assemble a Corpus from already-parsed tweets (order preserved)."""
    seq = tuple(tweets)
    if not seq:
        raise EmptyCorpusError("no usable tweets")
    span_start = min(t.created_at for t in seq)
    span_end = max(t.created_at for t in seq)
    span = span_end - span_start
    if span < _MIN_SPAN:
        span = _MIN_SPAN
    span_days = span.total_seconds() / _SECONDS_PER_DAY
    accounts = _aggregate_accounts(seq, span_days, span_end, rate_basis)
    return Corpus(
        tweets=seq,
        accounts=accounts,
        span_start=span_start,
        span_end=span_end,
        skipped_count=skipped_count,
        duplicate_count=duplicate_count,
        rate_basis=rate_basis,
    )


def account_stats(corpus: Corpus, rate_basis: str | None = None) -> Mapping[str, AccountStats]:
    """Per-account aggregates, optionally under a different rate basis."""
    if rate_basis is None or rate_basis == corpus.rate_basis:
        return corpus.accounts
    return _aggregate_accounts(corpus.tweets, corpus.span_days, corpus.span_end, rate_basis)


def ingest(path, strictness: str = LENIENT,
           rate_basis: str = RATE_CORPUS_WINDOW) -> Corpus:
    """Read a newline-delimited JSON dump into a Corpus.

    Lines end at newline bytes and are decoded as UTF-8 one by one.  Lenient
    mode counts malformed lines (bad UTF-8, bad JSON, bad records) in
    ``skipped_count`` and moves on; strict mode raises MalformedRecordError
    naming the offending line.
    Repeated tweet ids keep the last record (dict semantics) and are tallied
    in ``duplicate_count``.  Blank lines (streaming keep-alives) are ignored.
    Records are parsed as parse_record parses them, but each distinct
    timestamp and source string once.
    """
    if strictness not in (LENIENT, STRICT):
        raise ValueError(f"unknown strictness {strictness!r}")
    parse = _Parser().parse
    by_id: dict[str, Tweet] = {}
    skipped = 0
    duplicates = 0
    with open(Path(path), "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                except UnicodeDecodeError as exc:
                    raise MalformedRecordError(f"invalid UTF-8: {exc}") from None
                except (ValueError, RecursionError) as exc:
                    raise MalformedRecordError(f"invalid JSON: {exc}") from None
                tweet = parse(obj)
            except MalformedRecordError as exc:
                if strictness == STRICT:
                    raise MalformedRecordError(f"line {lineno}: {exc}") from None
                skipped += 1
                continue
            if tweet.id in by_id:
                duplicates += 1
            by_id[tweet.id] = tweet
    if not by_id:
        raise EmptyCorpusError(f"no usable records in {path}")
    return build_corpus(tuple(by_id.values()), rate_basis=rate_basis,
                        skipped_count=skipped, duplicate_count=duplicates)
