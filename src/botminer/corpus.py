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
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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
]

LENIENT = "lenient"
STRICT = "strict"

RATE_CORPUS_WINDOW = "corpus-window"
RATE_LIFETIME = "lifetime"

_MIN_SPAN = timedelta(hours=1)  # rate denominator floor for near-instant corpora
_ANCHOR_RE = re.compile(r"<a\b[^>]*>(.*?)</a>", re.IGNORECASE | re.DOTALL)
_SECONDS_PER_DAY = 86400.0


class AccountSnapshot(NamedTuple):
    """Author state embedded in a single tweet record."""

    screen_name: str
    followers: int
    friends: int
    verified: bool
    statuses_total: int
    account_created_at: datetime


class Tweet(NamedTuple):
    """One normalized tweet."""

    id: str
    text: str
    created_at: datetime
    source_app: str
    is_retweet: bool
    author_id: str


class AccountStats(NamedTuple):
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
        return _span_days(self.span_start, self.span_end)

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

    Each field is checked inline by its exact type; ``_field`` and
    ``_count_field`` run only for a value that fails that check, to give its
    default or raise its message.  Each distinct timestamp string and
    ``source`` string is parsed once and its result shared by every tweet
    that repeats it.  Only successful parses are kept, so a malformed
    timestamp is checked (and reported) again wherever it occurs.
    """

    def __init__(self):
        self._timestamps: dict[str, datetime] = {}
        self._sources: dict[str, str] = {}

    def _timestamp(self, raw: str) -> datetime:
        dt = self._timestamps.get(raw)
        if dt is None:
            dt = self._timestamps[raw] = parse_timestamp(raw)
        return dt

    def parse(self, obj: Mapping) -> tuple[Tweet, tuple]:
        """See parse_record; the author fields come as a plain tuple in
        AccountSnapshot order, which the GC stops tracking (a NamedTuple it
        never does)."""
        if type(obj) is not dict and not isinstance(obj, Mapping):
            raise MalformedRecordError("record is not a JSON object")
        get = obj.get
        user = get("user")
        if type(user) is not dict:
            user = _field(obj, "user", (dict,))
        user_get = user.get
        tweet_id = _id(obj)
        try:
            tweet_id.encode("utf-8")  # an id with a lone surrogate could not be written out
        except UnicodeEncodeError as exc:
            raise MalformedRecordError(str(exc)) from None
        account_id = _id(user)
        text = get("text")
        if type(text) is not str:
            text = _field(obj, "text", (str,))
        text = unicodedata.normalize("NFC", text)
        raw_created = get("created_at")
        if type(raw_created) is not str:
            raw_created = _field(obj, "created_at", (str,))
        created_at = self._timestamp(raw_created)
        raw_user_created = user_get("created_at")
        if type(raw_user_created) is not str:
            raw_user_created = _field(user, "created_at", (str,), "")
        screen_name = user_get("screen_name")
        if type(screen_name) is not str:
            screen_name = _field(user, "screen_name", (str,), "")
        followers = user_get("followers_count")
        if type(followers) is not int or not 0 <= followers <= _MAX_COUNT:
            followers = _count_field(user, "followers_count")
        friends = user_get("friends_count")
        if type(friends) is not int or not 0 <= friends <= _MAX_COUNT:
            friends = _count_field(user, "friends_count")
        verified = user_get("verified")
        if type(verified) is not bool:
            verified = _field(user, "verified", (bool,), False)
        statuses = user_get("statuses_count")
        if type(statuses) is not int or not 0 <= statuses <= _MAX_COUNT:
            statuses = _count_field(user, "statuses_count")
        author = (screen_name, followers, friends, verified, statuses,
                  self._timestamp(raw_user_created) if raw_user_created else created_at)

        is_retweet = (
            get("retweeted_status") is not None
            or get("retweeted_status_id") not in (None, "")
            or text.startswith("RT @")
        )
        raw_source = get("source")
        if type(raw_source) is not str:
            raw_source = _field(obj, "source", (str,), "")
        source_app = self._sources.get(raw_source)
        if source_app is None:
            source_app = self._sources[raw_source] = extract_source_app(raw_source)
        return Tweet(tweet_id, text, created_at, source_app, is_retweet, account_id), author


def _id(obj: Mapping) -> str:
    """obj["id"] as a string: a JSON string, or an int written in decimal."""
    value = obj.get("id")
    if type(value) is str:
        return value
    value = _field(obj, "id", (str, int))
    try:
        return str(value)
    except ValueError as exc:  # an int past the digit limit
        raise MalformedRecordError(str(exc)) from None


def parse_record(obj: Mapping) -> tuple[Tweet, AccountSnapshot]:
    """Normalize one decoded JSON object into a (Tweet, AccountSnapshot) pair.

    The snapshot is the author state the record carries; build_corpus turns
    the latest one per account into its AccountStats.
    Raises MalformedRecordError on structural problems: missing required
    fields, a field of the wrong JSON type (nothing is coerced), a tweet id
    that cannot be written as UTF-8, unparseable or out-of-range timestamps,
    negative or oversized counts.
    """
    tweet, author = _Parser().parse(obj)
    return tweet, AccountSnapshot._make(author)


def _span_days(start: datetime, end: datetime) -> float:
    """Days from *start* to *end*, floored at one hour."""
    return max(end - start, _MIN_SPAN).total_seconds() / _SECONDS_PER_DAY


def _lifetime_days(account_created: datetime, span_end: datetime) -> float:
    age = (span_end - account_created).total_seconds() / _SECONDS_PER_DAY
    return max(age, 1.0)  # brand-new accounts count as one day old


def _check_rate_basis(rate_basis: str) -> None:
    if rate_basis not in (RATE_CORPUS_WINDOW, RATE_LIFETIME):
        raise ValueError(f"unknown rate basis {rate_basis!r}")


def _aggregate_accounts(tweets: tuple, authors: Sequence[tuple], span_days: float,
                        span_end: datetime, rate_basis: str) -> dict:
    """AccountStats per account from its latest tweet's author fields.

    *authors* holds each tweet's author fields in AccountSnapshot order,
    parallel to *tweets*.  The latest tweet is the one with the largest
    ``created_at``; of equal timestamps, the later one.
    """
    latest: dict[str, int] = {}  # account_id -> index of its latest tweet
    for i, tweet in enumerate(tweets):
        j = latest.get(tweet.author_id)
        if j is None or tweet.created_at >= tweets[j].created_at:
            latest[tweet.author_id] = i
    n_tweets = Counter(tweet.author_id for tweet in tweets)

    out = {}
    for acct, i in latest.items():
        screen_name, followers, friends, verified, statuses, created = authors[i]
        n = n_tweets[acct]
        if rate_basis == RATE_CORPUS_WINDOW:
            rate = n / span_days
        else:
            rate = statuses / _lifetime_days(created, span_end)
        out[acct] = AccountStats(acct, screen_name, followers, friends, verified,
                                 statuses, n, rate, created)
    return out


def build_corpus(records: Iterable[tuple], rate_basis: str = RATE_CORPUS_WINDOW,
                 skipped_count: int = 0, duplicate_count: int = 0) -> Corpus:
    """Assemble a Corpus from parse_record's (Tweet, AccountSnapshot) pairs.

    Tweet order is preserved.  A snapshot may also be a plain tuple of the
    same fields, as ingest passes it.  The snapshots only feed the account
    aggregates; the Corpus keeps none of them.
    """
    _check_rate_basis(rate_basis)
    tweets, authors = [], []
    for tweet, author in records:
        tweets.append(tweet)
        authors.append(author)
    if not tweets:
        raise EmptyCorpusError("no usable tweets")
    tweets = tuple(tweets)
    span_start = min(t.created_at for t in tweets)
    span_end = max(t.created_at for t in tweets)
    accounts = _aggregate_accounts(tweets, authors, _span_days(span_start, span_end),
                                   span_end, rate_basis)
    return Corpus(
        tweets=tweets,
        accounts=accounts,
        span_start=span_start,
        span_end=span_end,
        skipped_count=skipped_count,
        duplicate_count=duplicate_count,
        rate_basis=rate_basis,
    )


def _decode_error(line: str, msg: str, pos: int) -> MalformedRecordError:
    """The error json.loads gives for *line*, where scan_once stopped at *pos*."""
    if line.startswith("\ufeff"):
        msg, pos = "Unexpected UTF-8 BOM (decode using utf-8-sig)", 0
    elif msg == "Extra data":  # json.loads reports it past the whitespace
        pos = json.decoder.WHITESPACE.match(line, pos).end()
    return MalformedRecordError(f"invalid JSON: {json.JSONDecodeError(msg, line, pos)}")


def ingest(path, strictness: str = LENIENT,
           rate_basis: str = RATE_CORPUS_WINDOW) -> Corpus:
    """Read a newline-delimited JSON dump into a Corpus.

    Lines end at newline bytes and are decoded as UTF-8 one by one.  Lenient
    mode counts malformed lines (bad UTF-8, bad JSON, bad records) in
    ``skipped_count`` and moves on; strict mode raises MalformedRecordError
    naming the offending line.  A stripped line is a record exactly when
    ``json.loads`` accepts it.
    Repeated tweet ids keep the last record (dict semantics) and are tallied
    in ``duplicate_count``.  Blank lines (streaming keep-alives) are ignored.
    Records are parsed as parse_record parses them, but each distinct
    timestamp and source string once.
    """
    if strictness not in (LENIENT, STRICT):
        raise ValueError(f"unknown strictness {strictness!r}")
    _check_rate_basis(rate_basis)
    parse = _Parser().parse
    scan_once = json.JSONDecoder().scan_once
    by_id: dict[str, Tweet] = {}
    authors: dict[str, tuple] = {}  # tweet id -> its author fields, as parse gives them
    skipped = 0
    duplicates = 0
    with open(Path(path), "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    obj, end = scan_once(line, 0)
                except UnicodeDecodeError as exc:
                    raise MalformedRecordError(f"invalid UTF-8: {exc}") from None
                except StopIteration as exc:
                    raise _decode_error(line, "Expecting value", exc.value) from None
                except (ValueError, RecursionError) as exc:
                    raise MalformedRecordError(f"invalid JSON: {exc}") from None
                if end != len(line):
                    raise _decode_error(line, "Extra data", end)
                tweet, author = parse(obj)
            except MalformedRecordError as exc:
                if strictness == STRICT:
                    raise MalformedRecordError(f"line {lineno}: {exc}") from None
                skipped += 1
                continue
            tweet_id = tweet.id
            if tweet_id in by_id:
                duplicates += 1
            by_id[tweet_id] = tweet
            authors[tweet_id] = author
    if not by_id:
        raise EmptyCorpusError(f"no usable records in {path}")
    # Both dicts got the same keys in the same order, so their values pair up.
    # Copied out, the dicts go before the accounts are aggregated.
    tweets, author_rows = tuple(by_id.values()), tuple(authors.values())
    del by_id, authors
    # build_corpus unpacks each pair at once, so zip reuses one pair tuple.
    return build_corpus(zip(tweets, author_rows), rate_basis=rate_basis,
                        skipped_count=skipped, duplicate_count=duplicates)
