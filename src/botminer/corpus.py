"""Ingestion of newline-delimited JSON tweet dumps into an in-memory corpus.

Records follow the streaming-API shape: top-level ``id``, ``text``,
``created_at``, ``source`` plus a nested ``user`` object.  Only those four
top-level fields and ``user.id`` are required; everything else gets a
conservative default so partial dumps still load in lenient mode.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from collections.abc import Mapping, Sequence
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import count, repeat
from operator import sub, truediv
from pathlib import Path
from typing import NamedTuple

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
_UTC = timezone.utc
_fromisoformat = datetime.fromisoformat


class AccountSnapshot(NamedTuple):
    """Author state embedded in a single tweet record."""

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
    followers: int
    friends: int
    verified: bool
    statuses_total: int
    tweets_in_corpus: int
    tweets_per_day: float
    account_created_at: datetime


_N_TWEET_FIELDS = len(Tweet._fields)
_N_FIELDS = _N_TWEET_FIELDS + len(AccountSnapshot._fields)  # of one row
# the row positions of the follower, friend and status counts
_COUNT_COLUMNS = tuple(_N_TWEET_FIELDS + AccountSnapshot._fields.index(name)
                       for name in ("followers", "friends", "statuses_total"))
_CHUNK_HINT = 1 << 16  # ingest reads lines in chunks of about this many bytes
# a Tweet from a tuple of its fields, at C level
_new_tweet = partial(tuple.__new__, Tweet)


class _TweetView:
    """A corpus's tweets in order, each Tweet built from the columns on demand.

    ``columns`` is a Tweet whose fields are the per-tweet columns, tuples in
    corpus order.  Iterating builds one Tweet per tweet.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Tweet):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.id)

    def __iter__(self):
        return map(_new_tweet, zip(*self.columns))


class _AccountView(Mapping):
    """A corpus's accounts by id, each AccountStats built from the columns on demand.

    ``columns`` is an AccountStats whose fields are the per-account columns,
    tuples in the order of each account's first tweet; iteration gives the
    account ids in that order.  Each access builds a new AccountStats.
    """

    __slots__ = ("columns", "_positions")

    def __init__(self, columns: AccountStats):
        self.columns = columns
        self._positions = None  # account id -> column index, built on first lookup

    def __len__(self) -> int:
        return len(self.columns.account_id)

    def __iter__(self):
        return iter(self.columns.account_id)

    def __getitem__(self, account_id) -> AccountStats:
        if self._positions is None:
            self._positions = dict(zip(self.columns.account_id, count()))
        i = self._positions[account_id]
        return AccountStats._make(column[i] for column in self.columns)


class Corpus:
    """An ingested corpus: per-tweet columns plus per-account aggregates.

    Tweet i is ``ids[i]``, ``texts[i]``, ``created_at[i]``,
    ``source_apps[i]``, ``is_retweet[i]`` and ``author_ids[i]``; each column
    is a tuple in corpus order, and ``tweets`` builds Tweets from them
    (``tweets.columns`` holds them as one Tweet).
    ``accounts`` maps each account id to its AccountStats, built from
    per-account columns on demand.
    """

    __slots__ = ("ids", "texts", "created_at", "source_apps", "is_retweet", "author_ids",
                 "accounts", "span_start", "span_end", "skipped_count", "duplicate_count")

    def __init__(self, ids: tuple, texts: tuple, created_at: tuple, source_apps: tuple,
                 is_retweet: tuple, author_ids: tuple, accounts: Mapping[str, AccountStats],
                 span_start: datetime, span_end: datetime, skipped_count: int,
                 duplicate_count: int):
        self.ids = ids
        self.texts = texts
        self.created_at = created_at
        self.source_apps = source_apps
        self.is_retweet = is_retweet
        self.author_ids = author_ids
        self.accounts = accounts
        self.span_start = span_start
        self.span_end = span_end
        self.skipped_count = skipped_count
        self.duplicate_count = duplicate_count

    @property
    def tweets(self) -> _TweetView:
        """The tweets in corpus order: a length, and iteration that builds each Tweet."""
        return _TweetView(Tweet(self.ids, self.texts, self.created_at, self.source_apps,
                                self.is_retweet, self.author_ids))

    @property
    def span_days(self) -> float:
        """Observation span in days, floored at one hour."""
        return _span_days(self.span_start, self.span_end)

    def __len__(self) -> int:
        return len(self.ids)


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp (or the legacy streaming format) to UTC."""
    try:
        dt = _fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        dt = _parse_legacy(raw)
    return _to_utc(dt, raw)


def _parse_legacy(raw: str) -> datetime:
    """*raw* in the legacy streaming format, e.g. "Sat Dec 30 13:08:45 +0000 2017"."""
    try:
        return datetime.strptime(raw, "%a %b %d %H:%M:%S %z %Y")
    except ValueError:
        raise MalformedRecordError(f"unparseable timestamp {raw!r}") from None


def _to_utc(dt: datetime, raw: str) -> datetime:
    """*dt*, parsed from *raw*, in UTC; a naive time is taken as UTC."""
    if dt.tzinfo is _UTC:
        return dt
    if dt.tzinfo is None:
        return dt.replace(tzinfo=_UTC)
    try:
        return dt.astimezone(_UTC)
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
            inner = m.group(1)
            if "&" in inner:  # html.unescape returns any other text unchanged
                import html  # its entity table loads only for a source that needs it
                inner = html.unescape(inner)
            inner = inner.strip()
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

    Each field is checked inline by its exact type; ``_field``,
    ``_count_field`` and ``_id`` run only for a value that fails that check,
    to give its default or raise its message.  A tweet's ``created_at`` that
    equals the previous record's shares that record's parse, which catches
    the repeats of a time-ordered dump; any other is parsed anew, as tweet
    times are nearly all distinct, with parse_timestamp's steps inline, so
    each new time costs one ``fromisoformat`` attempt: an ISO time read as
    UTC is kept as it comes, any other goes on to parse_timestamp's
    ``_parse_legacy`` and ``_to_utc``.  Each distinct account
    ``created_at`` and ``source`` string is parsed once and its result shared
    by every record that repeats it.  Only successful parses are kept, so a
    malformed timestamp is checked (and reported) again wherever it occurs.
    Ids and texts that are ASCII skip the UTF-8 and NFC passes, which cannot
    change them.
    """

    def __init__(self):
        self._timestamps: dict[str, datetime] = {}  # account created_at -> parse
        self._sources: dict[str, str] = {}
        self._last_raw_created = None  # the last tweet created_at, and its parse
        self._last_created = None

    def parse(self, obj: Mapping) -> tuple:
        """See parse_record; the record comes as one plain tuple: the Tweet
        fields, then the AccountSnapshot fields."""
        if type(obj) is not dict and not isinstance(obj, Mapping):
            raise MalformedRecordError("record is not a JSON object")
        get = obj.get
        user = get("user")
        if type(user) is not dict:
            user = _field(obj, "user", (dict,))
        user_get = user.get
        tweet_id = get("id")
        if type(tweet_id) is not str:
            tweet_id = _id(obj)
        if not tweet_id.isascii():
            try:
                tweet_id.encode("utf-8")  # an id with a lone surrogate could not be written out
            except UnicodeEncodeError as exc:
                raise MalformedRecordError(str(exc)) from None
        account_id = user_get("id")
        if type(account_id) is not str:
            account_id = _id(user)
        text = get("text")
        if type(text) is not str:
            text = _field(obj, "text", (str,))
        if not text.isascii():
            text = unicodedata.normalize("NFC", text)
        raw_created = get("created_at")
        if type(raw_created) is not str:
            raw_created = _field(obj, "created_at", (str,))
        if raw_created == self._last_raw_created:
            created_at = self._last_created
        else:
            try:
                created_at = _fromisoformat(raw_created.replace("Z", "+00:00"))
            except ValueError:
                created_at = _to_utc(_parse_legacy(raw_created), raw_created)
            else:
                if created_at.tzinfo is not _UTC:
                    created_at = _to_utc(created_at, raw_created)
            self._last_raw_created = raw_created
            self._last_created = created_at
        raw_user_created = user_get("created_at")
        if type(raw_user_created) is not str:
            raw_user_created = _field(user, "created_at", (str,), "")
        if type(user_get("screen_name")) is not str:  # checked, not kept
            _field(user, "screen_name", (str,), "")
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
        if raw_user_created:
            account_created = self._timestamps.get(raw_user_created)
            if account_created is None:
                account_created = parse_timestamp(raw_user_created)
                self._timestamps[raw_user_created] = account_created
        else:
            account_created = created_at

        # most records carry neither retweet key, so neither is looked up
        is_retweet = text.startswith("RT @") or (
            ("retweeted_status" in obj or "retweeted_status_id" in obj)
            and (get("retweeted_status") is not None
                 or get("retweeted_status_id") not in (None, "")))
        raw_source = get("source")
        if type(raw_source) is not str:
            raw_source = _field(obj, "source", (str,), "")
        source_app = self._sources.get(raw_source)
        if source_app is None:
            source_app = self._sources[raw_source] = extract_source_app(raw_source)
        return (tweet_id, text, created_at, source_app, is_retweet, account_id,
                followers, friends, verified, statuses, account_created)


def _id(obj: Mapping) -> str:
    """obj["id"] as a string: a JSON string, or an int written in decimal."""
    value = _field(obj, "id", (str, int))
    try:
        return str(value)
    except ValueError as exc:  # an int past the digit limit
        raise MalformedRecordError(str(exc)) from None


def parse_record(obj: Mapping) -> tuple[Tweet, AccountSnapshot]:
    """Normalize one decoded JSON object into a (Tweet, AccountSnapshot) pair.

    The snapshot is the author state the record carries; build_corpus turns
    the latest one per account into its AccountStats.  ``user.screen_name``
    is checked (a string, null or absent) but not kept.
    Raises MalformedRecordError on structural problems: missing required
    fields, a field of the wrong JSON type (nothing is coerced), a tweet id
    that cannot be written as UTF-8, unparseable or out-of-range timestamps,
    negative or oversized counts.
    """
    row = _Parser().parse(obj)
    return Tweet._make(row[:_N_TWEET_FIELDS]), AccountSnapshot._make(row[_N_TWEET_FIELDS:])


def _span_days(start: datetime, end: datetime) -> float:
    """Days from *start* to *end*, floored at one hour."""
    return max(end - start, _MIN_SPAN).total_seconds() / _SECONDS_PER_DAY


def _check_rate_basis(rate_basis: str) -> None:
    if rate_basis not in (RATE_CORPUS_WINDOW, RATE_LIFETIME):
        raise ValueError(f"unknown rate basis {rate_basis!r}")


def _account_columns(author_columns: Sequence, rows: Sequence, created_at: tuple,
                     author_ids: tuple, span_days: float, span_end: datetime,
                     rate_basis: str) -> AccountStats:
    """The per-account columns, from each account's latest tweet's author fields.

    *author_columns* are build_corpus's five AccountSnapshot columns, one
    entry per row; tweet i of the corpus is row ``rows[i]``.  *created_at*
    and *author_ids* are the tweets' columns.  The latest tweet is the one
    with the largest ``created_at``; of equal timestamps, the later one.
    Accounts are in the order of their first tweet.
    """
    latest: dict[str, int] = {}  # account_id -> index of its latest tweet
    latest_of = latest.get
    for i, acct, created in zip(count(), author_ids, created_at):
        j = latest_of(acct)
        if j is None or created >= created_at[j]:
            latest[acct] = i
    n_tweets = Counter(author_ids)  # in first-tweet order, as latest is
    at = tuple(map(rows.__getitem__, latest.values()))  # the latest tweets' rows
    followers, friends, verified, statuses, account_created = (
        tuple(map(column.__getitem__, at)) for column in author_columns)
    counts = tuple(n_tweets.values())
    if rate_basis == RATE_CORPUS_WINDOW:
        rates = map(truediv, counts, repeat(span_days))
    else:
        # statuses over the account's age in days; brand-new accounts count as one day old
        ages = map(truediv, map(timedelta.total_seconds,
                                map(sub, repeat(span_end), account_created)),
                   repeat(_SECONDS_PER_DAY))
        rates = map(truediv, statuses, map(max, ages, repeat(1.0)))
    return AccountStats(tuple(n_tweets), followers, friends, verified, statuses, counts,
                        tuple(rates), account_created)


def build_corpus(columns: Sequence, rate_basis: str = RATE_CORPUS_WINDOW,
                 skipped_count: int = 0) -> Corpus:
    """Assemble a Corpus from its rows, given as 11 equal-length columns.

    A row holds one tweet's Tweet fields, then its AccountSnapshot fields
    (a parse_record pair ``tweet + snapshot``); *columns* holds each field
    of every row in corpus order, as ingest collects them, so for
    parse_record pairs they are ``list(zip(*(t + a for t, a in pairs)))``.
    A repeated tweet id keeps its last row, at its first row's position
    (dict semantics), and the rows it replaces are counted in
    ``duplicate_count``.  The Corpus keeps the Tweet fields as columns; the
    author fields only feed the per-account columns, and the Corpus keeps
    no other of them.
    """
    _check_rate_basis(rate_basis)
    if not columns or not columns[0]:
        raise EmptyCorpusError("no usable tweets")
    if len(columns) != _N_FIELDS:
        raise ValueError(f"{len(columns)} columns, not one per field of {_N_FIELDS}")
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns of unequal length")
    ids = tuple(columns[0])
    # a dict, not a set: CPython quadruples a small set's table, so 21,000
    # ids take 2 MiB as a set and 0.4 MiB as a dict
    duplicate_count = len(ids) - len(dict.fromkeys(ids))
    if duplicate_count:
        rows = tuple(dict(zip(ids, count())).values())  # each id's last row, at its first
        tweet_columns = [tuple(map(column.__getitem__, rows))
                         for column in columns[:_N_TWEET_FIELDS]]
    else:
        rows = range(n)
        tweet_columns = [ids, *map(tuple, columns[1:_N_TWEET_FIELDS])]
    _, _, created_at, _, _, author_ids = tweet_columns
    span_start, span_end = min(created_at), max(created_at)
    accounts = _AccountView(_account_columns(columns[_N_TWEET_FIELDS:], rows, created_at,
                                             author_ids, _span_days(span_start, span_end),
                                             span_end, rate_basis))
    return Corpus(*tweet_columns, accounts, span_start, span_end, skipped_count,
                  duplicate_count)


def ingest(path, strictness: str = LENIENT,
           rate_basis: str = RATE_CORPUS_WINDOW) -> Corpus:
    """Read a newline-delimited JSON dump into a Corpus.

    Lines end at newline bytes and are decoded as UTF-8 one by one.  Lenient
    mode counts malformed lines (bad UTF-8, bad JSON, bad records) in
    ``skipped_count`` and moves on; strict mode raises MalformedRecordError
    naming the offending line.  A stripped line is a record exactly when
    ``json.loads`` accepts it.
    Repeated tweet ids are resolved as build_corpus resolves them.  Blank
    lines (streaming keep-alives) are ignored.
    Records are parsed as parse_record parses them, but a tweet time equal
    to the previous record's, and an account time or source string seen
    before, reuse that parse.
    Lines are read in chunks of about ``_CHUNK_HINT`` bytes.  At the end of
    each chunk its rows move into the 11 per-field columns build_corpus
    takes, the follower, friend and status counts packed as int64 arrays.
    """
    if strictness not in (LENIENT, STRICT):
        raise ValueError(f"unknown strictness {strictness!r}")
    _check_rate_basis(rate_basis)
    from array import array  # a shared library: loaded only by a command that ingests

    parse = _Parser().parse
    scan_once = json.JSONDecoder().scan_once
    # one column per field, filled chunk by chunk; the counts are packed as
    # int64, so no count int outlives its chunk
    columns = [array("q") if k in _COUNT_COLUMNS else [] for k in range(_N_FIELDS)]
    fills = [column.fromlist if k in _COUNT_COLUMNS else column.extend
             for k, column in enumerate(columns)]
    rows: list = []  # one chunk's rows, flattened: no object lives per record
    add_row = rows.extend
    skipped = lineno = 0
    with open(Path(path), "rb", buffering=1 << 15) as fh:  # fewer reads than the 8 KiB default
        while chunk := fh.readlines(_CHUNK_HINT):
            for lineno, raw in enumerate(chunk, start=lineno + 1):
                try:
                    try:
                        line = raw.decode("utf-8").strip()
                        if not line:
                            continue
                        try:
                            obj, end = scan_once(line, 0)
                        except StopIteration:
                            end = 0
                        if end != len(line):  # not one JSON value: json.loads names the fault
                            obj = json.loads(line)
                    except UnicodeDecodeError as exc:
                        raise MalformedRecordError(f"invalid UTF-8: {exc}") from None
                    except (ValueError, RecursionError) as exc:
                        raise MalformedRecordError(f"invalid JSON: {exc}") from None
                    add_row(parse(obj))
                except MalformedRecordError as exc:
                    if strictness == STRICT:
                        raise MalformedRecordError(f"line {lineno}: {exc}") from None
                    skipped += 1
            for k, fill in enumerate(fills):
                fill(rows[k::_N_FIELDS])
            rows.clear()
    # free the parse caches before build_corpus, and the fills, so that each
    # tweet field's list is freed as it becomes the tuple the Corpus keeps
    # (build_corpus's tuple() returns a tuple as it is): no column is held twice
    del parse, scan_once, fills
    for k in range(_N_TWEET_FIELDS):
        columns[k] = tuple(columns[k])
    if not columns[0]:
        raise EmptyCorpusError(f"no usable records in {path}")
    return build_corpus(columns, rate_basis=rate_basis, skipped_count=skipped)
