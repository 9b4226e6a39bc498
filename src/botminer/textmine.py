"""Text mining over tokenized tweets.

Covers the whole chain used for the per-group analyses: tokenization,
document-frequency-pruned TF-IDF, skip-window co-occurrence with directional
association strengths, and dictionary-based sentiment scoring.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .detector import Detection, Label
from .errors import ConfigError
from .listfile import read_entries

__all__ = [
    "DEFAULT_QUERY_TERM",
    "TokenizedDoc",
    "TokenizedDocs",
    "check_cleaned",
    "load_stopwords",
    "tokenize_text",
    "dropped_words",
    "tokenize_corpus",
    "group_docs",
    "VocabModel",
    "tfidf_weight",
    "build_vocab",
    "CooccurrenceModel",
    "cooccurrence",
    "top_cooccurrents",
    "load_lexicon",
    "group_word_sentiment_samples",
    "group_mean_sentiment",
]

DEFAULT_QUERY_TERM = "iran"

# strip everything that is not a word character; the leading # or @ survives
_NONWORD_RE = re.compile(r"\W+", re.UNICODE)
_KEPT_PREFIXES = ("#", "@")


class TokenizedDoc(NamedTuple):
    """Token stream of a single tweet."""

    tweet_id: str
    tokens: tuple


class TokenizedDocs:
    """Token streams in corpus order, as two tuples.

    Tweet ``tweet_ids[i]`` has tokens ``streams[i]``.  Iterating builds a
    TokenizedDoc per tweet.
    """

    __slots__ = ("tweet_ids", "streams")

    def __init__(self, tweet_ids: tuple, streams: tuple):
        self.tweet_ids = tweet_ids
        self.streams = streams

    def __len__(self) -> int:
        return len(self.streams)

    def __iter__(self):
        return map(TokenizedDoc, self.tweet_ids, self.streams)


def _clean(raw: str) -> str:
    prefix = raw[0] if raw[0] in _KEPT_PREFIXES else ""
    body = _NONWORD_RE.sub("", raw[len(prefix):])
    if not body:
        return ""
    return prefix + body


def check_cleaned(entry: str, what: str, lineno: int | None = None) -> None:
    """ConfigError for an entry that no cleaned token can equal.

    *what* names the entry, or the list file it is on line *lineno* of.
    """
    if entry and _clean(entry) == entry:
        return
    where = what if lineno is None else f"{what} line {lineno}"
    if not entry:
        raise ConfigError(f"{where} is empty, so it would never match")
    raise ConfigError(f"{where}: {entry!r} is not a cleaned token "
                      f"(expected {_clean(entry)!r}), so it would never match")


def load_stopwords(path=None) -> frozenset:
    """Stop-word list, one word per line, '#' comments, lowercased.

    Every entry must already be in cleaned token form ("dont", not "don't").
    """
    words = set()
    for lineno, line in read_entries(path, "stopwords.txt"):
        word = line.lower()
        check_cleaned(word, "stop-word list", lineno)
        words.add(word)
    if not words:
        raise ConfigError("stop-word list is empty")
    return frozenset(words)


class _Tokenizer(dict):
    """tokenize_text for the texts of one tokenize_corpus call.

    Maps each lowercased whitespace piece to its kept token, or to "" when the
    piece is dropped.  A piece is cleaned and checked once, on first sight,
    and equal tokens ("word" from "word" and "word!") are one shared str.
    """

    def __init__(self, stopwords: frozenset, query_term: str):
        super().__init__()
        self._stopwords = stopwords
        self._query = query_term.lower()
        self._shared: dict[str, str] = {}

    def __missing__(self, raw: str) -> str:
        token = ""
        if not raw.startswith("http"):  # URL tokens carry no topical signal
            token = _clean(raw)
            if token.startswith("http") or token in self._stopwords or token == self._query:
                token = ""
        token = self[raw] = self._shared.setdefault(token, token)
        return token

    def tokens(self, text: str) -> tuple:
        return tuple(filter(None, map(self.__getitem__, text.lower().split())))


def tokenize_text(text: str, stopwords: frozenset,
                  query_term: str = DEFAULT_QUERY_TERM) -> list:
    """Lowercase, split on whitespace, drop URLs/stop-words/the query term.

    Punctuation is stripped except a leading '#' or '@', which stays glued to
    its word so hashtags and mentions survive as distinct tokens.  The output
    is stable under re-tokenization.
    """
    return list(_Tokenizer(stopwords, query_term).tokens(text))


def dropped_words(words: Iterable[str], stopwords: frozenset,
                  query_term: str = DEFAULT_QUERY_TERM) -> list:
    """The cleaned lowercase *words* that tokenization drops, sorted.

    A URL piece (anything starting with ``http``), a stop word or the query
    term never survives as a token, so no lookup on tokens can ever see it.
    """
    token_of = _Tokenizer(stopwords, query_term)  # "" for a dropped piece
    return sorted(word for word in words if not token_of[word])


def tokenize_corpus(tweets, stopwords: frozenset,
                    query_term: str = DEFAULT_QUERY_TERM) -> TokenizedDocs:
    """Tokenize a corpus's tweets (``corpus.tweets``) in order.

    Reads the view's id and text columns.  Each distinct text is tokenized
    once and each distinct raw token cleaned once; tweets with the same text
    share one token tuple.
    """
    texts = tweets.columns.text
    tokens_of = dict.fromkeys(texts)  # each distinct text; its value is set in place
    tokens_of.update(zip(tokens_of, map(_Tokenizer(stopwords, query_term).tokens, tokens_of)))
    return TokenizedDocs(tweets.columns.id, tuple(map(tokens_of.__getitem__, texts)))


def _repeats(streams: Counter) -> dict:
    """m -> the distinct streams of *streams* that m > 1 docs carry."""
    repeats = defaultdict(list)
    for stream, m in streams.items():
        if m > 1:
            repeats[m].append(stream)
    return repeats


def _count_items(streams: Counter, repeats: dict, items) -> Counter:
    """Counter of items(stream) over every doc, each distinct stream walked once.

    Every stream is counted once first, so keys are in the order a per-doc
    walk first sees them; the other m - 1 docs of each repeated stream are
    added afterwards, bucketed by m, to keys that already exist.
    """
    counts = Counter(chain.from_iterable(map(items, streams)))
    for m, group in repeats.items():
        for key, c in Counter(chain.from_iterable(map(items, group))).items():
            counts[key] += c * (m - 1)
    return counts


def group_docs(detection: Detection, streams: tuple) -> dict:
    """Token streams per disjoint label, in input order; every stream is listed once.

    *streams* holds one token stream per tweet of *detection*, in its order
    (a TokenizedDocs' ``streams``); ValueError when their lengths differ.
    detector.fold_groups turns per-label results into per-group ones.
    """
    if len(streams) != len(detection):
        raise ValueError(f"{len(detection)} classifications but {len(streams)} token streams")
    codes = bytes(detection.codes)  # an outcome code fits a byte
    groups = {}
    for label in Label:
        # per code, then per tweet: 1 where the outcome has this label, else 0
        is_label = bytes(code_label is label for code_label, _, _ in detection.outcomes)
        groups[label] = tuple(compress(streams, codes.translate(is_label.ljust(256, b"\0"))))
    return groups


# ---------------------------------------------------------------------------
# TF-IDF with document-frequency pruning
# ---------------------------------------------------------------------------

class VocabModel(NamedTuple):
    """Pruned vocabulary with corpus-wide per-term totals.

    ``counts[term]`` is the term's occurrence count over all docs and
    ``tfidf_sums[term]`` the sum of its per-doc tfidf_weight, which is
    tfidf_weight(counts[term], n_docs, doc_freq[term]).
    """

    terms: tuple
    doc_freq: Mapping[str, int]
    n_docs: int
    counts: Mapping[str, int]
    tfidf_sums: Mapping[str, float]


def tfidf_weight(count: int, n_docs: int, doc_freq: int) -> float:
    """TF-IDF of a term in one doc: raw count * ln(n_docs / doc_freq)."""
    return count * math.log(n_docs / doc_freq)


def build_vocab(model: CooccurrenceModel, min_df: float = 0.01,
                max_df: float = 0.45) -> VocabModel:
    """Build the pruned vocabulary over the docs that *model* counted.

    A term is kept when min_df <= df/n_docs <= max_df (both ends inclusive);
    the band kills one-off noise at the bottom and near-ubiquitous filler at
    the top.  idf is the unsmoothed ln(n_docs / doc_freq).
    """
    n = model.n_docs
    if not n:
        raise ValueError("build_vocab needs at least one document")
    if not 0.0 <= min_df < max_df <= 1.0:
        raise ValueError(f"bad document-frequency band [{min_df}, {max_df}]")
    kept = sorted(t for t, c in model.doc_freq.items() if min_df <= c / n <= max_df)
    doc_freq = {t: model.doc_freq[t] for t in kept}
    counts = {t: model.term_freq[t] for t in kept}
    tfidf_sums = {t: tfidf_weight(counts[t], n, doc_freq[t]) for t in kept}
    return VocabModel(tuple(kept), doc_freq, n, counts, tfidf_sums)


# ---------------------------------------------------------------------------
# skip-window co-occurrence
# ---------------------------------------------------------------------------

class CooccurrenceModel(NamedTuple):
    """Symmetric co-occurrence counts within a token window, plus term counts.

    Models of disjoint doc sets add up (``+``) to the model of their union;
    ``+`` adds the counts, it does not concatenate the tuples.
    """

    window: int
    pair_counts: Counter  # canonical (min, max) term pair -> count
    term_freq: Counter
    doc_freq: Counter
    n_docs: int

    def __add__(self, other: CooccurrenceModel) -> CooccurrenceModel:
        if self.window != other.window:
            raise ValueError(f"cannot add window {self.window} and {other.window} models")
        return CooccurrenceModel(
            self.window, self.pair_counts + other.pair_counts, self.term_freq + other.term_freq,
            self.doc_freq + other.doc_freq, self.n_docs + other.n_docs)


def _pair_getters(n: int, window: int) -> tuple:
    """(left, right) getters of a length-n stream's pairs, each returning a tuple.

    Zipped, the two tuples are the (tokens[i], tokens[j]) pairs of the i-major
    walk with j from i + 1 to min(i + window, n - 1), and sometimes a self pair.
    """
    spans = [range(i + 1, min(i + window, n - 1) + 1) for i in range(n)]
    left = [i for i, js in enumerate(spans) for _ in js]
    right = [j for js in spans for j in js]
    if len(left) == 20:
        # CPython 3.11 keeps up to 2000 freed 20-item tuples and never reuses
        # them (0.4 MiB); a self pair, which cooccurrence drops, makes 21
        left.append(0)
        right.append(0)
    if len(left) > 1:
        return itemgetter(*left), itemgetter(*right)
    # itemgetter() raises and itemgetter(k) returns a bare item; a slice gives
    # the 0 or 1 pair of a stream of up to two tokens as a tuple
    return itemgetter(slice(0, len(left))), itemgetter(slice(1, 1 + len(right)))


def _ordered_pair_items(window: int):
    """Stream -> iterator over its ordered pairs, i-major as a per-doc walk visits them.

    The getters are built once per stream length, so a stream's pairs are
    gathered and zipped in C.
    """
    getters = {}

    def pairs(tokens):
        n = len(tokens)
        got = getters.get(n)
        if got is None:
            got = getters[n] = _pair_getters(n, window)
        return zip(got[0](tokens), got[1](tokens))

    return pairs


def cooccurrence(streams: tuple, window: int = 5) -> CooccurrenceModel:
    """Count token pairs at positional distance <= window inside each doc.

    *streams* holds one token tuple per doc, such as a group_docs group.
    Pairs never cross document boundaries and a term does not co-occur with
    itself (repeats at close range are ignored).  Term and document
    frequencies are counted too.  Docs with the same token stream are walked
    once and counted with their multiplicity.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    # distinct streams -> docs carrying each, in first-occurrence order, so
    # walking them visits every token and pair first where a per-doc walk would
    distinct = Counter(streams)
    repeats = _repeats(distinct)
    pair_counts = Counter()
    for pair, c in _count_items(distinct, repeats, _ordered_pair_items(window)).items():
        left, right = pair
        if left != right:  # canonical (min, max), once per distinct ordered pair
            pair_counts[pair if left < right else (right, left)] += c
    return CooccurrenceModel(window, pair_counts, _count_items(distinct, repeats, iter),
                             _count_items(distinct, repeats, set), len(streams))


def top_cooccurrents(model: CooccurrenceModel, k_terms: int = 20,
                     k_neighbors: int = 5) -> list:
    """Strongest neighbors of the most frequent terms.

    Returns (hub, neighbor, association) triples: for each of the k_terms
    most frequent terms, its k_neighbors highest-association partners.
    Ties break lexicographically so output order is reproducible.
    """
    if k_terms < 1 or k_neighbors < 1:
        raise ValueError("k_terms and k_neighbors must be >= 1")
    freq = model.term_freq
    hubs = sorted(freq, key=lambda t: (-freq[t], t))[:k_terms]
    partners = {hub: [] for hub in hubs}
    for (w1, w2), c in model.pair_counts.items():
        if w1 in partners:
            partners[w1].append((w2, c / freq[w1]))
        if w2 in partners:
            partners[w2].append((w1, c / freq[w2]))
    edges = []
    for hub, scored in partners.items():
        scored.sort(key=lambda pv: (-pv[1], pv[0]))
        edges.extend((hub, partner, value) for partner, value in scored[:k_neighbors])
    return edges


# ---------------------------------------------------------------------------
# dictionary sentiment
# ---------------------------------------------------------------------------

def load_lexicon(path=None) -> dict:
    """Load a two-column TSV lexicon (word <TAB> finite polarity, '#' comments).

    Returns lowercased word -> float polarity.  Every word must be in cleaned
    token form once lowercased, and may be listed once, in any case.
    """
    polarity, line_of = {}, {}
    for lineno, line in read_entries(path, "lexicon.tsv"):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"lexicon line {lineno}: expected 'word<TAB>polarity'")
        try:
            value = float(parts[1])
            if not math.isfinite(value):
                raise ValueError("polarity must be finite")
        except ValueError:
            raise ConfigError(f"lexicon line {lineno}: bad polarity {parts[1]!r}") from None
        word = parts[0].strip()
        key = word.lower()
        check_cleaned(key, "lexicon", lineno)
        first = line_of.setdefault(key, lineno)
        if first != lineno:
            raise ConfigError(f"lexicon line {lineno}: {word!r} repeats line {first}")
        polarity[key] = value
    if not polarity:
        raise ConfigError("sentiment lexicon is empty")
    return polarity


def group_word_sentiment_samples(term_counts: Mapping[Label, Mapping[str, int]],
                                 lexicon: Mapping[str, float]) -> dict:
    """Word-level polarity histogram per group: Counter of polarity -> occurrences.

    *term_counts* maps a key to its docs' token counts (the term_freq of each
    group's cooccurrence model); every occurrence of a *lexicon* word (a
    load_lexicon dict) counts once.  Keys follow the counts' order, so with
    first-occurrence counts the first token carrying a polarity is where a
    per-token walk first sees it (and 0.0 vs -0.0 keys hold).
    """
    samples = {}
    for label, counts in term_counts.items():
        values = samples[label] = Counter()
        for token, c in counts.items():
            value = lexicon.get(token)
            if value is not None:
                values[value] += c
    return samples


def group_mean_sentiment(histograms: Mapping[Label, Mapping[float, int]],
                         n_docs: Mapping[Label, int]) -> dict:
    """Mean per-tweet sentiment for each group (None when it has no docs).

    A tweet's sentiment is the sum of its lexicon words' polarities, so the
    mean is the group's polarity total (from its group_word_sentiment_samples
    histogram) over its *n_docs*.
    """
    return {label: math.fsum(v * c for v, c in hist.items()) / n_docs[label]
            if n_docs[label] else None for label, hist in histograms.items()}
