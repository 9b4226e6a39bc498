"""Text mining over tokenized tweets.

Covers the whole chain used for the per-group analyses: tokenization,
document-frequency-pruned TF-IDF, skip-window co-occurrence with directional
association strengths, and dictionary-based sentiment scoring.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .detector import Classification, Label
from .errors import ConfigError
from .listfile import read_entries

__all__ = [
    "DEFAULT_QUERY_TERM",
    "TokenizedDoc",
    "load_stopwords",
    "tokenize_text",
    "tokenize_corpus",
    "group_docs",
    "VocabModel",
    "tfidf_weight",
    "build_vocab",
    "CooccurrenceModel",
    "cooccurrence",
    "top_cooccurrents",
    "SentimentLexicon",
    "load_lexicon",
    "group_word_sentiment_samples",
    "group_mean_sentiment",
]

DEFAULT_QUERY_TERM = "iran"

# strip everything that is not a word character; the leading # or @ survives
_NONWORD_RE = re.compile(r"\W+", re.UNICODE)
_KEPT_PREFIXES = ("#", "@")


@dataclass(frozen=True, slots=True)
class TokenizedDoc:
    """Token stream of a single tweet."""

    tweet_id: str
    tokens: tuple


def _clean(raw: str) -> str:
    prefix = raw[0] if raw[0] in _KEPT_PREFIXES else ""
    body = _NONWORD_RE.sub("", raw[len(prefix):])
    if not body:
        return ""
    return prefix + body


def _check_cleaned(entry: str, what: str, lineno: int) -> None:
    """Reject a list entry that no cleaned token can equal."""
    if _clean(entry) != entry:
        raise ConfigError(f"{what} line {lineno}: {entry!r} is not a cleaned token "
                          f"(expected {_clean(entry)!r}), so it would never match")


def load_stopwords(path=None) -> frozenset:
    """Stop-word list, one word per line, '#' comments, lowercased.

    Every entry must already be in cleaned token form ("dont", not "don't").
    """
    words = set()
    for lineno, line in read_entries(path, "stopwords.txt"):
        word = line.lower()
        _check_cleaned(word, "stop-word list", lineno)
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


def tokenize_corpus(tweets, stopwords: frozenset,
                    query_term: str = DEFAULT_QUERY_TERM) -> list:
    """Tokenize a tweet sequence in order, one TokenizedDoc per tweet.

    Each distinct text is tokenized once and each distinct raw token cleaned
    once; tweets with the same text share one token tuple.
    """
    tokenizer = _Tokenizer(stopwords, query_term)
    tokens_of = {}
    docs = []
    for t in tweets:
        tokens = tokens_of.get(t.text)
        if tokens is None:
            tokens = tokens_of[t.text] = tokenizer.tokens(t.text)
        docs.append(TokenizedDoc(t.id, tokens))
    return docs


def _token_streams(docs: Iterable[TokenizedDoc]) -> Counter:
    """Distinct token streams of *docs* -> number of docs carrying each.

    Keys are in first-occurrence order, so walking them visits every token,
    pair and polarity first where a per-doc walk would.
    """
    return Counter(doc.tokens for doc in docs)


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


def group_docs(classifications: Iterable[Classification],
               docs: Iterable[TokenizedDoc]) -> dict:
    """Docs per disjoint label, in input order; every doc is listed once.

    *classifications* and *docs* are parallel sequences; a length or tweet id
    mismatch raises ValueError.  detector.fold_groups turns per-label results
    into per-group ones.
    """
    groups = {label: [] for label in Label}
    for c, doc in zip(classifications, docs, strict=True):
        if c.tweet_id != doc.tweet_id:
            raise ValueError(f"tweet id mismatch: {c.tweet_id!r} vs doc {doc.tweet_id!r}")
        groups[c.label].append(doc)
    return groups


# ---------------------------------------------------------------------------
# TF-IDF with document-frequency pruning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VocabModel:
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

@dataclass(frozen=True)
class CooccurrenceModel:
    """Symmetric co-occurrence counts within a token window, plus term counts.

    Models of disjoint doc sets add up (``+``) to the model of their union.
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

    def count(self, w1: str, w2: str) -> int:
        if w1 == w2:
            return 0
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        return self.pair_counts.get(key, 0)

    def association(self, w1: str, w2: str) -> float:
        """count(w1, w2) / freq(w1): how often w2 keeps w1 company."""
        freq = self.term_freq.get(w1, 0)
        if freq == 0:
            return 0.0
        return self.count(w1, w2) / freq


def _ordered_pairs(window: int):
    """Stream -> iterator over the (tokens[i], tokens[j]) pairs a per-doc walk visits.

    The walk is i-major with j from i + 1 to min(i + window, n - 1); its index
    tuples are built once per stream length n, so the pairs themselves are
    produced in C.
    """
    index = {}

    def pairs(tokens):
        n = len(tokens)
        ij = index.get(n)
        if ij is None:
            spans = [(i, range(i + 1, min(i + window, n - 1) + 1)) for i in range(n)]
            ij = index[n] = (tuple(i for i, js in spans for _ in js),
                             tuple(j for _, js in spans for j in js))
        return zip(map(tokens.__getitem__, ij[0]), map(tokens.__getitem__, ij[1]))

    return pairs


def cooccurrence(docs: Iterable[TokenizedDoc], window: int = 5) -> CooccurrenceModel:
    """Count token pairs at positional distance <= window inside each doc.

    Pairs never cross document boundaries and a term does not co-occur with
    itself (repeats at close range are ignored).  Term and document
    frequencies are counted too.  Docs with the same token stream are walked
    once and counted with their multiplicity.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    streams = _token_streams(docs)
    repeats = _repeats(streams)
    pair_counts = Counter()
    for pair, c in _count_items(streams, repeats, _ordered_pairs(window)).items():
        left, right = pair
        if left != right:  # canonical (min, max), once per distinct ordered pair
            pair_counts[pair if left < right else (right, left)] += c
    return CooccurrenceModel(window, pair_counts, _count_items(streams, repeats, iter),
                             _count_items(streams, repeats, set), sum(streams.values()))


def top_cooccurrents(model: CooccurrenceModel, k_terms: int = 20,
                     k_neighbors: int = 5) -> list:
    """Strongest neighbors of the most frequent terms.

    Returns (hub, neighbor, association) triples: for each of the k_terms
    most frequent terms, its k_neighbors highest-association partners.
    Ties break lexicographically so output order is reproducible.
    """
    if k_terms < 1 or k_neighbors < 1:
        raise ValueError("k_terms and k_neighbors must be >= 1")
    hubs = sorted(model.term_freq, key=lambda t: (-model.term_freq[t], t))[:k_terms]
    neighbors = defaultdict(set)
    for w1, w2 in model.pair_counts:
        neighbors[w1].add(w2)
        neighbors[w2].add(w1)
    edges = []
    for hub in hubs:
        scored = [(p, model.association(hub, p)) for p in neighbors[hub]]
        scored.sort(key=lambda pv: (-pv[1], pv[0]))
        edges.extend((hub, partner, value) for partner, value in scored[:k_neighbors])
    return edges


# ---------------------------------------------------------------------------
# dictionary sentiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SentimentLexicon:
    """Word -> polarity map with case-insensitive lookup."""

    polarity: Mapping[str, float]

    def __post_init__(self):
        if not self.polarity:
            raise ConfigError("sentiment lexicon is empty")
        object.__setattr__(
            self, "polarity", {w.lower(): float(v) for w, v in self.polarity.items()})

    def value(self, token: str) -> float | None:
        return self.polarity.get(token.lower())

    def __len__(self) -> int:
        return len(self.polarity)


def load_lexicon(path=None) -> SentimentLexicon:
    """Load a two-column TSV lexicon (word <TAB> finite polarity, '#' comments).

    Every word must be in cleaned token form once lowercased.
    """
    polarity = {}
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
        _check_cleaned(word.lower(), "lexicon", lineno)
        polarity[word] = value
    return SentimentLexicon(polarity)


def group_word_sentiment_samples(groups: Mapping[Label, Sequence[TokenizedDoc]],
                                 lexicon: SentimentLexicon) -> dict:
    """Word-level polarity histogram per group: Counter of polarity -> occurrences.

    *groups* maps a key to its docs (group_docs gives one per disjoint label);
    every occurrence of a lexicon word in those docs counts once.  Docs with
    the same token stream are walked once and counted with their multiplicity.
    """
    samples = {}
    for label, docs in groups.items():
        values = samples[label] = Counter()
        streams = _token_streams(docs)
        # first-seen token order, so the first token carrying a polarity is
        # where a per-doc walk first sees it (and 0.0 vs -0.0 keys hold)
        for token, c in _count_items(streams, _repeats(streams), iter).items():
            value = lexicon.value(token)
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
