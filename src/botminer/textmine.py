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
from typing import Iterable, Mapping, Sequence

from .detector import Classification, Label
from .errors import ConfigError
from .listfile import read_entries

__all__ = [
    "DEFAULT_QUERY_TERM",
    "TokenizedDoc",
    "load_stopwords",
    "tokenize_text",
    "tokenize",
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


def load_stopwords(path=None) -> frozenset:
    """Stop-word list, one word per line, '#' comments, lowercased."""
    words = {line.lower() for _, line in read_entries(path, "stopwords.txt")}
    if not words:
        raise ConfigError("stop-word list is empty")
    return frozenset(words)


def _clean(raw: str) -> str:
    prefix = raw[0] if raw[0] in _KEPT_PREFIXES else ""
    body = _NONWORD_RE.sub("", raw[len(prefix):])
    if not body:
        return ""
    return prefix + body


def tokenize_text(text: str, stopwords: frozenset,
                  query_term: str = DEFAULT_QUERY_TERM) -> list:
    """Lowercase, split on whitespace, drop URLs/stop-words/the query term.

    Punctuation is stripped except a leading '#' or '@', which stays glued to
    its word so hashtags and mentions survive as distinct tokens.  The output
    is stable under re-tokenization.
    """
    query = query_term.lower()
    out = []
    for raw in text.lower().split():
        if raw.startswith("http"):
            continue  # URL tokens carry no topical signal
        token = _clean(raw)
        if not token or token.startswith("http"):
            continue
        if token in stopwords or token == query:
            continue
        out.append(token)
    return out


def tokenize(tweet, stopwords: frozenset,
             query_term: str = DEFAULT_QUERY_TERM) -> TokenizedDoc:
    """Tokenize one tweet into a TokenizedDoc."""
    return TokenizedDoc(tweet.id, tuple(tokenize_text(tweet.text, stopwords, query_term)))


def tokenize_corpus(tweets, stopwords: frozenset,
                    query_term: str = DEFAULT_QUERY_TERM) -> list:
    """Tokenize a tweet sequence in order, one TokenizedDoc per tweet.

    Each distinct text is tokenized once; tweets with the same text share one
    token tuple.
    """
    tokens_of = {}
    docs = []
    for t in tweets:
        tokens = tokens_of.get(t.text)
        if tokens is None:
            tokens = tokens_of[t.text] = tuple(tokenize_text(t.text, stopwords, query_term))
        docs.append(TokenizedDoc(t.id, tokens))
    return docs


def _token_streams(docs: Iterable[TokenizedDoc]) -> Counter:
    """Distinct token streams of *docs* -> number of docs carrying each.

    Keys are in first-occurrence order, so walking them visits every token,
    pair and polarity first where a per-doc walk would.
    """
    return Counter(doc.tokens for doc in docs)


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


def cooccurrence(docs: Iterable[TokenizedDoc], window: int = 5) -> CooccurrenceModel:
    """Count token pairs at positional distance <= window inside each doc.

    Pairs never cross document boundaries and a term does not co-occur with
    itself (repeats at close range are ignored).  Term and document
    frequencies are counted in the same pass.  Docs with the same token
    stream are walked once and counted with their multiplicity.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    pair_counts = Counter()
    term_freq = Counter()
    doc_freq = Counter()
    n_docs = 0
    for tokens, m in _token_streams(docs).items():
        n_docs += m
        for term in set(tokens):
            doc_freq[term] += m
        length = len(tokens)
        for i in range(length):
            left = tokens[i]
            term_freq[left] += m
            for j in range(i + 1, min(i + window, length - 1) + 1):
                right = tokens[j]
                if left == right:
                    continue
                key = (left, right) if left <= right else (right, left)
                pair_counts[key] += m
    return CooccurrenceModel(window, pair_counts, term_freq, doc_freq, n_docs)


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
    """Load a two-column TSV lexicon (word <TAB> finite polarity, '#' comments)."""
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
        polarity[parts[0].strip()] = value
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
        for tokens, m in _token_streams(docs).items():
            for token in tokens:
                value = lexicon.value(token)
                if value is not None:
                    values[value] += m
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
