"""Tokenization, TF-IDF, co-occurrence, and lexicon sentiment."""

import gc
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from botminer.corpus import ingest
from botminer.detector import (
    Classification,
    Label,
    classify,
    fold_groups,
    group_summary,
)
from botminer.errors import ConfigError
from botminer.textmine import (
    TokenizedDoc,
    build_vocab,
    cooccurrence,
    group_docs,
    group_mean_sentiment,
    group_word_sentiment_samples,
    load_lexicon,
    load_stopwords,
    tfidf_weight,
    tokenize_corpus,
    tokenize_text,
    top_cooccurrents,
)

from conftest import corpus_of, detection_of, doc, docs_of, record, term_counts, tweets_of

STOPWORDS = load_stopwords()


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def test_tokenize_drops_query_stopwords_punctuation():
    got = tokenize_text("Iran protests in Tehran! #MAGA", STOPWORDS)
    assert got == ["protests", "tehran", "#maga"]


def test_tokenize_empty_text():
    assert tokenize_text("", STOPWORDS) == []


def test_tokenize_all_stopwords():
    assert tokenize_text("the a an", STOPWORDS) == []


def test_tokenize_strips_urls():
    got = tokenize_text("look https://t.co/abc123 here http://x.y", STOPWORDS)
    assert got == ["look"]


def test_tokenize_keeps_hashtag_and_mention_glyphs():
    got = tokenize_text("#FreeIran thanks @JohnDoe!", STOPWORDS)
    assert got == ["#freeiran", "thanks", "@johndoe"]


def test_tokenize_respects_custom_query_term():
    got = tokenize_text("regime change now", STOPWORDS, query_term="regime")
    assert got == ["change", "now"]
    # query-term match happens after punctuation stripping
    assert tokenize_text("Iran!", STOPWORDS) == []


def test_tokenize_drops_pure_punctuation():
    assert tokenize_text("... !!! ???", STOPWORDS) == []
    assert tokenize_text("# @ --", STOPWORDS) == []


def test_tokenize_wraps_tweet():
    tweets = corpus_of(record(i="55", text="Protests continue tonight")).tweets
    (d,) = tokenize_corpus(tweets, STOPWORDS)
    assert d.tweet_id == "55"
    assert d.tokens == ("protests", "continue", "tonight")


def reference_tokenize_text(text, stopwords, query_term="iran"):
    """Reference: clean and check every raw token of *text* on its own."""
    query = query_term.lower()
    out = []
    for raw in text.lower().split():
        if raw.startswith("http"):
            continue
        prefix = raw[0] if raw[0] in "#@" else ""
        body = re.sub(r"\W+", "", raw[len(prefix):])
        token = prefix + body if body else ""
        if not token or token.startswith("http"):
            continue
        if token in stopwords or token == query:
            continue
        out.append(token)
    return out


def reference_docs(tweets, stopwords, query_term="iran"):
    return [TokenizedDoc(t.id, tuple(reference_tokenize_text(t.text, stopwords, query_term)))
            for t in tweets]


@given(st.lists(st.text("ab #@:/.htpIRAN", max_size=24), min_size=1, max_size=4)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=20)))
def test_tokenize_corpus_equals_per_tweet_tokenize(texts):
    tweets = tweets_of(texts)
    docs = tokenize_corpus(tweets, STOPWORDS)
    assert list(docs) == reference_docs(tweets, STOPWORDS)
    first = {}
    for t, d in zip(tweets, docs):  # one token tuple per distinct text
        assert d.tokens is first.setdefault(t.text, d.tokens)


# raw tokens that take each branch of the cleaning: URLs, kept and stripped
# prefixes, punctuation only, the query term in mixed case, stop words, and
# letters whose lowercase form differs in length or by context
RAW_TOKENS = ["http://t.co/x", "HTTPS", "httpfoo", "#http", "@Https", "#Tag", "@User,",
              "#", "@", "...", "!!", "--", "IRAN", "Iran!", "iRaN", "#iran", "The", "don't",
              "dont", "İstanbul", "İ", "ß", "STRASSE", "Σ", "ΟΔΟΣ", "οδος", "a", "word", "Word!"]
raw_tokens = st.sampled_from(RAW_TOKENS) | st.text("aB#@:/.htİßΣς!", min_size=1, max_size=6)
# texts drawn from a pool of at most six raw tokens, so raw tokens repeat across texts
texts_of_shared_tokens = st.lists(raw_tokens, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), max_size=8).map(" ".join),
                          min_size=1, max_size=12))


@given(texts_of_shared_tokens, st.sampled_from(["iran", "IRAN", "İstanbul", "ß", "σ"]))
@example(["word up", "Word! #tag", "WORD... up"], "iran")  # one token from three raw forms
def test_tokenize_corpus_equals_reference_on_shared_raw_tokens(texts, query):
    tweets = tweets_of(texts)
    docs = tokenize_corpus(tweets, STOPWORDS, query)
    assert list(docs) == reference_docs(tweets, STOPWORDS, query)
    seen = {}
    for d in docs:  # equal tokens are one str object
        for token in d.tokens:
            assert token is seen.setdefault(token, token)
    # other lists on the same texts: nothing carries over from the first call
    stopwords = frozenset(list(seen)[::2])
    for other_stop, other_query in ((stopwords, query), (STOPWORDS, "tag")):
        got = tokenize_corpus(tweets, other_stop, other_query)
        assert list(got) == reference_docs(tweets, other_stop, other_query)


def test_tokenize_idempotent():
    rng = random.Random(31)
    pool = ["Breaking", "news!", "#MAGA", "@user,", "https://t.co/x", "Iran",
            "the", "crisis...", "support", "WIN"]
    for _ in range(100):
        text = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        once = tokenize_text(text, STOPWORDS)
        again = tokenize_text(" ".join(once), STOPWORDS)
        assert Counter(once) == Counter(again)


# ---------------------------------------------------------------------------
# term frequencies: CooccurrenceModel.term_freq counts every token,
# VocabModel.counts only the kept terms
# ---------------------------------------------------------------------------

def test_term_frequencies_counts():
    docs = docs_of([["a", "b"], ["a"]])
    assert cooccurrence(docs).term_freq == {"a": 2, "b": 1}
    assert build_vocab(cooccurrence(docs), min_df=0.0, max_df=1.0).counts == {"a": 2, "b": 1}


def test_term_frequencies_empty():
    assert cooccurrence(docs_of([])).term_freq == {}


def test_term_frequencies_multi_occurrence():
    docs = docs_of([["trump", "trump"]] * 3 + [["other"]])
    assert cooccurrence(docs).term_freq == {"trump": 6, "other": 1}
    assert build_vocab(cooccurrence(docs), 0.0, 1.0).counts == {"trump": 6, "other": 1}


# ---------------------------------------------------------------------------
# build_vocab
# ---------------------------------------------------------------------------

def test_vocab_prunes_ubiquitous_terms():
    docs = docs_of([["common", f"rare{i}"] for i in range(100)])
    vocab = build_vocab(cooccurrence(docs), min_df=0.0, max_df=0.45)
    assert "common" not in vocab.terms  # df 1.0 > 0.45
    assert "rare7" in vocab.terms


def test_vocab_prunes_rare_terms():
    docs = docs_of([["filler"]] * 999 + [["oneoff"]])
    vocab = build_vocab(cooccurrence(docs), min_df=0.01, max_df=0.999)
    assert "oneoff" not in vocab.terms  # df 0.001 < 0.01
    assert "filler" in vocab.terms


def test_vocab_band_is_inclusive():
    # term in exactly 1 of 100 docs sits on the min_df=0.01 edge
    docs = docs_of([["edge"]] + [[f"other{i}"] for i in range(99)])
    vocab = build_vocab(cooccurrence(docs), min_df=0.01, max_df=0.45)
    assert "edge" in vocab.terms


def test_vocab_tfidf_hand_value():
    docs = docs_of([["term", "term", "term"], ["term"], ["x"], ["y"]])
    vocab = build_vocab(cooccurrence(docs), min_df=0.0, max_df=0.5)
    assert (vocab.n_docs, vocab.doc_freq["term"]) == (4, 2)
    d0 = tfidf_weight(3, vocab.n_docs, vocab.doc_freq["term"])
    assert d0 == pytest.approx(3 * math.log(2), abs=1e-12)
    assert d0 == pytest.approx(2.0794415416798357, abs=1e-12)
    assert vocab.tfidf_sums["term"] == tfidf_weight(4, 4, 2)
    assert vocab.tfidf_sums["term"] == pytest.approx(d0 + tfidf_weight(1, 4, 2), rel=1e-12)


def test_vocab_zero_law():
    docs = docs_of([["shared", f"u{i}"] for i in range(4)])
    vocab = build_vocab(cooccurrence(docs), min_df=0.0, max_df=1.0)
    assert tfidf_weight(1, vocab.n_docs, vocab.doc_freq["shared"]) == 0.0
    assert vocab.tfidf_sums["shared"] == 0.0
    assert vocab.counts["shared"] == 4


def test_vocab_rejects_bad_band_or_empty():
    docs = docs_of([["a"]])
    with pytest.raises(ValueError):
        build_vocab(cooccurrence(docs_of([])), 0.01, 0.45)
    for lo, hi in ((0.5, 0.5), (0.6, 0.4), (-0.1, 0.45), (0.01, 1.1)):
        with pytest.raises(ValueError):
            build_vocab(cooccurrence(docs), lo, hi)


def test_vocab_pruning_monotonicity():
    rng = random.Random(32)
    words = [f"w{i}" for i in range(12)]
    docs = docs_of([[rng.choice(words) for _ in range(rng.randint(1, 6))]
                    for _ in range(30)])
    model = cooccurrence(docs)
    wide = set(build_vocab(model, min_df=0.0, max_df=1.0).terms)
    narrow = set(build_vocab(model, min_df=0.1, max_df=0.6).terms)
    assert narrow <= wide


def test_vocab_matches_direct_formula():
    rng = random.Random(33)
    words = [f"w{i}" for i in range(8)]
    for _ in range(30):
        docs = docs_of([[rng.choice(words) for _ in range(rng.randint(1, 8))]
                        for _ in range(rng.randint(1, 10))])
        vocab = build_vocab(cooccurrence(docs), min_df=0.0, max_df=1.0)
        n = len(docs)
        df = Counter()
        for tokens in docs:
            df.update(set(tokens))
        assert vocab.doc_freq == df
        for tokens in docs:
            for term in set(tokens):
                expected = tokens.count(term) * math.log(n / df[term])
                got = tfidf_weight(tokens.count(term), vocab.n_docs, vocab.doc_freq[term])
                assert got == pytest.approx(expected, abs=1e-12)


def test_vocab_totals_and_sums():
    docs = docs_of([["a", "a", "b"], ["b"]])
    vocab = build_vocab(cooccurrence(docs), min_df=0.0, max_df=1.0)
    assert vocab.counts == {"a": 2, "b": 2}
    assert vocab.tfidf_sums["a"] == pytest.approx(2 * math.log(2))
    assert vocab.tfidf_sums["b"] == pytest.approx(0.0)


token_lists = st.lists(st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=1, max_size=12)
df_bands = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda b: b[0] < b[1])


@given(token_lists, df_bands)
def test_vocab_totals_equal_per_doc_sums(lists, band):
    docs = docs_of(lists)
    vocab = build_vocab(cooccurrence(docs), *band)
    n = len(docs)
    df = Counter(t for tokens in docs for t in set(tokens))
    kept = sorted(t for t, c in df.items() if band[0] <= c / n <= band[1])
    counts = {}
    sums = {}
    for term in kept:
        counts[term] = 0
        sums[term] = 0.0
        for tokens in docs:
            c = tokens.count(term)
            if c:
                counts[term] += c
                sums[term] += c * math.log(n / df[term])
    assert vocab.terms == tuple(kept)
    assert vocab.counts == counts
    assert set(vocab.tfidf_sums) == set(sums)
    for term, total in sums.items():  # count * ln(N/df) rounds once, the sum once per doc
        assert vocab.tfidf_sums[term] == tfidf_weight(counts[term], n, df[term])
        assert vocab.tfidf_sums[term] == pytest.approx(total, rel=1e-12, abs=1e-12)


@given(token_lists, token_lists, st.integers(1, 5))
def test_cooccurrence_of_concatenation_is_sum_of_models(first, second, window):
    a, b = docs_of(first), docs_of(second)
    whole = cooccurrence(a + b, window)
    parts = cooccurrence(a, window) + cooccurrence(b, window)
    assert whole.pair_counts == parts.pair_counts
    assert whole.term_freq == parts.term_freq
    assert whole.doc_freq == parts.doc_freq
    assert whole.n_docs == parts.n_docs == len(a) + len(b)


def per_doc_cooccurrence(docs, window):
    """Reference: the per-doc loop cooccurrence ran before it walked distinct streams."""
    pair_counts = Counter()
    term_freq = Counter()
    doc_freq = Counter()
    n_docs = 0
    for tokens in docs:
        n_docs += 1
        term_freq.update(tokens)
        doc_freq.update(set(tokens))
        length = len(tokens)
        for i in range(length):
            left = tokens[i]
            for j in range(i + 1, min(i + window, length - 1) + 1):
                right = tokens[j]
                if left == right:
                    continue
                key = (left, right) if left <= right else (right, left)
                pair_counts[key] += 1
    return pair_counts, term_freq, doc_freq, n_docs


# docs drawn from a pool of at most four token streams plus an empty and a
# one-token stream, so streams repeat and the shortest lengths are in every pool
repeated_docs = st.lists(st.lists(st.sampled_from("abcde"), max_size=8), min_size=1, max_size=4) \
    .map(lambda pool: pool + [[], ["a"]]) \
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=20)).map(docs_of)


@given(repeated_docs, st.integers(1, 10))  # windows past the longest (8-token) stream
# 2- and 3-token streams, windows 1 and past their length: the one-pair streams
# and the shortest ones with more pairs; multi-character tokens, so a pair
# taken from a bare token instead of a tuple of tokens shows
@example(docs_of([["ab", "cd"], ["cd", "ab"], ["ab", "cd"]]), 1)
@example(docs_of([["ab", "cd"], ["ab"], ["ab", "cd"]]), 3)
@example(docs_of([["ab", "cd", "ef"], ["ef", "cd", "ab"], ["ab", "cd", "ef"]]), 1)
@example(docs_of([["ab", "cd", "ab"], ["cd", "ef", "ab"], ["ab", "cd", "ab"]]), 4)
@example(docs_of([["ab", "cd", "ef", "gh", "ij", "kl", "mn"]] * 2), 5)  # 20 pairs
def test_cooccurrence_equals_per_doc_loop(docs, window):
    model = cooccurrence(docs, window)
    pair_counts, term_freq, doc_freq, n_docs = per_doc_cooccurrence(docs, window)
    assert model.n_docs == n_docs
    for got, want in ((model.pair_counts, pair_counts), (model.term_freq, term_freq),
                      (model.doc_freq, doc_freq)):
        assert got == want
        assert list(got) == list(want)  # same first-occurrence key order


def test_cooccurrence_models_of_different_windows_do_not_add():
    with pytest.raises(ValueError, match="window"):
        cooccurrence(doc("a", "b"), 2) + cooccurrence(doc("a", "b"), 3)


# ---------------------------------------------------------------------------
# co-occurrence
# ---------------------------------------------------------------------------

def test_cooccurrence_triangle():
    model = cooccurrence(doc("a", "b", "c"), window=5)
    assert model.pair_counts == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


def test_cooccurrence_window_cutoff():
    assert cooccurrence(doc("a", "b"), window=1).pair_counts == {("a", "b"): 1}
    model = cooccurrence(doc("a", "x", "x", "x", "x", "x", "b"), window=5)
    # no ("a", "b"): distance 6 exceeds the window; keys are canonical (min, max)
    assert model.pair_counts == {("a", "x"): 5, ("b", "x"): 5}


def test_cooccurrence_single_token_doc():
    assert cooccurrence(doc("solo"), window=5).pair_counts == {}


def test_cooccurrence_self_pairs_excluded():
    model = cooccurrence(doc("a", "a", "a"), window=5)
    assert model.pair_counts == {}


def test_cooccurrence_rejects_bad_window():
    with pytest.raises(ValueError):
        cooccurrence(doc("a"), window=0)


def test_cooccurrence_does_not_cross_documents():
    model = cooccurrence(doc("a") + doc("b"), window=5)
    assert model.pair_counts == {}


def test_cooccurrence_symmetry_and_total():
    rng = random.Random(34)
    words = [f"w{i}" for i in range(40)]  # wide pool: repeats are rare
    for _ in range(60):
        length = rng.randint(1, 12)
        window = rng.randint(1, 5)
        tokens = rng.sample(words, length)  # all distinct
        model = cooccurrence(doc(*tokens), window=window)
        assert all(w1 < w2 for w1, w2 in model.pair_counts)  # one canonical key per pair
        if length > window:
            expected = length * window - window * (window + 1) // 2
        else:
            expected = length * (length - 1) // 2
        assert sum(model.pair_counts.values()) == expected


def test_association_is_conditional_frequency():
    model = cooccurrence(doc("a", "b") + doc("a", "c") + doc("a", "b"), window=5)
    # count over the hub's freq, so it is directional: every b stands near an a,
    # two of the three a's near a b
    assert top_cooccurrents(model, k_terms=3, k_neighbors=2) == [
        ("a", "b", 2 / 3), ("a", "c", 1 / 3),
        ("b", "a", 1.0), ("c", "a", 1.0)]


def test_association_bounded_by_window():
    rng = random.Random(35)
    words = [f"w{i}" for i in range(6)]
    for _ in range(40):
        window = rng.randint(1, 5)
        docs = docs_of([[rng.choice(words) for _ in range(rng.randint(1, 12))]
                        for k in range(rng.randint(1, 5))])
        edges = top_cooccurrents(cooccurrence(docs, window=window), len(words), len(words))
        for hub, partner, value in edges:
            assert hub != partner and 0.0 < value <= 2 * window


def test_top_cooccurrents_shape():
    rng = random.Random(36)
    words = [f"w{i}" for i in range(30)]
    docs = docs_of([[rng.choice(words) for _ in range(8)] for k in range(40)])
    edges = top_cooccurrents(cooccurrence(docs), k_terms=20, k_neighbors=5)
    assert len(edges) <= 100
    hubs = {hub for hub, _, _ in edges}
    assert len(hubs) <= 20
    per_hub = Counter(hub for hub, _, _ in edges)
    assert all(c <= 5 for c in per_hub.values())


def test_top_cooccurrents_single_term():
    model = cooccurrence(doc("solo"), window=5)
    assert top_cooccurrents(model) == []


def test_top_cooccurrents_tie_breaks_lexicographic():
    model = cooccurrence(doc("hub", "aa") + doc("hub", "bb"), window=5)
    edges = top_cooccurrents(model, k_terms=1, k_neighbors=2)
    assert edges == [("hub", "aa", 0.5), ("hub", "bb", 0.5)]


def brute_top_cooccurrents(docs, window, k_terms, k_neighbors):
    """Reference from README's definition: the k_terms most frequent terms by
    (-freq, term), each with its k_neighbors partners by (-association,
    partner), where association is the count of the hub and the partner
    within window tokens of each other in one doc, divided by the hub's freq."""
    freq = Counter(t for tokens in docs for t in tokens)
    edges = []
    for hub in sorted(freq, key=lambda t: (-freq[t], t))[:k_terms]:
        together = Counter()
        for tokens in docs:
            for i, left in enumerate(tokens):
                for right in tokens[i + 1:i + window + 1]:
                    if left != right and hub in (left, right):
                        together[right if left == hub else left] += 1
        ranked = sorted(together, key=lambda p: (-together[p] / freq[hub], p))
        edges.extend((hub, p, together[p] / freq[hub]) for p in ranked[:k_neighbors])
    return edges


@given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=10), max_size=12),
       st.integers(1, 6), st.integers(1, 5), st.integers(1, 5))
def test_top_cooccurrents_equals_brute_force(token_lists, window, k_terms, k_neighbors):
    docs = docs_of(token_lists)
    assert (top_cooccurrents(cooccurrence(docs, window), k_terms, k_neighbors)
            == brute_top_cooccurrents(docs, window, k_terms, k_neighbors))


def test_top_cooccurrents_rejects_bad_k():
    model = cooccurrence(doc("a", "b"), window=1)
    with pytest.raises(ValueError):
        top_cooccurrents(model, k_terms=0)
    with pytest.raises(ValueError):
        top_cooccurrents(model, k_neighbors=0)


# ---------------------------------------------------------------------------
# sentiment
# ---------------------------------------------------------------------------

LEX = {"bad": -1.0, "terrible": -1.0, "good": 1.0}


def tweet_sentiment(d):
    """A tweet's sentiment: the mean sentiment of a group holding only it."""
    samples = group_word_sentiment_samples(term_counts({Label.NO_BOT: d}), LEX)
    return group_mean_sentiment(samples, {Label.NO_BOT: 1})[Label.NO_BOT]


def per_token_samples(groups, lexicon):
    """Reference: every lexicon token of every doc adds one to its polarity."""
    samples = {}
    for label, docs in groups.items():
        values = samples[label] = Counter()
        for tokens in docs:
            for token in tokens:
                value = lexicon.get(token)
                if value is not None:
                    values[value] += 1
    return samples


SIGNED_ZERO_LEX = {"a": 0.0, "b": -0.0, "c": 1.5, "d": -2.0}


@given(st.fixed_dictionaries({label: repeated_docs for label in Label}))
def test_group_samples_equal_per_token_loop(groups):
    got = group_word_sentiment_samples(term_counts(groups), SIGNED_ZERO_LEX)
    want = per_token_samples(groups, SIGNED_ZERO_LEX)
    assert got == want
    for label in Label:  # repr tells 0.0 from -0.0: the first zero seen is the key
        assert list(map(repr, got[label])) == list(map(repr, want[label]))


def _signed_items(hist):
    return [(math.copysign(1.0, value), value, c) for value, c in hist.items()]


@given(st.fixed_dictionaries({label: repeated_docs for label in Label}))
def test_folded_model_samples_equal_folded_label_samples(groups):
    """The pipeline's path (fold the models, then count each group's term_freq)
    gives the folded per-label histograms, key order and zero signs included."""
    models = fold_groups({label: cooccurrence(streams) for label, streams in groups.items()})
    got = group_word_sentiment_samples({k: m.term_freq for k, m in models.items()},
                                       SIGNED_ZERO_LEX)
    want = fold_groups(group_word_sentiment_samples(term_counts(groups), SIGNED_ZERO_LEX))
    assert list(got) == list(want)
    for label in Label:
        assert _signed_items(got[label]) == _signed_items(want[label])


def test_tweet_sentiment_sum():
    assert tweet_sentiment(doc("bad", "terrible", "protest")) == -2


def test_tweet_sentiment_no_overlap():
    assert tweet_sentiment(doc("quiet", "evening")) == 0.0


def test_tweet_sentiment_cancellation():
    assert tweet_sentiment(doc("good", "bad")) == 0.0


def test_tweet_sentiment_linearity():
    rng = random.Random(37)
    pool = ["bad", "good", "terrible", "other", "words"]
    for _ in range(50):
        left = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        right = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        combined = tweet_sentiment(doc(*(left + right)))
        assert combined == pytest.approx(tweet_sentiment(doc(*left)) + tweet_sentiment(doc(*right)))


def _word_values(docs):
    """Word-level sentiment sample of *docs*, all labelled NoBot."""
    cls = [Classification(str(i), Label.NO_BOT, frozenset()) for i in range(len(docs))]
    groups = group_docs(detection_of(cls), docs)
    return group_word_sentiment_samples(term_counts(groups), LEX)[Label.NO_BOT]


def test_word_sentiment_values_multiset():
    docs = docs_of([["bad"], ["bad", "good"]])
    assert _word_values(docs) == Counter({-1: 2, 1: 1})


def test_word_sentiment_values_empty():
    assert _word_values(docs_of([])) == Counter()
    assert _word_values(docs_of([["quiet"], []])) == Counter()


def test_word_sentiment_values_repeats():
    docs = docs_of([["bad"] * 10])
    assert _word_values(docs) == Counter({-1: 10})


def _grouped_docs():
    docs = (doc("bad", "terrible")    # t1: Bot, sentiment -2
            + doc("good")             # t2: NoBot, +1
            + doc("bad"))             # t3: Suspicious, -1
    cls = [Classification("t1", Label.BOT, frozenset()),
           Classification("t2", Label.NO_BOT, frozenset()),
           Classification("t3", Label.SUSPICIOUS, frozenset())]
    return cls, docs


def _group_models(cls, docs):
    """Per-group co-occurrence models, folded from the per-label ones as the pipeline does."""
    return fold_groups({label: cooccurrence(streams)
                        for label, streams in group_docs(detection_of(cls), docs).items()})


def _group_samples(models):
    return group_word_sentiment_samples({k: m.term_freq for k, m in models.items()}, LEX)


def _group_means(cls, docs):
    """group_mean_sentiment on the path the pipeline takes."""
    models = _group_models(cls, docs)
    return group_mean_sentiment(_group_samples(models),
                                {k: m.n_docs for k, m in models.items()})


def test_group_mean_sentiment_inclusive():
    cls, docs = _grouped_docs()
    means = _group_means(cls, docs)
    assert means[Label.BOT] == pytest.approx(-2.0)
    assert means[Label.NO_BOT] == pytest.approx(1.0)
    # Suspicious averages its own tweet and the Bot tweet
    assert means[Label.SUSPICIOUS] == pytest.approx(-1.5)


def test_group_mean_sentiment_simple_mean():
    docs = doc("bad") + doc("plain")
    cls = [Classification("t1", Label.NO_BOT, frozenset()),
           Classification("t2", Label.NO_BOT, frozenset())]
    means = _group_means(cls, docs)
    assert means[Label.NO_BOT] == pytest.approx(-0.5)


def test_group_mean_sentiment_empty_group_is_none():
    docs = doc("good")
    cls = [Classification("t1", Label.NO_BOT, frozenset())]
    means = _group_means(cls, docs)
    assert means[Label.BOT] is None
    assert means[Label.SUSPICIOUS] is None


def test_group_samples_inclusive_and_checked():
    cls, docs = _grouped_docs()
    samples = _group_samples(_group_models(cls, docs))
    assert samples[Label.SUSPICIOUS] == Counter({-1: 3})  # bot words included
    assert samples[Label.BOT] == Counter({-1: 2})
    assert samples[Label.NO_BOT] == Counter({1: 1})
    with pytest.raises(ValueError):
        group_docs(detection_of(cls), doc("x"))


# ---------------------------------------------------------------------------
# group_docs
# ---------------------------------------------------------------------------

def test_group_docs_rejects_mismatched_inputs():
    cls, docs = _grouped_docs()
    with pytest.raises(ValueError, match="3 classifications but 2 token streams"):
        group_docs(detection_of(cls), docs[:2])  # one classification too many
    with pytest.raises(ValueError, match="2 classifications but 3 token streams"):
        group_docs(detection_of(cls[:2]), docs)  # one doc too many


labels = st.lists(st.sampled_from(list(Label)), min_size=1, max_size=40)


def _labelled(label_list):
    docs = docs_of([[f"w{i}"] for i in range(len(label_list))])
    cls = [Classification(f"d{i}", label, frozenset()) for i, label in enumerate(label_list)]
    return cls, docs


@given(labels)
def test_group_docs_keeps_order_and_suspicious_includes_bot(label_list):
    cls, docs = _labelled(label_list)
    groups = group_docs(detection_of(cls), docs)
    for label in Label:  # disjoint: every doc listed once, under its own label
        assert groups[label] == tuple(d for d, c in zip(docs, cls) if c.label is label)
    folded = fold_groups(groups)
    assert folded[Label.SUSPICIOUS] == groups[Label.SUSPICIOUS] + groups[Label.BOT]
    assert (folded[Label.NO_BOT], folded[Label.BOT]) == (groups[Label.NO_BOT], groups[Label.BOT])


@given(texts_of_shared_tokens, st.integers(1, 6), st.data())
def test_column_path_equals_per_tweet_reference(texts, window, data):
    corpus = corpus_of(*(record(i=str(k), text=text) for k, text in enumerate(texts)))
    label_list = data.draw(st.lists(st.sampled_from(list(Label)), min_size=len(texts),
                                    max_size=len(texts)), label="labels")
    cls = [Classification(tweet_id, label, frozenset())
           for tweet_id, label in zip(corpus.ids, label_list)]
    want = reference_docs(corpus.tweets, STOPWORDS)

    docs = tokenize_corpus(corpus.tweets, STOPWORDS)
    assert list(docs) == want and docs.tweet_ids is corpus.ids
    first = {}
    for text, tokens in zip(corpus.texts, docs.streams):  # one token tuple per distinct text
        assert tokens is first.setdefault(text, tokens)
    groups = group_docs(detection_of(cls), docs.streams)
    for label in Label:
        label_docs = tuple(d.tokens for d, c in zip(want, cls) if c.label is label)
        assert groups[label] == label_docs
        model = cooccurrence(groups[label], window)
        pair_counts, term_freq, doc_freq, n_docs = per_doc_cooccurrence(label_docs, window)
        assert model.n_docs == n_docs
        for got, expected in ((model.pair_counts, pair_counts), (model.term_freq, term_freq),
                              (model.doc_freq, doc_freq)):
            assert got == expected
            assert list(got) == list(expected)  # same first-occurrence key order


def test_analyze_keeps_no_tracked_object_per_tweet(default_synth):
    corpus = ingest(default_synth[0])
    detection = classify(corpus)
    gc.collect()
    before = len(gc.get_objects())
    docs = tokenize_corpus(corpus.tweets, STOPWORDS)
    groups = group_docs(detection, docs.streams)
    gc.collect()
    assert len(gc.get_objects()) - before < len(corpus) / 10
    assert sum(map(len, groups.values())) == len(docs) == len(corpus)


@given(labels)
def test_group_summary_counts_equal_group_sizes(label_list):
    cls, docs = _labelled(label_list)
    groups = fold_groups(group_docs(detection_of(cls), docs))
    summary = group_summary(detection_of(cls))
    for label in Label:
        assert summary[label].count == len(groups[label])


# ---------------------------------------------------------------------------
# resource loading
# ---------------------------------------------------------------------------

def test_default_stopwords_cover_articles():
    assert {"the", "a", "an", "in"} <= STOPWORDS


def test_load_stopwords_custom_and_empty(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nFoo\nbar\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"foo", "bar"})
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_stopwords(tmp_path / "empty.txt")


def test_load_stopwords_file_with_bom(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("foo\nbar\n", encoding="utf-8-sig")  # starts with a byte order mark
    assert load_stopwords(path) == frozenset({"foo", "bar"})


def test_load_stopwords_rejects_entry_no_token_can_equal(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("@User\nDont\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"@user", "dont"})
    for entry in ("Don't", "a b", "@", "...", "İstanbul"):
        path.write_text(f"# comment\nfoo\n{entry}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 3"):
            load_stopwords(path)


def test_load_lexicon_rejects_word_no_token_can_equal(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("GOOD\t1\n@Win\t2\n", encoding="utf-8")
    assert load_lexicon(path) == {"good": 1.0, "@win": 2.0}
    for word in ("good!", "don't", "well done", "@", "İyi"):
        path.write_text(f"fine\t1\n{word}\t-1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_lexicon(path)


def test_load_lexicon_file_with_bom(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t1\nbad\t-1\n", encoding="utf-8-sig")
    assert load_lexicon(path) == {"good": 1.0, "bad": -1.0}


def test_load_lexicon_rejects_repeated_word(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t1\n# comment\nbad\t-1\nGOOD\t-1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 4: 'GOOD' repeats line 1"):
        load_lexicon(path)


def test_default_lexicon_loads():
    lex = load_lexicon()
    assert type(lex) is dict and len(lex) > 20
    assert lex["good"] == 1.0
    assert lex["terror"] == -1.0
    assert "notaword" not in lex
    assert all(word == word.lower() and type(v) is float for word, v in lex.items())


def test_load_lexicon_rejects_malformed(tmp_path):
    bad_cols = tmp_path / "l1.tsv"
    bad_cols.write_text("word\t1\textra\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_lexicon(bad_cols)
    bad_value = tmp_path / "l2.tsv"
    bad_value.write_text("word\tpositive\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_lexicon(bad_value)
    for polarity in ("nan", "inf", "-inf", "NaN", "-Infinity"):
        bad_value.write_text(f"good\t1\nword\t{polarity}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_lexicon(bad_value)


def test_lexicon_rejects_empty(tmp_path):
    path = tmp_path / "lex.tsv"
    for content in ("", "# only a comment\n\n"):
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigError, match="sentiment lexicon is empty"):
            load_lexicon(path)