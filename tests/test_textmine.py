"""Tokenization, TF-IDF, co-occurrence, and lexicon sentiment."""

import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from botminer.detector import Classification, Label, fold_groups, group_summary
from botminer.errors import ConfigError
from botminer.textmine import (
    SentimentLexicon,
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

from conftest import doc, docs_of, tweet

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
    t = tweet(i="55", text="Protests continue tonight")
    (d,) = tokenize_corpus([t], STOPWORDS)
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
    tweets = [tweet(i=str(k), text=text) for k, text in enumerate(texts)]
    docs = tokenize_corpus(tweets, STOPWORDS)
    assert docs == reference_docs(tweets, STOPWORDS)
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
    tweets = [tweet(i=str(k), text=text) for k, text in enumerate(texts)]
    docs = tokenize_corpus(tweets, STOPWORDS, query)
    assert docs == reference_docs(tweets, STOPWORDS, query)
    seen = {}
    for d in docs:  # equal tokens are one str object
        for token in d.tokens:
            assert token is seen.setdefault(token, token)
    # other lists on the same texts: nothing carries over from the first call
    stopwords = frozenset(list(seen)[::2])
    for other_stop, other_query in ((stopwords, query), (STOPWORDS, "tag")):
        got = tokenize_corpus(tweets, other_stop, other_query)
        assert got == reference_docs(tweets, other_stop, other_query)


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
    assert cooccurrence([]).term_freq == {}


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
        build_vocab(cooccurrence([]), 0.01, 0.45)
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
        for d in docs:
            df.update(set(d.tokens))
        assert vocab.doc_freq == df
        for d in docs:
            for term in set(d.tokens):
                expected = d.tokens.count(term) * math.log(n / df[term])
                got = tfidf_weight(d.tokens.count(term), vocab.n_docs, vocab.doc_freq[term])
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
    df = Counter(t for d in docs for t in set(d.tokens))
    kept = sorted(t for t, c in df.items() if band[0] <= c / n <= band[1])
    counts = {}
    sums = {}
    for term in kept:
        counts[term] = 0
        sums[term] = 0.0
        for d in docs:
            c = d.tokens.count(term)
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
    for d in docs:
        tokens = d.tokens
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
        cooccurrence([doc("a", "b")], 2) + cooccurrence([doc("a", "b")], 3)


# ---------------------------------------------------------------------------
# co-occurrence
# ---------------------------------------------------------------------------

def test_cooccurrence_triangle():
    model = cooccurrence([doc("a", "b", "c")], window=5)
    assert model.count("a", "b") == 1
    assert model.count("a", "c") == 1
    assert model.count("b", "c") == 1


def test_cooccurrence_window_cutoff():
    assert cooccurrence([doc("a", "b")], window=1).count("a", "b") == 1
    model = cooccurrence([doc("a", "x", "x", "x", "x", "x", "b")], window=5)
    assert model.count("a", "b") == 0  # distance 6 exceeds the window
    assert model.count("a", "x") == 5
    assert model.count("x", "b") == 5


def test_cooccurrence_single_token_doc():
    assert cooccurrence([doc("solo")], window=5).pair_counts == {}


def test_cooccurrence_self_pairs_excluded():
    model = cooccurrence([doc("a", "a", "a")], window=5)
    assert model.pair_counts == {}
    assert model.count("a", "a") == 0


def test_cooccurrence_rejects_bad_window():
    with pytest.raises(ValueError):
        cooccurrence([doc("a")], window=0)


def test_cooccurrence_does_not_cross_documents():
    model = cooccurrence([doc("a", tweet_id="d1"), doc("b", tweet_id="d2")], window=5)
    assert model.count("a", "b") == 0


def test_cooccurrence_symmetry_and_total():
    rng = random.Random(34)
    words = [f"w{i}" for i in range(40)]  # wide pool: repeats are rare
    for _ in range(60):
        length = rng.randint(1, 12)
        window = rng.randint(1, 5)
        tokens = rng.sample(words, length)  # all distinct
        model = cooccurrence([doc(*tokens)], window=window)
        for (w1, w2), c in model.pair_counts.items():
            assert model.count(w1, w2) == model.count(w2, w1) == c
        if length > window:
            expected = length * window - window * (window + 1) // 2
        else:
            expected = length * (length - 1) // 2
        assert sum(model.pair_counts.values()) == expected


def test_association_is_conditional_frequency():
    model = cooccurrence([doc("a", "b"), doc("a", "c"), doc("a", "b")], window=5)
    assert model.association("a", "b") == pytest.approx(2 / 3)
    assert model.association("b", "a") == pytest.approx(1.0)
    assert model.association("zzz", "a") == 0.0


def test_association_bounded_by_window():
    rng = random.Random(35)
    words = [f"w{i}" for i in range(6)]
    for _ in range(40):
        window = rng.randint(1, 5)
        docs = [doc(*[rng.choice(words) for _ in range(rng.randint(1, 12))],
                    tweet_id=f"d{k}") for k in range(rng.randint(1, 5))]
        model = cooccurrence(docs, window=window)
        for w1 in words:
            for w2 in words:
                if w1 != w2:
                    assert 0.0 <= model.association(w1, w2) <= 2 * window


def test_top_cooccurrents_shape():
    rng = random.Random(36)
    words = [f"w{i}" for i in range(30)]
    docs = [doc(*[rng.choice(words) for _ in range(8)], tweet_id=f"d{k}")
            for k in range(40)]
    edges = top_cooccurrents(cooccurrence(docs), k_terms=20, k_neighbors=5)
    assert len(edges) <= 100
    hubs = {hub for hub, _, _ in edges}
    assert len(hubs) <= 20
    per_hub = Counter(hub for hub, _, _ in edges)
    assert all(c <= 5 for c in per_hub.values())


def test_top_cooccurrents_single_term():
    model = cooccurrence([doc("solo")], window=5)
    assert top_cooccurrents(model) == []


def test_top_cooccurrents_tie_breaks_lexicographic():
    model = cooccurrence([doc("hub", "aa", tweet_id="d1"),
                          doc("hub", "bb", tweet_id="d2")], window=5)
    edges = top_cooccurrents(model, k_terms=1, k_neighbors=2)
    assert edges == [("hub", "aa", 0.5), ("hub", "bb", 0.5)]


def test_top_cooccurrents_rejects_bad_k():
    model = cooccurrence([doc("a", "b")], window=1)
    with pytest.raises(ValueError):
        top_cooccurrents(model, k_terms=0)
    with pytest.raises(ValueError):
        top_cooccurrents(model, k_neighbors=0)


# ---------------------------------------------------------------------------
# sentiment
# ---------------------------------------------------------------------------

LEX = SentimentLexicon({"bad": -1, "terrible": -1, "good": 1})


def tweet_sentiment(d):
    """A tweet's sentiment: the mean sentiment of a group holding only it."""
    samples = group_word_sentiment_samples({Label.NO_BOT: [d]}, LEX)
    return group_mean_sentiment(samples, {Label.NO_BOT: 1})[Label.NO_BOT]


def per_token_samples(groups, lexicon):
    """Reference: every lexicon token of every doc adds one to its polarity."""
    samples = {}
    for label, docs in groups.items():
        values = samples[label] = Counter()
        for d in docs:
            for token in d.tokens:
                value = lexicon.value(token)
                if value is not None:
                    values[value] += 1
    return samples


SIGNED_ZERO_LEX = SentimentLexicon({"a": 0.0, "b": -0.0, "c": 1.5, "d": -2})


@given(st.fixed_dictionaries({label: repeated_docs for label in Label}))
def test_group_samples_equal_per_token_loop(groups):
    got = group_word_sentiment_samples(groups, SIGNED_ZERO_LEX)
    want = per_token_samples(groups, SIGNED_ZERO_LEX)
    assert got == want
    for label in Label:  # repr tells 0.0 from -0.0: the first zero seen is the key
        assert list(map(repr, got[label])) == list(map(repr, want[label]))


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
    cls = [Classification(d.tweet_id, Label.NO_BOT, frozenset()) for d in docs]
    return group_word_sentiment_samples(group_docs(cls, docs), LEX)[Label.NO_BOT]


def test_word_sentiment_values_multiset():
    docs = docs_of([["bad"], ["bad", "good"]])
    assert _word_values(docs) == Counter({-1: 2, 1: 1})


def test_word_sentiment_values_empty():
    assert _word_values([]) == Counter()
    assert _word_values(docs_of([["quiet"], []])) == Counter()


def test_word_sentiment_values_repeats():
    docs = docs_of([["bad"] * 10])
    assert _word_values(docs) == Counter({-1: 10})


def _grouped_docs():
    docs = [doc("bad", "terrible", tweet_id="t1"),   # Bot, sentiment -2
            doc("good", tweet_id="t2"),              # NoBot, +1
            doc("bad", tweet_id="t3")]               # Suspicious, -1
    cls = [Classification("t1", Label.BOT, frozenset()),
           Classification("t2", Label.NO_BOT, frozenset()),
           Classification("t3", Label.SUSPICIOUS, frozenset())]
    return cls, docs


def _group_means(cls, docs):
    """group_mean_sentiment on the path the pipeline takes."""
    groups = group_docs(cls, docs)
    samples = fold_groups(group_word_sentiment_samples(groups, LEX))
    return group_mean_sentiment(samples, fold_groups({k: len(v) for k, v in groups.items()}))


def test_group_mean_sentiment_inclusive():
    cls, docs = _grouped_docs()
    means = _group_means(cls, docs)
    assert means[Label.BOT] == pytest.approx(-2.0)
    assert means[Label.NO_BOT] == pytest.approx(1.0)
    # Suspicious averages its own tweet and the Bot tweet
    assert means[Label.SUSPICIOUS] == pytest.approx(-1.5)


def test_group_mean_sentiment_simple_mean():
    docs = [doc("bad", tweet_id="t1"), doc("plain", tweet_id="t2")]
    cls = [Classification("t1", Label.NO_BOT, frozenset()),
           Classification("t2", Label.NO_BOT, frozenset())]
    means = _group_means(cls, docs)
    assert means[Label.NO_BOT] == pytest.approx(-0.5)


def test_group_mean_sentiment_empty_group_is_none():
    docs = [doc("good", tweet_id="t1")]
    cls = [Classification("t1", Label.NO_BOT, frozenset())]
    means = _group_means(cls, docs)
    assert means[Label.BOT] is None
    assert means[Label.SUSPICIOUS] is None


def test_group_samples_inclusive_and_checked():
    cls, docs = _grouped_docs()
    samples = fold_groups(group_word_sentiment_samples(group_docs(cls, docs), LEX))
    assert samples[Label.SUSPICIOUS] == Counter({-1: 3})  # bot words included
    assert samples[Label.BOT] == Counter({-1: 2})
    assert samples[Label.NO_BOT] == Counter({1: 1})
    with pytest.raises(ValueError):
        group_docs(cls, [doc("x", tweet_id="unseen")])


# ---------------------------------------------------------------------------
# group_docs
# ---------------------------------------------------------------------------

def test_group_docs_rejects_mismatched_inputs():
    cls, docs = _grouped_docs()
    with pytest.raises(ValueError):
        group_docs(cls, docs[:2])  # one classification too many
    with pytest.raises(ValueError):
        group_docs(cls[:2], docs)  # one doc too many
    with pytest.raises(ValueError, match="mismatch"):
        group_docs(cls, docs[::-1])  # same length, ids out of step


labels = st.lists(st.sampled_from(list(Label)), min_size=1, max_size=40)


def _labelled(label_list):
    docs = docs_of([[f"w{i}"] for i in range(len(label_list))])
    cls = [Classification(d.tweet_id, label, frozenset())
           for d, label in zip(docs, label_list)]
    return cls, docs


@given(labels)
def test_group_docs_keeps_order_and_suspicious_includes_bot(label_list):
    cls, docs = _labelled(label_list)
    groups = group_docs(cls, docs)
    for label in Label:  # disjoint: every doc listed once, under its own label
        assert groups[label] == [d for d, c in zip(docs, cls) if c.label is label]
    folded = fold_groups(groups)
    assert folded[Label.SUSPICIOUS] == groups[Label.SUSPICIOUS] + groups[Label.BOT]
    assert (folded[Label.NO_BOT], folded[Label.BOT]) == (groups[Label.NO_BOT], groups[Label.BOT])


@given(labels)
def test_group_summary_counts_equal_group_sizes(label_list):
    cls, docs = _labelled(label_list)
    groups = fold_groups(group_docs(cls, docs))
    summary = group_summary(cls)
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
    assert load_lexicon(path).polarity == {"good": 1.0, "@win": 2.0}
    for word in ("good!", "don't", "well done", "@", "İyi"):
        path.write_text(f"fine\t1\n{word}\t-1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_lexicon(path)


def test_default_lexicon_loads():
    lex = load_lexicon()
    assert len(lex) > 20
    assert lex.value("good") == 1.0
    assert lex.value("terror") == -1.0
    assert lex.value("GOOD") == 1.0  # case-insensitive
    assert lex.value("notaword") is None


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


def test_lexicon_rejects_empty():
    with pytest.raises(ConfigError):
        SentimentLexicon({})