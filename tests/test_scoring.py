"""Tests of the one scoring kernel: core.exact_dots, cosines and top_rows.

Property tests drive each caller (context ranking, pairwise context
similarity, sentence scoring in both modes, the spam batch at top-1)
and compare it with the pure-Python cosine and top-n oracles, on rows
that include zero rows, duplicates, copies of the query at other scales
and signs, and so exact ties.  Crafted cases sit on both sides of each
exactness bound and are checked against Python ints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem.context import ContextModel, context_arithmetic, context_similarity, similar_words
from hdsem.core import exact_dots, squared_norms
from hdsem.errors import EmptyContextError, EmptyQueryError
from hdsem.sentences import SentenceIndex, query_sentences
from hdsem.spam import ClassifyResult, Message, SpamFilter, classify_many
from hdsem.textpipe import Vocabulary, bare_config

from oracles import brute_cosine, brute_top, reference_signs

WORDS = ("alpha", "beta", "gamma", "delta")


@st.composite
def rows_around(draw, query, min_size=1, max_size=10):
    """Integer rows mixing random rows, zero rows, duplicates of earlier
    rows and copies of query scaled by -3..3 (no 0)."""
    rows = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "parallel"]))
        if kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "parallel":
            c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            rows.append([c * x for x in query])
        elif kind == "zero":
            rows.append([0] * len(query))
        else:
            rows.append(draw(st.lists(st.integers(-6, 6), min_size=len(query), max_size=len(query))))
    return rows


def _model(rows):
    n = len(rows)
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=len(rows[0]), seed=0)
    # context_totals of 1 bound nothing: the kernel must take the
    # matrix's own largest |entry|
    return ContextModel(vocab, 1, np.array(rows, dtype=np.int64), np.ones(n), np.ones(n), np.ones(n))


def _signs(vocab, words):
    signs = [reference_signs(vocab.dim, vocab.seed, vocab.index_of(w)) for w in words]
    return [sum(v[j] for v in signs) for j in range(vocab.dim)]


def _dot(a, b):
    return sum(int(x) * int(y) for x, y in zip(a, b))


# ------------------------------------------------------------ property tests


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_context_ranking_matches_oracle(data):
    d = data.draw(st.integers(2, 6), label="dim")
    base = data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d).filter(any), label="base")
    rows = [base] + data.draw(rows_around(base), label="rows")
    n = len(rows)
    plus = [0] + data.draw(st.lists(st.integers(0, n - 1), max_size=1), label="plus")
    minus = data.draw(st.lists(st.integers(0, n - 1), max_size=1), label="minus")
    top_n = data.draw(st.integers(1, n + 1), label="top_n")
    model = _model(rows)
    query = [sum(rows[i][j] for i in plus) - sum(rows[i][j] for i in minus) for j in range(d)]
    words = lambda idx: [f"w{i}" for i in idx]  # noqa: E731
    if not any(query):
        with pytest.raises(EmptyQueryError):
            context_arithmetic(model, words(plus), words(minus), top_n=top_n)
        return
    excluded = set(plus) | set(minus)
    scores = [
        None if i in excluded or not any(r) else brute_cosine(r, query) for i, r in enumerate(rows)
    ]
    got = context_arithmetic(model, words(plus), words(minus), top_n=top_n)
    want = brute_top(scores, top_n)
    assert [(m.rank, m.word, m.score) for m in got] == [
        (r + 1, f"w{i}", scores[i]) for r, i in enumerate(want)
    ]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_context_similarity_matches_oracle(data):
    d = data.draw(st.integers(2, 6), label="dim")
    base = data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d), label="base")
    rows = [base] + data.draw(rows_around(base), label="rows")
    a, b = data.draw(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1)))
    model = _model(rows)
    if not any(rows[a]) or not any(rows[b]):
        with pytest.raises(EmptyContextError):
            context_similarity(model, f"w{a}", f"w{b}")
        return
    assert context_similarity(model, f"w{a}", f"w{b}") == brute_cosine(rows[a], rows[b])


@given(data=st.data(), normalize=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sentence_scoring_matches_oracle(data, normalize):
    d = data.draw(st.integers(2, 8), label="dim")
    vocab = Vocabulary(WORDS, dim=d, seed=data.draw(st.integers(0, 3), label="seed"))
    qwords = data.draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5), label="query")
    q = _signs(vocab, qwords)
    rows = data.draw(rows_around(q), label="rows")
    n = len(rows)
    index = SentenceIndex(
        vocab,
        bare_config(),
        [f"s{i}" for i in range(n)],
        [(0,)] * n,
        np.array(rows, dtype=np.int32),
        np.array([_dot(r, r) for r in rows], dtype=np.int64),
        max(abs(x) for r in rows for x in r),
    )
    top_n = data.draw(st.integers(1, n + 1), label="top_n")
    out = query_sentences(index, " ".join(qwords), top_n=top_n, normalize=normalize)
    if normalize:
        scores = [brute_cosine(r, q) if any(r) and any(q) else None for r in rows]
    else:
        scores = [_dot(r, q) / d for r in rows]
    want = brute_top(scores, top_n)
    assert [(m.rank, m.sentence_index, m.score) for m in out.matches] == [
        (r + 1, i, scores[i]) for r, i in enumerate(want)
    ]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_spam_batch_matches_oracle(data):
    d = data.draw(st.integers(2, 8), label="dim")
    vocab = Vocabulary(WORDS, dim=d, seed=data.draw(st.integers(0, 3), label="seed"))
    texts = data.draw(
        st.lists(st.lists(st.sampled_from(WORDS + ("unknown",)), max_size=5), min_size=1, max_size=4),
        label="messages",
    )
    messages = [Message(f"q{i}", 0, tuple(t)) for i, t in enumerate(texts)]
    bows = [_signs(vocab, [w for w in t if w in WORDS]) for t in texts]
    rows = [r for r in data.draw(rows_around(bows[0]), label="rows") if any(r)] or [[1] + [0] * (d - 1)]
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)), label="labels")
    spam_filter = SpamFilter(
        vocab,
        np.array(rows, dtype=np.float64),
        np.array([_dot(r, r) for r in rows], dtype=np.int64),
        np.array(labels, dtype=np.int64),
        [f"m{i}" for i in range(len(rows))],
        max(abs(x) for r in rows for x in r),
    )
    want = []
    for q in bows:
        if not any(q):
            want.append(ClassifyResult(0, 0.0, None, True))
            continue
        scores = [brute_cosine(r, q) for r in rows]
        best = brute_top(scores, 1)[0]
        want.append(ClassifyResult(labels[best], scores[best], f"m{best}", False))
    assert classify_many(spam_filter, messages) == want


# ------------------------------------------------------------ crafted bounds


@pytest.mark.parametrize(
    "dtype, max_abs, q_sum, out_dtype",
    [
        (np.float64, 20394401, 441650591, np.float64),  # product 2^53 - 1
        (np.int64, 20394401, 441650591, np.float64),
        (np.float64, 2**26, 2**27, np.int64),  # product 2^53
        (np.int64, 2**26, 2**27, np.int64),
        (np.int32, 1, 2**31 - 1, np.int32),
        (np.int32, 2, 2**30, np.int64),
    ],
)
def test_exact_dots_on_both_sides_of_the_fast_bound(dtype, max_abs, q_sum, out_dtype):
    assert max_abs * q_sum in (2**53 - 1, 2**53, 2**31 - 1, 2**31)
    rows = [[max_abs, -max_abs], [max_abs, max_abs - 1], [-max_abs, 1], [0, 0]]
    q = [q_sum - 5, -5]  # row 0 reaches the bound itself
    got = exact_dots(np.array(rows, dtype=dtype), np.array([q]), max_abs)
    assert got.dtype == out_dtype
    assert [int(x) for x in got[0]] == [_dot(r, q) for r in rows]
    assert int(got[0, 0]) == max_abs * q_sum


def test_exact_dots_fallback_is_exact_where_float64_rounds():
    rows = np.array([[3, 1]], dtype=np.int64)
    q = np.array([[2**52, 1]])
    want = 3 * 2**52 + 1
    assert int((rows.astype(np.float64) @ q.T.astype(np.float64))[0, 0]) != want
    got = exact_dots(rows, q, 3)
    assert got.dtype == np.int64 and int(got[0, 0]) == want


def test_exact_dots_raise_past_int64():
    rows = np.array([[1, 0]], dtype=np.int64)
    assert int(exact_dots(rows, np.array([[2**63 - 1, 0]]), 1)[0, 0]) == 2**63 - 1
    with pytest.raises(ValueError, match="exceed int64 range"):
        exact_dots(rows, np.array([[2**62, 0]]), 2)


def test_squared_norms_raise_past_int64():
    top = 2**31 - 1  # 2 * top^2 < 2^63 <= 2 * (top + 1)^2
    rows = np.array([[top, -top]], dtype=np.int64)
    assert int(squared_norms(rows, top)[0]) == 2 * top * top
    with pytest.raises(ValueError, match="exceed int64 range"):
        squared_norms(rows, top + 1)


def test_parallel_context_rows_score_exactly_one_past_2_53():
    # scaled copies of u with entries near 1e8: squared norms near 4e16,
    # past 2^53, so float64 rounds them; without the Python-int check w2
    # scores 1.0000000000000002 and ranks above w1
    u = [-10261, -9555, 9596, -10348]
    rows = [[s * x for x in u] for s in (9921, 9620, 9955)]
    rows.append([rows[0][0] + 10**6] + rows[0][1:])  # near-duplicate, not parallel
    rows.append([-x for x in rows[1]])
    got = similar_words(_model(rows), "w0", top_n=4)
    assert [(m.word, m.score) for m in got[:2]] == [("w1", 1.0), ("w2", 1.0)]
    assert got[2].word == "w3" and got[2].score < 1.0
    assert got[2].score == pytest.approx(brute_cosine(rows[3], rows[0]), abs=1e-12)
    assert (got[3].word, got[3].score) == ("w4", -1.0)
