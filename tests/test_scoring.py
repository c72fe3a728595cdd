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
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem.context import ContextModel, context_arithmetic, context_similarity, similar_words
from hdsem.core import exact_dots, squared_norms
from hdsem.errors import EmptyContextError, EmptyQueryError
from hdsem.sentences import SentenceIndex, query_sentences
from hdsem.spam import ClassifyResult, Message, SpamFilter, classify_many
from hdsem.textpipe import PipelineConfig, Vocabulary

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


@st.composite
def count_rows(draw, n):
    """n rows of co-occurrence counts over n words, mixing random rows,
    zero rows, duplicates of earlier rows and earlier rows times 2 or 3."""
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "scaled"]))
        if kind in ("duplicate", "scaled") and rows:
            c = 1 if kind == "duplicate" else draw(st.sampled_from([2, 3]))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([0] * n)
        else:
            rows.append(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return rows


def _model(counts, dim, seed=0):
    """A context model over co-occurrence counts, with its rows as Python ints."""
    n = len(counts)
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    signs = [reference_signs(dim, seed, j) for j in range(n)]
    rows = [[sum(c * s[k] for c, s in zip(row, signs)) for k in range(dim)] for row in counts]
    counts = scipy.sparse.csr_matrix(np.array(counts, dtype=np.int64))
    return ContextModel(vocab, 1, counts, np.zeros(n, dtype=np.int64)), rows


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
    n = data.draw(st.integers(2, 10), label="words")
    seed = data.draw(st.integers(0, 3), label="seed")
    model, rows = _model(data.draw(count_rows(n), label="counts"), d, seed)
    plus = [0] + data.draw(st.lists(st.integers(0, n - 1), max_size=1), label="plus")
    minus = data.draw(st.lists(st.integers(0, n - 1), max_size=1), label="minus")
    top_n = data.draw(st.integers(1, n + 1), label="top_n")
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
    n = data.draw(st.integers(1, 10), label="words")
    seed = data.draw(st.integers(0, 3), label="seed")
    model, rows = _model(data.draw(count_rows(n), label="counts"), d, seed)
    a, b = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
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
    # a power-of-two scale changes no cosine's rounding; at 2^26 the int32
    # bound qq * max rr lands on both sides of 2^62 while rr stays in int64
    scale = data.draw(st.sampled_from([1, 2**13, 2**26]), label="scale")
    rows = [[scale * x for x in r] for r in data.draw(rows_around(q), label="rows")]
    n = len(rows)
    index = SentenceIndex(
        vocab,
        PipelineConfig(),
        [f"s{i}" for i in range(n)],
        np.array(rows, dtype=np.int32),
        np.array([_dot(r, r) for r in rows], dtype=np.int64),
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
    "dtype, a, b, out_dtype",
    [
        (np.float64, 20394401, 441650591, np.float64),  # a b = 2^53 - 1
        (np.int64, 20394401, 441650591, np.float64),
        (np.float64, 2**26, 2**27, np.int64),  # a b = 2^53
        (np.int64, 2**26, 2**27, np.int64),
        (np.int32, 1, 2**31 - 1, np.int32),
        (np.int32, 2, 2**30, np.int64),
    ],
)
def test_exact_dots_on_both_sides_of_the_fast_bound(dtype, a, b, out_dtype):
    # rows of norm at most a against a query of norm b: the bound is
    # (a b)^2, 2^106 for float64 products and 2^62 for int32 ones, and
    # row 0, parallel to the query, reaches the dot a b itself
    assert a * b in (2**53 - 1, 2**53, 2**31 - 1, 2**31)
    rows = [[a, 0], [-a, 0], [0, a], [0, 0]]
    q = [b, 0]
    got = exact_dots(np.array(rows, dtype=dtype), np.array([_dot(r, r) for r in rows]), np.array([q]))
    assert got.dtype == out_dtype
    assert [int(x) for x in got[0]] == [_dot(r, q) for r in rows]
    assert int(got[0, 0]) == a * b


@pytest.mark.parametrize(
    "dtype, top, q1, out_dtype, want",
    [
        (np.float64, 2**26, 2**26 - 1, np.float64, 2**53 - 2**26),  # bound below 2^106
        (np.float64, 2**26, 2**26, np.int64, 2**53),  # bound 2^106
        (np.int32, 2**15, 2**15 - 1, np.int32, 2**31 - 2**15),  # bound below 2^62
        (np.int32, 2**15, 2**15, np.int64, 2**31),  # bound 2^62; int32 wraps to -2^31
    ],
)
def test_exact_dots_on_both_sides_of_the_norm_bound(dtype, top, q1, out_dtype, want):
    rows = np.array([[top, top]], dtype=dtype)
    got = exact_dots(rows, squared_norms(rows), np.array([[top, q1]]))
    assert got.dtype == out_dtype
    assert int(got[0, 0]) == want


def test_exact_dots_fallback_is_exact_where_float64_rounds():
    # [2^27, 1] against itself: bound (2^54 + 1)^2 is past 2^106, and the
    # dot 2^54 + 1 is odd, so a float64 product would round it to 2^54
    q = np.array([[2**27, 1]])
    want = 2**54 + 1
    assert int((q.astype(np.float64) @ q.T.astype(np.float64))[0, 0]) != want
    for dtype in (np.int64, np.float64):
        rows = q.astype(dtype)
        got = exact_dots(rows, squared_norms(rows), q)
        assert got.dtype == np.int64 and int(got[0, 0]) == want


def test_exact_dots_raise_past_int64():
    # the queries' squared norms must fit int64, as the rows' do
    rows = np.array([[1, 0]], dtype=np.int64)
    for q in ([2**63 - 1, 0], [2**62, 0]):
        with pytest.raises(ValueError, match="integer squared norms exceed int64 range"):
            exact_dots(rows, squared_norms(rows), np.array([q]))


@pytest.mark.parametrize("q", [[2**62 + 1, 2**62], [-(2**63), 0]])
def test_exact_dots_query_bound_cannot_wrap(q):
    # the query's largest |entry| is taken in Python ints, so neither
    # 2^62 + 1 nor -2^63, whose np.abs stays negative, passes as small
    rows = np.array([[1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="integer squared norms exceed int64 range"):
        exact_dots(rows, squared_norms(rows), np.array([q], dtype=np.int64))


def test_squared_norms_raise_past_int64():
    top = 2**31 - 1  # 2 * top^2 < 2^63 <= 2 * (top + 1)^2
    rows = np.array([[top, -top]], dtype=np.int64)
    assert int(squared_norms(rows)[0]) == 2 * top * top
    with pytest.raises(ValueError, match="integer squared norms exceed int64 range"):
        squared_norms(rows + np.array([1, -1]))


@pytest.mark.parametrize("top", [94906265, 2**27 + 1])
def test_squared_norms_of_float64_rows_on_both_sides_of_2_53(top):
    # at d = 1 the bound is top^2: 94906265^2 = 2^53 - 118490767 sums in
    # float64, while (2^27 + 1)^2 = 2^54 + 2^28 + 1 is past 2^53 and odd,
    # so float64 would round it and the int64 blocks must take it
    rows = np.array([[top], [-top], [3], [0]], dtype=np.float64)
    got = squared_norms(rows)
    assert got.dtype == np.int64
    assert got.tolist() == [top * top, top * top, 9, 0]


@pytest.mark.parametrize("dtype", [np.int32, np.float64])
def test_squared_norms_in_row_blocks(dtype):
    # 2500 rows span three 1024-row blocks, the last one partial
    rows = np.random.default_rng(0).integers(-(2**20), 2**20, size=(2500, 5)).astype(dtype)
    got = squared_norms(rows)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(int(x) ** 2 for x in r) for r in rows]


def test_parallel_context_rows_score_exactly_one_past_2_53():
    # w0..w2 each have the one neighbor u, counted near 1e8 times at dim 4:
    # their rows are parallel with squared norms near 4e16, past 2^53, so
    # float64 rounds them; without the Python-int check w1 scores
    # 0.9999999999999998 and w2 1.0000000000000002, ranked above w1
    c0, c1, c2 = 99189431, 93206375, 91976709
    counts = np.zeros((6, 6), dtype=np.int64)
    counts[[0, 1, 2, 3], 4] = c0, c1, c2, c0
    counts[3, 5] = 10**7  # w3: w0's counts plus one extra neighbor v, not parallel
    vocab = Vocabulary(["w0", "w1", "w2", "w3", "u", "v"], dim=4, seed=0)
    model = ContextModel(vocab, 1, scipy.sparse.csr_matrix(counts), np.zeros(6, dtype=np.int64))
    assert int(model.norms_sq[1]) == 4 * c1 * c1 > 2**53
    rows = model.matrix.astype(np.int64).tolist()
    got = similar_words(model, "w0", top_n=5)
    assert [(m.word, m.score) for m in got[:2]] == [("w1", 1.0), ("w2", 1.0)]
    assert [m.word for m in got] == ["w1", "w2", "w3"]  # u and v have empty contexts
    assert got[2].score < 1.0
    assert got[2].score == pytest.approx(brute_cosine(rows[3], rows[0]), abs=1e-12)
    got = context_arithmetic(model, [], ["w0"], top_n=5)
    assert [(m.word, m.score) for m in got[1:]] == [("w1", -1.0), ("w2", -1.0)]
    assert got[0].word == "w3" and got[0].score == pytest.approx(-brute_cosine(rows[3], rows[0]), abs=1e-12)
