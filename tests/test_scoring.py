"""Tests of the one scoring kernel: core.exact_dots and nearest.

Property tests drive each caller (context ranking, pairwise context
similarity, sentence scoring in both modes, the spam batch at top-1)
and compare it with the pure-Python cosine and top-n oracles, on rows
that include zero rows, duplicates, copies of the query at other scales
and signs, and so exact ties.  Crafted cases sit on both sides of each
exactness bound and are checked against Python ints.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem.context import ContextModel, context_arithmetic, context_similarity, similar_words
from hdsem import core
from hdsem.core import exact_dots, nearest, squared_norms
from hdsem.errors import EmptyContextError, EmptyQueryError
from hdsem.sentences import SentenceIndex, query_sentences
from hdsem.spam import ClassifyResult, Message, SpamFilter, classify_many
from hdsem.textpipe import PipelineConfig, Vocabulary

from oracles import brute_cosine, brute_top, mirror_counts, reference_signs
from recorders import ProductRecorder

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
def symmetric_counts(draw, n):
    """A symmetric n x n count matrix: random counts, then spoke words
    whose one neighbor is a hub, at multipliers 1, 3, 5, 6 or 7, so that
    their rows are parallel at ratios that are not powers of two, and
    words with no counts at all; returns the counts and the spokes."""
    counts = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            counts[i][j] = counts[j][i] = draw(st.sampled_from([0, 0, 1, 2, 3]))
    hub = draw(st.integers(0, n - 1))
    others = [k for k in range(n) if k != hub]
    if not others:  # one word has no spokes
        return counts, []
    spokes = draw(st.lists(st.sampled_from(others), unique=True, min_size=min(2, n - 1), max_size=n - 1))
    empty = draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
    for k in spokes + empty:
        for j in range(n):
            counts[k][j] = counts[j][k] = 0
    for k in spokes:
        if k not in empty:
            counts[k][hub] = counts[hub][k] = draw(st.sampled_from([1, 3, 5, 6, 7]))
    return counts, [k for k in spokes if k not in empty]


def _model(counts, dim, seed=0):
    """A context model over symmetric co-occurrence counts, with its rows as Python ints."""
    n = len(counts)
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    signs = [reference_signs(dim, seed, j) for j in range(n)]
    rows = [[sum(c * s[k] for c, s in zip(row, signs)) for k in range(dim)] for row in counts]
    upper = scipy.sparse.triu(np.array(counts, dtype=np.int64))
    return ContextModel(vocab, 1, upper, squared_norms(vocab.bundle(mirror_counts(upper)))), rows


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
    counts, _ = data.draw(symmetric_counts(n), label="counts")
    model, rows = _model(counts, d, seed)
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
    counts, _ = data.draw(symmetric_counts(n), label="counts")
    model, rows = _model(counts, d, seed)
    a, b = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if not any(rows[a]) or not any(rows[b]):
        with pytest.raises(EmptyContextError):
            context_similarity(model, f"w{a}", f"w{b}")
        return
    assert context_similarity(model, f"w{a}", f"w{b}") == brute_cosine(rows[a], rows[b])


@given(data=st.data(), reload=st.booleans())
@settings(max_examples=150, deadline=None)
def test_factorized_arithmetic_equals_ranking_every_bundled_row(data, reload):
    # context_arithmetic never bundles the rows it ranks; nearest over the
    # oracle's rows must give the same words and the same float scores
    d = data.draw(st.integers(1, 70), label="dim")
    n = data.draw(st.integers(2, 7), label="words")
    seed = data.draw(st.integers(0, 3), label="seed")
    counts, spokes = data.draw(symmetric_counts(n), label="counts")
    model, rows = _model(counts, d, seed)
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            model.save(Path(tmp) / "model.npz")
            model = ContextModel.load(Path(tmp) / "model.npz")
    # a spoke alone ranks the other spokes at exactly 1
    operand = st.sampled_from(spokes) if spokes and data.draw(st.booleans(), label="spoke") else st.integers(0, n - 1)
    plus = data.draw(st.lists(operand, max_size=2), label="plus")
    minus = data.draw(st.lists(st.integers(0, n - 1), min_size=0 if plus else 1, max_size=2), label="minus")
    top_n = data.draw(st.integers(1, n + 3), label="top_n")
    query = [sum(rows[i][k] for i in plus) - sum(rows[i][k] for i in minus) for k in range(d)]
    words = lambda idx: [f"w{i}" for i in idx]  # noqa: E731
    if not any(query):
        with pytest.raises(EmptyQueryError):
            context_arithmetic(model, words(plus), words(minus), top_n=top_n)
        return
    matrix = np.array(rows, dtype=np.int64)
    [ranked] = nearest(matrix, squared_norms(matrix), np.array([query]), top_n + len(plus) + len(minus))
    want = [(i, score) for i, score in ranked if i not in plus + minus][:top_n]
    got = context_arithmetic(model, words(plus), words(minus), top_n=top_n)
    assert [(m.rank, m.word, m.score) for m in got] == [(r + 1, f"w{i}", s) for r, (i, s) in enumerate(want)]


@given(data=st.data(), normalize=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sentence_scoring_matches_oracle(data, normalize):
    d = data.draw(st.integers(2, 8), label="dim")
    vocab = Vocabulary(WORDS, dim=d, seed=data.draw(st.integers(0, 3), label="seed"))
    qwords = data.draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5), label="query")
    q = _signs(vocab, qwords)
    # a power-of-two scale changes no cosine's rounding; rows are stored as
    # build_sentence_index stores them, float32 while no squared norm
    # exceeds 2^48, and at 2^18 the bound qq * max rr lands on both sides
    # of float32's 2^48, while at 2^26 the rows stay int32
    scale = data.draw(st.sampled_from([1, 2**18, 2**26]), label="scale")
    rows = [[scale * x for x in r] for r in data.draw(rows_around(q), label="rows")]
    n = len(rows)
    norms_sq = np.array([_dot(r, r) for r in rows], dtype=np.int64)
    dtype = np.float32 if norms_sq.max() <= 2**48 else np.int32
    index = SentenceIndex(vocab, PipelineConfig(), [f"s{i}" for i in range(n)], np.array(rows, dtype=dtype), norms_sq)
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


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_nearest_in_query_blocks_equals_one_block(data):
    # a block holds BLOCK_BYTES // (8 * rows) queries, patched here to 1, 2
    # or 3; queries and rows mix zero rows, duplicates and parallel copies,
    # and one query scaled by 2^20 puts its block past float32's 2^48
    # bound while the others stay in float32
    d = data.draw(st.integers(1, 6), label="dim")
    seed = data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d), label="seed")
    rows = data.draw(rows_around(seed), label="rows")
    queries = data.draw(rows_around(seed, max_size=8), label="queries")
    if data.draw(st.booleans(), label="big"):
        queries[0] = [2**20 * x for x in queries[0]]
    dtype = data.draw(st.sampled_from([np.float32, np.int32, np.int64]), label="dtype")
    per_block = data.draw(st.integers(1, 3), label="per_block")
    R, Q = np.array(rows, dtype=dtype), np.array(queries, dtype=np.int64)
    rr = squared_norms(R)
    for normalize in (True, False):
        for top_n in range(1, len(rows) + 2):
            whole = core.nearest(R, rr, Q, top_n, normalize)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "BLOCK_BYTES", 8 * len(rows) * per_block)
                assert core.nearest(R, rr, Q, top_n, normalize) == whole


# ------------------------------------------------------------ crafted bounds


@pytest.mark.parametrize(
    "dtype, a, b, tier",
    [
        (np.float64, 20394401, 441650591, np.float64),  # a b = 2^53 - 1
        (np.int64, 20394401, 441650591, np.float64),
        (np.float64, 2**26, 2**27, np.int64),  # a b = 2^53
        (np.int64, 2**26, 2**27, np.int64),
        (np.float32, 1, 2**24 - 1, np.float32),  # a b = 2^24 - 1
        (np.float32, 2, 2**23, np.float64),  # a b = 2^24
    ],
)
def test_exact_dots_on_both_sides_of_the_fast_bound(dtype, a, b, tier):
    # rows of norm at most a against a query of norm b: the bound is
    # (a b)^2, 2^106 for float64 products and 2^48 for float32 ones, and
    # row 0, parallel to the query, reaches the dot a b itself
    assert a * b in (2**53 - 1, 2**53, 2**24 - 1, 2**24)
    rows = [[a, 0], [-a, 0], [0, a], [0, 0]]
    q = [b, 0]
    ProductRecorder.dtypes.clear()
    R = np.array(rows, dtype=dtype).view(ProductRecorder)
    got = exact_dots(R, np.array([_dot(r, r) for r in rows]), np.array([q]))
    assert ProductRecorder.dtypes == [np.dtype(tier)]
    assert got.dtype == (np.int64 if tier is np.int64 else np.float64)
    assert [int(x) for x in got[0]] == [_dot(r, q) for r in rows]
    assert int(got[0, 0]) == a * b


@pytest.mark.parametrize(
    "dtype, top, q1, tier, want",
    [
        (np.float64, 2**26, 2**26 - 1, np.float64, 2**53 - 2**26),  # bound below 2^106
        (np.float64, 2**26, 2**26, np.int64, 2**53),  # bound 2^106
        # bound 2^23 (2^22 + q1^2) crosses 2^48 between q1 = 5418 and 5419
        (np.float32, 2**11, 5418, np.float32, 2**22 + 2**11 * 5418),
        (np.float32, 2**11, 5419, np.float64, 2**22 + 2**11 * 5419),
    ],
)
def test_exact_dots_on_both_sides_of_the_norm_bound(dtype, top, q1, tier, want):
    # row [top, top] against the query [top, q1]
    rows = np.array([[top, top]], dtype=dtype)
    ProductRecorder.dtypes.clear()
    got = exact_dots(rows.view(ProductRecorder), squared_norms(rows), np.array([[top, q1]]))
    assert ProductRecorder.dtypes == [np.dtype(tier)]
    assert got.dtype == (np.int64 if tier is np.int64 else np.float64)
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


def test_exact_dots_fallback_is_exact_where_float32_rounds():
    # [2^12, 1] against itself: bound (2^24 + 1)^2 is past 2^48, and the
    # dot 2^24 + 1 is odd, so a float32 product would round it to 2^24
    q = np.array([[2**12, 1]])
    want = 2**24 + 1
    rows = q.astype(np.float32)
    assert int((rows @ rows.T)[0, 0]) != want
    got = exact_dots(rows, squared_norms(rows), q)
    assert got.dtype == np.float64 and int(got[0, 0]) == want


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
def test_squared_norms_in_row_blocks(monkeypatch, dtype):
    # squared_norms reads no budget: einsum casts the rows in buffered
    # chunks of its own (numpy.getbufsize() elements, 8192 by default),
    # so 2500 rows of 5 take more than one, and a budget of 1024 float64
    # rows of 5 entries must change nothing
    monkeypatch.setattr(core, "BLOCK_BYTES", 1024 * 5 * 8)
    rows = np.random.default_rng(0).integers(-(2**20), 2**20, size=(2500, 5)).astype(dtype)
    got = squared_norms(rows)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(int(x) ** 2 for x in r) for r in rows]


@pytest.mark.parametrize("top, tier", [(2**20, np.float64), (2**30, np.int64)])
def test_exact_dots_in_row_blocks(monkeypatch, top, tier):
    # float32 rows below 2^20 put the bound past 2^48 but below 2^106, so
    # each block converts to float64; int64 rows near 2^30 put it past
    # 2^106, into int64.  As above, 2500 rows span three blocks of 1024,
    # the last one partial
    monkeypatch.setattr(core, "BLOCK_BYTES", 1024 * 5 * 8)
    rng = np.random.default_rng(1)
    rows = rng.integers(-top, top, size=(2500, 5))
    queries = rng.integers(-top, top, size=(3, 5))
    stored = rows.astype(np.float32 if tier is np.float64 else np.int64)
    ProductRecorder.dtypes.clear()
    got = exact_dots(stored.view(ProductRecorder), squared_norms(rows), queries)
    assert ProductRecorder.dtypes == [np.dtype(tier)] * 3
    assert got.dtype == tier
    assert [[int(x) for x in row] for row in got] == [[_dot(r, q) for r in rows.tolist()] for q in queries.tolist()]


@pytest.mark.parametrize(
    "stored, top, q_top, tier",
    [(np.float32, 6, 100, np.float32), (np.int32, 2**20, 100, np.float64), (np.int64, 2**30, 2**22, np.int64)],
)
def test_queries_score_alike_in_every_dtype(stored, top, q_top, tier):
    # the same integer queries as int8, int32, int64 and float32, each where
    # it holds them, give the same dots and cosine rankings, scored in the
    # one tier; row 0 and query 0 sit at the top of their ranges, row 1 is
    # zero and row 2 a copy of query 1
    rng = np.random.default_rng(3)
    rows = rng.integers(-top, top, size=(6, 5))
    queries = rng.integers(-q_top, q_top, size=(3, 5))
    rows[0], queries[0], rows[1], rows[2] = top - 1, q_top - 1, 0, queries[1]
    R, norms_sq = rows.astype(stored).view(ProductRecorder), squared_norms(rows)
    dtypes = [dt for dt in (np.int8, np.int32, np.int64, np.float32) if np.array_equal(queries.astype(dt), queries)]
    assert len(dtypes) >= 3
    want = [[_dot(r, q) for r in rows.tolist()] for q in queries.tolist()]
    ProductRecorder.dtypes.clear()
    got = [(exact_dots(R, norms_sq, q), core.nearest(R, norms_sq, q, len(rows))) for q in map(queries.astype, dtypes)]
    assert ProductRecorder.dtypes == [np.dtype(tier)] * 2 * len(dtypes)
    for dots, ranked in got:
        assert [[int(x) for x in row] for row in dots] == want
        assert ranked == got[0][1]
    scores = [dict(ranked) for ranked in got[0][1]]
    assert scores[1][2] == 1.0 and all(1 not in row for row in scores)


def test_parallel_context_rows_score_exactly_one_past_2_53():
    # w0..w2 each have the one neighbor u, counted near 1e8 times at dim 4:
    # their rows are parallel with squared norms near 4e16, past 2^53, so
    # float64 rounds them; without the Python-int check w1 scores
    # 0.9999999999999998 and w2 1.0000000000000002, ranked above w1
    c0, c1, c2 = 99189431, 93206375, 91976709
    upper = np.zeros((6, 6), dtype=np.int64)
    upper[[0, 1, 2, 3], 4] = c0, c1, c2, c0
    upper[3, 5] = 10**7  # w3: w0's counts plus one extra neighbor v, not parallel
    vocab = Vocabulary(["w0", "w1", "w2", "w3", "u", "v"], dim=4, seed=0)
    model = ContextModel(vocab, 1, scipy.sparse.csr_matrix(upper), squared_norms(vocab.bundle(mirror_counts(upper))))
    np.testing.assert_array_equal(mirror_counts(model.upper).toarray(), upper + upper.T)
    matrix = vocab.bundle(mirror_counts(model.upper))
    assert int(squared_norms(matrix)[1]) == 4 * c1 * c1 > 2**53
    rows = matrix.astype(np.int64).tolist()
    # the counts are symmetric, so u and v have contexts too, none parallel to w0's
    others = {w: brute_cosine(rows[i], rows[0]) for i, w in enumerate(vocab.words) if w in ("w3", "u", "v")}
    assert all(-1 < score < 1 for score in others.values())
    got = similar_words(model, "w0", top_n=5)
    assert [(m.word, m.score) for m in got[:2]] == [("w1", 1.0), ("w2", 1.0)]
    assert [m.word for m in got[2:]] == sorted(others, key=others.get, reverse=True)
    assert [m.score for m in got[2:]] == pytest.approx(sorted(others.values(), reverse=True), abs=1e-12)
    got = context_arithmetic(model, [], ["w0"], top_n=5)
    assert [(m.word, m.score) for m in got[3:]] == [("w1", -1.0), ("w2", -1.0)]
    assert [m.word for m in got[:3]] == sorted(others, key=others.get)
    assert [m.score for m in got[:3]] == pytest.approx(sorted(-score for score in others.values())[::-1], abs=1e-12)
