"""Context model tests: window accumulation, membership in rows, ranking, persistence.

The build algorithm is checked exhaustively against a dictionary-counting
oracle on small random streams, then statistical behavior is checked at
realistic dimension with pinned seeds.
"""

import json
import random
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem.context import (
    ContextModel,
    ContextStatsRow,
    WordMatch,
    build_context_model,
    context_arithmetic,
    context_similarity,
    context_stats,
    similar_words,
)
from hdsem.core import exact_dots, generate_packed, packed_signs, squared_norms
from hdsem.errors import (
    CorpusFormatError,
    EmptyContextError,
    EmptyQueryError,
    UnknownWordError,
)
from hdsem.textpipe import Vocabulary, build_vocabulary, tokenize

from oracles import (
    brute_context_counts,
    brute_context_stats,
    brute_cosine,
    brute_membership,
    brute_top,
    mirror_counts,
    reference_signs,
)

# exact binomial value: probe bundled once among 140 context pairs at d=1000,
# P(score > 1/2) = P(Binom(139000, 1/2) >= 69251)
P_CONTAINS_140_D1000 = 0.9096206874096728


def make_model(text, dim, seed, half_window):
    toks = tokenize(text)
    vocab = build_vocabulary(toks, dim=dim, seed=seed)
    return build_context_model(toks, vocab, half_window=half_window)


def triangle_model(vocab, upper):
    """A half-window-1 model of this upper triangle, with norms bundled from its mirror."""
    return ContextModel(vocab, 1, upper, squared_norms(vocab.bundle(mirror_counts(upper))))


def context_rows(model):
    """Every word's context row, as the queries bundle them."""
    return model.vocabulary.bundle(mirror_counts(model.upper))


def context_totals(model):
    """Per word, the (occurrence, neighbor) pairs its row sums, int64."""
    return np.asarray(mirror_counts(model.upper).sum(axis=1, dtype=np.int64)).ravel()


def context_distinct(model):
    """Per word, its distinct neighbor words."""
    return np.diff(mirror_counts(model.upper).indptr)


def word_signs(vocab, word):
    """The word's sign vector from the pure-Python generator, int64."""
    return np.array(reference_signs(vocab.dim, vocab.seed, vocab.index_of(word)), dtype=np.int64)


def row_membership(model, word, probe):
    """Scaled dot of the probe word's signs with word's context row."""
    vocab = model.vocabulary
    row = context_rows(model)[vocab.index_of(word)].astype(np.int64).tolist()
    return brute_membership(row, reference_signs(vocab.dim, vocab.seed, vocab.index_of(probe)))


# ------------------------------------------------------------------- build


def test_build_tiny_hand_case():
    model = make_model("a b c", dim=64, seed=3, half_window=2)
    v = {w: word_signs(model.vocabulary, w) for w in "abc"}
    np.testing.assert_array_equal(context_rows(model), [v["b"] + v["c"], v["a"] + v["c"], v["a"] + v["b"]])
    np.testing.assert_array_equal(context_totals(model), [2, 2, 2])
    np.testing.assert_array_equal(context_distinct(model), [2, 2, 2])


def test_build_repeated_word_neighbors_count():
    # same word at a neighboring position is a genuine neighbor
    model = make_model("a a a", dim=32, seed=0, half_window=1)
    v = word_signs(model.vocabulary, "a")
    np.testing.assert_array_equal(context_rows(model), [4 * v])
    assert context_totals(model)[0] == 4
    assert context_distinct(model)[0] == 1


@pytest.mark.parametrize("trial", range(8))
def test_build_matches_counting_oracle(trial):
    rng = random.Random(1000 + trial)
    names = [f"w{i}" for i in range(rng.randint(2, 12))]
    stream = [rng.choice(names) for _ in range(rng.randint(2, 200))]
    half_window = rng.randint(1, 5)
    dim = 64
    vocab = build_vocabulary(stream, dim=dim, seed=trial)
    model = build_context_model(stream, vocab, half_window=half_window)
    expected = brute_context_counts(stream, half_window)
    signs = {w: word_signs(vocab, w) for w in vocab.words}
    rows, totals, distinct = context_rows(model), context_totals(model), context_distinct(model)
    for w in vocab.words:
        ctr = expected.get(w, {})
        row = np.zeros(dim, dtype=np.int64)
        for other, c in ctr.items():
            row += c * signs[other]
        i = vocab.index_of(w)
        np.testing.assert_array_equal(rows[i], row)
        assert totals[i] == sum(ctr.values())
        assert distinct[i] == len(ctr)


def test_build_mass_conservation():
    rng = random.Random(7)
    stream = [rng.choice("abcde") for _ in range(150)]
    L = 4
    vocab = build_vocabulary(stream, dim=16, seed=0)
    model = build_context_model(stream, vocab, half_window=L)
    m = len(stream)
    expected_pairs = sum(min(p, L) + min(m - 1 - p, L) for p in range(m))
    assert int(context_totals(model).sum()) == expected_pairs


def test_build_parity_and_magnitude_invariants():
    model = make_model("the quick fox jumps over the lazy dog the fox", 48, 5, 3)
    totals, matrix = context_totals(model)[:, None], context_rows(model)
    assert np.all((matrix - totals) % 2 == 0)
    assert np.all(np.abs(matrix) <= totals)


def test_build_validation():
    vocab = Vocabulary(["a"], dim=8, seed=0)
    with pytest.raises(ValueError):
        build_context_model(["a"], vocab, half_window=0)
    # the first unknown word is named
    with pytest.raises(UnknownWordError, match=r"^word 'b' is not in the vocabulary$"):
        build_context_model(["a", "b", "a", "c"], vocab, half_window=1)


def test_build_single_token_empty_context():
    vocab = Vocabulary(["a"], dim=32, seed=0)
    model = build_context_model(["a"], vocab, half_window=2)
    matrix = context_rows(model)
    np.testing.assert_array_equal(matrix, np.zeros((1, 32), dtype=np.int64))
    assert context_totals(model)[0] == 0
    assert exact_dots(matrix, squared_norms(matrix), vocab.sign_matrix(slice(None))).tolist() == [[0]]
    with pytest.raises(EmptyContextError):
        context_similarity(model, "a", "a")


def test_build_empty_stream():
    vocab = Vocabulary(["a"], dim=16, seed=0)
    model = build_context_model([], vocab, half_window=1)
    assert context_totals(model)[0] == 0


def _oracle_counts(stream, vocab, half_window):
    expected = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    for w, ctr in brute_context_counts(stream, half_window).items():
        for other, c in ctr.items():
            expected[vocab.index_of(w), vocab.index_of(other)] = c
    return expected


@pytest.mark.parametrize("length", range(9))
def test_build_short_streams_match_counting_oracle(length):
    # half windows at, and well past, the stream length
    rng = random.Random(f"short:{length}")
    stream = [rng.choice("abc") for _ in range(length)]
    vocab = Vocabulary(["a", "b", "c"], dim=16, seed=0)
    for half_window in range(1, 11):
        counts = mirror_counts(build_context_model(stream, vocab, half_window=half_window).upper)
        np.testing.assert_array_equal(counts.toarray(), _oracle_counts(stream, vocab, half_window))
        assert counts.has_canonical_format
        assert (counts != counts.T).nnz == 0
        # the dtypes a saved model stores
        assert counts.data.dtype == np.int64
        assert counts.indices.dtype == np.int32 and counts.indptr.dtype == np.int32


def test_build_window_past_the_stream_stays_small():
    # pair offsets stop at the stream's end: a million-token half window
    # over three tokens must not loop, or allocate, a million times
    stream = ["a", "b", "a"]
    vocab = Vocabulary(["a", "b"], dim=16, seed=0)
    tracemalloc.start()
    try:
        model = build_context_model(stream, vocab, half_window=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(mirror_counts(model.upper).toarray(), _oracle_counts(stream, vocab, 10**6))
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------- contains


def test_contains_direct_neighbors():
    model = make_model("x c y z w", dim=10_000, seed=11, half_window=1)
    assert row_membership(model, "c", "x") > 0.5
    assert row_membership(model, "c", "y") > 0.5
    assert not row_membership(model, "c", "w") > 0.5


def test_contains_accepts_hypervector_probe():
    # a raw sign vector probes a context row as its word does
    model = make_model("x c y", dim=256, seed=2, half_window=1)
    c = [model.vocabulary.index_of("c")]
    row = context_rows(model)[c]
    norms_sq = squared_norms(row)
    probe = packed_signs(model.vocabulary.packed()[[model.vocabulary.index_of("x")]], 256)
    assert exact_dots(row, norms_sq, probe)[0, 0] / 256 == row_membership(model, "c", "x")
    with pytest.raises(ValueError):
        exact_dots(row, norms_sq, packed_signs(generate_packed(128, 2, [0]), 128))
    with pytest.raises(UnknownWordError):
        row_membership(model, "c", "zz")


def test_contains_probability_at_140_pairs():
    # one center occurrence flanked by 70 distinct fillers each side,
    # half_window 70: the probe appears once among 140 bundled vectors
    builds, per = 40, 140
    hits = 0
    fillers = [f"f{i}" for i in range(70)] + [f"g{i}" for i in range(70)]
    stream = fillers[:70] + ["c"] + fillers[70:]
    for t in range(builds):
        vocab = build_vocabulary(stream, dim=1000, seed=5000 + t)
        model = build_context_model(stream, vocab, half_window=70)
        assert context_totals(model)[vocab.index_of("c")] == 140
        row = context_rows(model)[[vocab.index_of("c")]]
        scores = exact_dots(row, squared_norms(row), vocab.sign_matrix(slice(None)))[:, 0] / 1000
        hits += sum(scores[vocab.index_of(f)] > 0.5 for f in fillers)
    rate = hits / (builds * per)
    assert abs(rate - P_CONTAINS_140_D1000) < 0.03


# -------------------------------------------------------------- similarity


def test_similarity_identical_contexts_exactly_one():
    # m and k both occur exactly once between u and v
    model = make_model("u m v u k v", dim=512, seed=9, half_window=1)
    assert context_similarity(model, "m", "k") == 1.0


def test_similarity_symmetric_and_matches_oracle():
    model = make_model("u m v u k v w m", dim=64, seed=4, half_window=2)
    rows = context_rows(model).astype(np.int64).tolist()
    for a, b in [("m", "k"), ("u", "v"), ("m", "w")]:
        s = context_similarity(model, a, b)
        assert s == context_similarity(model, b, a)
        expected = brute_cosine(rows[model.vocabulary.index_of(a)], rows[model.vocabulary.index_of(b)])
        assert s == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------- ranking


def test_similar_words_shared_context_wins():
    # a sits between x and y exactly where c sits next to x: the word
    # with the overlapping context ranks first
    model = make_model("c x a y b", dim=1000, seed=42, half_window=1)
    top = similar_words(model, "c", top_n=1)
    assert top[0].word == "a"
    assert top[0].rank == 1
    assert top[0].score > 0.5


def test_similar_words_equals_plus_only_arithmetic():
    model = make_model("c x a y b c y", dim=128, seed=8, half_window=2)
    assert similar_words(model, "c", top_n=4) == context_arithmetic(model, ["c"], (), top_n=4)


def test_arithmetic_matches_brute_ranking():
    rng = random.Random(99)
    names = [f"w{i}" for i in range(12)]
    stream = [rng.choice(names) for _ in range(60)]
    vocab = build_vocabulary(stream, dim=64, seed=17)
    model = build_context_model(stream, vocab, half_window=2)
    plus, minus = ["w1", "w3"], ["w2"]
    got = context_arithmetic(model, plus, minus, top_n=6)
    matrix = context_rows(model)

    query = [0] * 64
    for w in plus:
        for i, x in enumerate(matrix[vocab.index_of(w)]):
            query[i] += int(x)
    for w in minus:
        for i, x in enumerate(matrix[vocab.index_of(w)]):
            query[i] -= int(x)
    qq = sum(x * x for x in query)
    scored = []
    operands = set(plus) | set(minus)
    for idx, w in enumerate(vocab.words):
        if w in operands:
            continue
        row = [int(x) for x in matrix[idx]]
        rr = sum(x * x for x in row)
        if rr == 0:
            continue
        num = sum(x * y for x, y in zip(row, query))
        scored.append((-num / (rr * qq) ** 0.5, idx, w))
    scored.sort()
    expected = [(w, -s) for s, _, w in scored[:6]]
    assert [(m.word, pytest.approx(m.score, abs=1e-9)) for m in got] == expected
    assert [m.rank for m in got] == list(range(1, len(got) + 1))


def _bound_model(m):
    """Words a and z share m counts; a hub shares 2^30 - 1 counts with x
    and 2^30 - 2 with y, whose signs at d = 8 and seed 111 are opposite,
    so the hub's row total is 2^31 - 3 but its row is x's signs alone."""
    vocab = Vocabulary(["a", "z", "hub", "x", "y"], dim=8, seed=111)
    signs = [reference_signs(8, 111, i) for i in range(5)]
    assert signs[3] == [-v for v in signs[4]]
    c1, c2 = 2**30 - 1, 2**30 - 2
    counts = np.zeros((5, 5), dtype=np.int64)
    counts[0, 1] = counts[1, 0] = m
    counts[2, 3] = counts[3, 2] = c1
    counts[2, 4] = counts[4, 2] = c2
    rows = [[sum(int(c) * s[k] for c, s in zip(row, signs)) for k in range(8)] for row in counts]
    assert rows[2] == signs[3]
    return triangle_model(vocab, scipy.sparse.triu(counts)), rows


def test_arithmetic_int64_dot_bound():
    # a's query is m times z's signs, so sum(|q|) = 8m, and the hub's row
    # total times 8m reaches 2^63 from m = 2^29 + 1 on, while every norm
    # still fits int64
    model, rows = _bound_model(2**29)
    assert (2**31 - 3) * 8 * 2**29 < 2**63 <= (2**31 - 3) * 8 * (2**29 + 1)
    got = context_arithmetic(model, ["a"], top_n=4)
    query = rows[0]
    scores = {w: brute_cosine(rows[i], query) for i, w in enumerate(model.vocabulary.words) if i}
    assert [m.word for m in got] == sorted(scores, key=lambda w: (-scores[w], model.vocabulary.index_of(w)))
    assert [m.score for m in got] == pytest.approx([scores[m.word] for m in got], abs=1e-12)
    model, _ = _bound_model(2**29 + 1)
    with pytest.raises(ValueError, match="context dots exceed int64 range"):
        context_arithmetic(model, ["a"], top_n=4)


def test_ranking_excludes_empty_contexts_and_operands():
    vocab = Vocabulary(["a", "b", "z"], dim=64, seed=0)
    model = build_context_model(["a", "b"], vocab, half_window=1)
    got = similar_words(model, "a", top_n=5)
    assert [m.word for m in got] == ["b"]


def test_arithmetic_validation():
    model = make_model("a b c", dim=32, seed=0, half_window=1)
    with pytest.raises(ValueError):
        context_arithmetic(model, [], (), top_n=3)
    with pytest.raises(ValueError):
        similar_words(model, "a", top_n=0)
    with pytest.raises(UnknownWordError):
        context_arithmetic(model, ["zz"], (), top_n=3)
    with pytest.raises(EmptyQueryError):
        context_arithmetic(model, ["a"], ["a"], top_n=3)


# ------------------------------------------------------------------- stats


def test_context_stats_rows_and_order():
    model = make_model("a b a c", dim=16, seed=0, half_window=1)
    rows = context_stats(model)
    assert rows == [
        ContextStatsRow("a", 3, 2),
        ContextStatsRow("b", 2, 1),
        ContextStatsRow("c", 1, 1),
    ]


def test_context_stats_tie_goes_to_first_appearance():
    model = make_model("b a b", dim=16, seed=0, half_window=1)
    rows = context_stats(model)
    assert [r.word for r in rows] == ["b", "a"]


# ------------------------------------------------- queries on the triangle


@st.composite
def full_counts(draw, n):
    """Symmetric n x n counts as lists: random counts with diagonal ones,
    then spoke words whose one neighbor is a hub, at multipliers 1, 3 and
    6, so that their rows are parallel, and words with no counts at all.
    The last word counts nothing on the diagonal, so its row of the
    triangle is empty and its counts lie in its column alone, as do a
    spoke's above the hub."""
    counts = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            counts[i][j] = counts[j][i] = draw(st.sampled_from([0, 0, 1, 2, 5]))
    counts[-1][-1] = 0
    hub = draw(st.integers(0, n - 1))
    for k in range(n):
        kind = draw(st.sampled_from(["random", "spoke", "empty"]))
        if k == hub or kind == "random":
            continue
        for j in range(n):
            counts[k][j] = counts[j][k] = 0
        if kind == "spoke":
            counts[k][hub] = counts[hub][k] = draw(st.sampled_from([1, 3, 6]))
    return counts


def _brute_ranking(words, rows, plus, minus, top_n):
    """context_arithmetic's matches by brute force over full rows, None for a zero query."""
    query = [sum(rows[i][k] for i in plus) - sum(rows[i][k] for i in minus) for k in range(len(rows[0]))]
    if not any(query):
        return None
    scores = [None if i in plus + minus or not any(r) else brute_cosine(r, query) for i, r in enumerate(rows)]
    return [WordMatch(r + 1, words[i], scores[i]) for r, i in enumerate(brute_top(scores, top_n))]


@given(data=st.data(), reload=st.booleans())
@settings(max_examples=150, deadline=None)
def test_triangle_queries_match_the_full_counts(data, reload):
    # every query reads the triangle alone; the oracles read the full counts
    d = data.draw(st.integers(1, 40), label="dim")
    n = data.draw(st.integers(1, 8), label="words")
    seed = data.draw(st.integers(0, 3), label="seed")
    counts = data.draw(full_counts(n), label="counts")
    words = [f"w{i}" for i in range(n)]
    signs = [reference_signs(d, seed, j) for j in range(n)]
    rows = [[sum(c * s[k] for c, s in zip(row, signs)) for k in range(d)] for row in counts]
    model = triangle_model(Vocabulary(words, dim=d, seed=seed), scipy.sparse.csr_matrix(np.triu(counts)))
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            model.save(Path(tmp) / "model.npz")
            model = ContextModel.load(Path(tmp) / "model.npz")
    assert model.totals.tolist() == [sum(row) for row in counts]
    assert [astuple(row) for row in context_stats(model)] == brute_context_stats(words, counts)
    operand = st.integers(0, n - 1)
    plus = data.draw(st.lists(operand, max_size=3), label="plus")
    minus = data.draw(st.lists(operand, min_size=0 if plus else 1, max_size=2), label="minus")
    top_n = data.draw(st.integers(1, n + 2), label="top_n")
    for args, call in (
        ((plus[:1], []), lambda: similar_words(model, words[plus[0]], top_n=top_n)),
        ((plus, minus), lambda: context_arithmetic(model, [words[i] for i in plus], [words[i] for i in minus], top_n)),
    ):
        if not args[0] and not args[1]:
            continue
        want = _brute_ranking(words, rows, *args, top_n)
        if want is None:
            with pytest.raises(EmptyQueryError):
                call()
        else:
            assert call() == want
    a, b = data.draw(st.tuples(operand, operand), label="pair")
    if not any(rows[a]) or not any(rows[b]):
        with pytest.raises(EmptyContextError):
            context_similarity(model, words[a], words[b])
    else:
        assert context_similarity(model, words[a], words[b]) == brute_cosine(rows[a], rows[b])


# ------------------------------------------------------------- persistence


def _saved_members(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


ROUND_TRIP_STREAMS = {
    "sentence": "the quick brown fox jumps over the lazy dog",
    # a word next to itself counts twice on the diagonal of the triangle
    "repeats": "a a a b",
    "one-token": "a",
    "empty": "",
}


@pytest.mark.parametrize("half_window", [1, 2, 3, 4])
@pytest.mark.parametrize("text", ROUND_TRIP_STREAMS.values(), ids=ROUND_TRIP_STREAMS.keys())
def test_model_save_load_round_trip(tmp_path, text, half_window):
    model = make_model(text, 128, 21, half_window)
    path = tmp_path / "model.npz"
    model.save(path)
    # format 4 stores the vocabulary, the counts' upper triangle and one
    # derived array, the rows' squared norms
    members = _saved_members(path)
    assert sorted(members) == ["data", "indices", "indptr", "meta", "norms_sq"]
    assert json.loads(bytes(members["meta"]).decode())["format_version"] == 4
    upper = scipy.sparse.csr_matrix((members["data"], members["indices"], members["indptr"]), shape=model.upper.shape)
    np.testing.assert_array_equal(upper.toarray(), np.triu(mirror_counts(model.upper).toarray()))
    np.testing.assert_array_equal(members["norms_sq"], squared_norms(context_rows(model)))
    loaded = ContextModel.load(path)
    for derive in (context_rows, lambda m: squared_norms(context_rows(m)), context_totals, context_distinct):
        np.testing.assert_array_equal(derive(loaded), derive(model))
    counts, loaded_counts = mirror_counts(model.upper), mirror_counts(loaded.upper)
    np.testing.assert_array_equal(loaded_counts.toarray(), counts.toarray())
    for attr in ("indptr", "indices", "data"):
        assert getattr(loaded_counts, attr).dtype == getattr(counts, attr).dtype
    np.testing.assert_array_equal(loaded.norms_sq, model.norms_sq)
    assert loaded.vocabulary.words == model.vocabulary.words
    assert loaded.vocabulary.dim == model.vocabulary.dim
    assert loaded.vocabulary.seed == model.vocabulary.seed
    assert loaded.vocabulary.lemmatizer == model.vocabulary.lemmatizer
    assert loaded.vocabulary.stopword_digest == model.vocabulary.stopword_digest
    assert loaded.half_window == model.half_window
    assert context_stats(loaded) == context_stats(model)
    for word, norm_sq in zip(model.vocabulary.words, model.norms_sq):
        if norm_sq:
            assert similar_words(loaded, word, top_n=3) == similar_words(model, word, top_n=3)
    # the loaded model saves the same arrays again
    loaded.save(tmp_path / "again.npz")
    again = _saved_members(tmp_path / "again.npz")
    assert sorted(again) == sorted(members)
    for name, array in members.items():
        assert (again[name].dtype, again[name].tobytes()) == (array.dtype, array.tobytes()), name


def test_wide_format_4_file_loads_like_its_narrow_rewrite(tmp_path):
    # format-4 files once held int64 counts and int32 indices; the narrow
    # rewrite holds 300 words' indices and counts past 255 in uint16
    rng = random.Random(5)
    stream = [f"w{i}" for i in range(299)] + [rng.choice(["the", f"w{rng.randrange(299)}"]) for _ in range(3000)]
    vocab = build_vocabulary(stream, dim=64, seed=9)
    assert len(vocab) == 300
    model = build_context_model(stream, vocab, half_window=3)
    narrow, wide = tmp_path / "narrow.npz", tmp_path / "wide.npz"
    model.save(narrow)
    members = _saved_members(narrow)
    assert (members["indices"].dtype, members["data"].dtype) == (np.uint16, np.uint16)
    assert members["data"].max() > 255
    np.savez_compressed(
        wide, **{**members, "indices": members["indices"].astype(np.int32), "data": members["data"].astype(np.int64)}
    )
    loaded = [ContextModel.load(path) for path in (wide, narrow)]
    for got in loaded:
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got.upper, attr), getattr(model.upper, attr)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), attr
        np.testing.assert_array_equal(got.totals, model.totals)
        np.testing.assert_array_equal(got.diag, model.diag)
        np.testing.assert_array_equal(got.norms_sq, model.norms_sq)
        assert context_stats(got) == context_stats(model)
        for word in vocab.words[:40]:
            assert similar_words(got, word, top_n=5) == similar_words(model, word, top_n=5)
        assert context_arithmetic(got, ["the", "w1"], ["w2"]) == context_arithmetic(model, ["the", "w1"], ["w2"])
        # either file saves as the narrow one again
        got.save(tmp_path / "again.npz")
        again = _saved_members(tmp_path / "again.npz")
        for name, array in members.items():
            assert (again[name].dtype, again[name].tobytes()) == (array.dtype, array.tobytes()), name


def test_model_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        ContextModel.load(tmp_path / "nope.npz")


def test_model_load_garbage(tmp_path):
    p = tmp_path / "bad.npz"
    p.write_bytes(b"this is not an npz archive")
    with pytest.raises(CorpusFormatError):
        ContextModel.load(p)


def test_model_load_missing_arrays(tmp_path):
    p = tmp_path / "partial.npz"
    np.savez(p, matrix=np.zeros((1, 8), dtype=np.int64))
    with pytest.raises(CorpusFormatError):
        ContextModel.load(p)
    make_model("a b", dim=16, seed=0, half_window=1).save(p)
    saved = _saved_members(p)
    for name in ("data", "norms_sq"):
        members = dict(saved)
        del members[name]
        np.savez(p, **members)
        with pytest.raises(CorpusFormatError, match=rf"missing arrays \['{name}'\]"):
            ContextModel.load(p)


def test_model_load_bad_version(tmp_path):
    model = make_model("a b", dim=16, seed=0, half_window=1)
    p = tmp_path / "model.npz"
    model.save(p)
    members = _saved_members(p)
    meta = json.loads(bytes(members["meta"]).decode())
    meta["format_version"] = 99
    members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError):
        ContextModel.load(p)


MALFORMED = {
    "float-data": ("data", [2.0, 1.0, 1.0]),
    "float-indices": ("indices", [1.7, 2.0, 2.0]),
    "float-indptr": ("indptr", [0.0, 2.0, 3.0, 3.0]),
    "zero-count": ("data", [2, 0, 1]),
    "negative-count": ("data", [2, -1, 1]),
    "index-out-of-range": ("indices", [1, 3, 2]),
    "duplicate-index": ("indices", [1, 1, 2]),
    "unsorted-indices": ("indices", [2, 1, 2]),
    "decreasing-indptr": ("indptr", [0, 3, 2, 3]),
    "short-indptr": ("indptr", [0, 2, 3]),
    "long-indptr": ("indptr", [0, 2, 3, 3, 3]),
}


@pytest.mark.parametrize("member, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_model_load_rejects_malformed_counts(tmp_path, member, value):
    p = tmp_path / "model.npz"
    make_model("a b c a b", dim=16, seed=0, half_window=1).save(p)
    members = _saved_members(p)
    # the upper triangle of a: b twice, c once; b: a twice, c once; c: a once, b once
    assert members["indptr"].tolist() == [0, 2, 3, 3]
    assert members["indices"].tolist() == [1, 2, 2]
    assert members["data"].tolist() == [2, 1, 1]
    members[member] = np.array(value)
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError):
        ContextModel.load(p)


def test_model_load_rejects_counts_below_the_diagonal(tmp_path):
    p = tmp_path / "model.npz"
    make_model("a b c a b", dim=16, seed=0, half_window=1).save(p)
    members = _saved_members(p)
    members["indices"] = np.array([1, 2, 0])  # b's count of c moved to a
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError, match="counts below the diagonal"):
        ContextModel.load(p)


def test_model_load_rejects_triangle_counts_past_the_bundle_kernel(tmp_path):
    # the mirrored counts reach the bundle kernel's range check
    p = tmp_path / "model.npz"
    make_model("a b c a b", dim=16, seed=0, half_window=1).save(p)
    members = _saved_members(p)
    members["indices"] = np.array([1, 2, 1])
    members["data"] = np.array([2, 1, 2**62])
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError, match="int32 range"):
        ContextModel.load(p)


def _norms_model():
    """Words a, b, c over the stream "a b c a b" at dim 16, and z, which
    never occurs: row totals 3, 3, 2 and 0."""
    vocab = Vocabulary(["a", "b", "c", "z"], dim=16, seed=0)
    return build_context_model(["a", "b", "c", "a", "b"], vocab, half_window=1)


BAD_NORMS = {
    "float": lambda n: n.astype(np.float64),
    "int32": lambda n: n.astype(np.int32),
    "short": lambda n: n[:-1],
    "two-dimensional": lambda n: n[None],
    "negative": lambda n: np.where(np.arange(4) == 2, -n, n),
    "empty-row-not-zero": lambda n: n + [0, 0, 0, 2],
    # c's total of 2 bounds its norm by 16 * 2^2
    "above-d-total-squared": lambda n: np.where(np.arange(4) == 2, 66, n),
    "odd-parity": lambda n: n + [1, 0, 0, 0],
    # a's total is odd, so every entry of its row is odd
    "odd-total-below-d": lambda n: np.where(np.arange(4) == 0, 14, n),
}


@pytest.mark.parametrize("corrupt", BAD_NORMS.values(), ids=BAD_NORMS.keys())
def test_model_load_rejects_impossible_norms(tmp_path, corrupt):
    p = tmp_path / "model.npz"
    model = _norms_model()
    model.save(p)
    members = _saved_members(p)
    totals = context_totals(model)
    assert totals.tolist() == [3, 3, 2, 0]
    norms_sq = members["norms_sq"]
    # the saved norms obey every invariant the corruptions break
    assert norms_sq.dtype == np.int64 and norms_sq[3] == 0 and np.all(norms_sq[:3] % 2 == 0)
    assert np.all(norms_sq[:2] >= 16) and norms_sq[2] <= 64 and norms_sq[2] != 66 and norms_sq[0] != 14
    members["norms_sq"] = corrupt(norms_sq)
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError, match="norms_sq"):
        ContextModel.load(p)


def test_query_rejects_a_stored_norm_its_operand_contradicts(tmp_path):
    # a norm that passes every load check but is not a's: the query that
    # bundles a's row sees it, and a query that does not bundle it cannot
    p = tmp_path / "model.npz"
    model = _norms_model()
    model.save(p)
    members = _saved_members(p)
    members["norms_sq"] = members["norms_sq"] + [4, 0, 0, 0]
    np.savez(p, **members)
    loaded = ContextModel.load(p)
    with pytest.raises(CorpusFormatError, match="stored squared norm of 'a'"):
        similar_words(loaded, "a")
    with pytest.raises(CorpusFormatError, match="stored squared norm of 'a'"):
        context_arithmetic(loaded, ["b"], ["a"])
    assert [m.word for m in similar_words(loaded, "b")] == [m.word for m in similar_words(model, "b")]


def test_model_constructor_validation():
    vocab = Vocabulary(["a", "b"], dim=8, seed=0)
    good = scipy.sparse.csr_matrix(np.array([[1, 3], [0, 0]], dtype=np.int64))
    model = triangle_model(vocab, good)
    # the triangle mirrors into the full counts
    np.testing.assert_array_equal(mirror_counts(model.upper).toarray(), [[1, 3], [3, 0]])
    assert context_totals(model).tolist() == [4, 3]
    norms_sq = model.norms_sq
    for half_window, counts, norms in (
        (0, good, norms_sq),
        (1, scipy.sparse.csr_matrix((2, 3), dtype=np.int64), norms_sq),  # not (V, V)
        (1, good.astype(np.float64), norms_sq),
        (1, scipy.sparse.csr_matrix(([0, 1], [1, 1], [0, 1, 2]), shape=(2, 2)), norms_sq),  # a stored zero
        (1, scipy.sparse.csr_matrix(([1, 1], [1, 1], [0, 2, 2]), shape=(2, 2)), norms_sq),  # duplicate
        # a count below the diagonal, which the mirrored triangle would drop
        (1, scipy.sparse.csr_matrix(np.array([[0, 3], [1, 0]], dtype=np.int64)), norms_sq),
        # the norms are required and checked on every path, not only on load
        (1, good, None),
        (1, good, norms_sq + 1),  # d * total is even for both words
    ):
        with pytest.raises(ValueError):
            ContextModel(vocab, half_window, counts, norms)
    with pytest.raises(TypeError):
        ContextModel(vocab, 1, good)
