"""Context model tests: window accumulation, membership in rows, ranking, persistence.

The build algorithm is checked exhaustively against a dictionary-counting
oracle on small random streams, then statistical behavior is checked at
realistic dimension with pinned seeds.
"""

import json
import random

import numpy as np
import pytest
import scipy.sparse

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
from hdsem.core import exact_dots, generate_packed, packed_signs
from hdsem.errors import (
    CorpusFormatError,
    EmptyContextError,
    EmptyQueryError,
    UnknownWordError,
)
from hdsem.textpipe import Vocabulary, build_vocabulary, tokenize

from oracles import brute_context_counts, brute_cosine, brute_membership, reference_signs

# exact binomial value: probe bundled once among 140 context pairs at d=1000,
# P(score > 1/2) = P(Binom(139000, 1/2) >= 69251)
P_CONTAINS_140_D1000 = 0.9096206874096728


def make_model(text, dim, seed, half_window):
    toks = tokenize(text)
    vocab = build_vocabulary(toks, dim=dim, seed=seed)
    return build_context_model(toks, vocab, half_window=half_window)


def word_signs(vocab, word):
    """The word's sign vector from the pure-Python generator, int64."""
    return np.array(reference_signs(vocab.dim, vocab.seed, vocab.index_of(word)), dtype=np.int64)


def row_membership(model, word, probe):
    """Scaled dot of the probe word's signs with word's context row."""
    row = model.matrix[model.vocabulary.index_of(word)].astype(np.int64).tolist()
    return brute_membership(row, reference_signs(model.dim, model.vocabulary.seed, model.vocabulary.index_of(probe)))


# ------------------------------------------------------------------- build


def test_build_tiny_hand_case():
    model = make_model("a b c", dim=64, seed=3, half_window=2)
    v = {w: word_signs(model.vocabulary, w) for w in "abc"}
    np.testing.assert_array_equal(model.matrix, [v["b"] + v["c"], v["a"] + v["c"], v["a"] + v["b"]])
    np.testing.assert_array_equal(model.context_totals, [2, 2, 2])
    np.testing.assert_array_equal(model.context_distinct, [2, 2, 2])
    np.testing.assert_array_equal(model.occurrences, [1, 1, 1])


def test_build_repeated_word_neighbors_count():
    # same word at a neighboring position is a genuine neighbor
    model = make_model("a a a", dim=32, seed=0, half_window=1)
    v = word_signs(model.vocabulary, "a")
    np.testing.assert_array_equal(model.matrix, [4 * v])
    assert model.context_totals[0] == 4
    assert model.context_distinct[0] == 1
    assert model.occurrences[0] == 3


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
    for w in vocab.words:
        ctr = expected.get(w, {})
        row = np.zeros(dim, dtype=np.int64)
        for other, c in ctr.items():
            row += c * signs[other]
        i = vocab.index_of(w)
        np.testing.assert_array_equal(model.matrix[i], row)
        assert model.context_totals[i] == sum(ctr.values())
        assert model.context_distinct[i] == len(ctr)
        assert model.occurrences[i] == stream.count(w)


def test_build_mass_conservation():
    rng = random.Random(7)
    stream = [rng.choice("abcde") for _ in range(150)]
    L = 4
    vocab = build_vocabulary(stream, dim=16, seed=0)
    model = build_context_model(stream, vocab, half_window=L)
    m = len(stream)
    expected_pairs = sum(min(p, L) + min(m - 1 - p, L) for p in range(m))
    assert int(model.context_totals.sum()) == expected_pairs


def test_build_parity_and_magnitude_invariants():
    model = make_model("the quick fox jumps over the lazy dog the fox", 48, 5, 3)
    totals = model.context_totals[:, None]
    assert np.all((model.matrix - totals) % 2 == 0)
    assert np.all(np.abs(model.matrix) <= totals)


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
    np.testing.assert_array_equal(model.matrix, np.zeros((1, 32), dtype=np.int64))
    assert model.context_totals[0] == 0
    assert exact_dots(model.matrix, model.norms_sq, vocab.sign_matrix()).tolist() == [[0]]
    with pytest.raises(EmptyContextError):
        context_similarity(model, "a", "a")


def test_build_empty_stream():
    vocab = Vocabulary(["a"], dim=16, seed=0)
    model = build_context_model([], vocab, half_window=1)
    assert model.context_totals[0] == 0
    assert model.occurrences[0] == 0


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
    row, norms_sq = model.matrix[c], model.norms_sq[c]
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
        assert model.context_totals[vocab.index_of("c")] == 140
        c = [vocab.index_of("c")]
        scores = exact_dots(model.matrix[c], model.norms_sq[c], vocab.sign_matrix())[:, 0] / 1000
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
    rows = model.matrix.astype(np.int64).tolist()
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

    query = [0] * 64
    for w in plus:
        for i, x in enumerate(model.matrix[vocab.index_of(w)]):
            query[i] += int(x)
    for w in minus:
        for i, x in enumerate(model.matrix[vocab.index_of(w)]):
            query[i] -= int(x)
    qq = sum(x * x for x in query)
    scored = []
    operands = set(plus) | set(minus)
    for idx, w in enumerate(vocab.words):
        if w in operands:
            continue
        row = [int(x) for x in model.matrix[idx]]
        rr = sum(x * x for x in row)
        if rr == 0:
            continue
        num = sum(x * y for x, y in zip(row, query))
        scored.append((-num / (rr * qq) ** 0.5, idx, w))
    scored.sort()
    expected = [(w, -s) for s, _, w in scored[:6]]
    assert [(m.word, pytest.approx(m.score, abs=1e-9)) for m in got] == expected
    assert [m.rank for m in got] == list(range(1, len(got) + 1))


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


# ------------------------------------------------------------- persistence


def _saved_members(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def test_model_save_load_round_trip(tmp_path):
    model = make_model("the quick brown fox jumps over the lazy dog", 128, 21, 3)
    path = tmp_path / "model.npz"
    model.save(path)
    # format 2 stores the counts and occurrences only, nothing derived
    assert sorted(_saved_members(path)) == ["data", "indices", "indptr", "meta", "occurrences"]
    loaded = ContextModel.load(path)
    for name in ("matrix", "norms_sq", "context_totals", "context_distinct", "occurrences"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
    assert loaded.vocabulary.words == model.vocabulary.words
    assert loaded.vocabulary.dim == model.vocabulary.dim
    assert loaded.vocabulary.seed == model.vocabulary.seed
    assert loaded.vocabulary.lemmatizer == model.vocabulary.lemmatizer
    assert loaded.vocabulary.stopword_digest == model.vocabulary.stopword_digest
    assert loaded.half_window == model.half_window
    assert similar_words(loaded, "fox", top_n=3) == similar_words(model, "fox", top_n=3)


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
    members = _saved_members(p)
    del members["occurrences"]
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError, match="missing arrays"):
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
    "float-data": ("data", [2.0, 1.0, 2.0, 1.0, 1.0, 1.0]),
    "float-indices": ("indices", [1.7, 2.0, 0.0, 2.0, 0.0, 1.0]),
    "float-indptr": ("indptr", [0.0, 2.0, 4.0, 6.0]),
    "zero-count": ("data", [2, 0, 2, 1, 1, 1]),
    "negative-count": ("data", [2, -1, 2, 1, 1, 1]),
    "index-out-of-range": ("indices", [1, 3, 0, 2, 0, 1]),
    "duplicate-index": ("indices", [1, 1, 0, 2, 0, 1]),
    "unsorted-indices": ("indices", [2, 1, 0, 2, 0, 1]),
    "decreasing-indptr": ("indptr", [0, 4, 2, 6]),
    "short-indptr": ("indptr", [0, 2, 6]),
    "long-indptr": ("indptr", [0, 2, 4, 6, 6]),
    "occurrences-shape": ("occurrences", [2, 2]),
    "occurrences-float": ("occurrences", [2.0, 2.0, 1.0]),
    "occurrences-negative": ("occurrences", [2, -2, 1]),
}


@pytest.mark.parametrize("member, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_model_load_rejects_malformed_counts(tmp_path, member, value):
    p = tmp_path / "model.npz"
    make_model("a b c a b", dim=16, seed=0, half_window=1).save(p)
    members = _saved_members(p)
    # a: b twice, c once; b: a twice, c once; c: a once, b once
    assert members["indptr"].tolist() == [0, 2, 4, 6]
    assert members["indices"].tolist() == [1, 2, 0, 2, 0, 1]
    assert members["data"].tolist() == [2, 1, 2, 1, 1, 1]
    assert members["occurrences"].tolist() == [2, 2, 1]
    members[member] = np.array(value)
    np.savez(p, **members)
    with pytest.raises(CorpusFormatError):
        ContextModel.load(p)


def test_model_constructor_validation():
    vocab = Vocabulary(["a", "b"], dim=8, seed=0)
    good = scipy.sparse.csr_matrix(np.array([[0, 3], [1, 0]], dtype=np.int64))
    model = ContextModel(vocab, 1, good, [1, 1])
    assert model.context_totals.tolist() == [3, 1]
    for half_window, counts, occurrences in (
        (0, good, [1, 1]),
        (1, scipy.sparse.csr_matrix((2, 3), dtype=np.int64), [1, 1]),  # not (V, V)
        (1, good.astype(np.float64), [1, 1]),
        (1, scipy.sparse.csr_matrix(([0, 1], [1, 0], [0, 1, 2]), shape=(2, 2)), [1, 1]),  # a stored zero
        (1, scipy.sparse.csr_matrix(([1, 1], [1, 1], [0, 2, 2]), shape=(2, 2)), [1, 1]),  # duplicate
        (1, good, [1]),
        (1, good, [1.0, 1.0]),
        (1, good, [-1, 1]),
    ):
        with pytest.raises(ValueError):
            ContextModel(vocab, half_window, counts, occurrences)
