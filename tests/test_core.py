"""Unit tests for the core: generation, packed dots, bundles, analytics.

Bundles are built the way the applications build them, through
Vocabulary.bow_matrix, and scored through core.exact_dots, the cosine
rankings of core.nearest and the Monte Carlo engine's _prefix_scores,
against the pure-Python oracles.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hdsem.core import (
    FilterAnalytics,
    analytics_for_sigma,
    dot_int_rows,
    exact_dots,
    generate_packed,
    nearest,
    normal_cdf,
    orthogonality_bound,
    packed_signs,
    predict_filter_analytics,
    squared_norms,
    words_per_vector,
)
from hdsem.experiments import RhoCurveConfig, _prefix_scores, rho_curve
from hdsem.textpipe import Vocabulary


def _signs(dim, seed, indices):
    """Unpacked -1/+1 rows of the deterministic vectors, int8 (n, dim)."""
    return packed_signs(generate_packed(dim, seed, indices), dim)


def _vocab(n, dim, seed):
    """Vocabulary whose word i owns the vector (dim, seed, i)."""
    return Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)


def _membership(bundle, probes, dim):
    """Scaled dots of probe sign rows with one integer bundle, as floats."""
    bundle = np.asarray(bundle, dtype=np.int64)[None]
    return (exact_dots(bundle, squared_norms(bundle), probes) / dim)[:, 0].tolist()


# ---------------------------------------------------------------- generation


def test_splitmix_stream_matches_frozen_goldens():
    w = generate_packed(320, 1234567, [0])[0]
    assert [int(x) for x in w] == oracles.SPLITMIX_SEED_1234567
    w0 = generate_packed(192, 0, [0])[0]
    assert [int(x) for x in w0] == oracles.SPLITMIX_SEED_0


@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    index=st.integers(min_value=0, max_value=(1 << 40)),
    dim=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_generated_signs_match_pure_python_reference(seed, index, dim):
    assert _signs(dim, seed, [index])[0].tolist() == oracles.reference_signs(dim, seed, index)


def test_bit_convention_word_msb_first():
    # bit j of the vector is bit (63 - (j mod 64)) of draw floor(j/64)
    draws = oracles.splitmix64_draws(99, 7, 2)
    bits = oracles.packed_bits(generate_packed(100, 99, [7]), 100)[0]
    for j in [0, 1, 63, 64, 65, 99]:
        expected = (draws[j >> 6] >> (63 - (j & 63))) & 1
        assert bits[j] == expected


def test_tail_bits_beyond_dim_are_zero():
    for dim in [1, 63, 65, 100, 127]:
        w = generate_packed(dim, 5, [3])[0]
        r = dim & 63
        tail = int(w[-1]) & ((1 << (64 - r)) - 1)
        assert tail == 0


def test_generation_is_deterministic_and_index_sensitive():
    a1 = generate_packed(256, 11, [4])
    a2 = generate_packed(256, 11, [4])
    b = generate_packed(256, 11, [5])
    c = generate_packed(256, 12, [4])
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b) and not np.array_equal(a1, c)
    # a batch regenerates exactly the rows of single draws, in index order
    assert np.array_equal(generate_packed(256, 11, [5, 4]), np.concatenate([b, a1]))
    # and an index array of any shape gets one row per index, in that shape
    grid = np.arange(12).reshape(3, 4)
    assert np.array_equal(generate_packed(130, 11, grid), generate_packed(130, 11, grid.ravel()).reshape(3, 4, 3))


def test_generation_input_validation():
    with pytest.raises(ValueError):
        generate_packed(0, 1, [0])
    with pytest.raises(ValueError):
        Vocabulary(["a"], dim=0, seed=1)


def test_hypervector_words_are_read_only():
    # word vectors are shared by every caller of Vocabulary.packed()
    packed = _vocab(1, 64, 1).packed()
    with pytest.raises(ValueError):
        packed[0, 0] = np.uint64(0)


def test_component_means_concentrate_near_zero():
    # d = 10^4: per-vector sign mean has sd 0.01, so |mean| <= 0.03 for ~99.7%
    dim, n = 10_000, 1000
    words = generate_packed(dim, 2024, np.arange(n))
    sums = packed_signs(words, dim).sum(axis=1, dtype=np.int64)
    means = sums / dim
    assert np.mean(np.abs(means) <= 0.03) >= 0.99


@given(
    dim=st.integers(min_value=1, max_value=200),
    lead=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_packed_signs_match_packed_bits(dim, lead, seed):
    # packed_signs looks whole bytes up in a table and packed_bits unpacks
    # bit by bit; they agree on any words, tail bits set or not, on dims
    # inside a byte or a word and on one to three leading axes, empty ones too
    shape = tuple(lead) + (words_per_vector(dim),)
    words = np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64)
    signs = packed_signs(words, dim)
    assert signs.dtype == np.int8 and signs.shape == tuple(lead) + (dim,)
    bits = np.array(oracles.packed_bits(words.reshape(-1, shape[-1]), dim), dtype=np.int8).reshape(signs.shape)
    assert np.array_equal(signs, 2 * bits - 1)


# ----------------------------------------------------------------------- dot


def test_dot_identities():
    dim = 1000
    a = generate_packed(dim, 42, [0])
    negated = ~a
    negated[:, -1] &= np.uint64(((1 << (dim % 64)) - 1) << (64 - dim % 64))  # keep tail bits zero
    assert np.array_equal(packed_signs(negated, dim), -packed_signs(a, dim))
    assert dot_int_rows(a, a, dim).tolist() == [dim]
    assert dot_int_rows(a, negated, dim).tolist() == [-dim]


@given(
    dim=st.integers(min_value=1, max_value=130),
    seed=st.integers(min_value=0, max_value=2**32),
    i=st.integers(min_value=0, max_value=50),
    j=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_dot_equals_brute_force_exactly(dim, seed, i, j):
    rows = generate_packed(dim, seed, [i, j])
    got = dot_int_rows(rows[:1], rows[1], dim)[0] / dim
    ref = oracles.reference_signs
    assert got == oracles.brute_dot(ref(dim, seed, i), ref(dim, seed, j))


def test_dot_dimension_mismatch():
    a64, a65 = generate_packed(64, 1, [0]), generate_packed(65, 1, [0])
    with pytest.raises(ValueError):
        dot_int_rows(a64, a65, 64)
    with pytest.raises(ValueError):
        dot_int_rows(a65, a65, 64)
    # a one-word query never broadcasts against two-word rows
    with pytest.raises(ValueError):
        dot_int_rows(a65, a64, 65)


def test_dot_int_rows_broadcasts_over_trials():
    # (b, k, w) streams against (b, 1, w) probes, as the Monte Carlo engine
    # calls it, equal one call per trial
    dim, b, k = 130, 4, 6
    rows = generate_packed(dim, 17, np.arange(b * (k + 1))).reshape(b, k + 1, -1)
    got = dot_int_rows(rows[:, :k, :], rows[:, k:, :], dim)
    assert got.shape == (b, k) and got.dtype == np.int64
    for t in range(b):
        assert got[t].tolist() == dot_int_rows(rows[t, :k], rows[t, k], dim).tolist()


def test_dot_sample_statistics_at_d1000():
    # over 10^4 independent pairs: mean ~ 0 within +-0.01, variance ~ 1/d within 20%
    dim, pairs = 1000, 10_000
    a = generate_packed(dim, 7, np.arange(pairs))
    b = generate_packed(dim, 7, np.arange(pairs, 2 * pairs))
    dots = dot_int_rows(a, b, dim) / dim
    assert abs(dots.mean()) <= 0.01
    assert abs(dots.var(ddof=1) - 1.0 / dim) <= 0.2 / dim


def test_dot_tail_matches_exact_binomial():
    # the honest tail law: |dot| > delta has probability given by the exact
    # binomial two-sided tail; empirical rates must sit within 5 binomial sd
    from scipy import stats

    pairs = 10_000
    for dim, delta in [(500, 0.05), (1000, 0.05), (2000, 0.05), (500, 0.1)]:
        a = generate_packed(dim, 31, np.arange(pairs))
        b = generate_packed(dim, 31, np.arange(pairs, 2 * pairs))
        dots = dot_int_rows(a, b, dim) / dim
        emp = float(np.mean(np.abs(dots) > delta))
        hi = math.floor(dim * (1 + delta) / 2)
        lo = math.ceil(dim * (1 - delta) / 2)
        exact = float(stats.binom.sf(hi, dim, 0.5) + stats.binom.cdf(lo - 1, dim, 0.5))
        sd = math.sqrt(exact * (1 - exact) / pairs)
        assert abs(emp - exact) <= 5 * sd, (dim, delta, emp, exact)


def test_orthogonality_bound_formula():
    assert orthogonality_bound(1200, 0.05) == 1.0 - math.exp(-3.0)
    assert orthogonality_bound(10_000, 0.05) == 1.0 - math.exp(-25.0)
    # increasing in both arguments
    assert orthogonality_bound(2000, 0.05) > orthogonality_bound(1000, 0.05)
    assert orthogonality_bound(1000, 0.1) > orthogonality_bound(1000, 0.05)
    with pytest.raises(ValueError):
        orthogonality_bound(1000, 0.0)
    with pytest.raises(ValueError):
        orthogonality_bound(0, 0.05)


# ------------------------------------------------------------------- bundles


def test_empty_bundle_plus_vector_equals_its_signs():
    bundle = _vocab(1, 96, 3).bow_matrix([[0]])[0]
    assert bundle.tolist() == oracles.reference_signs(96, 3, 0)


def test_vector_plus_negation_cancels():
    dim = 96
    v = generate_packed(dim, 3, [1])
    negated = ~v
    negated[:, -1] &= np.uint64(((1 << (dim % 64)) - 1) << (64 - dim % 64))  # keep tail bits zero
    signs = [oracles.reference_signs(dim, 3, 1), packed_signs(negated, dim)[0].tolist()]
    assert oracles.brute_bundle(signs) == [0] * dim


def test_bundle_linearity_small():
    bundle = _vocab(5, 32, 9).bow_matrix([np.arange(5)])[0]
    expected = oracles.brute_bundle([oracles.reference_signs(32, 9, i) for i in range(5)])
    assert bundle.tolist() == expected


def test_from_packed_equals_repeated_add():
    # one document of n words bundles to the sum of n one-word documents
    dim = 77
    vocab = _vocab(9, dim, 13)
    fast = vocab.bow_matrix([np.arange(9)])[0]
    slow = vocab.bow_matrix([[i] for i in range(9)]).sum(axis=0)
    assert np.array_equal(fast, slow)


def test_weighted_add_equals_repetition():
    vocab = _vocab(2, 64, 21)
    a, b = vocab.bow_matrix([[0, 0, 0, 1, 1], [1, 0, 1, 0, 0]])
    s0, s1 = (np.array(oracles.reference_signs(64, 21, i)) for i in range(2))
    assert np.array_equal(a, b)
    assert np.array_equal(a, 3 * s0 + 2 * s1)


@given(
    dim=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32),
    picks=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_bundle_parity_and_magnitude_invariants(dim, seed, picks):
    comps = _vocab(13, dim, seed).bow_matrix([picks])[0]
    count = len(picks)
    assert np.all((comps - count) % 2 == 0)
    assert np.all(np.abs(comps) <= count)


def test_bundle_validation():
    with pytest.raises(ValueError):
        Vocabulary(["a"], dim=0, seed=0)
    vocab = _vocab(2, 8, 0)
    for bad in ([2], [-1], [0, 5]):
        with pytest.raises(IndexError):
            vocab.bow_matrix([[0], bad])


# ---------------------------------------------------------------- membership


def test_single_member_scores_exactly_one():
    [(member, _)] = _prefix_scores(256, 5, [1], 1)
    assert member.tolist() == [[1.0]]


def test_membership_matches_brute_force_random_cases():
    rng = np.random.default_rng(0)
    for _ in range(40):
        dim = int(rng.integers(1, 65))
        k = int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2**32))
        vocab = _vocab(k + 2, dim, seed)
        weights = [int(w) for w in rng.integers(1, 4, size=k)]
        bundle = vocab.bow_matrix([[i for i, w in enumerate(weights) for _ in range(w)]])[0]
        signs = [oracles.reference_signs(dim, seed, i) for i in range(k + 2)]
        comps = oracles.brute_bundle([signs[i] for i, w in enumerate(weights) for _ in range(w)])
        got = _membership(bundle, packed_signs(vocab.packed(), dim), dim)
        assert got == [oracles.brute_membership(comps, q) for q in signs]


def test_membership_exhaustive_small_grid():
    # every (dim, k) with dim <= 16 and k <= 4, across three seeds, all queries
    for seed in (0, 1, 2):
        for dim in range(1, 17):
            for k in range(1, 5):
                vocab = _vocab(k + 2, dim, seed)
                bundle = vocab.bow_matrix([np.arange(k)])[0]
                signs = [oracles.reference_signs(dim, seed, i) for i in range(k + 2)]
                comps = oracles.brute_bundle(signs[:k])
                assert bundle.tolist() == comps
                got = _membership(bundle, packed_signs(vocab.packed(), dim), dim)
                assert got == [oracles.brute_membership(comps, q) for q in signs]


def test_membership_score_threshold_and_mismatch():
    # the member of a one-vector bundle scores 1.0, above a 0.75 threshold
    [(member, _)] = _prefix_scores(32, 1, [1], 1)
    assert member.tolist() == [[1.0]]
    [point] = rho_curve(RhoCurveConfig(dim=32, ks=(1,), trials=10, seed=1, threshold=0.75))
    assert (point.tp, point.fn) == (10, 0)
    bundle = _vocab(1, 32, 1).bow_matrix([[0]])
    with pytest.raises(ValueError):
        exact_dots(bundle, squared_norms(bundle), _signs(33, 1, [0]))


def test_scaling_convention_equivalence():
    # integer components / d equals the dot of 1/sqrt(d)-scaled real vectors
    dim, seed = 500, 77
    vocab = _vocab(20, dim, seed)
    bundle = vocab.bow_matrix([np.arange(20)])[0]
    q = vocab.sign_matrix(slice(None))[3]
    [int_path] = _membership(bundle, q[None], dim)
    scaled_q = q / math.sqrt(dim)
    scaled_bundle = bundle.astype(np.float64) / math.sqrt(dim)
    float_path = float(scaled_q @ scaled_bundle)
    assert math.isclose(int_path, float_path, rel_tol=0, abs_tol=1e-9)
    assert (int_path > 0.5) == (float_path > 0.5)


def test_decide_membership_thresholding():
    # a k = 1 bundle scores its member exactly 1.0: a threshold of 1.0
    # rejects every member, and any threshold below it accepts them all
    strict = rho_curve(RhoCurveConfig(dim=64, ks=(1,), trials=20, seed=0, threshold=1.0))[0]
    assert (strict.tp, strict.fn) == (0, 20)
    below = rho_curve(RhoCurveConfig(dim=64, ks=(1,), trials=20, seed=0, threshold=0.99))[0]
    assert (below.tp, below.fn) == (20, 0)


def test_decision_error_rate_matches_gaussian_prediction():
    # k = 10^3 in d = 10^4: each class errs with probability Phi(-1/(2 sigma));
    # pooled over member and non-member probes, 5000 trials each
    dim, k, trials = 10_000, 1000, 5000
    predicted = normal_cdf(-1.0 / (2.0 * math.sqrt(k / dim)))
    errors = 0
    base = 0
    for t in range(trials):
        rows = generate_packed(dim, 1234, np.arange(base, base + k + 1))
        base += k + 1
        member_sum = int(dot_int_rows(rows[:k], rows[0], dim).sum())
        outsider_sum = int(dot_int_rows(rows[:k], rows[k], dim).sum())
        if member_sum / dim <= 0.5:
            errors += 1
        if outsider_sum / dim > 0.5:
            errors += 1
    rate = errors / (2 * trials)
    assert abs(rate - predicted) <= 0.015, (rate, predicted)


def test_membership_distribution_quick_sanity():
    # light version of the distribution check (the acceptance suite runs it full)
    dim, k, trials = 10_000, 1000, 100
    member, outsider = [], []
    base = 0
    for t in range(trials):
        rows = generate_packed(dim, 99, np.arange(base, base + k + 1))
        base += k + 1
        member.append(int(dot_int_rows(rows[:k], rows[0], dim).sum()) / dim)
        outsider.append(int(dot_int_rows(rows[:k], rows[k], dim).sum()) / dim)
    assert abs(np.mean(member) - 1.0) < 0.1
    assert abs(np.mean(outsider)) < 0.1


# ----------------------------------------------------------- nearest exemplar


def test_nearest_singleton_and_validation():
    signs = _signs(64, 8, [0])
    norms_sq = squared_norms(signs)
    assert [[i for i, _ in hits] for hits in nearest(signs, norms_sq, signs, 1)] == [[0]]
    with pytest.raises(ValueError):  # an empty exemplar set has no nearest
        nearest(signs[:0], norms_sq[:0], signs, 1)
    with pytest.raises(ValueError):
        nearest(signs, norms_sq, _signs(65, 8, [0]), 1)


def test_nearest_tie_breaks_to_lowest_index():
    a, b = _signs(64, 8, [1, 2])
    rows = np.stack([b, a, a, b])
    assert [[i for i, _ in hits] for hits in nearest(rows, squared_norms(rows), a[None], 1)] == [[1]]


def test_nearest_always_finds_the_member():
    # query is one of 100 candidates at d = 1000; 1000 trials, no misses
    dim, k, trials = 1000, 100, 1000
    misses = 0
    base = 0
    for t in range(trials):
        rows = generate_packed(dim, 555, np.arange(base, base + k))
        base += k
        target = t % k
        dots = dot_int_rows(rows, rows[target], dim)
        if int(np.argmax(dots)) != target:
            misses += 1
    assert misses == 0


# ----------------------------------------------------------------- analytics


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(-1.5) - oracles.PHI_MINUS_1_5) < 1e-7
    assert abs(normal_cdf(1.5) - (1.0 - oracles.PHI_MINUS_1_5)) < 1e-7
    assert normal_cdf(-40.0) == 0.0
    assert normal_cdf(40.0) == 1.0


@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_normal_cdf_symmetry(x):
    assert math.isclose(normal_cdf(x) + normal_cdf(-x), 1.0, rel_tol=0, abs_tol=1e-12)


def test_normal_cdf_monotone():
    xs = np.linspace(-6, 6, 200)
    vals = [normal_cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_analytics_internal_identities():
    fa = predict_filter_analytics(1000, 10_000)
    assert fa.sigma == math.sqrt(1000 / 10_000)
    assert fa.fp_rate == fa.fn_rate == fa.overlap / 2
    assert fa.tp_rate == fa.tn_rate == 1.0 - fa.overlap
    assert math.isclose(
        fa.precision_recall, 1.0 - fa.overlap / (2.0 - fa.overlap), abs_tol=1e-15
    )


def test_analytics_frozen_values_at_sigma_one_third():
    fa = analytics_for_sigma(1.0 / 3.0)
    assert abs(fa.overlap - oracles.OVERLAP_SIGMA_THIRD) < 1e-12
    assert abs(fa.precision_recall - oracles.RHO_SIGMA_THIRD) < 1e-12


def test_analytics_design_thresholds():
    # sigma <= 0.215 keeps predicted precision/recall at or above 0.99,
    # sigma <= 0.375 keeps it at or above 0.90
    assert abs(analytics_for_sigma(0.215).precision_recall - 0.99) <= 0.005
    assert abs(analytics_for_sigma(0.375).precision_recall - 0.90) <= 0.005
    assert analytics_for_sigma(0.214).precision_recall > 0.99
    assert analytics_for_sigma(0.374).precision_recall > 0.90


def test_analytics_monotone_in_k():
    rhos = [predict_filter_analytics(k, 1000).precision_recall for k in range(2, 400, 7)]
    assert all(b < a for a, b in zip(rhos, rhos[1:]))


def test_analytics_validation():
    with pytest.raises(ValueError):
        predict_filter_analytics(0, 100)
    with pytest.raises(ValueError):
        predict_filter_analytics(10, 0)
    with pytest.raises(ValueError):
        analytics_for_sigma(0.0)


# -------------------------------------------------------------------- cosine


def test_cosines_exact_cases():
    a = np.array([2, -4, 6], dtype=np.int64)
    rows = np.array([a, 3 * a, -a, np.zeros(3), [1, 1, 1]], dtype=np.int64)
    [ranked] = nearest(rows, squared_norms(rows), a[None], len(rows))
    scores = dict(ranked)
    assert [i for i, _ in ranked] == [0, 1, 4, 2]
    assert [scores[i] for i in (0, 1, 2)] == [1.0, 1.0, -1.0]
    assert -1.0 < scores[4] < 1.0
    assert nearest(rows, squared_norms(rows), np.zeros((1, 3), dtype=np.int64), len(rows)) == [[]]


@st.composite
def _vectors(draw, dim, min_size, max_size, top):
    """Integer vectors whose entries reach a drawn power of two, at most top."""
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        hi = min(2 ** draw(st.integers(0, 31)), top)
        out.append(draw(st.lists(st.integers(-hi, hi), min_size=dim, max_size=dim)))
    return out


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cosines_match_brute(data):
    # entries up to 2^31 in dims up to 8 put the norm bound on both sides
    # of 2^106 and some norms past 2^63; float32 rows, whose entries stop
    # at 2^24 where float32 stops holding every integer, put it on both
    # sides of 2^48
    d = data.draw(st.integers(1, 8), label="dim")
    dtype = data.draw(st.sampled_from([np.float32, np.int32, np.int64, np.float64]), label="dtype")
    top = {np.float32: 2**24, np.int32: 2**31 - 1}.get(dtype, 2**31)
    rows = data.draw(_vectors(d, 1, 4, top), label="rows")
    queries = data.draw(_vectors(d, 0, 2, 2**31), label="queries")
    c = data.draw(st.sampled_from([-2, -1, 1, 2]), label="parallel")
    queries.append([c * x for x in data.draw(st.sampled_from(rows), label="row")])
    R, Q = np.array(rows, dtype=dtype), np.array(queries, dtype=np.int64)
    fits = lambda vs: max(abs(x) for v in vs for x in v) ** 2 * d < 2**63  # noqa: E731
    if not fits(rows):
        with pytest.raises(ValueError, match="integer squared norms exceed int64 range"):
            squared_norms(R)
        return
    rr = squared_norms(R)
    assert rr.tolist() == [sum(x * x for x in r) for r in rows]
    if not fits(queries):
        for kernel in (exact_dots, lambda R, rr, Q: nearest(R, rr, Q, len(R))):
            with pytest.raises(ValueError, match="integer squared norms exceed int64 range"):
                kernel(R, rr, Q)
        return
    dots = exact_dots(R, rr, Q)
    assert dots.tolist() == [[sum(x * y for x, y in zip(r, q)) for r in rows] for q in queries]
    for q, ranked in zip(queries, nearest(R, rr, Q, top_n=len(R))):
        want = [oracles.brute_cosine(r, q) if any(r) and any(q) else None for r in rows]
        # rows with a zero norm on either side score -inf and are left out
        assert [i for i, _ in ranked] == oracles.brute_top(want, len(rows))
        for i, got in ranked:
            aa, bb = int(rr[i]), sum(x * x for x in q)
            if sum(x * y for x, y in zip(rows[i], q)) ** 2 == aa * bb:
                assert got == want[i]  # exactly +-1
            else:
                assert math.isclose(got, want[i], rel_tol=2e-15)
                if aa * bb < 2**53:
                    assert -1.0 <= got <= 1.0


# --------------------------------------------------------------- concurrency


def test_parallel_scoring_equals_sequential():
    dim = 512
    vocab = _vocab(50, dim, 4)
    bundle = vocab.bow_matrix([np.arange(10)])[0]
    queries = packed_signs(vocab.packed(), dim)
    sequential = [_membership(bundle, q[None], dim)[0] for q in queries]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda q: _membership(bundle, q[None], dim)[0], queries))
    assert parallel == sequential
