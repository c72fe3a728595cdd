"""Unit tests for the hypervector core: generation, dot, bundles, analytics."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hdsem.core import (
    BundleVector,
    FilterAnalytics,
    Hypervector,
    MembershipScore,
    analytics_for_sigma,
    bundle_add,
    cosines,
    decide_membership,
    dot,
    dot_int_rows,
    generate_packed,
    membership_score,
    nearest_in_set,
    normal_cdf,
    orthogonality_bound,
    packed_signs,
    popcount_words,
    predict_filter_analytics,
    squared_norms,
)
from hdsem.errors import DimensionMismatchError


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
    hv = Hypervector.generate(dim, seed, index)
    assert hv.signs().tolist() == oracles.reference_signs(dim, seed, index)


def test_bit_convention_word_msb_first():
    # bit j of the vector is bit (63 - (j mod 64)) of draw floor(j/64)
    draws = oracles.splitmix64_draws(99, 7, 2)
    hv = Hypervector.generate(100, 99, 7)
    for j in [0, 1, 63, 64, 65, 99]:
        expected = (draws[j >> 6] >> (63 - (j & 63))) & 1
        assert hv.bit(j) == expected


def test_tail_bits_beyond_dim_are_zero():
    for dim in [1, 63, 65, 100, 127]:
        w = generate_packed(dim, 5, [3])[0]
        r = dim & 63
        tail = int(w[-1]) & ((1 << (64 - r)) - 1)
        assert tail == 0


def test_generation_is_deterministic_and_index_sensitive():
    a1 = Hypervector.generate(256, 11, 4)
    a2 = Hypervector.generate(256, 11, 4)
    b = Hypervector.generate(256, 11, 5)
    c = Hypervector.generate(256, 12, 4)
    assert a1 == a2 and hash(a1) == hash(a2)
    assert a1 != b and a1 != c


def test_generation_input_validation():
    with pytest.raises(ValueError):
        Hypervector.generate(0, 1, 0)
    with pytest.raises(ValueError):
        Hypervector.generate(16, 1, -1)
    with pytest.raises(ValueError):
        generate_packed(0, 1, [0])


def test_hypervector_rejects_stray_tail_bits():
    w = generate_packed(100, 1, [0])[0].copy()
    w[-1] |= np.uint64(1)  # bit below the valid range for dim=100
    with pytest.raises(ValueError):
        Hypervector(100, w)


def test_hypervector_words_are_read_only():
    hv = Hypervector.generate(64, 1, 0)
    with pytest.raises(ValueError):
        hv.words[0] = np.uint64(0)


def test_component_means_concentrate_near_zero():
    # d = 10^4: per-vector sign mean has sd 0.01, so |mean| <= 0.03 for ~99.7%
    dim, n = 10_000, 1000
    words = generate_packed(dim, 2024, np.arange(n))
    sums = 2 * popcount_words(words) - dim
    means = sums / dim
    assert np.mean(np.abs(means) <= 0.03) >= 0.99


# ----------------------------------------------------------------------- dot


def test_dot_identities():
    a = Hypervector.generate(1000, 42, 0)
    assert dot(a, a) == 1.0
    assert dot(a, a.negated()) == -1.0


@given(
    dim=st.integers(min_value=1, max_value=130),
    seed=st.integers(min_value=0, max_value=2**32),
    i=st.integers(min_value=0, max_value=50),
    j=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_dot_equals_brute_force_exactly(dim, seed, i, j):
    a = Hypervector.generate(dim, seed, i)
    b = Hypervector.generate(dim, seed, j)
    assert dot(a, b) == oracles.brute_dot(a.signs().tolist(), b.signs().tolist())


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot(Hypervector.generate(64, 1, 0), Hypervector.generate(65, 1, 0))


def test_dot_sample_statistics_at_d1000():
    # over 10^4 independent pairs: mean ~ 0 within +-0.01, variance ~ 1/d within 20%
    dim, pairs = 1000, 10_000
    a = generate_packed(dim, 7, np.arange(pairs))
    b = generate_packed(dim, 7, np.arange(pairs, 2 * pairs))
    dots = (dim - 2 * popcount_words(a ^ b)) / dim
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
        dots = (dim - 2 * popcount_words(a ^ b)) / dim
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
    v = Hypervector.generate(96, 3, 0)
    bundle = bundle_add(BundleVector.empty(96), v)
    assert bundle.count == 1
    assert np.array_equal(bundle.components, v.signs().astype(np.int64))


def test_vector_plus_negation_cancels():
    v = Hypervector.generate(96, 3, 1)
    bundle = BundleVector.empty(96).add(v).add(v.negated())
    assert bundle.count == 2
    assert not bundle.components.any()


def test_bundle_linearity_small():
    vs = [Hypervector.generate(32, 9, i) for i in range(5)]
    bundle = BundleVector.from_vectors(vs)
    expected = oracles.brute_bundle([v.signs().tolist() for v in vs])
    assert bundle.components.tolist() == expected
    assert bundle.count == 5


def test_from_packed_equals_repeated_add():
    dim = 77
    rows = generate_packed(dim, 13, np.arange(9))
    fast = BundleVector.from_packed(dim, rows)
    slow = BundleVector.empty(dim)
    for i in range(9):
        slow.add(Hypervector.generate(dim, 13, i))
    assert np.array_equal(fast.components, slow.components)
    assert fast.count == slow.count == 9


def test_weighted_add_equals_repetition():
    v1 = Hypervector.generate(64, 21, 0)
    v2 = Hypervector.generate(64, 21, 1)
    a = BundleVector.empty(64).add(v1, times=3).add(v2, times=2)
    b = BundleVector.empty(64)
    for _ in range(3):
        b.add(v1)
    for _ in range(2):
        b.add(v2)
    assert np.array_equal(a.components, b.components) and a.count == b.count


@given(
    dim=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32),
    picks=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_bundle_parity_and_magnitude_invariants(dim, seed, picks):
    bundle = BundleVector.empty(dim)
    for i in picks:
        bundle.add(Hypervector.generate(dim, seed, i))
    comps = bundle.components
    assert np.all((comps - bundle.count) % 2 == 0)
    assert np.all(np.abs(comps) <= bundle.count)


def test_bundle_validation():
    with pytest.raises(ValueError):
        BundleVector(0)
    with pytest.raises(ValueError):
        BundleVector(4, np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        BundleVector(4, np.zeros(4, dtype=np.float64))
    with pytest.raises(DimensionMismatchError):
        BundleVector.empty(8).add(Hypervector.generate(9, 0, 0))
    with pytest.raises(ValueError):
        BundleVector.empty(8).add(Hypervector.generate(8, 0, 0), times=0)


# ---------------------------------------------------------------- membership


def test_single_member_scores_exactly_one():
    v = Hypervector.generate(256, 5, 0)
    bundle = BundleVector.empty(256).add(v)
    assert membership_score(bundle, v).value == 1.0


def test_membership_matches_brute_force_random_cases():
    rng = np.random.default_rng(0)
    for _ in range(40):
        dim = int(rng.integers(1, 65))
        k = int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2**32))
        vs = [Hypervector.generate(dim, seed, i) for i in range(k)]
        weights = [int(w) for w in rng.integers(1, 4, size=k)]
        bundle = BundleVector.empty(dim)
        for v, w in zip(vs, weights):
            bundle.add(v, times=w)
        comps = oracles.brute_bundle(
            [v.signs().tolist() for v, w in zip(vs, weights) for _ in range(w)]
        )
        for qi in range(k + 2):
            q = Hypervector.generate(dim, seed, qi)
            got = membership_score(bundle, q).value
            want = oracles.brute_membership(comps, q.signs().tolist())
            assert got == want


def test_membership_exhaustive_small_grid():
    # every (dim, k) with dim <= 16 and k <= 4, across three seeds, all queries
    for seed in (0, 1, 2):
        for dim in range(1, 17):
            for k in range(1, 5):
                vs = [Hypervector.generate(dim, seed, i) for i in range(k)]
                bundle = BundleVector.from_vectors(vs)
                comps = oracles.brute_bundle([v.signs().tolist() for v in vs])
                assert bundle.components.tolist() == comps
                for qi in range(k + 2):
                    q = Hypervector.generate(dim, seed, qi)
                    want = oracles.brute_membership(comps, q.signs().tolist())
                    assert membership_score(bundle, q).value == want


def test_membership_score_threshold_and_mismatch():
    v = Hypervector.generate(32, 1, 0)
    b = BundleVector.empty(32).add(v)
    s = membership_score(b, v, threshold=0.75)
    assert s.threshold == 0.75 and decide_membership(s)
    with pytest.raises(DimensionMismatchError):
        membership_score(b, Hypervector.generate(33, 1, 0))


def test_scaling_convention_equivalence():
    # integer components / d equals the dot of 1/sqrt(d)-scaled real vectors
    dim, seed = 500, 77
    vs = [Hypervector.generate(dim, seed, i) for i in range(20)]
    bundle = BundleVector.from_vectors(vs)
    q = Hypervector.generate(dim, seed, 3)
    int_path = membership_score(bundle, q).value
    scaled_q = q.signs() / math.sqrt(dim)
    scaled_bundle = bundle.components / math.sqrt(dim)
    float_path = float(scaled_q @ scaled_bundle)
    assert math.isclose(int_path, float_path, rel_tol=0, abs_tol=1e-9)
    assert (int_path > 0.5) == (float_path > 0.5)


def test_decide_membership_thresholding():
    assert decide_membership(MembershipScore(0.51))
    assert not decide_membership(MembershipScore(0.5))
    assert not decide_membership(MembershipScore(0.49))
    assert decide_membership(MembershipScore(0.2, threshold=0.1))


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


# ------------------------------------------------------------ nearest_in_set


def test_nearest_singleton_and_validation():
    a = Hypervector.generate(64, 8, 0)
    assert nearest_in_set([a], a) == 0
    with pytest.raises(ValueError):
        nearest_in_set([], a)
    with pytest.raises(DimensionMismatchError):
        nearest_in_set([a], Hypervector.generate(65, 8, 0))


def test_nearest_tie_breaks_to_lowest_index():
    a = Hypervector.generate(64, 8, 1)
    b = Hypervector.generate(64, 8, 2)
    assert nearest_in_set([b, a, a, b], a) == 1


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
    scores = cosines(rows, squared_norms(rows, 18), a[None], 18)[0]
    assert scores[:4].tolist() == [1.0, 1.0, -1.0, -np.inf]
    assert -1.0 < scores[4] < 1.0
    assert np.all(cosines(rows, squared_norms(rows, 18), np.zeros((1, 3), dtype=np.int64), 18) == -np.inf)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=12),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_cosines_match_brute(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if not any(a) or not any(b):
        return
    rows = np.array([a], dtype=np.int64)
    got = cosines(rows, squared_norms(rows, 50), np.array([b], dtype=np.int64), 50)[0, 0]
    assert got == oracles.brute_cosine(a, b)
    assert -1.0 <= got <= 1.0


# --------------------------------------------------------------- concurrency


def test_parallel_scoring_equals_sequential():
    dim = 512
    bundle = BundleVector.from_vectors(
        Hypervector.generate(dim, 4, i) for i in range(10)
    )
    queries = [Hypervector.generate(dim, 4, i) for i in range(50)]
    sequential = [membership_score(bundle, q).value for q in queries]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda q: membership_score(bundle, q).value, queries))
    assert parallel == sequential
