"""Tests for the simulation engines."""

import math

import numpy as np
import pytest

import oracles
from hdsem import core
from hdsem.core import words_per_vector
from hdsem.experiments import (
    MembershipSimConfig,
    MembershipSimResult,
    RhoCurveConfig,
    _block_shape,
    _prefix_scores,
    membership_sim,
    rho_curve,
)


def test_membership_sim_scores_equal_direct_bundle_scoring():
    # the pairwise-dot shortcut must equal componentwise bundle scoring exactly
    cfg = MembershipSimConfig(dim=96, k=7, trials=5, seed=11)
    res = membership_sim(cfg)
    for t in range(cfg.trials):
        base = t * (cfg.k + 1)
        vs = [oracles.reference_signs(cfg.dim, cfg.seed, base + i) for i in range(cfg.k + 1)]
        comps = oracles.brute_bundle(vs[: cfg.k])
        assert res.member_scores[t] == oracles.brute_membership(comps, vs[0])
        assert res.nonmember_scores[t] == oracles.brute_membership(comps, vs[cfg.k])


def test_membership_sim_k1_members_score_exactly_one():
    res = membership_sim(MembershipSimConfig(dim=64, k=1, trials=20, seed=0))
    assert np.all(res.member_scores == 1.0)


def test_membership_sim_is_deterministic():
    cfg = MembershipSimConfig(dim=128, k=5, trials=10, seed=42)
    a, b = membership_sim(cfg), membership_sim(cfg)
    assert np.array_equal(a.member_scores, b.member_scores)
    assert np.array_equal(a.nonmember_scores, b.nonmember_scores)


def test_membership_sim_summary_fields():
    res = membership_sim(MembershipSimConfig(dim=2000, k=50, trials=50, seed=1))
    assert abs(res.member_mean - 1.0) < 0.2
    assert abs(res.nonmember_mean) < 0.2
    assert res.member_std > 0 and res.nonmember_std > 0


def test_membership_sim_config_validation():
    with pytest.raises(ValueError):
        MembershipSimConfig(dim=0)
    with pytest.raises(ValueError):
        MembershipSimConfig(k=0)
    # a standard deviation needs two samples
    for trials in (0, 1):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            MembershipSimConfig(trials=trials)


def test_rho_curve_analytic_column():
    pts = rho_curve(RhoCurveConfig(dim=1000, ks=(100,), trials=8, seed=3))
    assert len(pts) == 1
    fa_sigma = np.sqrt(100 / 1000)
    assert pts[0].sigma == pytest.approx(fa_sigma)
    # frozen analytic value at sigma = 1/sqrt(10): derived from the erfc CDF
    s = 2 * (0.5 * math.erfc(1 / (2 * fa_sigma) / math.sqrt(2)))
    assert pts[0].rho_analytic == pytest.approx(1 - s / (2 - s), abs=1e-12)


def test_rho_curve_tiny_bundles_are_perfect():
    # k = 2 at d = 1000: error probability ~ Phi(-11.2), never observed
    pts = rho_curve(RhoCurveConfig(dim=1000, ks=(2,), trials=400, seed=5))
    p = pts[0]
    assert p.tp == 400 and p.fn == 0 and p.fp == 0 and p.tn == 400
    assert p.precision_emp == 1.0 and p.recall_emp == 1.0


def test_rho_curve_counts_are_complete_and_deterministic(monkeypatch):
    cfg = RhoCurveConfig(dim=500, ks=(5, 20, 60), trials=123, seed=9)
    pts1 = rho_curve(cfg)  # one batch: 123 trials of 61 vectors of 8 words
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 17 * 61 * 8)
    pts2 = rho_curve(cfg)  # batches of 17 trials, the last one short
    for p1, p2 in zip(pts1, pts2):
        assert (p1.tp, p1.fp, p1.fn, p1.tn) == (p2.tp, p2.fp, p2.fn, p2.tn)
        assert p1.tp + p1.fn == cfg.trials
        assert p1.fp + p1.tn == cfg.trials


def test_membership_sim_scores_do_not_depend_on_batching(monkeypatch):
    cfg = MembershipSimConfig(dim=200, k=9, trials=25, seed=4)
    one = membership_sim(cfg)  # one batch of 25 trials
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 3 * 10 * 4)
    small = membership_sim(cfg)  # batches of 3 trials, the last one short
    assert one.member_scores.tolist() == small.member_scores.tolist()
    assert one.nonmember_scores.tolist() == small.nonmember_scores.tolist()


def test_prefix_scores_stream_trials_in_chunks(monkeypatch):
    # one batch of 5 trials at once, then a budget of 7 vectors of 4 words:
    # one trial per batch, its 50 stream vectors in chunks of 7, the last
    # one short, with bundle sizes on and next to the chunk edges
    dim, ks, trials = 200, [1, 7, 8, 20, 49, 50], 5
    one = list(_prefix_scores(dim, 13, ks, trials))
    monkeypatch.setattr(core, "BLOCK_BYTES", 7 * 32)
    assert _block_shape(dim, 50) == (1, 7)
    chunked = list(_prefix_scores(dim, 13, ks, trials))
    assert len(one) == 1 and len(chunked) == trials
    for j in range(2):
        assert np.concatenate([pair[j] for pair in chunked]).tolist() == one[0][j].tolist()
    cfg = MembershipSimConfig(dim=dim, k=50, trials=trials, seed=13)
    assert membership_sim(cfg).member_scores.tolist() == one[0][0][:, -1].tolist()


@pytest.mark.parametrize("dim, kmax", [(10_000, 1000), (10_000, 10**9), (64, 10**12), (1000, 300), (2**30, 5)])
def test_block_shape_bounds_a_chunk_for_any_k(dim, kmax):
    # arithmetic only: a stream of 10^12 vectors is never drawn
    batch, chunk = _block_shape(dim, kmax)
    vector_bytes = 8 * words_per_vector(dim)
    assert 1 <= chunk <= kmax and batch >= 1
    assert batch * chunk * vector_bytes <= max(core.BLOCK_BYTES, vector_bytes)
    # the stream's chunks differ in size by less than their count
    count = -(-kmax // chunk)
    assert chunk - (kmax - (count - 1) * chunk) < count
    if batch > 1:
        assert chunk == kmax


def test_rho_curve_member_scores_match_direct_bundles():
    # spot-check the prefix construction against direct scoring for one trial
    dim, ks, seed = 64, (1, 3, 6), 21
    pts_cfg = RhoCurveConfig(dim=dim, ks=ks, trials=1, seed=seed, threshold=-2.0)
    # threshold -2 turns every member and outsider probe into a "positive",
    # so counts alone cannot check scores; recompute the scores by hand
    kmax = max(ks)
    vs = [oracles.reference_signs(dim, seed, i) for i in range(kmax + 1)]
    [(member, outsider)] = _prefix_scores(dim, seed, list(ks), 1)
    for j, k in enumerate(ks):
        comps = oracles.brute_bundle(vs[:k])
        assert member[0, j] == oracles.brute_membership(comps, vs[0])
        assert outsider[0, j] == oracles.brute_membership(comps, vs[kmax])
    pts = rho_curve(pts_cfg)
    assert all(p.tp == 1 and p.fp == 1 for p in pts)


def test_rho_curve_sorts_and_dedupes_ks():
    cfg = RhoCurveConfig(dim=100, ks=(30, 5, 30, 12), trials=4, seed=2)
    assert cfg.ks == (5, 12, 30)


def test_rho_curve_validation():
    with pytest.raises(ValueError, match="dim must be >= 1"):
        RhoCurveConfig(dim=0, ks=(1,))
    with pytest.raises(ValueError):
        RhoCurveConfig(dim=100, ks=())
    with pytest.raises(ValueError):
        RhoCurveConfig(dim=100, ks=(0, 5))
    with pytest.raises(ValueError):
        RhoCurveConfig(dim=100, ks=(5,), trials=0)
    # no trial compares true or false against NaN, so none would be counted
    with pytest.raises(ValueError, match="nan"):
        RhoCurveConfig(dim=100, ks=(5,), threshold=float("nan"))
    # an infinite threshold still counts every trial
    for thr in (-math.inf, math.inf):
        (p,) = rho_curve(RhoCurveConfig(dim=100, ks=(5,), trials=7, threshold=thr))
        assert p.tp + p.fn == p.fp + p.tn == 7


def test_rho_curve_undefined_ratio_is_none():
    from hdsem.experiments import RhoCurvePoint

    p = RhoCurvePoint(k=1, sigma=0.1, rho_analytic=1.0, tp=0, fp=0, fn=5, tn=5)
    assert p.precision_emp is None
    assert p.recall_emp == 0.0
