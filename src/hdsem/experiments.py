"""Simulation engines behind the membership-sim and rho-curve commands.

Scores are computed through pairwise integer dots: the bundle score of a
query is the sum of its dots with each bundled vector divided by d, which
equals the componentwise definition exactly (integer linearity, asserted
against brute force in the tests).  That turns a k-vector bundle probe
into k popcounts and makes the full curves cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import DEFAULT_SEED, dot_int_rows, generate_packed, predict_filter_analytics, words_per_vector

@dataclass(frozen=True)
class MembershipSimConfig:
    """One membership-distribution run: fresh size-k bundles, one member and
    one non-member probe per trial, and two trials at least for a std."""

    dim: int = 10_000
    k: int = 1000
    trials: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {self.trials}")


@dataclass(frozen=True)
class MembershipSimResult:
    config: MembershipSimConfig
    member_scores: np.ndarray
    nonmember_scores: np.ndarray

    @property
    def member_mean(self) -> float:
        return float(self.member_scores.mean())

    @property
    def member_std(self) -> float:
        return float(self.member_scores.std(ddof=1))

    @property
    def nonmember_mean(self) -> float:
        return float(self.nonmember_scores.mean())

    @property
    def nonmember_std(self) -> float:
        return float(self.nonmember_scores.std(ddof=1))


def _block_shape(dim, kmax):
    """Trials per batch and stream vectors per chunk for streams of kmax
    vectors.  A chunk's packed words take at most core.BLOCK_BYTES (or one
    vector, when that is larger), and a stream splits into chunks of
    near-equal size, so that each chunk's temporaries reuse the memory
    of the one before instead of faulting in fresh pages."""
    vector_bytes = 8 * words_per_vector(dim)
    batch = max(1, core.BLOCK_BYTES // (vector_bytes * (kmax + 1)))
    most = max(1, core.BLOCK_BYTES // (vector_bytes * batch))
    return batch, -(-kmax // -(-kmax // most))


def _prefix_scores(dim, seed, ks, trials):
    """Member and outsider scores per bundle size k in ascending ks, one
    (b, len(ks)) pair per batch of trials.

    Trial t draws vectors [t*(kmax+1), (t+1)*(kmax+1)) for kmax = ks[-1]:
    a stream whose first k vectors form the size-k bundle, then one
    outsider probe.  The member probe is the stream's first vector, which
    belongs to every prefix, so prefix sums of pairwise dots score every
    k at once.  A batch draws both probes first, then its streams in
    chunks (see _block_shape), carrying the int64 prefix sums across them.
    """
    kmax, k_idx = ks[-1], np.asarray(ks) - 1
    batch, chunk = _block_shape(dim, kmax)
    for start in range(0, trials, batch):
        first = np.arange(start, min(start + batch, trials)) * (kmax + 1)
        probes = [generate_packed(dim, seed, first[:, None] + offset) for offset in (0, kmax)]
        sums = [np.zeros((len(first), 1), dtype=np.int64) for _ in probes]
        scores = [np.empty((len(first), len(ks))) for _ in probes]
        for c in range(0, kmax, chunk):
            stop = min(c + chunk, kmax)
            stream = generate_packed(dim, seed, first[:, None] + np.arange(c, stop))
            hit = (k_idx >= c) & (k_idx < stop)
            for probe, carry, score in zip(probes, sums, scores):
                prefix = carry + dot_int_rows(stream, probe, dim).cumsum(axis=1)
                score[:, hit] = prefix[:, k_idx[hit] - c] / dim
                carry[:] = prefix[:, -1:]
        yield tuple(scores)


def membership_sim(config: MembershipSimConfig) -> MembershipSimResult:
    """Member and non-member score samples over fresh size-k bundles.

    Trial t bundles vectors [t*(k+1), t*(k+1)+k); the member probe is the
    first of them and the non-member probe the next vector.
    """
    batches = list(_prefix_scores(config.dim, config.seed, [config.k], config.trials))
    member = np.concatenate([m[:, 0] for m, _ in batches])
    outsider = np.concatenate([o[:, 0] for _, o in batches])
    return MembershipSimResult(config, member, outsider)


@dataclass(frozen=True)
class RhoCurveConfig:
    """Empirical precision/recall sweep over bundle sizes at one dimension."""

    dim: int = 1000
    ks: tuple[int, ...] = ()
    trials: int = 1000
    seed: int = DEFAULT_SEED
    threshold: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.ks:
            raise ValueError("ks must be non-empty")
        bad = next((k for k in self.ks if k < 1), None)
        if bad is not None:
            raise ValueError(f"every k must be >= 1, got {bad}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # every comparison with NaN is false, so no trial would count as a hit
        if np.isnan(self.threshold):
            raise ValueError("threshold must be a number, got nan")
        object.__setattr__(self, "ks", tuple(sorted(set(self.ks))))


@dataclass(frozen=True)
class RhoCurvePoint:
    k: int
    sigma: float
    rho_analytic: float
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision_emp(self) -> float | None:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else None

    @property
    def recall_emp(self) -> float | None:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else None


def rho_curve(config: RhoCurveConfig) -> list[RhoCurvePoint]:
    """Confusion counts per bundle size from shared prefix streams.

    Each trial scores every k in ks on one stream of max(ks) fresh vectors
    (see _prefix_scores).  Marginal score distributions per k are exactly
    those of independent fresh bundles; only the coupling across k within
    a trial is shared.  Only hits above the threshold are counted; scores
    are finite and the threshold a number, so fn = trials - tp, tn = trials - fp.
    """
    dim, ks, thr, trials = config.dim, config.ks, config.threshold, config.trials
    tp = np.zeros(len(ks), dtype=np.int64)
    fp = np.zeros(len(ks), dtype=np.int64)
    for member_scores, outside_scores in _prefix_scores(dim, config.seed, ks, trials):
        tp += (member_scores > thr).sum(axis=0)
        fp += (outside_scores > thr).sum(axis=0)
    analytics = [predict_filter_analytics(k, dim) for k in ks]
    return [
        RhoCurvePoint(k, a.sigma, a.precision_recall, int(t), int(f), trials - int(t), trials - int(f))
        for k, a, t, f in zip(ks, analytics, tp, fp)
    ]
