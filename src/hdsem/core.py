"""Sign words, packed dots, filter analytics and the exact scoring kernel.

Every vector is a dense pattern of d signs, each -1 or +1, carrying an
implicit 1/sqrt(d) scale, so the scaled dot of two vectors is
(matches - mismatches) / d.  Signs live bit-packed in uint64 rows, 64 per
word, with bit j of a vector at bit position (63 - (j mod 64)) of word
floor(j / 64); a set bit means +1.  dot_int_rows scores packed rows with
one XOR and a popcount; packed_signs unpacks rows to -1/+1 for the
integer bundles (sums of sign vectors) the applications build.

Generation is deterministic: word w of vector (seed, index) is draw w of
a SplitMix64 stream whose initial state is seed XOR (index * GOLDEN), so
the same (dim, seed, index) triple always regenerates the same vector
and large vector sets never need to be stored.

The membership score of a query against a bundle of k vectors is their
scaled dot; it concentrates around 1 for bundled vectors and around 0
for fresh ones, with noise sigma = sqrt(k/d), from which
predict_filter_analytics derives the threshold-1/2 filter's rates.
Bundles are ranked against integer queries by exact_dots, cosines and
top_rows, which bound every dot by the squared norms on both sides and
so keep it an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64 constants: golden-ratio increment and the two finalizer multipliers.
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Fixed default seed used by every command-line entry point.
DEFAULT_SEED = 42

_U = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays (wraps mod 2^64)."""
    z = (z ^ (z >> _U(30))) * _U(MIX1)
    z = (z ^ (z >> _U(27))) * _U(MIX2)
    return z ^ (z >> _U(31))


def words_per_vector(dim: int) -> int:
    return (dim + 63) // 64


def _tail_mask(dim: int) -> int:
    """Mask keeping only the valid (top) bits of the last word."""
    r = dim & 63
    if r == 0:
        return MASK64
    return (MASK64 << (64 - r)) & MASK64


def generate_packed(dim: int, seed: int, indices) -> np.ndarray:
    """Sign words for a batch of deterministic vectors.

    Args:
        dim: vector dimension, >= 1.
        seed: 64-bit stream seed (wider ints are reduced mod 2^64).
        indices: integer array-like of vector indices, each >= 0.

    Returns:
        uint64 array of shape (len(indices), words_per_vector(dim)).  Unused
        tail bits of the last word are zero, so packed words can be XORed
        and popcounted directly.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    idx = np.asarray(indices, dtype=np.uint64)
    if idx.ndim != 1:
        idx = idx.reshape(-1)
    nwords = words_per_vector(dim)
    state0 = _U(seed & MASK64) ^ (idx * _U(GOLDEN))
    steps = np.arange(1, nwords + 1, dtype=np.uint64) * _U(GOLDEN)
    words = _mix64(state0[:, None] + steps[None, :])
    mask = _tail_mask(dim)
    if mask != MASK64:
        words[:, -1] &= _U(mask)
    return words


def packed_bits(words: np.ndarray, dim: int) -> np.ndarray:
    """Unpack sign words to a 0/1 uint8 array of shape (..., dim).

    Bit order matches the generation contract: byte-swapping each word to
    big-endian puts bit 63 first, so unpackbits yields vector order.
    """
    be = np.ascontiguousarray(words.astype(">u8"))
    flat = be.view(np.uint8).reshape(words.shape[:-1] + (words.shape[-1] * 8,))
    return np.unpackbits(flat, axis=-1)[..., :dim]


def packed_signs(words: np.ndarray, dim: int) -> np.ndarray:
    """Unpack sign words to an int8 array of -1/+1 of shape (..., dim)."""
    bits = packed_bits(words, dim).astype(np.int8)
    return 2 * bits - 1


def dot_int_rows(rows: np.ndarray, query_words: np.ndarray, dim: int) -> np.ndarray:
    """Unscaled integer dots (matches - mismatches) of packed sign words.

    XOR marks the mismatching bits and the popcount along the last axis
    counts them; rows and query_words broadcast against each other, so
    one call scores (..., w) rows against (..., 1, w) queries.  Both must
    hold words_per_vector(dim) words, else ValueError.
    """
    w = words_per_vector(dim)
    if rows.shape[-1] != w or query_words.shape[-1] != w:
        raise ValueError(f"packed rows must hold {w} words for dim {dim}")
    return dim - 2 * np.bitwise_count(rows ^ query_words).sum(axis=-1, dtype=np.int64)


def orthogonality_bound(dim: int, delta: float) -> float:
    """Claimed lower bound 1 - exp(-dim * delta^2) on Pr(|dot| <= delta).

    This is the closed form the analytics are built on.  Exact binomial
    tails are wider than exp(-dim * delta^2) for most (dim, delta) of
    interest, so treat the value as a design heuristic, not a guarantee;
    see the test suite's exact-tail checks.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return 1.0 - math.exp(-dim * delta * delta)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class FilterAnalytics:
    """Closed-form operating point of a threshold-1/2 membership filter.

    sigma is the score noise scale sqrt(k/dim); overlap s is the probability
    mass the member and non-member score distributions share; the four
    rates follow the paper's overlap split, so fp_rate = fn_rate = s/2 and
    tp_rate = tn_rate = 1 - s (tp_rate is not 1 - fn_rate).

    precision_recall is the paper's design figure
    rho(sigma) = (1 - s) / (1 - s/2).  It is not what the conventional
    estimators measure: with one member and one outsider probe at the
    halfway threshold, measured precision and recall both converge to
    1 - fn_rate = 1 - s/2, which exceeds rho by s^2 / (2 (2 - s)).
    """

    sigma: float
    overlap: float
    fp_rate: float
    fn_rate: float
    tp_rate: float
    tn_rate: float
    precision_recall: float


def predict_filter_analytics(k: int, dim: int) -> FilterAnalytics:
    """Analytics for a bundle of k vectors in dimension dim.

    overlap(sigma) = 2 * Phi(-1 / (2 sigma)); the false rates each take
    half the overlap, the true rates are 1 - overlap, and precision_recall
    is the paper's rho = 1 - overlap / (2 - overlap).  The conventional
    precision and recall estimators at the halfway threshold converge to
    1 - fn_rate instead; see FilterAnalytics.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    sigma = math.sqrt(k / dim)
    return analytics_for_sigma(sigma)


def analytics_for_sigma(sigma: float) -> FilterAnalytics:
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    overlap = 2.0 * normal_cdf(-1.0 / (2.0 * sigma))
    rho = 1.0 - overlap / (2.0 - overlap)
    return FilterAnalytics(
        sigma=sigma,
        overlap=overlap,
        fp_rate=overlap / 2.0,
        fn_rate=overlap / 2.0,
        tp_rate=1.0 - overlap,
        tn_rate=1.0 - overlap,
        precision_recall=rho,
    )


# Every cosine and ranking of integer bundles goes through the scoring
# kernel below, so one exactness guard covers them all.


def squared_norms(rows):
    """Exact int64 squared norms of integer-valued rows, shape (n,).

    max|entry|^2 * d bounds every partial sum: below 2^53 the rows sum in
    float64, past that in int64, and from 2^63 on it raises ValueError,
    where the sum could wrap.
    """
    peak = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    bound = peak**2 * rows.shape[-1]
    if bound >= 2**63:
        raise ValueError("integer squared norms exceed int64 range")
    dtype = np.float64 if bound < 2**53 else np.int64
    out = np.empty(len(rows), dtype=np.int64)
    for r in range(0, len(rows), 1024):  # blocks keep the converted copy small
        block = rows[r : r + 1024].astype(dtype, copy=False)
        out[r : r + 1024] = np.einsum("ij,ij->i", block, block)
    return out


def _dots(rows, norms_sq, queries, qq):
    bound = int(qq.max(initial=0)) * int(norms_sq.max(initial=0))
    fast, limit = (np.int32, 2**62) if rows.dtype == np.int32 else (np.float64, 2**106)
    if bound < limit:
        return queries.astype(fast) @ rows.astype(fast, copy=False).T
    # both norms fit int64, so every partial sum stays below 2^63
    out = np.empty((len(queries), len(rows)), dtype=np.int64)
    for r in range(0, len(rows), 1024):  # blocks keep the int64 copy small
        out[:, r : r + 1024] = queries @ rows[r : r + 1024].astype(np.int64).T
    return out


def exact_dots(rows, norms_sq, queries):
    """Dots of (m, d) integer queries with (n, d) integer-valued rows, (m, n).

    rows may be int32, int64 or float64, with exact squared norms norms_sq;
    the queries' come from squared_norms, which raises ValueError past
    int64.  By Cauchy-Schwarz, |sum_S q_i r_i| <= |q| |r| for any set S
    of coordinates, so the product of the largest squared norms on each
    side bounds the square of every partial sum: below 2^62 int32 rows
    multiply in int32, below 2^106 other rows in float64, and int64 row
    blocks take the rest, so every value is the exact integer.
    """
    queries = np.asarray(queries, dtype=np.int64)
    return _dots(rows, norms_sq, queries, squared_norms(queries))


def cosines(rows, norms_sq, queries):
    """Cosine of every query against every row, shape (m, n).

    Arguments are as in exact_dots.  A zero norm on either side scores
    -inf.  Integer-parallel pairs score exactly +-1, checked with Python
    ints near +-1, so float rounding never ranks a perfect match below a
    near-duplicate.
    """
    queries = np.asarray(queries, dtype=np.int64)
    qq = squared_norms(queries)
    dots = _dots(rows, norms_sq, queries, qq)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = dots / np.sqrt(qq[:, None] * norms_sq.astype(np.float64))
    scores[(qq[:, None] == 0) | (norms_sq == 0)] = -np.inf
    for i, j in zip(*np.nonzero(np.abs(np.abs(scores) - 1.0) < 1e-9)):
        if int(dots[i, j]) ** 2 == int(qq[i]) * int(norms_sq[j]):
            scores[i, j] = 1.0 if dots[i, j] > 0 else -1.0
    return scores


def top_rows(scores, top_n):
    """Indices of the top_n highest scores along the last axis, best first.

    Ties go to the lowest index; callers drop rows scored -inf.
    """
    if top_n == 1:
        return np.argmax(scores, axis=-1)[..., None]
    return np.argsort(-scores, axis=-1, kind="stable")[..., :top_n]
