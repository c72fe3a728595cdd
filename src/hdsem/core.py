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
rank is the one scorer: it turns exact dots into cosines, or takes
them as they are, and orders them.  nearest ranks bundles against
integer queries by cosine or by dot / d through it, from the dots of
exact_dots, the one dot kernel, which bounds every dot by the squared
norms on both sides and so keeps it an exact integer; the context
queries rank dots they compute without the rows.

BLOCK_BYTES is the one byte budget of every blocked loop in the package,
nearest's blocks of queries among them.  The other modules read it as
core.BLOCK_BYTES when they run, so setting it here resizes them all.
packed_signs and squared_norms read none: numpy streams their casts.
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

# Byte budget of one block of every blocked loop: each sizes its dense
# temporaries from it, so none grows with the corpus.
BLOCK_BYTES = 1 << 20

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
        indices: integer array-like of vector indices, each >= 0, of any shape.

    Returns:
        uint64 array of shape indices.shape + (words_per_vector(dim),).
        Unused tail bits of the last word are zero, so packed words can be
        XORed and popcounted directly.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    idx = np.asarray(indices, dtype=np.uint64)
    nwords = words_per_vector(dim)
    state0 = _U(seed & MASK64) ^ (idx * _U(GOLDEN))
    steps = np.arange(1, nwords + 1, dtype=np.uint64) * _U(GOLDEN)
    words = _mix64(state0[..., None] + steps)
    mask = _tail_mask(dim)
    if mask != MASK64:
        words[..., -1] &= _U(mask)
    return words


def packed_signs(words: np.ndarray, dim: int) -> np.ndarray:
    """Unpack sign words to an int8 array of -1/+1 of shape (..., dim).

    Byte-swapping each word to big-endian puts bit 63 first, so one flat
    unpackbits, most significant bit first, follows the generation
    contract; the bits map to -1/+1 in place, so the only temporary is the
    byte-swapped copy of the words.
    """
    signs = np.unpackbits(words.astype(">u8", order="C").view(np.uint8)).view(np.int8)
    signs *= 2
    signs -= 1
    return signs.reshape(words.shape[:-1] + (words.shape[-1] * 64,))[..., :dim]


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


# The scoring kernel: one exactness guard covers every cosine and ranking.


def squared_norms(rows):
    """Exact int64 squared norms of integer-valued rows, shape (n,).

    max|entry|^2 * d bounds every partial sum: below 2^53 the rows sum in
    float64, past that in int64, and from 2^63 on it raises ValueError,
    where the sum could wrap.  einsum casts the rows in its own fixed-size
    buffered chunks, so no converted copy of them is ever made.
    """
    peak = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    bound = peak**2 * rows.shape[-1]
    if bound >= 2**63:
        raise ValueError("integer squared norms exceed int64 range")
    tier = np.float64 if bound < 2**53 else np.int64
    return np.einsum("ij,ij->i", rows, rows, dtype=tier, casting="unsafe").astype(np.int64, copy=False)


def exact_dots(rows, norms_sq, queries):
    """Dots of (m, d) integer-valued queries with (n, d) integer-valued rows, (m, n).

    The one dot kernel, which nearest ranks.  rows and queries may be
    float32, float64 or any integer dtype, and the queries convert only
    as a tier needs; norms_sq holds the rows' exact squared norms, and
    the queries' come from squared_norms, which raises ValueError past
    int64.  By Cauchy-Schwarz, |sum_S q_i r_i| <= |q| |r| for any set S
    of coordinates, so the product of the largest squared norms on each
    side bounds the square of every partial sum: below 2^48 float32 rows
    multiply in float32, below 2^106 any rows in float64 blocks, and
    int64 blocks take the rest, so every value is the exact integer, as
    float64 in the first two tiers and int64 in the last.
    """
    queries = np.asarray(queries)
    bound = int(squared_norms(queries).max(initial=0)) * int(norms_sq.max(initial=0))
    if rows.dtype == np.float32 and bound < 2**48:
        # every partial sum stays below 2^24, where float32 is exact
        return (queries.astype(np.float32, copy=False) @ rows.T).astype(np.float64)
    # below 2^106 every partial sum stays below 2^53, where float64 is
    # exact; past it both norms still fit int64, and so does every partial sum
    dtype = np.float64 if bound < 2**106 else np.int64
    queries = queries.astype(dtype, copy=False)
    out = np.empty((len(queries), len(rows)), dtype=dtype)
    step = max(1, BLOCK_BYTES // (8 * rows.shape[-1] or 1))
    for r in range(0, len(rows), step):
        out[:, r : r + step] = queries @ rows[r : r + step].astype(dtype, copy=False).T
    return out


def rank(dots, top_n, qq=None, norms_sq=None):
    """The top_n rows for every query, best first: one list of (row, score) per query.

    dots holds the exact (m, n) integer dots of m queries with n rows, as
    float64 or int64.  Given the exact int64 squared norms qq of the
    queries and norms_sq of the rows, the scores are cosines; without
    them, the dots themselves.  A cosine with a zero norm on either side
    scores -inf, and integer-parallel pairs score exactly +-1, checked
    with Python ints near +-1, so float rounding never ranks a perfect
    match below a near-duplicate.  Ties go to the lowest row index, and
    rows scored -inf are left out; top-1 over no rows raises ValueError.
    """
    scores = dots
    if qq is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = dots / np.sqrt(qq[:, None] * norms_sq.astype(np.float64))
        scores[(qq[:, None] == 0) | (norms_sq == 0)] = -np.inf
        for i, j in zip(*np.nonzero(np.abs(np.abs(scores) - 1.0) < 1e-9)):
            if int(dots[i, j]) ** 2 == int(qq[i]) * int(norms_sq[j]):
                scores[i, j] = 1.0 if dots[i, j] > 0 else -1.0
    if top_n == 1:
        best = np.argmax(scores, axis=-1)[:, None]
    else:
        best = np.argsort(-scores, axis=-1, kind="stable")[:, :top_n]
    return [[(int(i), float(row[i])) for i in top if row[i] > -np.inf] for row, top in zip(scores, best)]


def nearest(rows, norms_sq, queries, top_n, normalize=True):
    """The top_n rows for every query, best first: one list of (row, score) per query.

    Arguments are as in exact_dots.  rank scores and orders the dots:
    cosines, or with normalize=False exact dots / d (d is
    rows.shape[-1]).  A block of queries gets about BLOCK_BYTES of scores.
    """
    queries = np.asarray(queries)
    step = max(1, BLOCK_BYTES // (8 * len(rows) or 1))
    ranked = []
    for b in range(0, len(queries), step):
        block = queries[b : b + step]
        dots = exact_dots(rows, norms_sq, block)
        if normalize:
            ranked += rank(dots, top_n, squared_norms(block), norms_sq)
        else:
            ranked += rank(dots / rows.shape[-1], top_n)
    return ranked
