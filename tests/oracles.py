"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written the slow, obvious way (pure Python
ints, dict counting) straight from the documented contracts, with no numpy
and no imports from hdsem, so the production code and these oracles can
only agree by both being right.  The one exception is mirror_counts, which
gives the tests the full counts of a context model in scipy's own layout.
"""

import math
import re
from collections import Counter

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix64_draws(seed, index, n):
    """First n draws of the (seed, index) stream per the generation contract."""
    s = (seed ^ ((index * GOLDEN) & MASK64)) & MASK64
    out = []
    for _ in range(n):
        s = (s + GOLDEN) & MASK64
        z = s
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        z = z ^ (z >> 31)
        out.append(z)
    return out


def reference_signs(dim, seed, index):
    """Component signs of the deterministic vector, as a list of -1/+1.

    Bit j of the vector is bit (63 - (j mod 64)) of draw floor(j / 64); a
    set bit means +1.
    """
    draws = splitmix64_draws(seed, index, (dim + 63) // 64)
    signs = []
    for j in range(dim):
        bit = (draws[j >> 6] >> (63 - (j & 63))) & 1
        signs.append(1 if bit else -1)
    return signs


def packed_bits(rows, dim):
    """0/1 bits of rows of sign words, a list of dim ints per row.

    Bit j of a row is bit (63 - (j mod 64)) of its word floor(j / 64).
    """
    return [[(int(row[j >> 6]) >> (63 - (j & 63))) & 1 for j in range(dim)] for row in rows]


def brute_dot(signs_a, signs_b):
    """Scaled dot of two sign lists: (matches - mismatches) / d."""
    assert len(signs_a) == len(signs_b)
    total = sum(a * b for a, b in zip(signs_a, signs_b))
    return total / len(signs_a)


def brute_bundle(sign_lists):
    """Componentwise integer sums of the given sign lists."""
    dim = len(sign_lists[0])
    comps = [0] * dim
    for signs in sign_lists:
        assert len(signs) == dim
        for i, s in enumerate(signs):
            comps[i] += s
    return comps


def brute_membership(components, query_signs):
    """Scaled dot of query signs with bundle components."""
    assert len(components) == len(query_signs)
    raw = sum(c * q for c, q in zip(components, query_signs))
    return raw / len(components)


def brute_cosine(a, b):
    """Cosine of two integer vectors with the exact-parallel guard."""
    ab = sum(int(x) * int(y) for x, y in zip(a, b))
    aa = sum(int(x) * int(x) for x in a)
    bb = sum(int(y) * int(y) for y in b)
    assert aa > 0 and bb > 0
    if ab * ab == aa * bb:
        return 1.0 if ab > 0 else -1.0
    return ab / math.sqrt(aa * bb)


def brute_top(scores, top_n):
    """Indices of the top_n highest scores, best first, ties to the lowest index.

    None marks a row that must not rank.
    """
    ranked = sorted((-s, i) for i, s in enumerate(scores) if s is not None)
    return [i for _, i in ranked[:top_n]]


def brute_context_counts(words, half_window):
    """Per-word Counter of context words within +-half_window, center excluded.

    Windows are clipped at the ends of the stream; every occurrence of the
    center word accumulates counts (weights by repetition).
    """
    counts = {}
    n = len(words)
    for pos, center in enumerate(words):
        ctr = counts.setdefault(center, Counter())
        lo = max(0, pos - half_window)
        hi = min(n, pos + half_window + 1)
        for other in range(lo, hi):
            if other != pos:
                ctr[words[other]] += 1
    return counts


def mirror_counts(upper):
    """The full symmetric counts of a context model's upper triangle, as CSR.

    The triangle plus the transpose of its part above the diagonal: the
    arrays and dtypes the build bundles for its norms, int32 indices and
    indptr and the triangle's own count dtype.
    """
    import scipy.sparse

    upper = scipy.sparse.csr_matrix(upper)
    return upper + scipy.sparse.triu(upper, k=1).T


def brute_context_stats(words, counts):
    """(word, row total, distinct neighbors) for every row of full count
    lists, largest total first, ties to the lower index."""
    rows = [(word, sum(row), sum(1 for c in row if c)) for word, row in zip(words, counts)]
    return [rows[i] for i in sorted(range(len(rows)), key=lambda i: (-rows[i][1], i))]


def brute_tokenize(text):
    """Lowercase word tokens by character classification, no regex.

    A token is a maximal run of alphanumeric characters (underscore is a
    separator).  Matches the production tokenizer on ASCII and common
    accented letters; exotic Unicode word characters are out of scope.
    """
    tokens = []
    current = []
    for ch in text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
                current = []
    if current:
        tokens.append("".join(current))
    return tokens


_SPLIT_BOUNDARY_RE = re.compile(r"[.!?]+[\"')\]]*")
_SPLIT_ABBREVIATIONS = frozenset(
    "mr mrs ms dr st prof rev col gen capt lt sgt maj mme mlle vs etc jr sr".split()
)
_SPLIT_WORD_BEFORE_RE = re.compile(r"([A-Za-z]+)$")


def reference_split_sentences(text):
    """Sentence splitter with an unbounded look-back for the word before a period.

    The splitting contract of hdsem.sentences.split_sentences, written the
    direct way: the whole text before every bare period is searched for
    the letter run that ends there, which is quadratic in the text length.
    """
    sentences = []
    start = 0
    for m in _SPLIT_BOUNDARY_RE.finditer(text):
        end = m.end()
        if end < len(text) and not text[end].isspace():
            continue
        if m.group(0) == ".":
            wm = _SPLIT_WORD_BEFORE_RE.search(text, 0, m.start())
            if wm:
                w = wm.group(1)
                if w.lower() in _SPLIT_ABBREVIATIONS:
                    continue
                if len(w) == 1 and w.isupper() and w != "I":
                    continue
        piece = text[start:end].strip()
        if piece:
            sentences.append(piece)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def normal_cdf_quadrature(x, steps=200_000, lower=-40.0):
    """Standard normal CDF by composite Simpson integration of the density.

    Used once to freeze expected constants; erfc-based production values
    must agree to well under 1e-7.
    """
    if x <= lower:
        return 0.0
    n = steps if steps % 2 == 0 else steps + 1
    h = (x - lower) / n
    dens = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    total = dens(lower) + dens(x)
    for i in range(1, n):
        total += dens(lower + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


# Frozen golden values, regenerable with the functions above.

# splitmix64_draws(1234567, 0, 5)
SPLITMIX_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]

# splitmix64_draws(0, 0, 3)
SPLITMIX_SEED_0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
]

# normal_cdf_quadrature(-1.5)
PHI_MINUS_1_5 = 0.0668072012688581

# analytics at sigma = 1/3: overlap = 2 * Phi(-1.5), rho = 1 - s / (2 - s)
OVERLAP_SIGMA_THIRD = 0.13361440253771617
RHO_SIGMA_THIRD = 0.928410076288956
