"""Context embeddings: each word's context is a bundle of neighbor vectors.

For every occurrence of a word, the words inside a symmetric window
around it (up to half_window on each side, clipped at the ends, center
excluded) contribute their sign vectors to the word's context row.  The
row is therefore an integer bundle, and the model is its sparse
co-occurrence counts, symmetric like the window: the matrix of rows is
the counts times the vocabulary's sign matrix.  The build counts each
pair once, in the upper triangle, and mirrors that into the full
counts once, the only place they exist, to bundle every row for its
exact squared norm.  A model keeps the triangle, each word's row total
and the norms; a saved model (format 4, the only one that loads) stores
the triangle, in the narrowest unsigned integer types that hold it,
and the norms.

No load or query forms the full counts or the matrix of rows.  A word's
count row is its row of the triangle plus its column above the diagonal.
context_similarity bundles the two rows it compares and scores them
through core.nearest, as the top-1 score of one against the other.
Context arithmetic bundles only its operand rows into a query q and
gets every row's dot with q as the counts times the sign vectors' dots
with q, taken from the triangle and its transpose, then ranks the dots
against the stored norms through core.rank.  Every dot is an exact
integer, so ranking is reproducible bit for bit; context_stats reads
the row totals and the triangle's structure alone.
"""

import json
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import core
from .core import exact_dots, nearest, rank, squared_norms
from .errors import CorpusFormatError, EmptyContextError, EmptyQueryError, UnknownWordError
from .textpipe import Vocabulary

MODEL_FORMAT_VERSION = 4


def _check_counts(counts, n):
    """Validate a (n, n) CSR matrix of counts, ValueError unless canonical integers >= 1."""
    counts.check_format(full_check=True)
    if (
        counts.shape != (n, n)
        or counts.dtype.kind not in "iu"
        or not counts.has_canonical_format
        or np.any(counts.data < 1)
    ):
        raise ValueError(f"counts must be a canonical ({n}, {n}) CSR matrix of integer counts >= 1")


def _check_norms(norms_sq, totals, dim):
    """ValueError unless norms_sq could be the squared norms of bundles with these row totals.

    Every entry of a row's bundle is a sum of as many signs as the row's
    total T, so it is congruent to T mod 2 and at most T in size: the
    row's squared norm is at most d T^2 (so 0 when T is 0), congruent to
    d T mod 2, and at least d when T is odd.
    """
    n = len(totals)
    if not isinstance(norms_sq, np.ndarray) or norms_sq.dtype != np.int64 or norms_sq.shape != (n,):
        raise ValueError(f"norms_sq must be an int64 array of length {n}")
    # the checks below compute with dim in int64
    if dim >= 2**63:
        raise ValueError("dim must be below 2^63")
    # totals < 2^31 (the constructor checks), so totals^2 fits int64 where d * totals^2 may not
    whole, part = np.divmod(norms_sq, dim)
    if (
        np.any(norms_sq < 0)
        or np.any((whole > totals**2) | ((whole == totals**2) & (part > 0)))
        or np.any(norms_sq % 2 != (dim % 2) * (totals % 2))
        or np.any(norms_sq[totals % 2 == 1] < dim)
    ):
        raise ValueError("norms_sq are not squared norms of the counts' bundles")


class ContextModel:
    """Co-occurrence counts over a fixed vocabulary, and their rows' squared norms.

    counts[i, j] is how often word j fell in a window around word i, so
    the counts are symmetric.  A model is made from their upper triangle
    (i <= j), which the constructor validates (canonical integer counts
    >= 1, none below the diagonal, within the bundle kernel's int32 range
    so that the queries can bundle them) and keeps as `upper`, with int64
    counts, alongside each word's row total in the full counts (`totals`,
    its row and column sums less its diagonal count `diag`).  Word i's
    context row, the sum of its neighbors' sign vectors, is row i of
    vocabulary.bundle(counts), and norms_sq[i] is its exact int64 squared
    norm, the one derived array a model keeps: every ranked query needs
    all of them, while its dots come from the counts and the query alone.
    build_context_model bundles every row once to compute them, a load
    reads them, and either way they must pass _check_norms.
    """

    __slots__ = ("vocabulary", "half_window", "upper", "totals", "diag", "norms_sq")

    def __init__(self, vocabulary, half_window, upper, norms_sq):
        if half_window < 1:
            raise ValueError("half_window must be >= 1")
        upper = scipy.sparse.csr_matrix(upper)
        n = len(vocabulary)
        _check_counts(upper, n)
        if np.any(upper.indices < np.repeat(np.arange(n), np.diff(upper.indptr))):
            raise ValueError("counts below the diagonal")
        # bundle stores rows in at most int32; each count is checked first,
        # so that the int64 sums below cannot wrap
        if upper.data.max(initial=0) >= 2**31:
            raise ValueError("bundle counts exceed int32 range")
        # a saved file may hold narrow or unsigned counts; uint64 counts
        # would multiply int64 sign dots in float64
        upper.data = upper.data.astype(np.int64, copy=False)
        self.diag = upper.diagonal()
        self.totals = (
            np.asarray(upper.sum(axis=1, dtype=np.int64)).ravel()
            + np.asarray(upper.sum(axis=0, dtype=np.int64)).ravel()
            - self.diag
        )
        if self.totals.max(initial=0) >= 2**31:
            raise ValueError("bundle counts exceed int32 range")
        self.vocabulary = vocabulary
        self.half_window = int(half_window)
        self.upper = upper
        _check_norms(norms_sq, self.totals, vocabulary.dim)
        self.norms_sq = norms_sq

    def count_rows(self, ids):
        """The full count rows of these word ids, as CSR: each word's row of
        the triangle, after its column above the diagonal."""
        upper = self.upper
        cols, data, ends = [], [], [0]
        for i in ids:
            start, stop = upper.indptr[i], upper.indptr[i + 1]
            # the rows before i that count word i
            above = np.flatnonzero(upper.indices[:start] == i)
            cols += [np.searchsorted(upper.indptr, above, side="right") - 1, upper.indices[start:stop]]
            data += [upper.data[above], upper.data[start:stop]]
            ends.append(ends[-1] + len(above) + stop - start)
        return scipy.sparse.csr_matrix(
            (np.concatenate(data), np.concatenate(cols), ends), shape=(len(ids), upper.shape[1])
        )

    def save(self, path):
        meta = {
            "format_version": MODEL_FORMAT_VERSION,
            "dim": self.vocabulary.dim,
            "seed": self.vocabulary.seed,
            "half_window": self.half_window,
            "lemmatizer": self.vocabulary.lemmatizer,
            "stopword_digest": self.vocabulary.stopword_digest,
            "words": list(self.vocabulary.words),
        }
        meta_bytes = np.frombuffer(
            json.dumps(meta, ensure_ascii=False).encode("utf-8"), dtype=np.uint8
        )
        upper = self.upper
        # a file handle, since savez would append .npz to a bare path
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                meta=meta_bytes,
                indptr=upper.indptr,
                # the narrowest types that hold every word index and count
                indices=upper.indices.astype(np.min_scalar_type(max(upper.shape[1] - 1, 0))),
                data=upper.data.astype(np.min_scalar_type(upper.data.max(initial=0))),
                norms_sq=self.norms_sq,
            )

    @classmethod
    def load(cls, path):
        """A saved model, format 4 only: the older formats exit 3, and context build rebuilds them."""
        try:
            # only as a zip archive: np.load would read a .npy file as one array
            with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as data:
                members = {name: data[name] for name in data.files}
        except (FileNotFoundError, PermissionError, IsADirectoryError):
            raise
        # zlib.error: a damaged member; NotImplementedError: a zip version or method zipfile lacks
        except (OSError, ValueError, zipfile.BadZipFile, zlib.error, NotImplementedError) as exc:
            raise CorpusFormatError(f"context model {path}: not a readable npz file ({exc})") from None
        try:
            meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        except KeyError:
            raise CorpusFormatError(f"context model {path}: missing arrays ['meta']") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorpusFormatError(f"context model {path}: bad metadata ({exc})") from None
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise CorpusFormatError(f"context model {path}: unsupported format_version {version!r}")
        missing = {"indptr", "indices", "data", "norms_sq"} - members.keys()
        if missing:
            raise CorpusFormatError(f"context model {path}: missing arrays {sorted(missing)}")
        needed = {"dim", "seed", "half_window", "words"} - meta.keys()
        if needed:
            raise CorpusFormatError(f"context model {path}: metadata missing {sorted(needed)}")
        # a bool is an int to Python, and Vocabulary would split a string into letters
        if not isinstance(meta["words"], list) or any(
            type(meta[key]) is not int for key in ("dim", "seed", "half_window")
        ):
            raise CorpusFormatError(f"context model {path}: need a word list and integer dim, seed, half_window")
        try:
            vocab = Vocabulary(
                meta["words"],
                meta["dim"],
                meta["seed"],
                lemmatizer=meta.get("lemmatizer", "identity"),
                stopword_digest=meta.get("stopword_digest"),
            )
            # csr_matrix would truncate float indices to ints without a word
            if members["indices"].dtype.kind not in "iu" or members["indptr"].dtype.kind not in "iu":
                raise ValueError("indices and indptr must be integer arrays")
            shape = (len(vocab), len(vocab))
            upper = scipy.sparse.csr_matrix((members["data"], members["indices"], members["indptr"]), shape=shape)
            return cls(vocab, meta["half_window"], upper, members["norms_sq"])
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"context model {path}: {exc}") from None


def build_context_model(tokens, vocabulary, half_window=5):
    """Count every word's windowed co-occurrence pairs into a ContextModel.

    tokens is a sequence of str, every one of them in the vocabulary
    (UnknownWordError names the first that is not).  Windows are clipped
    at the stream ends and never include the center position itself
    (repeats of the same word nearby do contribute, they are genuine
    neighbors).  The default half_window of 5 gives the usual 10-token
    total span.  The counts are symmetric, so each pair is counted once,
    at (min, max) in their upper triangle, and a word next to itself
    twice, once from each side.
    """
    if half_window < 1:
        raise ValueError("half_window must be >= 1")
    ids = vocabulary.encode(tokens)
    if len(ids) < len(tokens):
        unknown = next(t for t in tokens if t not in vocabulary)
        raise UnknownWordError(f"word {unknown!r} is not in the vocabulary")
    n = len(vocabulary)
    # k stops at the stream's end, so a window past it costs no empty passes
    ks = range(1, min(half_window, len(ids) - 1) + 1)
    ends = np.cumsum([0] + [len(ids) - k for k in ks])
    lo, hi = np.empty(ends[-1], dtype=np.int64), np.empty(ends[-1], dtype=np.int64)
    # each offset's pairs go straight into their slices, with no temporaries
    for k, start, stop in zip(ks, ends, ends[1:]):
        np.minimum(ids[:-k], ids[k:], out=lo[start:stop])
        np.maximum(ids[:-k], ids[k:], out=hi[start:stop])
    # summed as the lower triangle, whose rows sort faster (frequent words have the small ids)
    upper = scipy.sparse.csr_matrix((np.where(lo == hi, 2, 1), (hi, lo)), shape=(n, n)).T.tocsr()
    del lo, hi  # not held while the full counts, formed here alone, bundle every row
    norms_sq = squared_norms(vocabulary.bundle(upper + scipy.sparse.triu(upper, k=1).T))
    return ContextModel(vocabulary, half_window, upper, norms_sq)


def context_similarity(model, word_a, word_b):
    """Exact cosine between two context rows.

    Raises EmptyContextError when either word has an empty context
    (the cosine is undefined for a zero vector).
    """
    ids = [model.vocabulary.index_of(word) for word in (word_a, word_b)]
    rows = model.vocabulary.bundle(model.count_rows(ids))
    norms_sq = squared_norms(rows)
    if not norms_sq.all():
        raise EmptyContextError("cosine undefined for a zero vector")
    [[(_, score)]] = nearest(rows[:1], norms_sq[:1], rows[1:], 1)
    return score


@dataclass(frozen=True)
class WordMatch:
    rank: int
    word: str
    score: float


def context_arithmetic(model, plus, minus=(), top_n=5):
    """Rank words by cosine against sum(plus contexts) - sum(minus contexts).

    Operand words and words with empty contexts never appear in the
    result; score ties resolve to the lower vocabulary index.  Only the
    operand rows are bundled, into the query q.  Row i's dot with q is
    counts[i] @ y for y = S q, the dots of the sign vectors S with q, so
    y is computed exactly in blocks of sign rows and the dots in int64,
    as upper @ y + (upper.T @ y - diag * y), while the largest row total
    times sum(|q|), which bounds every partial sum, stays below 2^63
    (else ValueError).  The dots rank against the stored norms, and an
    operand row whose stored norm differs from its own raises
    CorpusFormatError.
    """
    plus = list(plus)
    minus = list(minus)
    if not plus and not minus:
        raise ValueError("need at least one operand word")
    vocab = model.vocabulary
    operands = [vocab.index_of(w) for w in plus + minus]
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    rows = vocab.bundle(model.count_rows(operands)).astype(np.int64)
    for i, norm_sq in zip(operands, squared_norms(rows)):
        if norm_sq != model.norms_sq[i]:
            raise CorpusFormatError(f"stored squared norm of {vocab.words[i]!r} does not match its context row")
    signs = np.array([1] * len(plus) + [-1] * len(minus), dtype=np.int64)
    query = signs @ rows
    if not query.any():
        raise EmptyQueryError("query context vector is zero")
    if int(model.totals.max(initial=0)) * int(np.abs(query).sum()) >= 2**63:
        raise ValueError("context dots exceed int64 range")
    # a block's int8 signs and their float32 copy take about BLOCK_BYTES;
    # float32 signs let exact_dots take its float32 tier wherever that is exact
    step = max(1, core.BLOCK_BYTES // (5 * vocab.dim))
    sign_norms = np.full(step, vocab.dim, dtype=np.int64)
    # y at every word, a slice of words at a time; the dots read it only
    # at the words that some row counts
    y = np.empty(len(vocab), dtype=np.int64)
    for w in range(0, len(vocab), step):
        block = vocab.sign_matrix(slice(w, w + step)).astype(np.float32)
        y[w : w + step] = exact_dots(block, sign_norms[: len(block)], query[None])[0]
    # each row's part of the triangle, then its column's less the diagonal
    # counted twice, so every partial sum stays within its row total
    dots = model.upper @ y + (model.upper.T @ y - model.diag * y)
    # the ranking is stable, so without the operands its top rows are the others' in order
    [ranked] = rank(dots[None], top_n + len(operands), squared_norms(query[None]), model.norms_sq)
    ranked = [(i, score) for i, score in ranked if i not in operands][:top_n]
    return [WordMatch(r + 1, vocab.words[i], score) for r, (i, score) in enumerate(ranked)]


def similar_words(model, word, top_n=5):
    """Words whose contexts best align with this word's context."""
    return context_arithmetic(model, [word], (), top_n=top_n)


@dataclass(frozen=True)
class ContextStatsRow:
    word: str
    total_context_words: int
    distinct_context_words: int


def context_stats(model):
    """All words with their context sizes, largest total first.

    Ties on total resolve to the lower vocabulary index so output
    order is reproducible.
    """
    upper, totals = model.upper, model.totals
    # a word's neighbors in its row of the triangle and in its column, once on the diagonal
    distinct = np.diff(upper.indptr) + np.bincount(upper.indices, minlength=len(totals)) - (model.diag > 0)
    order = np.lexsort((np.arange(len(totals)), -totals))
    return [ContextStatsRow(model.vocabulary.words[i], int(totals[i]), int(distinct[i])) for i in order]
