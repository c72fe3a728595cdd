"""Context embeddings: each word's context is a bundle of neighbor vectors.

For every occurrence of a word, the words inside a symmetric window
around it (up to half_window on each side, clipped at the ends, center
excluded) contribute their sign vectors to the word's context row.  The
row is therefore an integer bundle, and the model is its sparse
co-occurrence counts, symmetric like the window (pairs are counted left
to right, the transpose adds the rest): the matrix of rows is the counts
times the vocabulary's sign matrix.  A model, in memory or saved (format
3), holds the counts and the vocabulary, nothing derived.  Each query
bundles what it reads with Vocabulary.bundle: context_similarity the
two rows it compares, and context arithmetic every row, which it ranks
against a sum and difference of rows.  Both score exactly through
core.nearest, context_similarity as the top-1 score of one row against
the other, so ranking is reproducible bit for bit; context_stats reads
the counts alone.
"""

import json
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .core import nearest, squared_norms
from .errors import CorpusFormatError, EmptyContextError, EmptyQueryError, UnknownWordError
from .textpipe import Vocabulary, bundle_bound

MODEL_FORMAT_VERSION = 3


class ContextModel:
    """Co-occurrence counts over a fixed vocabulary: what a model is and saves.

    counts[i, j] is how often word j fell in a window around word i.  The
    counts are validated here, also against bundle_bound, so that the
    queries can bundle them.  Word i's context row, the sum of its
    neighbors' sign vectors, is row i of vocabulary.bundle(counts).
    """

    __slots__ = ("vocabulary", "half_window", "counts")

    def __init__(self, vocabulary, half_window, counts):
        n = len(vocabulary)
        if half_window < 1:
            raise ValueError("half_window must be >= 1")
        counts = scipy.sparse.csr_matrix(counts)
        counts.check_format(full_check=True)
        if (
            counts.shape != (n, n)
            or counts.dtype.kind not in "iu"
            or not counts.has_canonical_format
            or np.any(counts.data < 1)
        ):
            raise ValueError(f"counts must be a canonical ({n}, {n}) CSR matrix of integer counts >= 1")
        bundle_bound(counts)
        self.vocabulary = vocabulary
        self.half_window = int(half_window)
        self.counts = counts

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
        # a file handle, since savez would append .npz to a bare path
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                meta=meta_bytes,
                indptr=self.counts.indptr,
                indices=self.counts.indices,
                data=self.counts.data,
            )

    @classmethod
    def load(cls, path):
        try:
            with np.load(path, allow_pickle=False) as data:
                members = {name: data[name] for name in data.files}
        except (FileNotFoundError, PermissionError, IsADirectoryError):
            raise
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise CorpusFormatError(f"context model {path}: not a readable npz file ({exc})") from None
        try:
            meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        except KeyError:
            raise CorpusFormatError(f"context model {path}: missing arrays ['meta']") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorpusFormatError(f"context model {path}: bad metadata ({exc})") from None
        version = meta.get("format_version") if isinstance(meta, dict) else None
        # format 2 also saved each word's occurrence count, which is not read
        if version not in (2, MODEL_FORMAT_VERSION):
            raise CorpusFormatError(f"context model {path}: unsupported format_version {version!r}")
        missing = {"indptr", "indices", "data"} - members.keys()
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
            csr = (members["data"], members["indices"], members["indptr"])
            counts = scipy.sparse.csr_matrix(csr, shape=(len(vocab), len(vocab)))
            return cls(vocab, meta["half_window"], counts)
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"context model {path}: {exc}") from None


def build_context_model(tokens, vocabulary, half_window=5):
    """Count every word's windowed co-occurrence pairs into a ContextModel.

    tokens is a sequence of str, every one of them in the vocabulary
    (UnknownWordError names the first that is not).  Windows are clipped
    at the stream ends and never include the center position itself
    (repeats of the same word nearby do contribute, they are genuine
    neighbors).  The default half_window of 5 gives the usual 10-token
    total span.  Counts add, so each pair is counted left to right and
    the transpose adds it right to left.
    """
    if half_window < 1:
        raise ValueError("half_window must be >= 1")
    ids = vocabulary.encode(tokens)
    if len(ids) < len(tokens):
        unknown = next(t for t in tokens if t not in vocabulary)
        raise UnknownWordError(f"word {unknown!r} is not in the vocabulary")
    n = len(vocabulary)
    # k stops at the stream's end, so a window past it costs no empty
    # passes; ids[:0] keeps the lists non-empty for fewer than two tokens
    ks = range(1, min(half_window, len(ids) - 1) + 1)
    rows = np.concatenate([ids[:-k] for k in ks] + [ids[:0]])
    cols = np.concatenate([ids[k:] for k in ks] + [ids[:0]])
    forward = scipy.sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
    # the sum's arrays are views into buffers sized for both operands; copy trims them
    counts = (forward + forward.T).copy()
    return ContextModel(vocabulary, half_window, counts)


def context_similarity(model, word_a, word_b):
    """Exact cosine between two context rows.

    Raises EmptyContextError when either word has an empty context
    (the cosine is undefined for a zero vector).
    """
    ids = [model.vocabulary.index_of(word) for word in (word_a, word_b)]
    rows = model.vocabulary.bundle(model.counts[ids])
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
    result; score ties resolve to the lower vocabulary index.
    """
    plus = list(plus)
    minus = list(minus)
    if not plus and not minus:
        raise ValueError("need at least one operand word")
    operands = [model.vocabulary.index_of(w) for w in plus + minus]
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    matrix = model.vocabulary.bundle(model.counts)
    signs = np.array([1] * len(plus) + [-1] * len(minus), dtype=np.int64)
    query = signs @ matrix[operands].astype(np.int64)
    if not query.any():
        raise EmptyQueryError("query context vector is zero")
    # the ranking is stable, so without the operands its top rows are the others' in order
    [ranked] = nearest(matrix, squared_norms(matrix), query[None], top_n + len(operands))
    ranked = [(i, score) for i, score in ranked if i not in operands][:top_n]
    return [WordMatch(r + 1, model.vocabulary.words[i], score) for r, (i, score) in enumerate(ranked)]


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
    totals = np.asarray(model.counts.sum(axis=1, dtype=np.int64)).ravel()
    distinct = np.diff(model.counts.indptr)
    order = np.lexsort((np.arange(len(totals)), -totals))
    return [ContextStatsRow(model.vocabulary.words[i], int(totals[i]), int(distinct[i])) for i in order]
