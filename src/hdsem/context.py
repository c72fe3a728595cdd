"""Context embeddings: each word's context is a bundle of neighbor vectors.

For every occurrence of a word, the words inside a symmetric window
around it (up to half_window on each side, clipped at the ends, center
excluded) contribute their sign vectors to the word's context row.  The
row is therefore an integer bundle, and the model is its sparse
co-occurrence counts: the matrix of rows is the counts times the
vocabulary's sign matrix, derived by Vocabulary.bundle whenever a model
is built or loaded (in float32 while every row's total count is at most
2^24, in int32 above it, exact int32 either way).  A saved model
(format 2) holds the counts, the word occurrences and the vocabulary
metadata, nothing derived.  Words are compared by the cosine of their
rows, and context arithmetic ranks every row against a sum and
difference of rows.  core.cosines scores them exactly, so ranking is
reproducible bit for bit.
"""

import json
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .core import cosines, squared_norms, top_rows
from .errors import CorpusFormatError, EmptyContextError, EmptyQueryError, UnknownWordError
from .textpipe import Vocabulary

MODEL_FORMAT_VERSION = 2


class ContextModel:
    """Per-word context bundles over a fixed vocabulary, derived from counts.

    counts[i, j] is how often word j fell in a window around word i and
    occurrences[i] how often word i itself appeared; both are validated
    here, and they are all a saved model stores.  Derived from them once:
    matrix[i], the sum of neighbor sign vectors for word i, as float64
    (exact, since no |entry| reaches 2^31); its exact squared norms norms_sq;
    context_totals[i], the contributing (occurrence, neighbor) pairs; and
    context_distinct[i], the distinct neighbor words.
    """

    __slots__ = (
        "vocabulary",
        "half_window",
        "counts",
        "occurrences",
        "matrix",
        "norms_sq",
        "context_totals",
        "context_distinct",
    )

    def __init__(self, vocabulary, half_window, counts, occurrences):
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
        occurrences = np.asarray(occurrences)
        if occurrences.shape != (n,) or occurrences.dtype.kind not in "iu" or np.any(occurrences < 0):
            raise ValueError(f"occurrences must be {n} integers >= 0")
        self.vocabulary = vocabulary
        self.half_window = int(half_window)
        self.counts = counts
        self.occurrences = occurrences.astype(np.int64)
        self.matrix = vocabulary.bundle(counts).astype(np.float64)
        self.norms_sq = squared_norms(self.matrix)
        self.context_totals = np.asarray(counts.sum(axis=1, dtype=np.int64)).ravel()
        self.context_distinct = np.diff(counts.indptr).astype(np.int64)

    @property
    def dim(self):
        return self.vocabulary.dim

    def __len__(self):
        return len(self.vocabulary)

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
                occurrences=self.occurrences,
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
        if version != MODEL_FORMAT_VERSION:
            raise CorpusFormatError(f"context model {path}: unsupported format_version {version!r}")
        missing = {"indptr", "indices", "data", "occurrences"} - members.keys()
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
            return cls(vocab, meta["half_window"], counts, members["occurrences"])
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"context model {path}: {exc}") from None


def build_context_model(tokens, vocabulary, half_window=5):
    """Count windowed co-occurrences for every word and bundle them.

    tokens is a sequence of str, every one of them in the vocabulary
    (UnknownWordError names the first that is not).  Windows are clipped
    at the stream ends and never include the center position itself
    (repeats of the same word nearby do contribute, they are genuine
    neighbors).  The default half_window of 5 gives the usual 10-token
    total span.
    """
    if half_window < 1:
        raise ValueError("half_window must be >= 1")
    ids = vocabulary.encode(tokens)
    if len(ids) < len(tokens):
        unknown = next(t for t in tokens if t not in vocabulary)
        raise UnknownWordError(f"word {unknown!r} is not in the vocabulary")
    n = len(vocabulary)
    # the pair (position p, position p + k) contributes both ways; ids[:0]
    # keeps the lists non-empty for a stream of fewer than two tokens
    ks = range(1, min(half_window, len(ids) - 1) + 1)
    rows = np.concatenate([ids[:-k] for k in ks] + [ids[k:] for k in ks] + [ids[:0]])
    cols = np.concatenate([ids[k:] for k in ks] + [ids[:-k] for k in ks] + [ids[:0]])
    counts = scipy.sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
    return ContextModel(vocabulary, half_window, counts, np.bincount(ids, minlength=n))


def context_similarity(model, word_a, word_b):
    """Exact cosine between two context rows.

    Raises EmptyContextError when either word has an empty context
    (the cosine is undefined for a zero vector).
    """
    a = model.vocabulary.index_of(word_a)
    b = model.vocabulary.index_of(word_b)
    score = cosines(model.matrix[[a]], model.norms_sq[[a]], model.matrix[[b]])[0, 0]
    if score == -np.inf:
        raise EmptyContextError("cosine undefined for a zero vector")
    return float(score)


@dataclass(frozen=True)
class WordMatch:
    rank: int
    word: str
    score: float


def _rank_against(model, query_vec, exclude_idx, top_n):
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if not query_vec.any():
        raise EmptyQueryError("query context vector is zero")
    scores = cosines(model.matrix, model.norms_sq, query_vec[None])[0]
    scores[exclude_idx] = -np.inf
    ranked = [i for i in top_rows(scores, top_n) if scores[i] > -np.inf]
    return [WordMatch(r + 1, model.vocabulary.words[i], float(scores[i])) for r, i in enumerate(ranked)]


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
    signs = np.array([1] * len(plus) + [-1] * len(minus), dtype=np.int64)
    return _rank_against(model, signs @ model.matrix[operands].astype(np.int64), operands, top_n)


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
    n = len(model.vocabulary)
    order = np.lexsort((np.arange(n), -model.context_totals))
    return [
        ContextStatsRow(
            model.vocabulary.words[i],
            int(model.context_totals[i]),
            int(model.context_distinct[i]),
        )
        for i in order
    ]
