"""Context embeddings: each word's context is a bundle of neighbor vectors.

For every occurrence of a word, the words inside a symmetric window
around it (up to half_window on each side, clipped at the ends, center
excluded) contribute their sign vectors to the word's context row.  The
row is therefore an integer bundle: the model's matrix is the sparse
co-occurrence counts times the vocabulary's sign matrix.  Words are
compared by the cosine of their rows, and context arithmetic ranks every
row against a sum and difference of rows.

Scoring stays exact: core.cosines multiplies the integer rows in float64
only while max|entry| * sum(|q|) < 2**53 and in int64 past it, so
ranking is reproducible bit for bit.
"""

import json
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .core import cosines, squared_norms, top_rows
from .errors import CorpusFormatError, EmptyContextError, EmptyQueryError
from .textpipe import Vocabulary

MODEL_FORMAT_VERSION = 1


class ContextModel:
    """Per-word context bundles over a fixed vocabulary.

    matrix[i] is the integer sum of neighbor sign vectors for word i;
    context_totals[i] counts the contributing (occurrence, neighbor)
    pairs, context_distinct[i] the distinct neighbor words, and
    occurrences[i] how often word i itself appeared.
    """

    __slots__ = (
        "vocabulary",
        "half_window",
        "matrix",
        "context_totals",
        "context_distinct",
        "occurrences",
    )

    def __init__(self, vocabulary, half_window, matrix, context_totals, context_distinct, occurrences):
        n = len(vocabulary)
        if half_window < 1:
            raise ValueError("half_window must be >= 1")
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (n, vocabulary.dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match ({n}, {vocabulary.dim})")
        context_totals = np.asarray(context_totals, dtype=np.int64)
        context_distinct = np.asarray(context_distinct, dtype=np.int64)
        occurrences = np.asarray(occurrences, dtype=np.int64)
        for name, arr in (
            ("context_totals", context_totals),
            ("context_distinct", context_distinct),
            ("occurrences", occurrences),
        ):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        self.vocabulary = vocabulary
        self.half_window = int(half_window)
        self.matrix = matrix
        self.context_totals = context_totals
        self.context_distinct = context_distinct
        self.occurrences = occurrences

    @property
    def dim(self):
        return self.vocabulary.dim

    def __len__(self):
        return len(self.vocabulary)

    def context_vector(self, word):
        """Integer context row for a word, as a copy."""
        return self.matrix[self.vocabulary.index_of(word)].copy()

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
        np.savez_compressed(
            path,
            meta=meta_bytes,
            matrix=self.matrix,
            context_totals=self.context_totals,
            context_distinct=self.context_distinct,
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
        missing = {"meta", "matrix", "context_totals", "context_distinct", "occurrences"} - members.keys()
        if missing:
            raise CorpusFormatError(f"context model {path}: missing arrays {sorted(missing)}")
        try:
            meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorpusFormatError(f"context model {path}: bad metadata ({exc})") from None
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise CorpusFormatError(f"context model {path}: unsupported format_version {version!r}")
        needed = {"dim", "seed", "half_window", "words"} - meta.keys()
        if needed:
            raise CorpusFormatError(f"context model {path}: metadata missing {sorted(needed)}")
        try:
            vocab = Vocabulary(
                meta["words"],
                meta["dim"],
                meta["seed"],
                lemmatizer=meta.get("lemmatizer", "identity"),
                stopword_digest=meta.get("stopword_digest"),
            )
            return cls(
                vocab,
                meta["half_window"],
                members["matrix"],
                members["context_totals"],
                members["context_distinct"],
                members["occurrences"],
            )
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"context model {path}: {exc}") from None


def build_context_model(tokens, vocabulary, half_window=5):
    """Accumulate windowed co-occurrence bundles for every word.

    tokens may be Token objects or plain strings; every token must be
    present in the vocabulary.  Windows are clipped at the stream ends
    and never include the center position itself (repeats of the same
    word nearby do contribute, they are genuine neighbors).  The default
    half_window of 5 gives the usual 10-token total span.
    """
    if half_window < 1:
        raise ValueError("half_window must be >= 1")
    ids = vocabulary.encode(tokens)
    n = len(vocabulary)
    m = len(ids)
    occurrences = np.bincount(ids, minlength=n) if m else np.zeros(n, dtype=np.int64)

    centers = []
    neighbors = []
    for offset in range(1, half_window + 1):
        if offset >= m:
            break
        # pair (position p, position p+offset) contributes both ways
        centers.append(ids[:-offset])
        neighbors.append(ids[offset:])
        centers.append(ids[offset:])
        neighbors.append(ids[:-offset])
    if centers:
        rows = np.concatenate(centers)
        cols = np.concatenate(neighbors)
        data = np.ones(len(rows), dtype=np.int64)
        counts = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    else:
        counts = scipy.sparse.csr_matrix((n, n), dtype=np.int64)

    matrix = counts @ vocabulary.sign_matrix().astype(np.int64)
    context_totals = np.asarray(counts.sum(axis=1)).ravel().astype(np.int64)
    context_distinct = np.diff(counts.indptr).astype(np.int64)
    return ContextModel(
        vocabulary,
        half_window,
        matrix,
        context_totals,
        context_distinct,
        occurrences.astype(np.int64),
    )


def context_similarity(model, word_a, word_b):
    """Exact cosine between two context rows.

    Raises EmptyContextError when either word has an empty context
    (the cosine is undefined for a zero vector).
    """
    va = model.context_vector(word_a)[None]
    max_abs = int(np.abs(va).max())
    score = cosines(va, squared_norms(va, max_abs), model.context_vector(word_b)[None], max_abs)[0, 0]
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
    # the matrix's own bound: a loaded file's totals are never checked against it
    max_abs = max(int(model.matrix.max(initial=0)), -int(model.matrix.min(initial=0)))
    norms_sq = squared_norms(model.matrix, max_abs)
    scores = cosines(model.matrix, norms_sq, query_vec[None], max_abs)[0]
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
    query = np.zeros(model.dim, dtype=np.int64)
    exclude = []
    for w in plus:
        i = model.vocabulary.index_of(w)
        query += model.matrix[i]
        exclude.append(i)
    for w in minus:
        i = model.vocabulary.index_of(w)
        query -= model.matrix[i]
        exclude.append(i)
    return _rank_against(model, query, exclude, top_n)


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
