"""Spam filtering by nearest-neighbor search over message bundles.

Every training message becomes the integer sum of its word vectors; a
test message is assigned the label of the training message whose bundle
has the highest cosine against its own, found by core.nearest at top-1;
test messages are bundled a block at a time.  No weights are learned: the
filter is the training set plus one shared random vocabulary, one row
per training message; a row that bundles to zero is never a neighbor.

The ten-part corpus layout follows the common benchmark convention:
part1 .. part10 directories of *.txt files, spam filenames starting
with "spmsg", evaluation by leave-one-part-out cross-validation.
"""

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import CorpusFormatError, EmptyClassError
from .textpipe import PipelineConfig, build_vocabulary, preprocess

N_PARTS = 10
SPAM_PREFIX = "spmsg"
VOCAB_MODES = ("per-fold", "global")


@dataclass(frozen=True)
class Message:
    message_id: str
    label: int  # 1 spam, 0 ham
    words: tuple


def _read_message(path, config):
    with open(path, encoding="latin-1") as fh:
        text = fh.read()
    # the first line is "Subject: ..."; drop the field name, keep the words
    if text.startswith("Subject:"):
        text = text[len("Subject:") :]
    return tuple(preprocess(text, config))


def ingest_lingspam(root, config=PipelineConfig()):
    """Read a ten-part corpus into one tuple of Message tuples per part.

    Files are read latin-1 and sorted by filename inside each part so
    ingestion order never depends on the filesystem.  Raises
    CorpusFormatError when any part directory is missing or empty.
    """
    folds = []
    for p in range(1, N_PARTS + 1):
        part = f"part{p}"
        part_dir = os.path.join(root, part)
        if not os.path.isdir(part_dir):
            raise CorpusFormatError(f"corpus at {root}: missing directory {part}")
        names = sorted(n for n in os.listdir(part_dir) if n.endswith(".txt"))
        if not names:
            raise CorpusFormatError(f"corpus at {root}: {part} contains no .txt messages")
        fold = []
        for name in names:
            label = 1 if name.startswith(SPAM_PREFIX) else 0
            words = _read_message(os.path.join(part_dir, name), config)
            fold.append(Message(f"{part}/{name}", label, words))
        folds.append(tuple(fold))
    return tuple(folds)


class SpamFilter:
    """Training bundles, their labels, and the vocabulary that encodes them.

    Row i is training message i.  A message whose bundle is the zero
    vector (no usable tokens, or exact cancellation) keeps its row, but
    core.nearest scores a zero-norm row -inf and never returns it, so
    each class needs a row with a non-zero norm.  matrix holds the rows
    as Vocabulary.bow_matrix returns them, exact since no |entry| exceeds
    a message's word count.
    """

    __slots__ = ("vocabulary", "matrix", "norms_sq", "labels", "message_ids")

    def __init__(self, vocabulary, matrix, norms_sq, labels, message_ids):
        self.vocabulary = vocabulary
        self.matrix = matrix
        self.norms_sq = norms_sq
        self.labels = labels
        self.message_ids = tuple(message_ids)


def train_filter(messages, dim, seed, vocabulary=None):
    """Bundle every training message against a shared vocabulary.

    vocabulary=None builds one from the training messages themselves;
    passing a vocabulary lets several folds share a global word table.
    """
    messages = list(messages)
    if vocabulary is None:
        vocabulary = build_vocabulary((w for m in messages for w in m.words), dim, seed)
    elif vocabulary.dim != dim or vocabulary.seed != seed:
        raise ValueError("vocabulary dim/seed do not match the requested filter")
    matrix = vocabulary.bow_matrix([vocabulary.encode(m.words) for m in messages])
    norms_sq = core.squared_norms(matrix)
    labels = np.fromiter((m.label for m in messages), np.int64, len(messages))
    live = labels[norms_sq > 0]  # core.nearest never returns a zero row
    if not np.any(live == 1):
        raise EmptyClassError("no spam training message survives encoding")
    if not np.any(live == 0):
        raise EmptyClassError("no ham training message survives encoding")
    return SpamFilter(vocabulary, matrix, norms_sq, labels, [m.message_id for m in messages])


@dataclass(frozen=True)
class ClassifyResult:
    label: int
    score: float
    best_match_id: str | None
    unclassifiable: bool


def classify_many(spam_filter, messages):
    """Nearest-neighbor labels for a batch of messages.

    A message whose bundle is zero (no token in the filter's vocabulary,
    or exact cancellation) scores -inf against every row; it is marked
    unclassifiable and defaults to ham.  Cosine ties resolve to the
    earliest training message.  Messages are bundled in blocks of about
    core.BLOCK_BYTES of bundle rows; core.nearest blocks their scores.
    """
    messages = list(messages)
    vocab = spam_filter.vocabulary
    step = max(1, core.BLOCK_BYTES // (4 * vocab.dim))
    results = []
    for b in range(0, len(messages), step):
        q = vocab.bow_matrix([vocab.encode(m.words) for m in messages[b : b + step]])
        for ranked in core.nearest(spam_filter.matrix, spam_filter.norms_sq, q, 1):
            if ranked:
                [(i, score)] = ranked
                results.append(ClassifyResult(int(spam_filter.labels[i]), score, spam_filter.message_ids[i], False))
            else:
                results.append(ClassifyResult(0, 0.0, None, True))
    return results


@dataclass(frozen=True)
class FoldResult:
    fold: int
    tp: int
    fp: int
    fn: int
    tn: int
    unclassifiable: int

    @property
    def spam_precision(self):
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else None

    @property
    def spam_recall(self):
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else None


@dataclass(frozen=True)
class EvaluationReport:
    dim: int
    seed: int
    vocab_mode: str
    fold_results: tuple

    @property
    def total_tp(self):
        return sum(f.tp for f in self.fold_results)

    @property
    def total_fp(self):
        return sum(f.fp for f in self.fold_results)

    @property
    def total_fn(self):
        return sum(f.fn for f in self.fold_results)

    @property
    def total_tn(self):
        return sum(f.tn for f in self.fold_results)

    @property
    def avg_spam_precision(self):
        vals = [f.spam_precision for f in self.fold_results if f.spam_precision is not None]
        return sum(vals) / len(vals) if vals else None

    @property
    def avg_spam_recall(self):
        vals = [f.spam_recall for f in self.fold_results if f.spam_recall is not None]
        return sum(vals) / len(vals) if vals else None


def cross_validate(folds, dim, seed, vocab_mode="per-fold", progress=None):
    """Leave-one-part-out evaluation over pre-split folds.

    vocab_mode "per-fold" builds the vocabulary from each fold's
    training messages only, so test-only words stay unknown; "global"
    builds one vocabulary over the whole corpus up front.  One tally of
    (true label, verdict) pairs per fold gives tp, fp and fn; tn is the
    rest.  An unclassifiable message also counts by its ham verdict.
    progress, if given, is called with each FoldResult as it completes.
    """
    if vocab_mode not in VOCAB_MODES:
        raise ValueError(f"vocab_mode must be one of {VOCAB_MODES}, got {vocab_mode!r}")
    folds = tuple(tuple(f) for f in folds)
    if len(folds) < 2:
        raise ValueError("need at least two folds")
    shared = None
    if vocab_mode == "global":
        shared = build_vocabulary((w for fold in folds for m in fold for w in m.words), dim, seed)
    results = []
    for k, test in enumerate(folds):
        train = [m for j, fold in enumerate(folds) if j != k for m in fold]
        spam_filter = train_filter(train, dim, seed, vocabulary=shared)
        verdicts = classify_many(spam_filter, test)
        tally = Counter((m.label, v.label) for m, v in zip(test, verdicts))
        tp, fp, fn = tally[1, 1], tally[0, 1], tally[1, 0]
        unc = sum(v.unclassifiable for v in verdicts)
        results.append(FoldResult(k + 1, tp, fp, fn, len(test) - tp - fp - fn, unc))
        if progress is not None:
            progress(results[-1])
    return EvaluationReport(dim, seed, vocab_mode, tuple(results))
