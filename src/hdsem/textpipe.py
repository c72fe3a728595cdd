"""Text preprocessing and vocabulary handling.

A token is a plain string and a processed text a list of them.  The
processing chain is deliberately crude: lowercase alphanumeric
tokenization, a flat stop list, and the fixed suffix table SUFFIX_RULES.
Conflating word forms ("carried" and "carries" both map to "carri")
is acceptable here because downstream consumers only need stable,
shared identifiers for related surface forms, not dictionary lemmas.

A Vocabulary assigns each distinct word a row index and derives the
word's random sign vector from (seed, index), so the word list, dim and
seed (what a saved context model stores) reconstruct every word vector
exactly.  encode() is the one path from tokens to row ids; it skips
words the vocabulary lacks.  packed() holds the vectors as sign words
and sign_matrix() unpacks chosen rows of them.  bundle() is the one
kernel that turns sparse counts into integer bundles: bow_matrix()
calls it on each document's word counts, and a context model on its
co-occurrence counts.  It multiplies in float32 while no row's total
count passes 2^24 and in int32 above that, and returns exact int32.
"""

import functools
import hashlib
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.sparse

from .core import generate_packed, packed_signs
from .errors import UnknownWordError

TOKEN_RE = re.compile(r"[^\W_]+")

LEMMATIZER_NAMES = ("identity", "suffix")
_MEMO_WORDS = 1 << 16  # distinct words a lemmatizer remembers


def tokenize(text):
    """Split text into lowercase alphanumeric tokens, a list of str.

    Unicode letters and digits are kept, everything else (including
    underscores and apostrophes) separates tokens, so "don't" yields
    the two tokens "don" and "t".
    """
    return TOKEN_RE.findall(text.lower())


def _read_data_text(filename):
    return resources.files("hdsem.data").joinpath(filename).read_text(encoding="utf-8")


def _parse_word_lines(text):
    words = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.append(line.lower())
    return words


def load_stopwords(path=None):
    """Load a stop list; the bundled English list when path is None."""
    if path is None:
        text = _read_data_text("stopwords_en.txt")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return frozenset(_parse_word_lines(text))


def stopword_digest(stopwords):
    """Order-independent sha256 fingerprint of a stop list."""
    canon = "\n".join(sorted(stopwords))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# The crude lemmatizer's rewrite table: (suffix, replacement, min_stem).
# Rules are tried top to bottom; min_stem is the minimum number of
# characters that must precede the suffix for the rule to fire.  A rule
# whose replacement equals its suffix is terminal: matching it stops
# rewriting (protects ss/us endings).  Every other rule shortens the word,
# so the rewrite loop ends.  The table is applied repeatedly until no rule
# changes the word, so order puts longer suffixes ahead of their own tails
# (ness before ss, eed before ed).
SUFFIX_RULES = (
    ("sses", "ss", 1), ("ness", "", 3), ("ying", "y", 2), ("ment", "", 3),
    ("ies", "i", 2), ("ied", "i", 2), ("eed", "ee", 2), ("ing", "", 3), ("ful", "", 3),
    ("ss", "ss", 1), ("us", "us", 1), ("es", "", 3), ("ed", "", 3), ("ly", "", 3),
    ("s", "", 3),
)


def load_suffix_rules():
    """The lemmatizer's ordered suffix table, SUFFIX_RULES."""
    return SUFFIX_RULES


class SuffixLemmatizer:
    """Suffix rewriting with SUFFIX_RULES, applied until nothing changes.

    Per pass the first rule whose suffix matches and whose stem is long
    enough fires; a terminal rule (replacement == suffix) ends rewriting.
    If the final form landed on a protected word (typically the stop
    list: "ares" would otherwise collapse to "are"), the original token
    is returned unchanged, which keeps the map idempotent.  Each distinct
    word is rewritten once and remembered, up to _MEMO_WORDS words.
    """

    def __init__(self, protected=frozenset()):
        self.protected = frozenset(protected)
        self._memo = functools.lru_cache(maxsize=_MEMO_WORDS)(self._rewrite)

    def __call__(self, word):
        return self._memo(word)

    def _rewrite(self, word):
        original = word
        while True:
            changed = False
            for suffix, replacement, min_stem in SUFFIX_RULES:
                if not word.endswith(suffix):
                    continue
                if len(word) - len(suffix) < min_stem:
                    continue
                if replacement == suffix:
                    break
                word = word[: len(word) - len(suffix)] + replacement
                changed = True
                break
            if not changed:
                break
        if word != original and word in self.protected:
            return original
        return word


@dataclass(frozen=True)
class PipelineConfig:
    """Preprocessing switches shared by every corpus consumer.

    Stop-word removal happens before lemmatization, so the rewrite
    table never sees stop words and the protected-word guard only has
    to catch rewrites that land on one.
    """

    stopwords: frozenset = frozenset()
    lemmatizer: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        if self.lemmatizer not in LEMMATIZER_NAMES:
            raise ValueError(f"lemmatizer must be one of {LEMMATIZER_NAMES}, got {self.lemmatizer!r}")


@functools.lru_cache(maxsize=8)
def make_lemmatizer(config):
    """The lemmatizer a config names; one shared instance per config."""
    if config.lemmatizer == "identity":
        return lambda word: word
    return SuffixLemmatizer(protected=config.stopwords)


def apply_pipeline(tokens, config):
    """Filter stop words, then lemmatize; a list of str.

    Expects lowercase tokens as produced by tokenize().  Applying the
    pipeline twice gives the same result as applying it once.
    """
    lemma = make_lemmatizer(config)
    return [lemma(t) for t in tokens if t not in config.stopwords]


def preprocess(text, config):
    """tokenize() then apply_pipeline() in one call."""
    return apply_pipeline(tokenize(text), config)


_START_MARK = "*** START OF"
_END_MARK = "*** END OF"


def strip_gutenberg_boilerplate(text):
    """Cut licensing header/footer from a Project Gutenberg etext.

    Keeps only the lines between the '*** START OF ...' and
    '*** END OF ...' marker lines; returns the text unchanged when the
    markers are absent.
    """
    lines = text.splitlines()
    start = None
    end = None
    for i, line in enumerate(lines):
        mark = line.strip()
        if start is None and mark.startswith(_START_MARK):
            start = i + 1
        elif start is not None and mark.startswith(_END_MARK):
            end = i
            break
    if start is None:
        return text
    body = lines[start:end]
    return "\n".join(body).strip("\n") + "\n"


class Vocabulary:
    """Distinct words in first-appearance order, each owning one row index.

    The (seed, index) pair fully determines a word's sign vector, so two
    vocabularies with equal word lists, dim, and seed produce identical
    embeddings.  lemmatizer and stopword_digest are provenance fields
    that a saved context model records, so it can be matched against the
    pipeline that produced it; they do not affect the vectors.
    """

    __slots__ = ("words", "dim", "seed", "lemmatizer", "stopword_digest", "_index", "_packed")

    def __init__(self, words, dim, seed, lemmatizer="identity", stopword_digest=None):
        words = tuple(words)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if lemmatizer not in LEMMATIZER_NAMES:
            raise ValueError(f"lemmatizer must be one of {LEMMATIZER_NAMES}, got {lemmatizer!r}")
        index = {}
        for i, w in enumerate(words):
            if not isinstance(w, str) or not w:
                raise ValueError(f"word {i} must be a non-empty string")
            if w in index:
                raise ValueError(f"duplicate word {w!r}")
            index[w] = i
        self.words = words
        self.dim = int(dim)
        self.seed = int(seed)
        self.lemmatizer = lemmatizer
        # an empty stop list canonicalizes to "", see stopword_digest()
        self.stopword_digest = hashlib.sha256(b"").hexdigest() if stopword_digest is None else stopword_digest
        self._index = index
        self._packed = None

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self._index

    def index_of(self, word):
        try:
            return self._index[word]
        except KeyError:
            raise UnknownWordError(f"word {word!r} is not in the vocabulary") from None

    def encode(self, tokens):
        """Row ids of the tokens that are in the vocabulary, in order; int64 array.

        Unknown tokens are skipped.
        """
        index = self._index
        return np.array([index[t] for t in tokens if t in index], dtype=np.int64)

    def packed(self):
        """Packed sign matrix for all words, uint64 [n, words_per_vector(dim)]."""
        if self._packed is None:
            indices = np.arange(len(self.words), dtype=np.uint64)
            self._packed = generate_packed(self.dim, self.seed, indices)
            self._packed.flags.writeable = False
        return self._packed

    def sign_matrix(self, rows=None):
        """Unpacked sign vectors of the given rows (every word when None), int8 [k, dim]."""
        return packed_signs(self.packed() if rows is None else self.packed()[rows], self.dim)

    def bundle(self, counts):
        """Sum of counts[i, w] times word w's sign vector per row, exact int32 [m, dim].

        counts is an (m, len(self)) CSR matrix of non-negative integer
        counts: the one bundle kernel behind bow_matrix and context models.
        A row's total count bounds every partial sum of its row, so while
        the largest total is at most 2^24 the product runs in float32,
        up to 2^31 - 1 in int32, and either way the result is exact; a
        negative count or a total of 2^31 or more raises ValueError.  Only
        the sign rows of the words the counts use are unpacked.
        """
        out = np.zeros((counts.shape[0], self.dim), dtype=np.int32)
        if counts.nnz == 0:
            return out
        # a row total bounds its partial sums only when no count is negative
        if counts.data.min() < 0:
            raise ValueError("bundle counts must be non-negative")
        # the entry check comes first so that the int64 row sums cannot wrap
        if counts.data.max() >= 2**31 or (total := counts.sum(axis=1, dtype=np.int64).max()) >= 2**31:
            raise ValueError("bundle counts exceed int32 range")
        # float32 holds every integer up to 2^24 exactly, int32 up to 2^31 - 1
        fast = np.float32 if total <= 2**24 else np.int32
        # relabel the used words 0..len(used) - 1 in index order, in linear time
        mask = np.zeros(counts.shape[1], dtype=bool)
        mask[counts.indices] = True
        used = np.flatnonzero(mask)
        local = (np.cumsum(mask) - 1)[counts.indices]
        counts = scipy.sparse.csr_matrix(
            (counts.data.astype(fast), local, counts.indptr), shape=(len(out), len(used))
        )
        signs = self.sign_matrix(used)
        # column slices bound the 4-byte copy of the signs, and row blocks
        # each product, to ~100MB
        step = max(64, 25_000_000 // len(used))
        rows = max(1, 25_000_000 // step)
        for c in range(0, self.dim, step):
            block = signs[:, c : c + step].astype(fast)
            for r in range(0, len(out), rows):
                out[r : r + rows, c : c + step] = counts[r : r + rows] @ block
        return out

    def bow_matrix(self, documents):
        """Sum of word vectors per document, int32 [m, dim], through bundle.

        documents is a sequence of index arrays as produced by encode().
        Repeated indices add their vector once per occurrence.
        """
        docs = [np.asarray(doc, dtype=np.int64) for doc in documents]
        cols = np.concatenate(docs) if docs else np.zeros(0, dtype=np.int64)
        if len(cols) and (cols.min() < 0 or cols.max() >= len(self.words)):
            raise IndexError("document index out of vocabulary range")
        rows = np.repeat(np.arange(len(docs)), [len(doc) for doc in docs])
        counts = (np.ones(len(cols), dtype=np.int64), (rows, cols))
        return self.bundle(scipy.sparse.csr_matrix(counts, shape=(len(docs), len(self.words))))


def build_vocabulary(tokens, dim, seed, config=PipelineConfig()):
    """Vocabulary of a processed token stream in first-appearance order, with config's provenance."""
    digest = stopword_digest(config.stopwords)
    return Vocabulary(dict.fromkeys(tokens), dim, seed, lemmatizer=config.lemmatizer, stopword_digest=digest)
