"""Sentence retrieval: each sentence is the bundle of its word vectors.

A document is segmented into sentences, every sentence becomes the
integer sum of its (pipeline-processed) word vectors, and a query is
scored against all sentences by cosine.  Because sums and dots are
integers, a query that exactly reproduces a sentence's bag of words
scores exactly 1.0 against it.

The index stores bow_matrix's rows as they come: float32 while no
sentence holds more than 2^24 tokens, int32 above that, and exact
either way, since the bundle kernel raises once a sentence's token count
reaches 2^31.  core.nearest scores and ranks them, by cosine or by
dot / d: its kernel multiplies float32 rows in float32 BLAS for as long
as that is exact, and scores any other rows exactly in float64 or int64
blocks.
"""

import re
from dataclasses import dataclass

from .core import nearest, squared_norms
from .errors import EmptyIndexError, EmptyQueryError
from .textpipe import PipelineConfig, build_vocabulary, preprocess

_BOUNDARY_RE = re.compile(r"[.!?]+[\"')\]]*")

# words that end with a period mid-sentence; checked only for a bare "."
_ABBREVIATIONS = frozenset(
    "mr mrs ms dr st prof rev col gen capt lt sgt maj mme mlle vs etc jr sr".split()
)

_WORD_BEFORE_RE = re.compile(r"([A-Za-z]+)$")


def split_sentences(text):
    """Split text on sentence terminators, keeping raw sentence strings.

    A terminator is a run of . ! ? plus any closing quotes/brackets,
    followed by whitespace or end of text.  A bare period does not end a
    sentence after a known abbreviation (mr, dr, st, ...) or after an
    uppercase initial other than I, so "John H. Watson" and "Mr. Holmes"
    stay intact.  A trailing fragment without a terminator is kept.
    """
    sentences = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        end = m.end()
        if end < len(text) and not text[end].isspace():
            continue
        if m.group(0) == ".":
            # a letter run cut short by the 64-char window is longer than
            # any abbreviation or initial, so the decision is unchanged
            wm = _WORD_BEFORE_RE.search(text, max(0, m.start() - 64), m.start())
            if wm:
                w = wm.group(1)
                if w.lower() in _ABBREVIATIONS:
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


class SentenceIndex:
    """Bag-of-words bundles for every non-empty sentence of one document.

    Sentences whose tokens are all removed by the pipeline (or that
    contain no tokens at all) are excluded; sentence_index in query
    results is the 0-based position among the kept sentences.
    """

    __slots__ = ("vocabulary", "config", "sentences", "matrix", "norms_sq")

    def __init__(self, vocabulary, config, sentences, matrix, norms_sq):
        self.vocabulary = vocabulary
        self.config = config
        self.sentences = tuple(sentences)
        self.matrix = matrix
        self.norms_sq = norms_sq

    def __len__(self):
        return len(self.sentences)


def build_sentence_index(text, dim, seed, config=PipelineConfig()):
    """Segment text, process every sentence, and bundle its word vectors.

    The vocabulary is built from this document's own processed tokens in
    order of first appearance, so the index is self-contained.
    """
    kept_texts = []
    kept_tokens = []
    for raw in split_sentences(text):
        toks = preprocess(raw, config)
        if not toks:
            continue
        kept_texts.append(raw)
        kept_tokens.append(toks)
    vocab = build_vocabulary((t for toks in kept_tokens for t in toks), dim, seed, config=config)
    matrix = vocab.bow_matrix([vocab.encode(ts) for ts in kept_tokens])
    return SentenceIndex(vocab, config, kept_texts, matrix, squared_norms(matrix))


@dataclass(frozen=True)
class SentenceMatch:
    rank: int
    score: float
    sentence_index: int
    text: str


@dataclass(frozen=True)
class QueryOutcome:
    matches: tuple
    dropped_tokens: tuple


def query_sentences(index, query_text, top_n=3, normalize=True):
    """Top sentences for a free-text query.

    The query runs through the same pipeline as the document; tokens
    absent from the document's vocabulary are dropped and reported in
    the outcome.  normalize=True scores by cosine (a query matching a
    sentence's exact bag of words scores 1.0); normalize=False scores by
    the scaled dot query . sentence / dim, which favors longer
    sentences.  Ties resolve to the earlier sentence.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if len(index) == 0:
        raise EmptyIndexError("sentence index is empty")
    toks = preprocess(query_text, index.config)
    ids = index.vocabulary.encode(toks)
    dropped = [t for t in toks if t not in index.vocabulary]
    if not len(ids):
        raise EmptyQueryError(
            f"no query token is present in the document (dropped: {dropped!r})"
        )
    [ranked] = nearest(index.matrix, index.norms_sq, index.vocabulary.bow_matrix([ids]), top_n, normalize)
    matches = (SentenceMatch(r + 1, score, i, index.sentences[i]) for r, (i, score) in enumerate(ranked))
    return QueryOutcome(tuple(matches), tuple(dropped))
