"""Byte budgets: no dense temporary of the bundle and scoring kernels grows
with the corpus.

Each case runs one application step on seeded synthetic text drawn from
one fixed word pool, at a corpus of n units and of 4n, under tracemalloc;
the Monte Carlo case bundles n vectors and 4n instead.
The peak traced bytes while the step runs, less the bytes its result
still holds, are the temporaries it let go.  The kernels size their
dense blocks from core.BLOCK_BYTES, so from n to 4n that figure may grow
only by sparse, corpus-linear inputs and by blocks that were not yet
full at n, which stays below 2 * BLOCK_BYTES.  Two cases rank n and 4n
queries against fixed rows, so only the queries' scores could grow.  Two
more cases bound the sign unpacking of a single vocabulary and the
squared norms of a matrix, which leave numpy to stream their casts and
so need no block of their own.  tracemalloc counts the same bytes on
every run, so the check cannot flake on timing.
"""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from hdsem.context import ContextModel, build_context_model, context_arithmetic
from hdsem.core import BLOCK_BYTES, generate_packed, nearest, packed_signs, squared_norms
from hdsem.experiments import MembershipSimConfig, membership_sim
from hdsem.sentences import build_sentence_index
from hdsem.spam import Message, classify_many, train_filter
from hdsem.textpipe import build_vocabulary

DIM = 4096
SEED = 3
POOL = [f"w{i}" for i in range(300)]


def _words(rng, count):
    return [rng.choice(POOL) for _ in range(count)]


def _sentence_build(n, tmp_path):
    """n sentences of eight pool words, indexed."""
    rng = random.Random(n)
    text = " ".join(" ".join(_words(rng, 8)) + "." for _ in range(n))
    return lambda: build_sentence_index(text, DIM, SEED)


def _context_load(n, tmp_path):
    """A model of a 50n-token stream over the whole pool, loaded from disk."""
    rng = random.Random(n)
    path = tmp_path / f"model{n}.npz"
    build_context_model(_words(rng, 50 * n), build_vocabulary(POOL, DIM, SEED)).save(path)
    return lambda: ContextModel.load(path)


def _spam_fold(n, tmp_path, test_parts=1):
    """n messages of twenty pool words, every fifth one empty and half of
    them spam, split as one cross-validation fold: the last test_parts of
    ten parts against the rest."""
    rng = random.Random(n)
    messages = [Message(f"m{i}", i % 2, () if i % 5 == 4 else tuple(_words(rng, 20))) for i in range(n)]
    cut = n * (10 - test_parts) // 10
    train, test = messages[:cut], messages[cut:]
    vocab = build_vocabulary(POOL, DIM, SEED)

    def fold():
        spam_filter = train_filter(train, DIM, SEED, vocab)
        return spam_filter, classify_many(spam_filter, test)

    return fold


def _spam_half_fold(n, tmp_path):
    """A fold whose test part is half the corpus, so that the test
    messages' bundles and their scores against the training rows would
    grow with the corpus if classify_many took them all at once."""
    return _spam_fold(n, tmp_path, test_parts=5)


def _nearest_top1(n, tmp_path, top_n=1):
    """n float32 queries ranked against 1000 fixed float32 rows of 64
    entries: scored all at once, their float64 scores alone would take
    8000 bytes a query."""
    rows = np.random.default_rng(0).integers(-20, 20, size=(1000, 64)).astype(np.float32)
    norms_sq = squared_norms(rows)
    queries = np.random.default_rng(n).integers(-20, 20, size=(n, 64)).astype(np.float32)
    return lambda: nearest(rows, norms_sq, queries, top_n)


def _nearest_top5(n, tmp_path):
    """As above at top-5, which ranks by a stable argsort."""
    return _nearest_top1(n, tmp_path, top_n=5)


def _membership_trials(n, tmp_path):
    """Two trials of size-n bundles; from n = 2048 on, one trial's packed
    stream (512 bytes a vector at d = 4096) outgrows a block."""
    return lambda: membership_sim(MembershipSimConfig(dim=DIM, k=n, trials=2, seed=SEED))


def _temporary_bytes(step):
    """Peak traced bytes while step runs, less those its result holds."""
    gc.collect()  # garbage freed mid-step would lower the retained bytes
    tracemalloc.reset_peak()
    result = step()
    retained, peak = tracemalloc.get_traced_memory()
    del result
    return peak - retained


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def _context_query(words):
    """context_arithmetic on a model of a 20-token-per-word stream over
    `words` distinct words, its signs already unpacked once."""
    rng = random.Random(words)
    pool = [f"w{i}" for i in range(words)]
    model = build_context_model([rng.choice(pool) for _ in range(20 * words)], build_vocabulary(pool, DIM, SEED))
    return lambda: context_arithmetic(model, ["w1", "w2"], ["w3"], top_n=10)


def test_context_query_grows_by_words_not_rows(traced):
    # the query bundles its three operand rows only and gets every other
    # row's dot from the counts: from 250 to 1000 words at the same d its
    # temporaries may grow by a few int64 and float64 values per word,
    # where the V x d rows it never forms would add 4 * d = 16 KiB a word
    small = _temporary_bytes(_context_query(250))
    large = _temporary_bytes(_context_query(1000))
    assert large - small < 128 * 750, (small, large)


@pytest.mark.parametrize(
    "case, n",
    [
        (_sentence_build, 40),
        (_context_load, 60),
        (_spam_fold, 100),
        (_spam_half_fold, 100),
        (_nearest_top1, 300),
        (_nearest_top5, 300),
        (_membership_trials, 2000),
    ],
)
def test_temporaries_do_not_grow_with_the_corpus(traced, tmp_path, case, n):
    small = _temporary_bytes(case(n, tmp_path))
    large = _temporary_bytes(case(4 * n, tmp_path))
    assert large - small < 2 * BLOCK_BYTES, (small, large)


def test_packed_signs_unpack_in_blocks(traced):
    # 1000 vectors at d = 4096 unpack to 4 MiB of int8 signs from 0.5 MiB
    # of words; one flat unpackbits, mapped to -1/+1 in place, leaves the
    # byte-swapped words as its only temporary
    words = generate_packed(DIM, SEED, range(1000))
    assert _temporary_bytes(lambda: packed_signs(words, DIM)) < words.nbytes + BLOCK_BYTES // 8


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize(
    "dtype, low, high",
    [(np.float32, -39, 40), (np.int32, 2**24 - 100, 2**24)],
    ids=["float64-tier", "int64-tier"],
)
def test_squared_norms_convert_no_rows(traced, n, dtype, low, high):
    # float32 rows below 40 sum in float64 and int32 rows near 2^24 in
    # int64; either way a converted copy of the rows would take 8 bytes
    # an entry, 16 MB at n = 500, where einsum casts in buffered chunks
    rows = np.random.default_rng(n).integers(low, high, size=(n, DIM)).astype(dtype)
    assert _temporary_bytes(lambda: squared_norms(rows)) < BLOCK_BYTES // 4
