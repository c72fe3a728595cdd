"""Tokenizer, stop list, suffix lemmatizer, and vocabulary tests.

Lemmatizer expectations below were derived by hand-tracing the bundled
rule table (rule order, min-stem checks, terminal rules, fixpoint reruns)
before the implementation existed, and are frozen here.
"""

import json

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem import core, textpipe
from hdsem.context import ContextModel, build_context_model, similar_words
from hdsem.core import dot_int_rows, generate_packed, packed_signs
from hdsem.errors import CorpusFormatError, UnknownWordError
from hdsem.sentences import build_sentence_index, query_sentences
from hdsem.spam import Message, classify_many, train_filter
from hdsem.textpipe import (
    PipelineConfig,
    SUFFIX_RULES,
    Vocabulary,
    apply_pipeline,
    build_vocabulary,
    load_stopwords,
    load_suffix_rules,
    preprocess,
    stopword_digest,
    strip_gutenberg_boilerplate,
    tokenize,
)

from oracles import brute_bundle, brute_tokenize, mirror_counts, reference_signs


# ---------------------------------------------------------------- tokenize


def test_tokenize_basic():
    assert tokenize("Hello, world!") == ["hello", "world"]


def test_tokenize_apostrophes_split():
    assert tokenize("Don't") == ["don", "t"]


def test_tokenize_underscore_is_separator():
    assert tokenize("foo_bar baz") == ["foo", "bar", "baz"]


def test_tokenize_keeps_digits_and_accents():
    assert tokenize("Route 66 to the café") == [
        "route",
        "66",
        "to",
        "the",
        "café",
    ]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("... !!! ---") == []


@given(st.text(alphabet="abcXYZ 019_-.,!?'\n\tàéÜß", max_size=200))
def test_tokenize_matches_character_walk(text):
    assert tokenize(text) == brute_tokenize(text)


# ---------------------------------------------------------------- stop list


def test_bundled_stopword_count():
    sw = load_stopwords()
    assert len(sw) == 170


def test_bundled_stopwords_contents():
    sw = load_stopwords()
    for w in ["a", "the", "is", "are", "being", "don", "t", "ll", "not", "who"]:
        assert w in sw
    for w in ["cat", "house", "speak", ""]:
        assert w not in sw
    assert all(w == w.lower() for w in sw)


def test_load_stopwords_from_path(tmp_path):
    p = tmp_path / "sw.txt"
    p.write_text("# comment\nFoo\n\nbar\n")
    assert load_stopwords(p) == frozenset({"foo", "bar"})


def test_load_stopwords_drops_a_byte_order_mark(tmp_path):
    # a mark left on the first word would keep "the" in every stream
    p = tmp_path / "sw.txt"
    p.write_text("\ufeffthe\ncat\n", encoding="utf-8")
    assert load_stopwords(p) == frozenset({"the", "cat"})


def test_stopword_digest_order_independent():
    a = stopword_digest(["b", "a", "c"])
    b = stopword_digest(["c", "a", "b"])
    assert a == b
    assert len(a) == 64
    assert stopword_digest(["a"]) != a
    assert stopword_digest([]) == stopword_digest(frozenset())


# ---------------------------------------------------------------- rule table


def test_bundled_rule_table_shape():
    assert len(SUFFIX_RULES) == 15
    assert SUFFIX_RULES[0] == ("sses", "ss", 1)
    assert SUFFIX_RULES[-1] == ("s", "", 3)
    terminals = {suffix for suffix, replacement, _ in SUFFIX_RULES if replacement == suffix}
    assert terminals == {"ss", "us"}
    # every other rule shortens the word, so the rewrite loop ends
    assert all(len(r) < len(s) and m >= 0 for s, r, m in SUFFIX_RULES if r != s)


def test_load_suffix_rules_is_the_table():
    assert load_suffix_rules() is SUFFIX_RULES


def test_rule_table_longer_suffixes_first():
    # ness/eed/ied must outrank their tails ss/ed/ed or they can never fire
    order = {suffix: i for i, (suffix, _, _) in enumerate(SUFFIX_RULES)}
    assert order["ness"] < order["ss"]
    assert order["eed"] < order["ed"]
    assert order["ied"] < order["ed"]
    assert order["ying"] < order["ing"]
    assert order["ies"] < order["es"]
    assert order["sses"] < order["ss"]


# ---------------------------------------------------------------- lemmatizer

# hand-traced against the bundled table
LEMMA_GOLDENS = {
    "carried": "carri",
    "carries": "carri",
    "tries": "tri",
    "ponies": "poni",
    "dies": "die",
    "glasses": "glass",
    "churches": "church",
    "boxes": "box",
    "houses": "hous",
    "cats": "cat",
    "says": "say",
    "speaks": "speak",
    "running": "runn",
    "singing": "sing",
    "trying": "try",
    "saying": "say",
    "agreed": "agree",
    "need": "need",
    "happiness": "happi",
    "darkness": "dark",
    "quickly": "quick",
    "really": "real",
    "useful": "use",
    "government": "govern",
    "moment": "moment",
    "famous": "famous",
    "mass": "mass",
    "miss": "miss",
    "gas": "gas",
    "aaaings": "aaa",
}


SUFFIX_STOP = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")


@pytest.mark.parametrize("word,expected", sorted(LEMMA_GOLDENS.items()))
def test_lemma_goldens(word, expected):
    assert textpipe._rewrite(word) == expected


def test_lemma_guard_restores_original():
    # without the guard these would collapse onto stop words
    assert apply_pipeline(["ares"], SUFFIX_STOP) == ["ares"]
    assert apply_pipeline(["beings"], SUFFIX_STOP) == ["beings"]
    # guard returns the input, not an intermediate rewrite
    assert apply_pipeline(["areses"], SUFFIX_STOP) == ["areses"]


def test_lemma_without_guard():
    assert textpipe._rewrite("ares") == "are"
    assert textpipe._rewrite("beings") == "being"


def test_lemma_short_words_untouched():
    for w in ["s", "es", "ly", "a", "ed", "ing"]:
        assert textpipe._rewrite(w) == w


SUFFIX_POOL = [
    "",
    "s",
    "es",
    "ies",
    "ied",
    "ing",
    "ying",
    "ed",
    "eed",
    "ly",
    "ness",
    "ment",
    "ful",
    "ss",
    "us",
    "sses",
]


@settings(max_examples=300)
@given(
    st.text(alphabet="abcdeginorstuy", max_size=10),
    st.lists(st.sampled_from(SUFFIX_POOL), max_size=3),
)
def test_lemma_idempotent(base, suffixes):
    word = base + "".join(suffixes)
    once = apply_pipeline([word], SUFFIX_STOP)
    assert apply_pipeline(once, SUFFIX_STOP) == once


def test_make_lemmatizer_identity():
    # the identity lemmatizer only filters stop words and never rewrites
    textpipe._rewrite.cache_clear()
    cfg = PipelineConfig(stopwords=frozenset({"the"}))
    assert preprocess("The running cats.", cfg) == ["running", "cats"]
    assert apply_pipeline(["running"], PipelineConfig()) == ["running"]
    info = textpipe._rewrite.cache_info()
    assert (info.misses, info.hits) == (0, 0)


def test_lemmatizer_remembers_words_and_is_built_once_per_config():
    textpipe._rewrite.cache_clear()
    cfg = PipelineConfig(stopwords=frozenset({"the"}), lemmatizer="suffix")
    assert preprocess("The cats sat.", cfg) == ["cat", "sat"]
    assert preprocess("The cats ran, the cats sat.", cfg) == ["cat", "ran", "cat", "sat"]
    info = textpipe._rewrite.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    # one rewrite cache serves every config: another stop list re-rewrites nothing
    other = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    assert preprocess("Cats ran.", other) == ["cat", "ran"]
    info = textpipe._rewrite.cache_info()
    assert (info.misses, info.hits) == (3, 5)


# ---------------------------------------------------------------- pipeline


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(lemmatizer="porter")
    cfg = PipelineConfig(stopwords=["a", "b"])
    assert isinstance(cfg.stopwords, frozenset)


def test_default_and_bare_configs():
    cfg = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    assert cfg.lemmatizer == "suffix"
    assert "the" in cfg.stopwords
    bare = PipelineConfig()
    assert bare.stopwords == frozenset()
    assert bare.lemmatizer == "identity"


def test_apply_pipeline_filters_then_renumbers():
    cfg = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    assert apply_pipeline(tokenize("the cats are running"), cfg) == ["cat", "runn"]


def test_apply_pipeline_accepts_plain_strings():
    cfg = PipelineConfig(stopwords=frozenset({"the"}), lemmatizer="suffix")
    assert apply_pipeline(["the", "cats"], cfg) == ["cat"]


def test_preprocess_goldens():
    cfg = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    assert preprocess("The cats were running quickly!", cfg) == [
        "cat",
        "runn",
        "quick",
    ]
    assert preprocess("Don't miss the houses' gardens.", cfg) == [
        "miss",
        "hous",
        "garden",
    ]


def test_preprocess_bare_config_passthrough():
    assert preprocess("The cats were running!", PipelineConfig()) == ["the", "cats", "were", "running"]


@settings(max_examples=200)
@given(st.text(alphabet="abcdeginorstuy .,'", max_size=80))
def test_pipeline_idempotent_end_to_end(text):
    cfg = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    once = preprocess(text, cfg)
    again = apply_pipeline(once, cfg)
    assert again == once


# ---------------------------------------------------------------- gutenberg


GUTENBERG_SAMPLE = """The Project Gutenberg eBook of Example
license preamble here

*** START OF THE PROJECT GUTENBERG EBOOK EXAMPLE ***

Actual text line one.
Actual text line two.

*** END OF THE PROJECT GUTENBERG EBOOK EXAMPLE ***

redistribution terms follow
"""


def test_strip_gutenberg_boilerplate():
    body = strip_gutenberg_boilerplate(GUTENBERG_SAMPLE)
    assert body == "Actual text line one.\nActual text line two.\n"


def test_strip_gutenberg_no_markers():
    assert strip_gutenberg_boilerplate("plain text\n") == "plain text\n"


def test_strip_gutenberg_missing_end_marker():
    text = "junk\n*** START OF THE EBOOK ***\nbody\n"
    assert strip_gutenberg_boilerplate(text) == "body\n"


# ---------------------------------------------------------------- vocabulary


def test_vocabulary_first_appearance_order():
    toks = tokenize("b a b c a")
    vocab = build_vocabulary(toks, dim=64, seed=1)
    assert vocab.words == ("b", "a", "c")
    assert vocab.index_of("b") == 0
    assert vocab.index_of("c") == 2
    assert len(vocab) == 3
    assert "a" in vocab and "z" not in vocab


def test_vocabulary_rejects_duplicates_and_bad_dim():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"], dim=8, seed=0)
    with pytest.raises(ValueError):
        Vocabulary(["a"], dim=0, seed=0)
    with pytest.raises(ValueError):
        Vocabulary(["a", ""], dim=8, seed=0)


def test_vocabulary_unknown_word():
    vocab = Vocabulary(["a"], dim=8, seed=0)
    with pytest.raises(UnknownWordError):
        vocab.index_of("b")
    assert "b" not in vocab


def test_vocabulary_encode():
    vocab = Vocabulary(["a", "b"], dim=8, seed=0)
    np.testing.assert_array_equal(vocab.encode(["b", "a", "b"]), [1, 0, 1])
    # unknown words are skipped and order is kept
    ids = vocab.encode(["a", "zz", "a"])
    assert ids.dtype == np.int64 and ids.tolist() == [0, 0]
    assert vocab.encode([]).dtype == np.int64


@given(st.lists(st.sampled_from(["a", "b", "c", "x", "y"]), max_size=30))
def test_vocabulary_encode_keeps_known_tokens_in_order(tokens):
    vocab = Vocabulary(["c", "a", "b"], dim=8, seed=0)
    assert vocab.encode(tokens).tolist() == [vocab.index_of(t) for t in tokens if t in ("a", "b", "c")]


def test_vocabulary_vectors_match_direct_generation():
    vocab = Vocabulary(["x", "y", "z"], dim=200, seed=99)
    for i, w in enumerate(vocab.words):
        row = vocab.packed()[vocab.index_of(w)]
        np.testing.assert_array_equal(row, generate_packed(200, 99, [i])[0])
        assert packed_signs(row, 200).tolist() == reference_signs(200, 99, i)


def test_vocabulary_vector_at_range():
    vocab = Vocabulary(["x"], dim=8, seed=0)
    with pytest.raises(IndexError):
        vocab.bow_matrix([[1]])
    with pytest.raises(IndexError):
        vocab.bow_matrix([[-1]])


def test_sign_matrix_values():
    vocab = Vocabulary(["x", "y"], dim=70, seed=3)
    s = vocab.sign_matrix(slice(None))
    assert s.shape == (2, 70)
    assert set(np.unique(s)) <= {-1, 1}
    assert s[0].tolist() == reference_signs(70, 3, vocab.index_of("x"))
    # chosen rows unpack alone, and unit counts bundle each word alone
    assert vocab.sign_matrix([1]).tolist() == [reference_signs(70, 3, vocab.index_of("y"))]
    np.testing.assert_array_equal(vocab.bundle(scipy.sparse.identity(2, dtype=np.int64, format="csr")), s)


def test_bundle_in_column_slices(monkeypatch):
    # a budget of 64 4-byte columns over the 3 used words makes 64-column
    # slices of one sign word each, the last one 8 columns wide
    vocab = Vocabulary(["u", "v", "w", "unused"], dim=200, seed=6)
    counts = scipy.sparse.csr_matrix(np.array([[1, 2, 0, 0], [0, 0, 5, 0], [3, 0, 1, 0]], dtype=np.int64))
    want = counts.toarray() @ vocab.sign_matrix(slice(None)).astype(np.int64)
    slices = []

    def recording(words, dim):
        slices.append((len(words), 64 * words.shape[1], dim))
        return packed_signs(words, dim)

    monkeypatch.setattr(core, "BLOCK_BYTES", 4 * 64 * 3)
    monkeypatch.setattr(textpipe, "packed_signs", recording)
    np.testing.assert_array_equal(vocab.bundle(counts), want)
    assert slices == [(3, 64, 64), (3, 64, 64), (3, 64, 64), (3, 64, 8)]


def test_bundle_rows_sized_from_the_capped_slice(monkeypatch):
    # 12 used words at d = 128 make one slice of the whole vector, two
    # words wide, so at the default budget the 36 rows' int16 products,
    # 9 KiB, run as one row block
    vocab = Vocabulary([f"w{i}" for i in range(12)], dim=128, seed=7)
    counts = scipy.sparse.csr_matrix(np.random.default_rng(7).integers(1, 3, size=(36, 12)))
    want = counts.toarray() @ vocab.sign_matrix(slice(None)).astype(np.int64)
    blocks = []
    matmul = scipy.sparse.csr_matrix.__matmul__

    def recording(self, other):
        blocks.append((self.shape[0], other.shape[1]))
        return matmul(self, other)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", recording)
    np.testing.assert_array_equal(vocab.bundle(counts), want)
    assert blocks == [(36, 128)]


def test_bow_matrix_against_sign_sums():
    vocab = Vocabulary(["u", "v", "w"], dim=64, seed=5)
    docs = [vocab.encode(["u", "v", "v"]), vocab.encode(["w"]), np.array([], dtype=np.int64)]
    bow = vocab.bow_matrix(docs)
    s = vocab.sign_matrix(slice(None)).astype(np.int64)
    np.testing.assert_array_equal(bow[0], s[0] + 2 * s[1])
    np.testing.assert_array_equal(bow[1], s[2])
    np.testing.assert_array_equal(bow[2], np.zeros(64, dtype=np.int64))
    assert bow.dtype == np.float32  # no row total passes 2^24


@st.composite
def _count_matrices(draw, count=st.integers(1, 5)):
    """(vocab size, dim, seed, count rows): each row maps a few word ids to
    counts drawn from count and may be empty, and there may be no rows at all."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 140))
    seed = draw(st.integers(0, 2**64 - 1))
    row = st.dictionaries(st.integers(0, n - 1), count, max_size=6)
    return n, dim, seed, draw(st.lists(row, max_size=5))


def _csr_counts(n, rows):
    counts = np.zeros((len(rows), n), dtype=np.int64)
    for r, row in enumerate(rows):
        for i, c in row.items():
            counts[r, i] = c
    return scipy.sparse.csr_matrix(counts)


@given(_count_matrices())
@settings(max_examples=80, deadline=None)
def test_bundle_matches_sign_sum_oracle(case):
    n, dim, seed, rows = case
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    got = vocab.bundle(_csr_counts(n, rows))
    assert got.dtype == np.float32  # no row total passes 2^24
    assert got.shape == (len(rows), dim)
    for out, row in zip(got, rows):
        signs = [reference_signs(dim, seed, i) for i, c in row.items() for _ in range(c)]
        assert out.tolist() == (brute_bundle(signs) if signs else [0] * dim)


@given(_count_matrices(count=st.integers(2**21, 2**23)))
@settings(max_examples=150, deadline=None)
def test_bundle_matches_int64_product_near_the_float32_bound(case):
    # up to six counts of 2^21..2^23 per row put row totals on both sides
    # of 2^24, where float32 stops holding every partial sum exactly
    n, dim, seed, rows = case
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    counts = _csr_counts(n, rows)
    got = vocab.bundle(counts)
    dense = counts.toarray()
    assert got.dtype == (np.float32 if dense.sum(axis=1).max(initial=0) <= 2**24 else np.int32)
    want = dense @ vocab.sign_matrix(slice(None)).astype(np.int64)
    assert got.tolist() == want.tolist()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_bundle_column_slices_match_the_int64_product(data):
    # a budget of k sign words of int8 signs and their int16 copy per used
    # word makes slices k words wide; the last is short when k does not
    # divide the vector's words or d is no multiple of 64
    dim = data.draw(st.integers(1, 300), label="dim")
    n = data.draw(st.integers(1, 12), label="words")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    row = st.dictionaries(st.integers(0, n - 1), st.integers(1, 5), max_size=6)
    rows = data.draw(st.lists(row, min_size=1, max_size=5), label="rows")
    k = data.draw(st.integers(1, core.words_per_vector(dim)), label="words per slice")
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    counts = _csr_counts(n, rows)
    want = counts.toarray() @ np.array([reference_signs(dim, seed, i) for i in range(n)], dtype=np.int64)
    widths = []

    def recording(words, dim):
        widths.append(dim)
        return packed_signs(words, dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK_BYTES", 3 * 64 * k * max(1, len(np.unique(counts.indices))))
        mp.setattr(textpipe, "packed_signs", recording)
        got = vocab.bundle(counts)
    assert got.tolist() == want.tolist()
    assert widths == ([min(64 * k, dim - c) for c in range(0, dim, 64 * k)] if counts.nnz else [])


@pytest.mark.parametrize("total", [2**24, 2**24 + 1, 2**31 - 1, 2**31])
def test_bundle_int32_guard_on_row_totals(total):
    # the total is split over two entries, each below 2^31, so only the
    # row total can trip the guard; at seed 1 both words have sign +1 at
    # dim 1, so an accepted row reaches the total itself.  2^24 + 1 is the
    # first total float32 cannot hold, and 2^31 the first int32 cannot.
    vocab = Vocabulary(["x", "y"], dim=1, seed=1)
    assert reference_signs(1, 1, 0) == reference_signs(1, 1, 1) == [1]
    counts = scipy.sparse.csr_matrix(np.array([[total // 2, total - total // 2], [0, 3]], dtype=np.int64))
    if total >= 2**31:
        with pytest.raises(ValueError, match="bundle counts exceed int32 range"):
            vocab.bundle(counts)
    else:
        assert vocab.bundle(counts).tolist() == [[total], [3]]


@pytest.mark.parametrize("row", [(2**24 + 1, -2), (2**31 - 1, -(2**30))])
def test_bundle_rejects_negative_counts(row):
    # a negative count makes the row total understate the partial sums:
    # the first row would pass as a float32 total of 2^24 - 1, the second
    # as an int32 total of 2^30 - 1 although its first entry alone nears 2^31
    vocab = Vocabulary(["x", "y"], dim=64, seed=1)
    counts = scipy.sparse.csr_matrix(np.array([row], dtype=np.int64))
    with pytest.raises(ValueError, match="bundle counts must be non-negative"):
        vocab.bundle(counts)


@st.composite
def _rows_near_the_int16_bound(draw):
    """(vocab size, dim, seed, count rows) whose row totals lie in
    2^15 - 2 .. 2^15 + 1, each split over one to four words."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 140))
    seed = draw(st.integers(0, 2**64 - 1))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        total = draw(st.integers(2**15 - 2, 2**15 + 1))
        words = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        cuts = draw(st.lists(st.integers(1, total - 1), min_size=len(words) - 1, max_size=len(words) - 1, unique=True))
        rows.append(dict(zip(words, np.diff([0, *sorted(cuts), total]).tolist())))
    return n, dim, seed, rows


@given(_rows_near_the_int16_bound())
@settings(max_examples=150, deadline=None)
def test_bundle_matches_int64_product_near_the_int16_bound(case):
    # the product runs in int16 only while every row total is below 2^15
    n, dim, seed, rows = case
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    counts = _csr_counts(n, rows)
    got = vocab.bundle(counts)
    assert got.dtype == np.float32  # every row total is far below 2^24
    assert got.tolist() == (counts.toarray() @ vocab.sign_matrix(slice(None)).astype(np.int64)).tolist()


@pytest.mark.parametrize("row", [[2**15 - 1], [2**14, 2**14 - 1], [2**15], [2**14, 2**14]])
def test_bundle_at_the_int16_bound(monkeypatch, row):
    # at seed 2 both words' signs agree in some columns either way, so a
    # row reaches plus and minus its total, and +2^15 is the first sum
    # int16 cannot hold.  A second row keeps both words
    # in use, and a budget of 128 columns of an int8 sign and its int16
    # copy over them makes 128-column slices while the product runs in
    # int16, 64-column ones in float32.
    vocab = Vocabulary(["x", "y"], dim=200, seed=2)
    signs = vocab.sign_matrix(slice(None)).astype(np.int64)
    assert {2, -2} <= set(signs.sum(axis=0).tolist())
    counts = scipy.sparse.csr_matrix(np.array([row + [0] * (2 - len(row)), [1, 1]], dtype=np.int64))
    slices = []

    def recording(words, dim):
        slices.append(64 * words.shape[1])
        return packed_signs(words, dim)

    monkeypatch.setattr(core, "BLOCK_BYTES", 3 * 128 * 2)
    monkeypatch.setattr(textpipe, "packed_signs", recording)
    got = vocab.bundle(counts)
    assert got.dtype == np.float32
    assert got.tolist() == (counts.toarray() @ signs).tolist()
    assert {sum(row), -sum(row)} <= set(got[0].tolist())
    assert slices == ([128, 128] if sum(row) < 2**15 else [64, 64, 64, 64])


@st.composite
def _sparse_documents(draw):
    """(vocab size, dim, seed, documents) drawing ids from a sparse subset."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 140))
    seed = draw(st.integers(0, 2**64 - 1))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
    docs = draw(st.lists(st.lists(st.sampled_from(used), max_size=12), min_size=1, max_size=5))
    return n, dim, seed, docs


@given(_sparse_documents())
@settings(max_examples=80, deadline=None)
def test_bow_matrix_matches_sign_sum_oracle(case):
    n, dim, seed, docs = case
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=seed)
    bow = vocab.bow_matrix([np.array(doc, dtype=np.int64) for doc in docs])
    assert bow.dtype == np.float32  # no document holds 2^24 tokens
    assert bow.shape == (len(docs), dim)
    signs = {i: reference_signs(dim, seed, i) for doc in docs for i in doc}
    for row, doc in zip(bow, docs):
        expected = brute_bundle([signs[i] for i in doc]) if doc else [0] * dim
        assert row.tolist() == expected


def test_bundles_never_unpack_the_whole_vocabulary(monkeypatch):
    unpacked = []

    def recording(words, dim):
        unpacked.append(len(words))
        return packed_signs(words, dim)

    monkeypatch.setattr(textpipe, "packed_signs", recording)
    index = build_sentence_index("Red fox runs. Blue bird sings. Red bird.", dim=256, seed=1)
    assert query_sentences(index, "red bird", top_n=1).matches[0].score == 1.0
    assert unpacked == [6, 2]  # the document's six words, then the query's two
    train = [Message("s", 1, ("cash", "prize")), Message("h", 0, ("paper", "draft"))]
    spam_filter = train_filter(train, dim=256, seed=1)
    verdicts = classify_many(spam_filter, [Message("t", 0, ("draft", "unknown")), Message("u", 0, ())])
    assert [v.label for v in verdicts] == [0, 0]
    assert [v.unclassifiable for v in verdicts] == [False, True]
    assert unpacked[2:] == [4, 1]
    # a context build bundles every row for its norms, and a query its
    # operand row, each unpacking only the words that are some word's
    # neighbor; the query then unpacks every word's signs, a slice of
    # words at a time, for their dots with it
    vocab = Vocabulary(["a", "b", "y", "z"], dim=256, seed=1)
    model = build_context_model(["a", "b", "a"], vocab, half_window=1)
    assert unpacked[4:] == [2]
    assert [m.word for m in similar_words(model, "a")] == ["b"]
    assert unpacked[5:] == [1, 4]
    assert np.asarray(mirror_counts(model.upper).sum(axis=1)).ravel().tolist() == [2, 2, 0, 0]


def test_bow_matrix_empty_inputs():
    vocab = Vocabulary(["u"], dim=32, seed=0)
    assert vocab.bow_matrix([]).shape == (0, 32)
    out = vocab.bow_matrix([np.array([], dtype=np.int64)])
    np.testing.assert_array_equal(out, np.zeros((1, 32), dtype=np.int64))
    assert out.dtype == np.float32


def test_bow_matrix_rejects_out_of_range():
    vocab = Vocabulary(["u"], dim=32, seed=0)
    with pytest.raises(IndexError):
        vocab.bow_matrix([np.array([4], dtype=np.int64)])


def test_vocabulary_records_pipeline_provenance():
    cfg = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    toks = preprocess("cats and dogs", cfg)
    vocab = build_vocabulary(toks, dim=16, seed=0, config=cfg)
    assert vocab.lemmatizer == "suffix"
    assert vocab.stopword_digest == stopword_digest(cfg.stopwords)


def test_vocabulary_save_load_round_trip(tmp_path):
    # a vocabulary is saved as part of the context model built on it
    cfg = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    toks = preprocess("The cats were running quickly near the houses", cfg)
    vocab = build_vocabulary(toks, dim=128, seed=17, config=cfg)
    path = tmp_path / "model.npz"
    build_context_model(toks, vocab, half_window=2).save(path)
    loaded = ContextModel.load(path).vocabulary
    assert loaded.words == vocab.words
    assert loaded.dim == vocab.dim
    assert loaded.seed == vocab.seed
    assert loaded.lemmatizer == vocab.lemmatizer
    assert loaded.stopword_digest == vocab.stopword_digest
    np.testing.assert_array_equal(loaded.packed(), vocab.packed())


def test_vocabulary_load_rejects_bad_files(tmp_path):
    p = tmp_path / "v.npz"

    def write(meta_text):
        meta = np.frombuffer(meta_text.encode(), dtype=np.uint8)
        counts = {"indptr": [0, 0], "indices": np.zeros(0, dtype=np.int32), "data": np.zeros(0, dtype=np.int64)}
        np.savez(p, meta=meta, norms_sq=np.zeros(1, dtype=np.int64), **counts)

    good = {"format_version": 4, "dim": 8, "seed": 0, "half_window": 1, "words": ["a"]}
    write(json.dumps(good))
    assert ContextModel.load(p).vocabulary.words == ("a",)
    for bad in (
        "not json",
        json.dumps([1, 2]),
        json.dumps({**good, "format_version": 1}),
        json.dumps({**good, "format_version": 2}),
        json.dumps({**good, "format_version": 3}),
        json.dumps({"format_version": 4, "dim": 8, "half_window": 1}),
        json.dumps({**good, "words": ["a", "a"]}),
        json.dumps({**good, "dim": 0}),
        # a string is not a word list, and a float or a bool is not an integer
        json.dumps({**good, "words": "a"}),
        json.dumps({**good, "words": "ab"}),
        json.dumps({**good, "dim": 8.9}),
        json.dumps({**good, "seed": 1.5}),
        json.dumps({**good, "half_window": 1.7}),
        json.dumps({**good, "dim": True}),
        json.dumps({**good, "seed": True}),
        json.dumps({**good, "half_window": True}),
        # the stored norms are checked in int64 against dim
        json.dumps({**good, "dim": 2**70}),
    ):
        write(bad)
        with pytest.raises(CorpusFormatError):
            ContextModel.load(p)


def test_word_vectors_pairwise_near_orthogonal():
    # the whole scheme rests on this: thousands of word vectors drawn from
    # one seed stay mutually near-orthogonal at realistic dimension
    n, dim = 5000, 1000
    vocab = Vocabulary([f"w{i}" for i in range(n)], dim=dim, seed=7)
    signs = vocab.sign_matrix(slice(None)).astype(np.float32)
    total = 0.0
    total_sq = 0.0
    max_abs = 0.0
    for start in range(0, n, 500):
        block = signs[start : start + 500] @ signs.T / dim
        for r in range(block.shape[0]):
            block[r, start + r] = 0.0
        total += float(block.sum())
        total_sq += float((block * block).sum())
        max_abs = max(max_abs, float(np.abs(block).max()))
    pairs = n * (n - 1)
    mean = total / pairs
    var = total_sq / pairs - mean * mean
    assert abs(mean) < 1e-3
    assert abs(var - 1.0 / dim) < 0.05 / dim
    assert max_abs < 0.2


def test_vocab_dot_products_integer_grid():
    # dots of dim-1000 sign vectors land on the exact grid k/1000
    vocab = Vocabulary(["p", "q"], dim=1000, seed=2)
    p, q = vocab.packed()[[vocab.index_of("p"), vocab.index_of("q")]]
    d = dot_int_rows(p, q, 1000) / 1000
    assert abs(round(d * 1000) - d * 1000) < 1e-12
