"""Sentence segmentation and retrieval tests.

Retrieval scores are checked against a pure-Python cosine oracle at
small dimension, exactness of perfect matches is asserted as == 1.0,
and ranking-by-overlap is checked at realistic dimension with a pinned
seed where the noise margin is enormous.
"""

import random
import time

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem.core import exact_dots
from hdsem.errors import EmptyIndexError, EmptyQueryError
from hdsem.sentences import (
    QueryOutcome,
    SentenceIndex,
    SentenceMatch,
    build_sentence_index,
    query_sentences,
    split_sentences,
)
from hdsem.textpipe import PipelineConfig, Vocabulary, load_stopwords

from oracles import brute_bundle, brute_cosine, reference_signs, reference_split_sentences
from recorders import ProductRecorder


# ------------------------------------------------------------ segmentation


def test_split_basic_terminators():
    assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]


def test_split_closing_quotes_and_brackets():
    text = 'He said "Stop!" Then he left.'
    assert split_sentences(text) == ['He said "Stop!"', "Then he left."]
    # a parenthetical exclamation is a terminator run too: the splitter is
    # line-of-sight and does not track bracket nesting
    text2 = "It was (really!) done. Yes."
    assert split_sentences(text2) == ["It was (really!)", "done.", "Yes."]


def test_split_abbreviations_do_not_split():
    text = "Mr. Holmes smiled. Dr. Watson nodded. They sat by St. Paul."
    assert split_sentences(text) == [
        "Mr. Holmes smiled.",
        "Dr. Watson nodded.",
        "They sat by St. Paul.",
    ]


def test_split_initials_do_not_split():
    assert split_sentences("John H. Watson arrived.") == ["John H. Watson arrived."]


def test_split_pronoun_i_does_end_sentences():
    assert split_sentences("So do I. He knows.") == ["So do I.", "He knows."]


def test_split_multi_terminator_runs():
    assert split_sentences("What?! Never.") == ["What?!", "Never."]
    assert split_sentences("Well... maybe.") == ["Well...", "maybe."]


def test_split_trailing_fragment_kept():
    assert split_sentences("A title without end") == ["A title without end"]
    assert split_sentences("Done. And more") == ["Done.", "And more"]


def test_split_empty_and_whitespace():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_split_newlines_inside_sentence():
    text = "It was a dark\nand stormy night. The end."
    assert split_sentences(text) == ["It was a dark\nand stormy night.", "The end."]


_SPLIT_PIECES = st.one_of(
    # letter runs around the 64-char look-back window, right before a period
    st.builds(lambda n, c: c * n, st.one_of(st.integers(1, 6), st.integers(60, 70)), st.sampled_from("aZ")),
    st.sampled_from(["Mr", "mrs", "Dr", "St", "etc", "vs", "H", "I", "J", "x"]),
    st.sampled_from([".", ". ", ".\n", '." ', ".) ", ".'] ", "! ", "? ", "... ", " ", "\n", "\t", "1"]),
)


@given(st.lists(_SPLIT_PIECES, max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_split_matches_unbounded_lookback_oracle(text):
    assert split_sentences(text) == reference_split_sentences(text)


def test_split_long_runs_before_abbreviations_and_initials():
    for n in (61, 62, 63, 64, 65, 66, 200):
        for word in ("Mr", "dr", "H", "I"):
            text = "a" * n + word + ". Next one. " + "b" * n + " " + word + ". Last."
            assert split_sentences(text) == reference_split_sentences(text)


def test_split_multi_megabyte_paragraph_is_fast():
    # one paragraph, no newlines: an unbounded look-back rescans the text
    # before every period and needs hours here
    unit = 'Mr. Holmes looked up. "Was it J. Smith?" asked Dr. Watson (twice). It was. '
    text = unit * (3_000_000 // len(unit))
    t0 = time.perf_counter()
    out = split_sentences(text)
    elapsed = time.perf_counter() - t0
    assert len(out) == 4 * (3_000_000 // len(unit))
    assert out[:4] == ["Mr. Holmes looked up.", '"Was it J. Smith?"', "asked Dr. Watson (twice).", "It was."]
    assert elapsed < 30.0


# -------------------------------------------------------------------- build


def test_build_trivial_index():
    idx = build_sentence_index("Red fox. Blue bird.", dim=64, seed=0)
    assert len(idx) == 2
    assert idx.sentences == ("Red fox.", "Blue bird.")
    assert idx.matrix.shape == (2, 64)
    assert idx.matrix.dtype == np.float32
    assert idx.vocabulary.words == ("red", "fox", "blue", "bird")


def test_build_excludes_emptied_sentences():
    cfg = PipelineConfig(stopwords=load_stopwords())
    idx = build_sentence_index("Red fox. The of and. Blue bird.", dim=64, seed=0, config=cfg)
    assert idx.sentences == ("Red fox.", "Blue bird.")
    out = query_sentences(idx, "blue bird", top_n=1)
    assert out.matches[0].sentence_index == 1
    assert out.matches[0].text == "Blue bird."


def test_build_multiplicity_counts():
    idx = build_sentence_index("cat cat dog.", dim=48, seed=3)
    v_cat = np.array(reference_signs(48, 3, idx.vocabulary.index_of("cat")), dtype=np.int64)
    v_dog = np.array(reference_signs(48, 3, idx.vocabulary.index_of("dog")), dtype=np.int64)
    np.testing.assert_array_equal(idx.matrix[0], 2 * v_cat + v_dog)
    assert idx.norms_sq[0] == int(((2 * v_cat + v_dog) ** 2).sum())


def test_build_int32_guard(monkeypatch):
    def crafted(value):
        return lambda self, docs: np.full((len(docs), self.dim), value, dtype=np.int32)

    monkeypatch.setattr(Vocabulary, "bow_matrix", crafted(2**31 - 1))
    # at dim 1 the squared norm (2^31 - 1)^2 fits int64 and is stored exactly
    idx = build_sentence_index("a b. c.", dim=1, seed=0)
    assert idx.norms_sq.tolist() == [(2**31 - 1) ** 2] * 2
    # at dim 8 it is 8 (2^31 - 1)^2 > 2^63, which int64 cannot hold
    with pytest.raises(ValueError, match="integer squared norms exceed int64 range"):
        build_sentence_index("a b. c.", dim=8, seed=0)

    def too_long(self, docs):  # a first sentence of 2^31 tokens
        counts = ([2**30, 2**30], ([0, 0], [0, 1]))
        return self.bundle(scipy.sparse.csr_matrix(counts, shape=(len(docs), len(self))))

    monkeypatch.setattr(Vocabulary, "bow_matrix", too_long)
    for dim in (1, 8):  # the kernel's int32 guard comes first, whatever the norms
        with pytest.raises(ValueError, match="bundle counts exceed int32 range"):
            build_sentence_index("a b. c.", dim=dim, seed=0)


@pytest.mark.parametrize("value, dtype", [(2**24, np.float32), (2**24 + 1, np.int32)])
def test_build_float32_guard(monkeypatch, value, dtype):
    # the index stores the rows in the dtype the bundle kernel returns:
    # float32 up to the entry 2^24, int32 from 2^24 + 1, which no float32
    # holds.  At dim 1 the squared norm is value^2, 2^48 or just past it,
    # where the float32 scoring tier stops and the exact blocks score
    monkeypatch.setattr(Vocabulary, "bow_matrix", lambda self, docs: np.full((len(docs), 1), value, dtype=dtype))
    idx = build_sentence_index("a b. c.", dim=1, seed=0)
    assert idx.matrix.dtype == dtype and idx.matrix.tolist() == [[value]] * 2
    assert idx.norms_sq.tolist() == [value**2] * 2
    out = query_sentences(idx, "a", top_n=2, normalize=False)
    assert [m.score for m in out.matches] == [value**2 / idx.vocabulary.dim] * 2
    assert [m.score for m in query_sentences(idx, "a", top_n=2).matches] == [1.0, 1.0]


def test_build_empty_document():
    idx = build_sentence_index("", dim=16, seed=0)
    assert len(idx) == 0
    with pytest.raises(EmptyIndexError):
        query_sentences(idx, "anything")


def test_build_permutation_invariance():
    a = build_sentence_index("alpha beta gamma.", dim=128, seed=9)
    b = build_sentence_index("gamma alpha beta.", dim=128, seed=9)
    np.testing.assert_array_equal(a.matrix, b.matrix)


# -------------------------------------------------------------------- query


def test_self_retrieval_is_exactly_one():
    text = "The fox runs far. A bird sings loud. Stars shine at night."
    idx = build_sentence_index(text, dim=256, seed=7)
    out = query_sentences(idx, "A bird sings loud.", top_n=1)
    m = out.matches[0]
    assert m.score == 1.0
    assert m.sentence_index == 1
    assert m.text == "A bird sings loud."
    assert out.dropped_tokens == ()


def test_self_retrieval_duplicate_sentences_tie_to_earlier():
    text = "A bird sings. The fox runs. A bird sings."
    idx = build_sentence_index(text, dim=512, seed=1)
    out = query_sentences(idx, "a bird sings", top_n=2)
    assert out.matches[0].score == 1.0
    assert out.matches[1].score == 1.0
    assert out.matches[0].sentence_index == 0
    assert out.matches[1].sentence_index == 2


def test_scores_match_cosine_oracle():
    rng = random.Random(5)
    names = ["w%d" % i for i in range(10)]
    sentences = []
    for _ in range(8):
        k = rng.randint(1, 6)
        sentences.append(" ".join(rng.choice(names) for _ in range(k)))
    text = ". ".join(sentences) + "."
    idx = build_sentence_index(text, dim=32, seed=11)
    assert len(idx) == 8
    query = "w1 w3 w3 w5"
    out = query_sentences(idx, query, top_n=8)

    signs = {w: reference_signs(32, 11, i) for i, w in enumerate(idx.vocabulary.words)}
    q = brute_bundle([signs["w1"], signs["w3"], signs["w3"], signs["w5"]])
    expected = []
    for i, s in enumerate(sentences):
        bundle = brute_bundle([signs[w] for w in s.split()])
        expected.append((-brute_cosine(bundle, q), i))
    expected.sort()
    assert [m.sentence_index for m in out.matches] == [i for _, i in expected]
    for m in out.matches:
        assert m.score == pytest.approx(-expected[m.rank - 1][0], abs=1e-12)


def test_overlap_ranking_at_high_dim():
    text = "alpha beta gamma. alpha beta delta. alpha epsilon zeta. eta theta iota."
    idx = build_sentence_index(text, dim=10_000, seed=42)
    out = query_sentences(idx, "alpha beta gamma", top_n=4)
    assert [m.sentence_index for m in out.matches] == [0, 1, 2, 3]
    assert out.matches[0].score == 1.0
    assert out.matches[1].score == pytest.approx(2 / 3, abs=0.05)
    assert out.matches[2].score == pytest.approx(1 / 3, abs=0.05)
    assert abs(out.matches[3].score) < 0.05


def test_normalized_and_raw_agree_on_equal_norms():
    idx = build_sentence_index("alpha. beta. gamma.", dim=1000, seed=4)
    a = query_sentences(idx, "beta", top_n=3, normalize=True)
    b = query_sentences(idx, "beta", top_n=3, normalize=False)
    assert [m.sentence_index for m in a.matches] == [m.sentence_index for m in b.matches]
    assert a.matches[0].score == 1.0
    assert b.matches[0].score == 1.0


def test_raw_mode_favors_longer_sentences():
    idx = build_sentence_index("cat. cat cat cat cat.", dim=800, seed=2)
    raw = query_sentences(idx, "cat", top_n=2, normalize=False)
    assert raw.matches[0].sentence_index == 1
    assert raw.matches[0].score == 4.0
    # under cosine the repeated-word sentence is exactly parallel: tie,
    # earlier sentence first, both exactly 1.0
    cos = query_sentences(idx, "cat", top_n=2, normalize=True)
    assert cos.matches[0].sentence_index == 0
    assert cos.matches[0].score == 1.0
    assert cos.matches[1].score == 1.0


def test_raw_scores_divide_in_float64():
    # at dim 101 the quotient dot / 101 is not a float32 value, so a
    # product left in float32 would round every raw score
    idx = build_sentence_index("alpha beta. beta gamma delta. gamma.", dim=101, seed=5)
    signs = {w: reference_signs(101, 5, idx.vocabulary.index_of(w)) for w in idx.vocabulary.words}
    rows = [brute_bundle([signs[w] for w in ws]) for ws in (["alpha", "beta"], ["beta", "gamma", "delta"], ["gamma"])]
    q = brute_bundle([signs["beta"], signs["gamma"]])
    want = [sum(x * y for x, y in zip(r, q)) / 101 for r in rows]
    assert all(float(np.float32(w)) != w for w in want if w)
    out = query_sentences(idx, "beta gamma", top_n=3, normalize=False)
    assert sorted((m.sentence_index, m.score) for m in out.matches) == list(enumerate(want))


def test_query_drops_unknown_tokens():
    idx = build_sentence_index("red fox. blue bird.", dim=64, seed=0)
    out = query_sentences(idx, "shiny red fox rocket shiny", top_n=1)
    assert out.dropped_tokens == ("shiny", "rocket", "shiny")
    assert out.matches[0].sentence_index == 0


def test_query_all_unknown_raises():
    idx = build_sentence_index("red fox.", dim=64, seed=0)
    with pytest.raises(EmptyQueryError):
        query_sentences(idx, "purple elephant")


def test_query_uses_index_pipeline():
    cfg = PipelineConfig(stopwords=load_stopwords())
    idx = build_sentence_index("The cat sat. A dog ran.", dim=128, seed=6, config=cfg)
    out = query_sentences(idx, "the the the cat", top_n=1)
    assert out.dropped_tokens == ()
    assert out.matches[0].text == "The cat sat."


def test_query_top_n_handling():
    idx = build_sentence_index("a b. c d. e f.", dim=64, seed=0)
    assert len(query_sentences(idx, "a", top_n=10).matches) == 3
    with pytest.raises(ValueError):
        query_sentences(idx, "a", top_n=0)


def test_zero_norm_sentence_never_matches():
    # at dim=1 two words can cancel exactly; such a sentence is unscorable
    seed = None
    for s in range(100):
        idx = build_sentence_index("a b. a.", dim=1, seed=s)
        if idx.norms_sq[0] == 0:
            seed = s
            break
    assert seed is not None
    idx = build_sentence_index("a b. a.", dim=1, seed=seed)
    out = query_sentences(idx, "a", top_n=5)
    assert [m.sentence_index for m in out.matches] == [1]


def test_match_and_outcome_types():
    idx = build_sentence_index("red fox.", dim=64, seed=0)
    out = query_sentences(idx, "red")
    assert isinstance(out, QueryOutcome)
    assert isinstance(out.matches[0], SentenceMatch)
    assert out.matches[0].rank == 1


def _crafted_index(scale):
    """Index of float32 rows, scaled +-1 patterns against the query "a".

    With dim 8 the one-word query has squared norm 8 and row 0, the
    largest, 8 scale^2, so the float32 bound 64 scale^2 < 2^48 holds iff
    scale < 2^21.  Row 0 is parallel to the query, so its numerator is
    scale * 8, which reaches 2^24 at scale = 2^21.
    """
    dim = 8
    vocab = Vocabulary(["a", "b"], dim=dim, seed=3)
    qs, bs = vocab.sign_matrix(slice(None)).astype(np.int64)
    flip = qs.copy()
    flip[0] = -flip[0]
    rows = np.array(
        [scale * qs, -scale * qs, scale * flip, scale * bs, (scale // 3) * qs + bs, bs],
        dtype=np.int64,
    )
    matrix = rows.astype(np.float32).view(ProductRecorder)
    norms_sq = np.array([sum(int(x) ** 2 for x in r) for r in rows], dtype=np.int64)
    texts = [f"s{i}" for i in range(len(rows))]
    index = SentenceIndex(vocab, PipelineConfig(), texts, matrix, norms_sq)
    return index, rows, qs


@pytest.mark.parametrize("scale, wide", [(2**21 - 1, False), (2**21, True)])
def test_query_exactness_guard_at_float32_bound(scale, wide):
    index, rows, qs = _crafted_index(scale)
    assert (int(qs @ qs) * int(index.norms_sq.max()) >= 2**48) == wide
    ProductRecorder.dtypes.clear()
    out = query_sentences(index, "a", top_n=len(rows))
    assert ProductRecorder.dtypes == [np.dtype(np.float64 if wide else np.float32)]
    dots = exact_dots(index.matrix, index.norms_sq, qs[None])
    assert dots.dtype == np.float64 and int(dots[0, 0]) == 8 * scale
    got = {m.sentence_index: m.score for m in out.matches}
    assert sorted(got) == list(range(len(rows)))
    for i, row in enumerate(rows):
        expected = brute_cosine(row.tolist(), qs.tolist())
        if abs(expected) == 1.0:
            assert got[i] == expected
        else:
            assert got[i] == pytest.approx(expected, abs=1e-12)
