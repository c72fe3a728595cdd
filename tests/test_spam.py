"""Spam filter tests on synthetic ten-part corpora.

Small corpora are written to tmp_path in the benchmark layout, the
nearest-neighbor classifier is checked against a pure-Python linear
scan, and the cross-validation protocol is checked for fold isolation
and metric bookkeeping.
"""

import random

import pytest

from hdsem import core
from hdsem.errors import CorpusFormatError, EmptyClassError
from hdsem.spam import (
    ClassifyResult,
    EvaluationReport,
    FoldResult,
    Message,
    classify_many,
    cross_validate,
    ingest_lingspam,
    train_filter,
)
from hdsem.textpipe import PipelineConfig, build_vocabulary

from oracles import brute_bundle, brute_cosine, reference_signs

SPAM_WORDS = ["cash", "winner", "prize", "claim", "offer", "free"]
HAM_WORDS = ["meeting", "linguistics", "paper", "corpus", "study", "draft"]


def _body(pool, salt, n=6):
    rng = random.Random(salt)
    return " ".join(rng.choice(pool) for _ in range(n))


def write_corpus(root, parts=10, spam_per=2, ham_per=2):
    for p in range(1, parts + 1):
        d = root / f"part{p}"
        d.mkdir(parents=True)
        for i in range(spam_per):
            (d / f"spmsg{p}_{i}.txt").write_text(
                f"Subject: {_body(SPAM_WORDS, 100 * p + i)}\n\n{_body(SPAM_WORDS, 9000 + 100 * p + i)}\n",
                encoding="latin-1",
            )
        for i in range(ham_per):
            (d / f"{p}-{i}msg.txt").write_text(
                f"Subject: {_body(HAM_WORDS, 200 * p + i)}\n\n{_body(HAM_WORDS, 7000 + 200 * p + i)}\n",
                encoding="latin-1",
            )
    return root


# ------------------------------------------------------------------ ingest


def test_ingest_structure(tmp_path):
    write_corpus(tmp_path)
    folds = ingest_lingspam(tmp_path)
    assert len(folds) == 10
    assert all(len(f) == 4 for f in folds)
    first = folds[0]
    # sorted by filename: digits before letters, so ham files come first here
    assert [m.message_id for m in first] == [
        "part1/1-0msg.txt",
        "part1/1-1msg.txt",
        "part1/spmsg1_0.txt",
        "part1/spmsg1_1.txt",
    ]
    assert [m.label for m in first] == [0, 0, 1, 1]
    assert all(isinstance(m.words, tuple) for m in first)


def test_ingest_strips_subject_field(tmp_path):
    d = tmp_path / "part1"
    write_corpus(tmp_path)
    (d / "spmsgx.txt").write_text("Subject: hello\n\nworld again\n", encoding="latin-1")
    folds = ingest_lingspam(tmp_path)
    msg = next(m for m in folds[0] if m.message_id == "part1/spmsgx.txt")
    assert msg.words == ("hello", "world", "again")
    assert "subject" not in msg.words


def test_ingest_latin1_bytes(tmp_path):
    write_corpus(tmp_path)
    raw = "Subject: caf\xe9 money\n\nbody\n".encode("latin-1")
    (tmp_path / "part2" / "spmsgy.txt").write_bytes(raw)
    folds = ingest_lingspam(tmp_path)
    msg = next(m for m in folds[1] if m.message_id == "part2/spmsgy.txt")
    assert "café" in msg.words


def test_ingest_applies_pipeline_config(tmp_path):
    write_corpus(tmp_path)
    cfg = PipelineConfig(stopwords=frozenset({"cash", "meeting"}))
    folds = ingest_lingspam(tmp_path, config=cfg)
    for fold in folds:
        for m in fold:
            assert "cash" not in m.words
            assert "meeting" not in m.words


def test_ingest_missing_part(tmp_path):
    write_corpus(tmp_path)
    for f in (tmp_path / "part5").iterdir():
        f.unlink()
    (tmp_path / "part5").rmdir()
    with pytest.raises(CorpusFormatError):
        ingest_lingspam(tmp_path)


def test_ingest_empty_part(tmp_path):
    write_corpus(tmp_path)
    for f in (tmp_path / "part7").iterdir():
        f.unlink()
    (tmp_path / "part7" / "notes.dat").write_text("x")
    with pytest.raises(CorpusFormatError):
        ingest_lingspam(tmp_path)


# ---------------------------------------------------------------- training


def test_train_excludes_zero_norm_messages():
    # b bundles to zero: it keeps row 1 of the filter, but its norm is 0,
    # so no query ever reaches it
    msgs = [
        Message("a", 1, ("cash", "prize")),
        Message("b", 1, ()),
        Message("c", 0, ("paper",)),
    ]
    f = train_filter(msgs, dim=64, seed=0)
    assert f.message_ids == ("a", "b", "c")
    assert list(f.labels) == [1, 1, 0]
    assert [n > 0 for n in f.norms_sq] == [True, False, True]
    verdicts = classify_many(f, [Message("q", 0, ("paper",)), Message("r", 0, ("unknown",))])
    assert [v.best_match_id for v in verdicts] == ["c", None]
    ranked = core.nearest(f.matrix, f.norms_sq, f.matrix, 3)
    assert [[i for i, _ in row] for row in ranked] == [[0, 2], [], [2, 0]]


def test_train_empty_class_raises():
    with pytest.raises(EmptyClassError):
        train_filter([Message("a", 0, ("x",)), Message("b", 0, ("y",))], dim=32, seed=0)
    with pytest.raises(EmptyClassError):
        train_filter([Message("a", 1, ("x",)), Message("b", 1, ())], dim=32, seed=0)
    # the only ham message keeps its row, but holds no word of the shared
    # vocabulary, so it bundles to zero and is never a neighbor
    vocab = build_vocabulary(["cash", "prize"], dim=32, seed=0)
    msgs = [Message("a", 1, ("cash",)), Message("b", 0, ("paper",)), Message("c", 1, ("prize",))]
    with pytest.raises(EmptyClassError, match="no ham training message survives encoding"):
        train_filter(msgs, dim=32, seed=0, vocabulary=vocab)


def test_train_vocabulary_mismatch():
    vocab = build_vocabulary(Message("a", 1, ("x",)).words, dim=32, seed=0)
    with pytest.raises(ValueError):
        train_filter([Message("a", 1, ("x",))], dim=64, seed=0, vocabulary=vocab)
    with pytest.raises(ValueError):
        train_filter([Message("a", 1, ("x",))], dim=32, seed=1, vocabulary=vocab)


# -------------------------------------------------------------- classifying


def test_classify_matches_linear_scan():
    # distinct word subsets guarantee no two bundles are exactly parallel
    pool = [f"w{i}" for i in range(10)]
    rng = random.Random(13)
    subsets = set()
    while len(subsets) < 16:
        k = rng.randint(1, 5)
        subsets.add(tuple(sorted(rng.sample(pool, k))))
    subsets = sorted(subsets)
    train = [
        Message(f"m{i}", i % 2, words) for i, words in enumerate(subsets[:12])
    ]
    tests = [Message(f"q{i}", 0, words) for i, words in enumerate(subsets[12:])]
    f = train_filter(train, dim=32, seed=21)
    got = classify_many(f, tests)

    signs = {
        w: reference_signs(32, 21, f.vocabulary.index_of(w))
        for w in f.vocabulary.words
    }
    kept = list(train)
    assert f.message_ids == tuple(m.message_id for m in kept)  # nothing excluded
    for m, res in zip(tests, got):
        known = [w for w in m.words if w in f.vocabulary]
        q = brute_bundle([signs[w] for w in known])
        best_score, best_idx = None, None
        for idx, tr in enumerate(kept):
            b = brute_bundle([signs[w] for w in tr.words])
            s = brute_cosine(b, q)
            if best_score is None or s > best_score:
                best_score, best_idx = s, idx
        assert res.best_match_id == kept[best_idx].message_id
        assert res.label == kept[best_idx].label
        assert res.score == pytest.approx(best_score, abs=1e-12)
        assert not res.unclassifiable


def test_classify_tie_goes_to_earliest_exemplar():
    train = [Message("first", 1, ("x",)), Message("second", 0, ("x",))]
    f = train_filter(train, dim=64, seed=3)
    [res] = classify_many(f, [Message("q", 0, ("x",))])
    assert res.best_match_id == "first"
    assert res.label == 1
    f2 = train_filter(list(reversed(train)), dim=64, seed=3)
    assert classify_many(f2, [Message("q", 0, ("x",))])[0].label == 0


def test_classify_unclassifiable_defaults_to_ham():
    f = train_filter(
        [Message("a", 1, ("cash",)), Message("b", 0, ("paper",))], dim=32, seed=0
    )
    for words in [(), ("zzz", "qqq")]:
        [res] = classify_many(f, [Message("q", 1, words)])
        assert res == ClassifyResult(0, 0.0, None, True)


def test_classify_single_equals_batch():
    train = [Message("a", 1, ("cash", "prize")), Message("b", 0, ("paper", "study"))]
    f = train_filter(train, dim=128, seed=5)
    queries = [Message("q1", 0, ("cash",)), Message("q2", 0, ("study", "paper"))]
    batch = classify_many(f, queries)
    singles = [classify_many(f, [q])[0] for q in queries]
    assert batch == singles


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_classify_in_blocks_equals_one_block(monkeypatch, per_block):
    # "paper" ties exemplars b and c, and two queries know no word
    train = [
        Message("a", 1, ("cash", "prize")),
        Message("b", 0, ("paper",)),
        Message("c", 1, ("paper",)),
        Message("d", 0, ("study", "draft")),
    ]
    f = train_filter(train, dim=64, seed=7)
    texts = [("paper",), (), ("cash",), ("zzz",), ("study", "draft", "cash"), ("paper", "paper"), ("prize",)]
    queries = [Message(f"q{i}", 0, words) for i, words in enumerate(texts)]
    whole = classify_many(f, queries)
    assert [r.best_match_id for r in whole] == ["b", None, "a", None, "d", "b", "a"]
    # a block holds core.BLOCK_BYTES // (4 * dim) messages
    monkeypatch.setattr(core, "BLOCK_BYTES", 4 * 64 * per_block)
    assert classify_many(f, queries) == whole


# --------------------------------------------------------- cross-validation


def test_disjoint_vocabularies_classify_perfectly(tmp_path):
    write_corpus(tmp_path)
    folds = ingest_lingspam(tmp_path)
    report = cross_validate(folds, dim=256, seed=11)
    assert len(report.fold_results) == 10
    for r in report.fold_results:
        assert (r.tp, r.fp, r.fn, r.tn) == (2, 0, 0, 2)
        assert r.spam_precision == 1.0
        assert r.spam_recall == 1.0
        assert r.unclassifiable == 0
    assert report.avg_spam_precision == 1.0
    assert report.avg_spam_recall == 1.0
    assert report.total_tp == 20 and report.total_tn == 20


def test_cross_validate_counts_partition_folds(tmp_path):
    write_corpus(tmp_path, spam_per=3, ham_per=2)
    folds = ingest_lingspam(tmp_path)
    report = cross_validate(folds, dim=64, seed=2)
    for r, fold in zip(report.fold_results, folds):
        assert r.tp + r.fp + r.fn + r.tn == len(fold)
    assert [r.fold for r in report.fold_results] == list(range(1, 11))
    assert report.dim == 64 and report.seed == 2 and report.vocab_mode == "per-fold"


def test_cross_validate_deterministic(tmp_path):
    write_corpus(tmp_path)
    folds = ingest_lingspam(tmp_path)
    a = cross_validate(folds, dim=128, seed=9)
    b = cross_validate(folds, dim=128, seed=9)
    assert a == b


def test_fold_isolation_per_fold_vs_global(tmp_path):
    write_corpus(tmp_path)
    # a part1 ham message made entirely of words seen nowhere else
    (tmp_path / "part1" / "1-9msg.txt").write_text(
        "Subject: uniquetoken\n\nuniquetoken uniquetoken\n", encoding="latin-1"
    )
    folds = ingest_lingspam(tmp_path)
    per_fold = cross_validate(folds, dim=128, seed=4, vocab_mode="per-fold")
    global_v = cross_validate(folds, dim=128, seed=4, vocab_mode="global")
    # training on parts 2..10 cannot know the word: unclassifiable
    assert per_fold.fold_results[0].unclassifiable == 1
    # a global vocabulary knows it, so the message gets a real neighbor
    assert global_v.fold_results[0].unclassifiable == 0


def test_cross_validate_tallies_each_verdict_exactly():
    def msg(fold, label, text):
        return Message(f"part{fold}/{text}", label, tuple(text.split()))

    # folds 2 and 3 each hold one clean spam and one clean ham exemplar;
    # fold 1 holds one message per cell of the 2x2 table, plus a spam
    # message whose words no other fold has
    folds = [
        [
            msg(1, 1, "cash win"),  # spam read as spam: tp
            msg(1, 0, "cash prize"),  # ham read as spam: fp
            msg(1, 1, "meeting notes"),  # spam read as ham: fn
            msg(1, 0, "lecture notes"),  # ham read as ham: tn
            msg(1, 1, "zzz qqq"),  # unclassifiable, so ham: fn
        ],
        [msg(2, 1, "cash prize win"), msg(2, 0, "meeting lecture notes")],
        [msg(3, 1, "cash prize win"), msg(3, 0, "meeting lecture notes")],
    ]
    report = cross_validate(folds, dim=1000, seed=7)
    # folds 2 and 3 each find their exact twin in the other
    assert report.fold_results == (
        FoldResult(1, tp=1, fp=1, fn=2, tn=1, unclassifiable=1),
        FoldResult(2, tp=1, fp=0, fn=0, tn=1, unclassifiable=0),
        FoldResult(3, tp=1, fp=0, fn=0, tn=1, unclassifiable=0),
    )


def test_cross_validate_validation(tmp_path):
    write_corpus(tmp_path)
    folds = ingest_lingspam(tmp_path)
    with pytest.raises(ValueError):
        cross_validate(folds, dim=32, seed=0, vocab_mode="magic")
    with pytest.raises(ValueError):
        cross_validate(folds[:1], dim=32, seed=0)


def test_report_none_safe_averages():
    rows = (
        FoldResult(1, 0, 0, 0, 5, 0),
        FoldResult(2, 3, 1, 0, 2, 0),
    )
    report = EvaluationReport(32, 0, "per-fold", rows)
    assert rows[0].spam_precision is None
    assert rows[0].spam_recall is None
    assert report.avg_spam_precision == 0.75
    assert report.avg_spam_recall == 1.0
    empty = EvaluationReport(32, 0, "per-fold", (FoldResult(1, 0, 0, 0, 5, 0),))
    assert empty.avg_spam_precision is None
    assert empty.avg_spam_recall is None
