"""End-to-end CLI runs on synthetic corpora whose answers are planted.

perfbench/synth.py (imported read-only, at the benchmark's probe sizes,
and once at its full book size to pin the saved counts) writes a Zipf
book and a ten-part Ling-Spam-layout tree that need no download.  The book plants twin words with identical contexts and
sentences that must retrieve themselves; the tree carries four edge
files (an empty message, one of unknown words only, latin-1 bytes, and
one without a Subject: line).  These tests drive hdsem.cli.main on them,
so the corpus-scale paths run offline; the paper's own numbers are still
checked on the real corpora by the acceptance suite.
"""

import csv
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from hdsem.cli import main
from hdsem.context import ContextModel
from hdsem.spam import cross_validate, ingest_lingspam

from oracles import mirror_counts

_SYNTH = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"
_spec = importlib.util.spec_from_file_location("_planted_synth", _SYNTH)
synth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synth)

SEED = 42


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return list(csv.reader(io.StringIO(out))), err


@pytest.fixture(scope="module")
def book():
    return synth.make_book(SEED, tokens=1_500, vocab=600, n_twins=4, n_planted=10, long_paragraph=50)


@pytest.fixture(scope="module")
def spam_tree(tmp_path_factory):
    tree = synth.make_spam_tree(tmp_path_factory.mktemp("lingspam"), SEED, messages=36)
    assert tree.messages == 40  # 36 generated plus the four edge files in part10
    return tree


@pytest.fixture
def book_path(book, tmp_path):
    path = tmp_path / "book.txt"
    path.write_text(book.text, encoding="utf-8")
    return path


def test_planted_twins_are_each_others_top_hit(book, book_path, tmp_path, capsys):
    model = tmp_path / "model.npz"
    run(["context", "build", "--input", str(book_path), "--out", str(model), "--lemmatizer", "suffix"], capsys)
    assert len(book.twins) == 4
    for a, b in book.twins:
        for word, twin in ((a, b), (b, a)):
            rows, _ = run(["context", "similar", "--model", str(model), "--top", "10", word], capsys)
            assert rows[0] == ["rank", "word", "score"]
            assert rows[1] == ["1", twin, "1"], (word, rows[:3])
            assert word not in [r[1] for r in rows[1:]]


def test_planted_sentences_retrieve_themselves(book, book_path, capsys):
    assert len(book.planted) == 10
    for sentence in book.planted:
        rows, _ = run(["sentence-query", "--input", str(book_path), "--lemmatizer", "suffix", sentence], capsys)
        assert rows[0] == ["rank", "score", "sentence_index", "text"]
        top = rows[1]
        assert top[1] == "1.000000" and " ".join(top[3].split()) == sentence, top[:3]


@pytest.mark.parametrize("mode", ["per-fold", "global"])
def test_spam_eval_counts_every_message_of_the_tree(mode, spam_tree, capsys):
    tree = spam_tree
    rows, err = run(["spam-eval", "--corpus-dir", str(tree.root), "--dim", "3000", "--vocab-mode", mode], capsys)
    assert err.startswith(f"spam-eval: {tree.messages} messages")
    assert rows[0] == ["fold", "dim", "seed", "tp", "fp", "fn", "tn", "spam_precision", "spam_recall"]
    folds, avg = rows[1:11], rows[11]
    assert [r[0] for r in folds] == [str(k) for k in range(1, 11)] and avg[0] == "avg"
    totals = [0, 0, 0, 0]
    for r, size in zip(folds, tree.fold_sizes, strict=True):
        counts = [int(x) for x in r[3:7]]
        assert sum(counts) == size, (r, size)
        totals = [a + b for a, b in zip(totals, counts)]
    assert [int(x) for x in avg[3:7]] == totals
    assert totals[0] + totals[2] == tree.spam


@pytest.mark.parametrize("mode, unclassifiable", [("per-fold", 2), ("global", 1)])
def test_spam_tree_edge_files(mode, unclassifiable, spam_tree):
    folds = ingest_lingspam(spam_tree.root)
    edge = {m.message_id.removeprefix("part10/"): m.words for m in folds[9]}
    assert edge["9-90000msg.txt"] == ()  # the empty file
    assert len(edge["9-90001msg.txt"]) == 24  # unknown words, subject and body
    assert "caf\xe9" in edge["spmsg90002.txt"]  # latin-1 bytes decode
    assert len(edge["9-90003msg.txt"]) == 60  # no Subject: line, body only
    report = cross_validate(folds, 3000, SEED, vocab_mode=mode)
    # the empty message never has a bundle; the unknown-words message has
    # none against a vocabulary built without its own fold
    assert [f.unclassifiable for f in report.fold_results] == [0] * 9 + [unclassifiable]


# sha256 of the count arrays of the benchmark's full book at seed 42 built
# with --lemmatizer suffix, as loaded and mirrored: the same since the
# counts were first pinned, before format 4 saved their upper triangle
BENCH_BOOK_COUNTS = {
    "indptr": ("int32", "6d8427711121d7255abd1d1cc6f8de5219f322776b3c78049e41c75e0bc13d62"),
    "indices": ("int32", "6d4ffbc6355191221519efe48c37d6322e172292226632fe59a5a4c788977e3c"),
    "data": ("int64", "71e9b411d1937a79c450d58d977e6124a4226eeace02523c56d9434d1afeb9f2"),
}

# sha256 of each array the format-4 file of that model holds: indices
# and data in the narrowest types that hold them (1960 words after the
# first, counts up to 452)
BENCH_BOOK_SAVED = {
    "indptr": ("int32", "2aec5dfd872fd6a1908e6c994bb62a57567696d3475c13180aada4f1e8d38855"),
    "indices": ("uint16", "0ed0565eb8ffafdc959fe5fe2ba422d3b549fb9352e143536267c4fe26f576b0"),
    "data": ("uint16", "d90a835adc7c7cd2dcd1013a14afa02aef67134c911aeab8182b28a6a0876452"),
    "norms_sq": ("int64", "b66fa9fdfa6dd691e24dd5615fb010c5cd8a4d933c0d14e5e4e313f360cfee85"),
}


def _digests(arrays, names):
    return {name: (str(arrays[name].dtype), hashlib.sha256(arrays[name].tobytes()).hexdigest()) for name in names}


def test_bench_book_model_counts_are_byte_stable(tmp_path, capsys):
    # the arrays, not the npz file, whose zip bytes may vary with numpy
    path, model = tmp_path / "book.txt", tmp_path / "model.npz"
    book = synth.make_book(SEED, tokens=9_000, vocab=1900, n_twins=12, n_planted=25)
    path.write_text(book.text, encoding="utf-8")
    run(["context", "build", "--input", str(path), "--out", str(model), "--lemmatizer", "suffix"], capsys)
    counts = mirror_counts(ContextModel.load(model).upper)
    assert _digests({name: getattr(counts, name) for name in BENCH_BOOK_COUNTS}, BENCH_BOOK_COUNTS) == BENCH_BOOK_COUNTS
    with np.load(model) as saved:
        assert sorted(saved.files) == sorted([*BENCH_BOOK_SAVED, "meta"])
        assert _digests(saved, BENCH_BOOK_SAVED) == BENCH_BOOK_SAVED
