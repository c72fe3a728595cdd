"""Hard inputs: no argument or file ends a command in a traceback.

A command exits 0 on success, 1 on a usage error, 2 on an I/O error
and 3 on bad input data; a data error writes nothing to stdout and one
"error:" line to stderr.  Hypothesis drives main() in-process with
bit-flipped model files, small argument values for every subcommand,
and arbitrary bytes as input text and stop lists.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdsem.cli import main

from test_cli import CONTEXT_QUERIES, DOC, corpus_dir


def call(argv):
    """main(argv)'s exit code, stdout and stderr; argparse's SystemExit gives the code too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_data_error(out, err):
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A text, a saved model of it, a spam corpus, and a scratch path for each test's files."""
    root = tmp_path_factory.mktemp("fuzz")
    doc, model = root / "d.txt", root / "m.npz"
    doc.write_text(DOC)
    assert call(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"])[0] == 0
    return {"doc": doc, "model": model, "corpus": corpus_dir(root), "scratch": root / "scratch"}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_bit_flipped_model_exits_0_or_3(files, data):
    raw = bytearray(files["model"].read_bytes())
    for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=5), label="bits"):
        raw[bit // 8] ^= 1 << bit % 8
    files["scratch"].write_bytes(raw)
    for query in CONTEXT_QUERIES:
        code, out, err = call(["context", query[0], "--model", str(files["scratch"]), *query[1:]])
        assert code in (0, 3)
        if code == 3:
            assert_data_error(out, err)


SMALL = st.integers(-3, 130).map(str)
THRESHOLD = st.one_of(st.floats(-3, 130).map(str), st.sampled_from(["nan", "inf", "-inf"]))
# empty entries, blanks and repeats among the bundle sizes
K_LIST = st.lists(st.one_of(SMALL, st.sampled_from(["", " ", "2"])), max_size=4).map(",".join)
WORD = st.sampled_from(["cat", "dog", "day", "plus", "minus", "zebra", ""])


def draw_options(data, required=(), **optional):
    """argv for every required option and for a drawn subset of the optional ones."""
    argv = []
    for name, strategy in optional.items():
        if name in required or data.draw(st.booleans(), label=f"with {name}"):
            argv += [f"--{name.replace('_', '-')}", data.draw(strategy, label=name)]
    return argv


def small_argv(data, files):
    """A subcommand with small option values; --dim and --trials always, as their defaults take seconds."""
    command = data.draw(st.sampled_from(
        ["membership-sim", "rho-curve", "build", "similar", "arith", "stats", "sentence-query", "spam-eval"]
    ), label="command")
    model = ["--model", str(files["model"])]
    if command == "membership-sim":
        return [command, *draw_options(data, ("dim", "trials"), dim=SMALL, k=SMALL, trials=SMALL, seed=SMALL)]
    if command == "rho-curve":
        return [command, *draw_options(
            data, ("dim", "trials"),
            dim=SMALL, k=K_LIST, k_min=SMALL, k_max=SMALL, trials=SMALL, seed=SMALL, threshold=THRESHOLD,
        )]
    if command == "build":
        return ["context", command, "--input", str(files["doc"]), "--out", str(files["scratch"]), *draw_options(
            data, ("dim",), dim=SMALL, window=SMALL, seed=SMALL, lemmatizer=st.sampled_from(["identity", "suffix"])
        )]
    if command == "similar":
        return ["context", command, *model, *draw_options(data, top=SMALL), data.draw(WORD, label="word")]
    if command == "arith":
        terms = data.draw(st.lists(WORD, min_size=1, max_size=5), label="terms")
        return ["context", command, *model, *draw_options(data, top=SMALL), *terms]
    if command == "stats":
        return ["context", command, *model, *draw_options(data, threshold=SMALL)]
    if command == "sentence-query":
        flags = ["--no-normalize"] if data.draw(st.booleans(), label="raw dots") else []
        options = draw_options(data, ("dim",), dim=SMALL, seed=SMALL, top=SMALL)
        return [command, "--input", str(files["doc"]), *flags, *options, data.draw(WORD, label="query")]
    return [command, "--corpus-dir", str(files["corpus"]), *draw_options(
        data, ("dim",), dim=SMALL, seed=SMALL, vocab_mode=st.sampled_from(["per-fold", "global"])
    )]


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_small_arguments_exit_with_a_documented_code(files, data):
    argv = small_argv(data, files)
    # any exception but argparse's SystemExit fails the test
    code, out, err = call(argv)
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert_data_error(out, err)


# arbitrary bytes, and text-like runs of words, NUL, a giant token, a
# byte-order mark and bytes that are not UTF-8
CONTENTS = st.one_of(
    st.binary(max_size=300),
    st.lists(
        st.sampled_from([b"cat", b"dog", b"The", b"a" * 3000, b"\x00", b" ", b".", b"\n", b"\xef\xbb\xbf", b"\xff"]),
        max_size=40,
    ).map(b"".join),
)


@given(contents=CONTENTS, command=st.sampled_from(["build", "sentence-query"]), as_stopwords=st.booleans())
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_as_text_or_stop_list_exit_0_or_3(files, contents, command, as_stopwords):
    path = files["scratch"].with_suffix(".bin")
    path.write_bytes(contents)
    text, stopwords = (files["doc"], path) if as_stopwords else (path, None)
    argv = ["--input", str(text), "--dim", "64"] + (["--stopwords", str(stopwords)] if stopwords else [])
    if command == "build":
        argv = ["context", "build", *argv, "--out", str(files["scratch"])]
    else:
        argv = ["sentence-query", *argv, "cat dog"]
    code, out, err = call(argv)
    assert code in (0, 3)
    if code == 3:
        assert_data_error(out, err)
