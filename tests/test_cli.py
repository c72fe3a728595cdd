"""CLI contract tests: CSV layouts, exit codes, determinism.

Commands run in-process through main(argv) with captured stdio; one
subprocess test pins byte-identical output across thread-count settings.
"""

import json
import os
import random
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from hdsem import cli, context, core
from hdsem.cli import main
from hdsem.context import ContextModel
from hdsem.core import squared_norms
from hdsem.textpipe import Vocabulary, stopword_digest

from oracles import mirror_counts


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_dir(tmp_path):
    spam = ["cash", "winner", "prize", "claim", "offer", "free"]
    ham = ["meeting", "paper", "corpus", "study", "draft"]
    root = tmp_path / "corpus"
    for p in range(1, 11):
        d = root / f"part{p}"
        d.mkdir(parents=True)
        rng = random.Random(p)
        for i in range(2):
            (d / f"spmsg{p}_{i}.txt").write_text(
                "Subject: " + " ".join(rng.choice(spam) for _ in range(6)) + "\n\nbody "
                + " ".join(rng.choice(spam) for _ in range(6))
            )
            (d / f"{p}-{i}msg.txt").write_text(
                "Subject: " + " ".join(rng.choice(ham) for _ in range(6)) + "\n\nbody "
                + " ".join(rng.choice(ham) for _ in range(6))
            )
    return root


DOC = (
    "The cat sat near the dog. A dog ran to the cat. "
    "Birds fly over cats and dogs all day long."
)


# -------------------------------------------------------------- exit codes


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_no_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_input_file_exits_2(capsys):
    code, _, err = run_cli(["sentence-query", "--input", "/nonexistent/x.txt", "hi"], capsys)
    assert code == 2
    assert "error:" in err


def test_unknown_word_exits_3(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    code, _, _ = run_cli(
        ["context", "build", "--input", str(doc), "--out", str(model), "--dim", "200"], capsys
    )
    assert code == 0
    code, _, err = run_cli(["context", "similar", "--model", str(model), "zzzz"], capsys)
    assert code == 3
    assert "vocabulary" in err


def _save_model(path, meta, **arrays):
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def test_format_1_model_exits_3(tmp_path, capsys):
    # format 1 stored the dense context matrix; such files must be rebuilt
    meta = {"format_version": 1, "dim": 8, "seed": 42, "half_window": 1, "words": ["a", "b"]}
    model = tmp_path / "v1.npz"
    arrays = {k: np.ones(2, dtype=np.int64) for k in ("context_totals", "context_distinct", "occurrences")}
    _save_model(model, meta, matrix=np.ones((2, 8), dtype=np.int64), **arrays)
    code, out, err = run_cli(["context", "similar", "--model", str(model), "a"], capsys)
    assert code == 3
    assert out == ""
    assert "unsupported format_version 1" in err


@pytest.mark.parametrize("version", [2, 3])
def test_format_2_and_3_models_exit_3(tmp_path, capsys, version):
    # formats 2 and 3 stored the full counts and no norms (format 2 also
    # each word's occurrence count); like format 1 they must be rebuilt
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    assert run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "200"], capsys)[0] == 0
    loaded = ContextModel.load(model)
    with np.load(model) as saved:
        meta = json.loads(bytes(saved["meta"]).decode())
    meta["format_version"] = version
    full = mirror_counts(loaded.upper)
    counts = {"indptr": full.indptr, "indices": full.indices, "data": full.data}
    extra = {"occurrences": np.ones(len(meta["words"]), dtype=np.int64)} if version == 2 else {}
    _save_model(model, meta, **counts, **extra)
    for query in (["similar", "cat"], ["arith", "plus", "cat", "minus", "dog"], ["stats", "--threshold", "2"]):
        code, out, err = run_cli(["context", query[0], "--model", str(model), *query[1:]], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unsupported format_version {version}" in err


# a format-4 file of two words a and b with no counts, their norms zero
EMPTY_V4 = {
    "meta": {"format_version": 4, "dim": 8, "seed": 42, "half_window": 1, "words": ["a", "b"]},
    "indptr": np.zeros(3, dtype=np.int64),
    "indices": np.zeros(0, dtype=np.int64),
    "data": np.zeros(0, dtype=np.int64),
    "norms_sq": np.zeros(2, dtype=np.int64),
}


def test_unknown_lemmatizer_in_model_exits_3(tmp_path, capsys):
    model = tmp_path / "m.npz"
    _save_model(model, **{**EMPTY_V4, "meta": {**EMPTY_V4["meta"], "lemmatizer": "porter"}})
    code, out, err = run_cli(["context", "stats", "--model", str(model)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "'porter'" in err


def test_model_dim_past_int64_exits_3(tmp_path, capsys):
    # the stored norms are checked in int64 against the model's dim
    model = tmp_path / "m.npz"
    _save_model(model, **EMPTY_V4)
    assert run_cli(["context", "stats", "--model", str(model)], capsys)[:2] == (0, "word,total_context_words,distinct_context_words\na,0,0\nb,0,0\n")
    _save_model(model, **{**EMPTY_V4, "meta": {**EMPTY_V4["meta"], "dim": 2**70}})
    code, out, err = run_cli(["context", "stats", "--model", str(model)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "dim must be below 2^63" in err


@pytest.mark.parametrize("counts", [[2**31], [2**62, 2**62]], ids=["count-2^31", "row-sum-wraps"])
@pytest.mark.parametrize("query", [["similar", "a"], ["arith", "plus", "a"], ["stats"]])
def test_counts_past_the_bundle_kernel_exit_3(tmp_path, capsys, counts, query):
    # the queries bundle the counts into int32 rows; two counts of 2^62
    # wrap the int64 row sum to -2^63, so each entry is checked first
    model = tmp_path / "m.npz"
    _save_model(model, **{**EMPTY_V4, "indptr": np.array([0, len(counts), len(counts)]),
                          "indices": np.arange(len(counts)), "data": np.array(counts, dtype=np.int64)})
    code, out, err = run_cli(["context", query[0], "--model", str(model), *query[1:]], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "int32" in err


# a file may store its arrays in narrow or unsigned types, and the same
# checks reject them with the same messages
NARROW_REJECTIONS = {
    "uint64-2^31": ([0, 1, 1], [0], np.array([2**31], dtype=np.uint64), "int32"),
    "uint64-2^63": ([0, 1, 1], [0], np.array([2**63], dtype=np.uint64), "int32"),
    "uint64-row-sum-wraps": ([0, 2, 2], [0, 1], np.array([2**62, 2**62], dtype=np.uint64), "int32"),
    "int8-negative": ([0, 1, 1], [1], np.array([-1], dtype=np.int8), "integer counts >= 1"),
    "uint8-stored-zero": ([0, 1, 1], [1], np.array([0], dtype=np.uint8), "integer counts >= 1"),
    "uint8-below-diagonal": ([0, 0, 1], [0], np.array([1], dtype=np.uint8), "counts below the diagonal"),
}


@pytest.mark.parametrize("indptr, indices, data, message", NARROW_REJECTIONS.values(), ids=NARROW_REJECTIONS.keys())
@pytest.mark.parametrize("query", [["similar", "a"], ["arith", "plus", "a"], ["stats"]])
def test_narrow_and_unsigned_counts_keep_their_rejections(tmp_path, capsys, indptr, indices, data, message, query):
    model = tmp_path / "m.npz"
    narrow = {"indptr": np.array(indptr, dtype=np.uint8), "indices": np.array(indices, dtype=np.uint8), "data": data}
    _save_model(model, **{**EMPTY_V4, **narrow})
    code, out, err = run_cli(["context", query[0], "--model", str(model), *query[1:]], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "error: Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "error: out of memory"),
    ],
)
def test_memory_error_exits_1(monkeypatch, capsys, exc, message):
    # arguments such as --k or --dim size the allocations; the command
    # function raises here in place of allocating for real
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_membership_sim", exhausted)
    code, out, err = run_cli(["membership-sim", "--dim", "64", "--k", "3"], capsys)
    assert (code, out, err) == (1, "", message + "\n")


def test_parser_is_built_once_and_names_its_handlers(monkeypatch, capsys):
    # main runs the cmd_* function the module holds when it is called, even
    # one patched in before the cached parser was built
    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "cmd_membership_sim", lambda args: print(f"patched {args.k}") or 0)
    assert run_cli(["membership-sim", "--k", "3"], capsys) == (0, "patched 3\n", "")
    assert cli.build_parser() is cli.build_parser()


def test_missing_model_exits_2(capsys):
    code, _, _ = run_cli(["context", "stats", "--model", "/nonexistent/m.npz"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["context-build", "sentence-query"])
def test_non_utf8_input_exits_3(tmp_path, capsys, command):
    doc = tmp_path / "latin1.txt"
    doc.write_bytes("Le caf\u00e9 du chien. Un chien.".encode("latin-1"))
    argv = {
        "context-build": ["context", "build", "--input", str(doc), "--out", str(tmp_path / "m.npz")],
        "sentence-query": ["sentence-query", "--input", str(doc), "chien"],
    }[command]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert "codec can't decode" in err
    assert out == ""


# ------------------------------------------------------------ membership


RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize(
    "argv, table",
    [
        (["membership-sim"], "membership_scores.csv"),
        (["rho-curve", "--k", "10,25,46,70,100,140,200,300"], "rho_curve.csv"),
    ],
)
def test_committed_results_reproduce(tmp_path, capsys, argv, table):
    # the shapes scripts/run_experiments.py publishes, at their defaults
    out = tmp_path / table
    code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == (RESULTS / table).read_bytes()


@pytest.mark.parametrize("command", ["membership-sim --trials 3 --dim 1000 --k 100", "rho-curve --k 46,140,300"])
def test_readme_examples_reproduce_verbatim(capsys, command):
    # the README quotes each self-contained example's stdout after its
    # "$ hdsem" line, up to the closing fence
    readme = (RESULTS.parent / "README.md").read_text(encoding="utf-8")
    prompt = f"$ hdsem {command}\n"
    assert prompt in readme
    quoted = readme.split(prompt, 1)[1].split("```", 1)[0]
    assert run_cli(command.split(), capsys)[:2] == (0, quoted)


def test_membership_sim_csv_layout(capsys):
    code, out, err = run_cli(
        ["membership-sim", "--dim", "128", "--k", "4", "--trials", "5", "--seed", "7"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,member_score,nonmember_score"
    assert len(lines) == 1 + 5 + 2
    for t, line in enumerate(lines[1:6]):
        fields = line.split(",")
        assert fields[0] == str(t)
        float(fields[1]), float(fields[2])
    assert lines[6].startswith("mean,")
    assert lines[7].startswith("std,")
    assert "membership-sim:" in err


def test_membership_sim_deterministic(capsys):
    args = ["membership-sim", "--dim", "64", "--k", "3", "--trials", "4"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_membership_sim_out_file(tmp_path, capsys):
    dest = tmp_path / "scores.csv"
    code, out, _ = run_cli(
        ["membership-sim", "--dim", "64", "--k", "3", "--trials", "4", "--out", str(dest)], capsys
    )
    assert code == 0
    assert out == ""
    content = dest.read_text()
    assert content.startswith("trial,member_score,nonmember_score\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["membership-sim", "--dim", "64", "--k", "3", "--trials", "1"], "error: trials must be >= 2, got 1"),
        (["rho-curve", "--dim", "64", "--k", "3", "--threshold", "nan"], "error: threshold must be a number, got nan"),
    ],
)
def test_undefined_statistics_exit_1_cleanly(argv, message):
    # one trial has no standard deviation and a NaN threshold counts no
    # trial; both are usage errors, not NaN output with numpy warnings
    proc = subprocess.run([sys.executable, "-m", "hdsem", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


# --------------------------------------------------------------- rho-curve


def test_rho_curve_k_list(capsys):
    code, out, err = run_cli(
        ["rho-curve", "--dim", "200", "--k", "20,2,5", "--trials", "40"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,sigma,rho_analytic,precision_emp,recall_emp"
    assert [l.split(",")[0] for l in lines[1:]] == ["2", "5", "20"]
    assert "rho-curve:" in err


def test_rho_curve_stderr_reports_noise_and_rho_gap(capsys):
    # at threshold 1/2 precision and recall converge to 1 - fn_rate, which
    # exceeds the paper's rho by s^2 / (2 (2 - s)) = 0.040 at k = 300
    code, out, err = run_cli(
        ["rho-curve", "--dim", "1000", "--k", "46,140,300", "--trials", "10000", "--seed", "42"], capsys
    )
    assert code == 0
    m = re.search(
        r"max \|empirical - \(1 - fn_rate\)\| = (\d\.\d{4}) at k=(\d+), "
        r"max \|empirical - rho\| = (\d\.\d{4}) at k=(\d+)$",
        err.strip(),
    )
    assert m, err
    noise, gap, gap_k = float(m.group(1)), float(m.group(3)), int(m.group(4))
    assert noise < 0.015
    assert gap > 0.03 and gap_k == 300
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert gap == pytest.approx(max(abs(float(r[i]) - float(r[2])) for r in rows for i in (3, 4)), abs=1e-4)


def test_rho_curve_range(capsys):
    code, out, _ = run_cli(
        ["rho-curve", "--dim", "100", "--k-min", "2", "--k-max", "5", "--trials", "20"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 5


def test_rho_curve_conflicting_k_exits_1(capsys):
    code, _, err = run_cli(["rho-curve", "--k", "3", "--k-min", "2"], capsys)
    assert code == 1
    assert "conflicts" in err


def test_rho_curve_bad_k_exits_1(capsys):
    code, _, _ = run_cli(["rho-curve", "--k", "2,banana"], capsys)
    assert code == 1
    for argv, message in [
        (["--k", ","], "--k produced no bundle sizes"),
        (["--k-min", "5", "--k-max", "3"], "--k-min 5 exceeds --k-max 3"),
    ]:
        code, out, err = run_cli(["rho-curve", *argv], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [["--k-min", "-100000", "--k-max", "1"], ["--k-min", "0", "--k-max", "3"], ["--k", "0,3,-5"]]
)
def test_rho_curve_k_below_1_exits_1_in_one_short_line(capsys, argv):
    # a --k-min below 1 is refused before its range exists, and a bad --k
    # list names its first bad k, not the whole list
    code, out, err = run_cli(["rho-curve", "--dim", "8", "--trials", "2", *argv], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


# ----------------------------------------------------------------- context


def test_context_round_trip(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    code, out, err = run_cli(
        ["context", "build", "--input", str(doc), "--out", str(model),
         "--dim", "300", "--window", "2", "--seed", "9"],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert "context build:" in err
    assert model.exists()

    code, out, _ = run_cli(["context", "similar", "--model", str(model), "--top", "3", "cat"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,word,score"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"

    code, out2, _ = run_cli(
        ["context", "arith", "--model", str(model), "--top", "3", "plus", "cat"], capsys
    )
    assert code == 0
    assert out2 == out  # plus-only arithmetic is exactly similar-words

    code, out, err = run_cli(
        ["context", "stats", "--model", str(model), "--threshold", "3"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,total_context_words,distinct_context_words"
    totals = [int(l.split(",")[1]) for l in lines[1:]]
    assert totals == sorted(totals, reverse=True)
    assert "words have total context > 3" in err


def test_context_build_bundles_every_row_once_and_queries_their_operands(tmp_path, capsys, monkeypatch):
    # the build bundles every row once, for the norms it saves; stats reads
    # the counts alone, and a query bundles only its operand rows
    calls = []
    bundle = Vocabulary.bundle

    def recording_bundle(vocab, counts):
        calls.append(("bundle", counts.shape[0]))
        return bundle(vocab, counts)

    def recording_norms(rows):
        calls.append(("squared_norms", len(rows)))
        return squared_norms(rows)

    monkeypatch.setattr(Vocabulary, "bundle", recording_bundle)
    monkeypatch.setattr(context, "squared_norms", recording_norms)
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    assert run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"], capsys)[0] == 0
    words = len(ContextModel.load(model).vocabulary)
    assert calls == [("bundle", words), ("squared_norms", words)]
    calls.clear()
    assert run_cli(["context", "stats", "--model", str(model)], capsys)[0] == 0
    assert calls == []
    assert run_cli(["context", "similar", "--model", str(model), "cat"], capsys)[0] == 0
    # the operand's row, its norm checked against the stored one, and the query's norm
    assert calls == [("bundle", 1), ("squared_norms", 1), ("squared_norms", 1)]
    calls.clear()
    assert run_cli(["context", "arith", "--model", str(model), "plus", "cat", "minus", "dog"], capsys)[0] == 0
    assert calls == [("bundle", 2), ("squared_norms", 2), ("squared_norms", 1)]


CONTEXT_QUERIES = [["similar", "cat"], ["arith", "plus", "cat", "day", "minus", "dog"], ["stats"]]


def test_context_queries_never_form_the_full_counts(tmp_path, capsys, monkeypatch):
    # the build mirrors the triangle once, for the norms; stats and the
    # queries read the triangle, its row totals and its diagonal alone, so
    # they add no two sparse matrices, take no triangle of one and make
    # none dense
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    build = ["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"]
    assert run_cli(build, capsys)[0] == 0
    want = [run_cli(["context", *query, "--model", str(model)], capsys) for query in CONTEXT_QUERIES]

    def mirrored(*args, **kwargs):
        raise AssertionError("the full counts were formed")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "toarray", "todense"):
        # spmatrix comes before the sparse base class in every *_matrix MRO
        monkeypatch.setattr(scipy.sparse.spmatrix, name, mirrored, raising=False)
    for name in ("triu", "tril"):
        monkeypatch.setattr(scipy.sparse, name, mirrored)
    with pytest.raises(AssertionError, match="full counts"):
        main(build)
    assert [run_cli(["context", *query, "--model", str(model)], capsys) for query in CONTEXT_QUERIES] == want
    assert [code for code, _, _ in want] == [0] * len(CONTEXT_QUERIES)


def test_query_with_a_contradicted_stored_norm_exits_3(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    assert run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"], capsys)[0] == 0
    with np.load(model) as saved:
        members = {name: saved[name] for name in saved.files}
    cat = json.loads(bytes(members["meta"]).decode())["words"].index("cat")
    # 4 less keeps it even and at least d, so the file still loads
    members["norms_sq"][cat] -= 4
    np.savez(model, **members)
    assert run_cli(["context", "stats", "--model", str(model)], capsys)[0] == 0
    code, out, err = run_cli(["context", "similar", "--model", str(model), "cat"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: stored squared norm of 'cat' does not match its context row\n"


def _npy(shape, descr="<i8", data=b""):
    """A version 1.0 .npy member whose header claims this shape and descr, followed by data."""
    header = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape}}}".encode("latin1")
    # the length field covers the padding, so a cut text still reads in full
    header = header.ljust(64 * (len(header) // 64 + 2) - 11) + b"\n"
    return np.lib.format.magic(1, 0) + len(header).to_bytes(2, "little") + header + data


# a member replaced by bytes its reader fails on
BAD_MEMBERS = {
    # the shape tuple never closes, which numpy's header reader tokenizes
    "npy-header-cut": ("indices.npy", _npy("(5")),
    # 8 TiB of int64 that a few bytes of data cannot fill
    "npy-header-2**40": ("indices.npy", _npy((2**40,), data=bytes(16))),
    # deeper than the JSON decoder recurses
    "meta-nested-arrays": ("meta.npy", _npy((200_000,), "|u1", b"[" * 100_000 + b"]" * 100_000)),
}


def _corrupt_model(model, corruption):
    """Damage a saved model in place, one way its readers fail."""
    with zipfile.ZipFile(model) as zf:
        member = zf.getinfo("indices.npy")
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    if corruption in BAD_MEMBERS:
        name, data = BAD_MEMBERS[corruption]
        with zipfile.ZipFile(model, "w") as zf:
            for other, raw in {**members, name: data}.items():
                zf.writestr(other, raw)
        return
    raw = bytearray(model.read_bytes())
    if corruption == "deflate-block-type":
        # the local header is 30 bytes, then the name and the extra field
        lengths = raw[member.header_offset + 26 : member.header_offset + 30]
        start = member.header_offset + 30 + int.from_bytes(lengths[:2], "little") + int.from_bytes(lengths[2:], "little")
        # the first deflate block's header: type 3, which is reserved
        raw[start] = 0xFF
    else:
        # "version needed to extract" in the central directory: 25.5, past what zipfile reads
        raw[raw.index(b"PK\x01\x02") + 6] = 0xFF
    model.write_bytes(raw)


CORRUPTIONS = {
    "deflate-block-type": "not a readable npz file",
    "zip-version": "not a readable npz file",
    "npy-header-cut": "not a readable npz file",
    "npy-header-2**40": "not a readable npz file",
    "meta-nested-arrays": "bad metadata",
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_model_file_exits_3(tmp_path, capsys, corruption):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    assert run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"], capsys)[0] == 0
    _corrupt_model(model, corruption)
    for query in CONTEXT_QUERIES:
        code, out, err = run_cli(["context", query[0], "--model", str(model), *query[1:]], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and CORRUPTIONS[corruption] in err


def test_model_file_with_a_cut_npy_header_exits_3_in_a_child_process(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    assert run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"], capsys)[0] == 0
    _corrupt_model(model, "npy-header-cut")
    argv = [sys.executable, "-m", "hdsem", "context", "stats", "--model", str(model)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr and "not a readable npz file" in proc.stderr


@pytest.mark.parametrize("kind", ["npy", "text"])
def test_model_file_that_is_no_zip_archive_exits_3(tmp_path, capsys, kind):
    # np.load would read a .npy file as one array and a text file as a pickle
    model = tmp_path / f"m.{kind}"
    if kind == "npy":
        np.save(model, np.arange(5))
    else:
        model.write_text("hello world\n")
    for query in CONTEXT_QUERIES:
        code, out, err = run_cli(["context", query[0], "--model", str(model), *query[1:]], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: context model {model}: not a readable npz file (File is not a zip file)\n"


def test_context_build_writes_the_path_given(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "ctx.model"
    code, _, err = run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64"], capsys)
    assert code == 0 and err.endswith(f"-> {model}\n")
    assert model.exists()
    assert not model.with_name("ctx.model.npz").exists()
    code, out, _ = run_cli(["context", "similar", "--model", str(model), "cat"], capsys)
    assert code == 0 and out.startswith("rank,word,score\n")


def test_context_arith_minus(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "200"], capsys)
    code, out, _ = run_cli(
        ["context", "arith", "--model", str(model), "plus", "cat", "minus", "dog"], capsys
    )
    assert code == 0
    rows = out.splitlines()[1:]
    words = [r.split(",")[1] for r in rows]
    assert "cat" not in words and "dog" not in words


def test_context_build_odd_window_exits_1(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    code, _, err = run_cli(
        ["context", "build", "--input", str(doc), "--out", str(tmp_path / "m.npz"),
         "--dim", "100", "--window", "5"],
        capsys,
    )
    assert code == 1
    assert "even" in err
    # the window is checked before the input is read
    code, _, err = run_cli(
        ["context", "build", "--input", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "m.npz"),
         "--window", "5"],
        capsys,
    )
    assert code == 1
    assert "even" in err


def test_context_build_custom_stopwords(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    stop = tmp_path / "stop.txt"
    stop.write_text("# animals\nCat\ndog\n\n")
    model = tmp_path / "m.npz"
    argv = ["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64", "--stopwords"]
    code, _, _ = run_cli([*argv, str(stop)], capsys)
    assert code == 0
    with np.load(model) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert "the" in meta["words"] and not {"cat", "dog"} & set(meta["words"])
    assert meta["stopword_digest"] == stopword_digest({"cat", "dog"})
    code, _, err = run_cli([*argv, str(tmp_path / "missing.txt")], capsys)
    assert code == 2 and err.startswith("error: ")
    stop.write_bytes("caf\u00e9\n".encode("latin-1"))
    code, _, err = run_cli([*argv, str(stop)], capsys)
    assert code == 3 and "codec can't decode" in err


def test_byte_order_marks_reach_no_output(tmp_path, capsys):
    # a document and a stop list that start with a byte-order mark give
    # the outputs of the same files without one
    outputs = []
    for mark in ("", "\ufeff"):
        doc, stop, model = tmp_path / f"d{mark}.txt", tmp_path / f"s{mark}.txt", tmp_path / f"m{mark}.npz"
        doc.write_text(mark + DOC, encoding="utf-8")
        stop.write_text(mark + "the\ncat\n", encoding="utf-8")
        build = ["context", "build", "--input", str(doc), "--out", str(model), "--dim", "64", "--stopwords", str(stop)]
        assert run_cli(build, capsys)[0] == 0
        with np.load(model) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        query = run_cli(["sentence-query", "--input", str(doc), "--dim", "64", "the cat sat"], capsys)
        outputs.append((meta["words"], meta["stopword_digest"], query))
    assert outputs[1] == outputs[0]
    words, digest, (code, out, _) = outputs[0]
    assert "the" not in words and digest == stopword_digest({"the", "cat"})
    assert code == 0 and out.splitlines()[1].endswith(",0,The cat sat near the dog.")


def test_context_arith_bad_terms_exits_1(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "100"], capsys)
    code, _, err = run_cli(["context", "arith", "--model", str(model), "cat", "plus"], capsys)
    assert code == 1
    assert "plus" in err
    for sign in ("plus", "minus"):
        code, out, err = run_cli(["context", "arith", "--model", str(model), sign], capsys)
        assert (code, out, err) == (1, "", "error: need at least one operand word\n")


# ---------------------------------------------------------- sentence-query


def test_sentence_query_self_retrieval(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    code, out, err = run_cli(
        ["sentence-query", "--input", str(doc), "--dim", "2000", "A dog ran to the cat."], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,score,sentence_index,text"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "1.000000"
    assert first[2] == "1"
    assert "sentence-query: 3 sentences" in err


def test_sentence_query_top_and_raw(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    code, out, _ = run_cli(
        ["sentence-query", "--input", str(doc), "--dim", "500", "--top", "1",
         "--no-normalize", "cat dog"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 2


def test_sentence_query_unknown_only_exits_3(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    code, _, err = run_cli(
        ["sentence-query", "--input", str(doc), "--dim", "100", "qqq zzz"], capsys
    )
    assert code == 3
    assert "error:" in err


def test_sentence_query_reports_dropped(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    code, _, err = run_cli(
        ["sentence-query", "--input", str(doc), "--dim", "500", "shiny cat"], capsys
    )
    assert code == 0
    assert "dropped unknown tokens: shiny" in err


def test_sentence_query_stopwords_none(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    code, out, err = run_cli(
        ["sentence-query", "--input", str(doc), "--dim", "1000",
         "--stopwords", "none", "The cat sat near the dog."],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "1.000000"
    assert "dropped" not in err


# ----------------------------------------------------------------- spam


def test_spam_eval_csv(tmp_path, capsys):
    root = corpus_dir(tmp_path)
    code, out, err = run_cli(
        ["spam-eval", "--corpus-dir", str(root), "--dim", "256", "--seed", "3"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fold,dim,seed,tp,fp,fn,tn,spam_precision,spam_recall"
    assert len(lines) == 1 + 10 + 1
    assert [l.split(",")[0] for l in lines[1:11]] == [str(i) for i in range(1, 11)]
    avg = lines[11].split(",")
    assert avg[0] == "avg"
    assert avg[1] == "256" and avg[2] == "3"
    # disjoint vocabularies classify perfectly
    assert avg[3] == "20" and avg[4] == "0" and avg[5] == "0" and avg[6] == "20"
    assert avg[7] == "1" and avg[8] == "1"
    assert "spam-eval:" in err
    assert "fold 10:" in err


def test_spam_eval_global_mode(tmp_path, capsys):
    root = corpus_dir(tmp_path)
    code, out, _ = run_cli(
        ["spam-eval", "--corpus-dir", str(root), "--dim", "128", "--vocab-mode", "global"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 12


def test_spam_eval_missing_corpus_exits_3(tmp_path, capsys):
    code, _, err = run_cli(["spam-eval", "--corpus-dir", str(tmp_path / "nope")], capsys)
    assert code == 3
    assert "part1" in err


# ------------------------------------------------------------ determinism


def test_outputs_do_not_depend_on_the_byte_budget(tmp_path, capsys, monkeypatch):
    # every blocked loop reads core.BLOCK_BYTES; at 256 bytes the loops these
    # commands run split into many blocks, and no output may change
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    corpus = corpus_dir(tmp_path)

    def outputs(tag):
        model = tmp_path / f"{tag}.npz"
        commands = [
            ["membership-sim", "--dim", "64", "--k", "40", "--trials", "50"],
            ["rho-curve", "--dim", "200", "--k", "5,40,90", "--trials", "50"],
            ["context", "build", "--input", str(doc), "--out", str(model), "--dim", "200", "--window", "2"],
            ["context", "similar", "--model", str(model), "cat"],
            ["context", "arith", "--model", str(model), "plus", "cat", "minus", "dog"],
            ["context", "stats", "--model", str(model), "--threshold", "2"],
            ["sentence-query", "--input", str(doc), "--dim", "200", "the cat ran"],
            ["sentence-query", "--input", str(doc), "--dim", "200", "--no-normalize", "the cat ran"],
            ["spam-eval", "--corpus-dir", str(corpus), "--dim", "128"],
            ["spam-eval", "--corpus-dir", str(corpus), "--dim", "128", "--vocab-mode", "global"],
        ]
        return [run_cli(argv, capsys)[:2] for argv in commands], model.read_bytes()

    default = outputs("default")
    assert all(code == 0 for code, _ in default[0])
    monkeypatch.setattr(core, "BLOCK_BYTES", 256)
    assert outputs("small") == default


def test_output_bytes_stable_across_thread_counts(tmp_path):
    argv = [
        sys.executable, "-m", "hdsem",
        "rho-curve", "--dim", "300", "--k", "2,50,200", "--trials", "64",
    ]
    outs = []
    for threads in ["1", "4"]:
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
