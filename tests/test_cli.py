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
from pathlib import Path

import numpy as np
import pytest

from hdsem.cli import main


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


def test_format_1_model_exits_3(tmp_path, capsys):
    # format 1 stored the dense context matrix; such files must be rebuilt
    meta = {"format_version": 1, "dim": 8, "seed": 42, "half_window": 1, "words": ["a", "b"]}
    model = tmp_path / "v1.npz"
    arrays = {k: np.ones(2, dtype=np.int64) for k in ("context_totals", "context_distinct", "occurrences")}
    np.savez(model, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             matrix=np.ones((2, 8), dtype=np.int64), **arrays)
    code, out, err = run_cli(["context", "similar", "--model", str(model), "a"], capsys)
    assert code == 3
    assert out == ""
    assert "unsupported format_version 1" in err


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


def test_context_arith_bad_terms_exits_1(tmp_path, capsys):
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = tmp_path / "m.npz"
    run_cli(["context", "build", "--input", str(doc), "--out", str(model), "--dim", "100"], capsys)
    code, _, err = run_cli(["context", "arith", "--model", str(model), "cat", "plus"], capsys)
    assert code == 1
    assert "plus" in err


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
