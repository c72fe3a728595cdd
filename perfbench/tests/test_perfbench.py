"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench/tests

They check that the corpus generators are deterministic, that
BENCHMARK.json keeps to the metric-file rules, that layers.json names
only real metrics, and that a small traced run yields a per-layer
metric for every layer with every output check passing.
"""

import filecmp
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import synth  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_book_is_deterministic_per_seed():
    a, b = synth.make_book(7, tokens=2000), synth.make_book(7, tokens=2000)
    assert a == b
    assert synth.make_book(8, tokens=2000).text != a.text
    assert a.twins and a.planted and all(" ".join(s.split()) in " ".join(a.text.split()) for s in a.planted)


def test_spam_tree_is_byte_identical_per_seed(tmp_path):
    a = synth.make_spam_tree(tmp_path / "a", 3, messages=60)
    b = synth.make_spam_tree(tmp_path / "b", 3, messages=60)
    assert (a.messages, a.spam, a.fold_sizes) == (b.messages, b.spam, b.fold_sizes)
    for p in range(1, 11):
        cmp = filecmp.dircmp(a.root / f"part{p}", b.root / f"part{p}")
        assert not cmp.left_only and not cmp.right_only
        _, mismatch, errors = filecmp.cmpfiles(a.root / f"part{p}", b.root / f"part{p}", cmp.common_files,
                                               shallow=False)
        assert not mismatch and not errors
    assert sum(a.fold_sizes) == a.messages
    assert (a.root / "part10" / "9-90000msg.txt").read_bytes() == b""


def test_benchmark_json_follows_the_metric_rules():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT_RE.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layers_table_names_real_metrics():
    table = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(table["layers"]) == set(run.tracing.LAYERS)
    for layer, row in table["layers"].items():
        assert row["per_layer"] and set(row["per_layer"]) <= per_layer
        assert all(n.startswith(layer + ".") for n in row["per_layer"])
        for workload, moved in row["should_move"].items():
            assert workload in run.WORKLOADS and set(moved) <= end_to_end
        assert set(row["little_work_on"]) <= set(run.WORKLOADS)
    assert {w: set(m) <= end_to_end for w, m in table["home_metrics"].items()} == {w: True for w in run.WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced run of every section at its probe size."""
    hd = run.setup()
    runner = run.Runner(hd, tmp_path_factory.mktemp("traced"), 5, home=None)
    values, tracer = run.traced_run(runner, hd)
    return runner, values, tracer


def test_traced_run_covers_every_layer(traced):
    runner, values, tracer = traced
    assert [op.error for op in runner.ops if op.error] == []
    for m in SPEC["per_layer"]:
        assert m["name"] in values, m["name"]
    for layer in run.tracing.LAYERS:
        assert values[f"{layer}.self_s"] > 0
        assert any(values[m["name"]] > 0 for m in SPEC["per_layer"] if m["name"].startswith(layer + "."))
    assert values["spam.bundles_per_message"] == pytest.approx(10)


def test_tracer_restores_the_program(traced):
    runner, _, tracer = traced
    assert not tracer._undo
    main = runner.recs["book"].hd.cli.main
    assert main.__module__ == "hdsem.cli" and not hasattr(main, "__wrapped__")
    spans = tracer.spans
    assert all(end >= start for _, _, start, end, _ in spans)
    assert all(-1 <= parent < i for i, (*_, parent) in enumerate(spans))
