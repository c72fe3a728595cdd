"""Package metadata: one version string, a public API that resolves, and benchmark names that resolve and run."""

import ast
import cProfile
import importlib
import json
import re
from pathlib import Path

import hdsem
from hdsem.cli import main

from test_cli import CONTEXT_QUERIES, DOC, corpus_dir

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == hdsem.__version__


def test_every_public_name_resolves_once():
    assert len(hdsem.__all__) == len(set(hdsem.__all__))
    for name in hdsem.__all__:
        assert hasattr(hdsem, name), name


def test_readme_api_list_is_all():
    # the names before the first colon of each "## Python API" bullet
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", section, re.M)
    listed = [name for bullet in bullets for name in re.findall(r"`([^`]+)`", bullet.split(":", 1)[0])]
    assert sorted(listed) == sorted(hdsem.__all__)


def _benchmark_names():
    """The hdsem.<layer> attribute chains the benchmark calls or hooks, and those it times.

    Read, never imported: the hd.<layer>.<attr> chains in perfbench/run.py's
    setup(), the keys of perfbench/tracer.py's HOOKS, and the <layer>.<name>
    of each <layer>.<name>.s span metric in BENCHMARK.json.
    """
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    [setup] = [node for node in run.body if isinstance(node, ast.FunctionDef) and node.name == "setup"]
    called = set()
    for node in ast.walk(setup):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "hd" and len(chain) >= 2:
            called.add(".".join(reversed(chain)))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    [hooks] = [
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets)
    ]
    called |= {key.value for key in hooks.keys}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return called, {m["name"].removesuffix(".s") for m in metrics if m["name"].endswith(".s")}


def test_every_name_the_benchmark_calls_resolves():
    # a change that deletes one of these names breaks every benchmark run
    called, timed = _benchmark_names()
    assert len(called) == 22 and len(timed) == 20
    for name in sorted(called | timed):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"hdsem.{layer}")
        for attr in attrs:
            assert hasattr(obj, attr), f"hdsem.{name}"
            obj = getattr(obj, attr)
        assert callable(obj), f"hdsem.{name}"


def test_every_function_the_benchmark_times_is_called(tmp_path, capsys):
    # a timed function that no command calls any more leaves its benchmark
    # reading empty; the profiler records calls by code object, so a call
    # through a name another module imported counts too
    _, timed = _benchmark_names()
    doc = tmp_path / "d.txt"
    doc.write_text(DOC)
    model = str(tmp_path / "m.npz")
    commands = [
        ["context", "build", "--input", str(doc), "--out", model, "--dim", "64", "--window", "2"],
        *(["context", query[0], "--model", model, *query[1:]] for query in CONTEXT_QUERIES),
        ["sentence-query", "--input", str(doc), "--dim", "64", "cat dog"],
        ["spam-eval", "--corpus-dir", str(corpus_dir(tmp_path)), "--dim", "64"],
        ["membership-sim", "--dim", "64", "--k", "3", "--trials", "2"],
        ["rho-curve", "--dim", "64", "--k", "2", "--trials", "2"],
    ]
    profiler = cProfile.Profile()
    for argv in commands:
        assert profiler.runcall(main, argv) == 0, argv
    capsys.readouterr()
    called = {entry.code for entry in profiler.getstats()}

    def code(name):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"hdsem.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr)
        return getattr(obj, "__func__", obj).__code__

    assert len(timed) == 20
    assert [name for name in sorted(timed) if code(name) not in called] == []
