"""Package metadata: one version string, and a public API that resolves."""

import ast
import importlib
import json
import re
from pathlib import Path

import hdsem

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
