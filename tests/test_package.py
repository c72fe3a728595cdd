"""Package metadata: one version string, and a public API that resolves."""

import re
from pathlib import Path

import hdsem

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == hdsem.__version__


def test_every_public_name_resolves_once():
    assert len(hdsem.__all__) == len(set(hdsem.__all__))
    for name in hdsem.__all__:
        assert hasattr(hdsem, name), name
