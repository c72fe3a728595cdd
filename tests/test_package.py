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


def test_readme_api_list_is_all():
    # the names before the first colon of each "## Python API" bullet
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", section, re.M)
    listed = [name for bullet in bullets for name in re.findall(r"`([^`]+)`", bullet.split(":", 1)[0])]
    assert sorted(listed) == sorted(hdsem.__all__)
