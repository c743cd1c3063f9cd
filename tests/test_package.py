"""Package metadata says what the code has: named modules import, console
scripts resolve, and the version matches pyproject.toml."""

import importlib
import re
from pathlib import Path

import pytest

import rydtools

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_docstring_modules_import():
    names = re.findall(r"\((\w+)\)", rydtools.__doc__)
    assert names
    for name in names:
        importlib.import_module("rydtools." + name)


def test_console_scripts_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_version_matches_pyproject():
    assert rydtools.__version__ == _project()["version"]
