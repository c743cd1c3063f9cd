"""Package metadata says what the code has: named modules import, console
scripts resolve, and the version matches pyproject.toml. Importing the
package loads no scipy subpackage beyond constants, linalg and sparse, and
its modules import each other in one layer order and nothing beyond numpy,
scipy and the standard library, and every private module-level name has a
use."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rydtools

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# every module imports only modules before it, so none can close a cycle
LAYER_ORDER = ["constants", "angular", "atoms", "pair", "ensemble", "blockade", "gates"]


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


def test_no_module_imports_scipy_optimize():
    # a fresh interpreter, because other tests import scipy.optimize into
    # this one. Every public scipy subpackage costs set-up time (0.05-0.35 s
    # for special, integrate, interpolate or optimize after rydtools), so
    # the set that importing rydtools adds to a bare "import scipy" is
    # pinned to today's
    code = (
        "import importlib, pkgutil, sys\n"
        "import scipy\n"
        "def public():\n"
        "    return {n.split('.')[1] for n in sys.modules\n"
        "            if n.startswith('scipy.') and not n.split('.')[1].startswith('_')}\n"
        "bare = public()\n"
        "import rydtools\n"
        "names = [m.name for m in pkgutil.iter_modules(rydtools.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('rydtools.' + name)\n"
        "added = ','.join(sorted(public() - bare)) or '-'\n"
        "print(len(names), 'scipy.optimize' in sys.modules, added)\n"
    )
    src = str(Path(rydtools.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    count, imported, added = done.stdout.split()
    assert int(count) >= 7
    assert imported == "False"
    assert set(added.split(",")) <= {"-", "constants", "linalg", "sparse"}


def _package_imports(tree):
    """Names of the rydtools modules a module's syntax tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("rydtools." if node.level else "") + (node.module or "")
            dotted = [base.rstrip(".") + "." + a.name for a in node.names]
        else:
            continue
        names.update(d.split(".")[1] for d in dotted if d.startswith("rydtools."))
    return names


def test_modules_import_only_earlier_layers():
    package = Path(rydtools.__file__).resolve().parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER_ORDER)
    for rank, name in enumerate(LAYER_ORDER):
        tree = ast.parse((package / (name + ".py")).read_text())
        assert _package_imports(tree) <= set(LAYER_ORDER[:rank]), name


def test_modules_import_only_numpy_scipy_and_the_standard_library():
    # the package's one dependency rule, read from each module's syntax
    # tree, function-level imports included
    package = Path(rydtools.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "rydtools"}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = {name.split(".")[0] for name in names} - allowed
            assert not outside, (path.name, sorted(outside))


def _private_definitions(tree):
    """(name, statement) for each module-level private function, class or
    constant a module's syntax tree defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree):
    """Every name a syntax tree reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_dead_private_names():
    # every module-level private name is used somewhere in the package
    # besides its own definition: an orphan is dead code
    package = Path(rydtools.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _references(tree))
    dead = [
        "%s: %s" % (module, name)
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if uses[name] == list(_references(node)).count(name)
    ]
    assert not dead
