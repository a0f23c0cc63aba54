"""The package imports only the standard library, numpy and cryptography.

Every import statement counts, those inside functions included. The tests
may also import pytest, hypothesis and their own helper modules. Nothing in
the repository imports scipy: it may be installed, but it is not declared.
"""

import ast
import sys
from pathlib import Path

import cowkd

SRC = Path(cowkd.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

THIRD_PARTY = {"numpy", "cryptography"}
TEST_ONLY = {"pytest", "hypothesis"}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in `source`."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def foreign_imports(files, allowed: set[str]) -> dict[str, set[str]]:
    """Per file, the imported top-level names outside the stdlib and `allowed`."""
    found = {}
    for path in files:
        stray = imported_roots(path.read_text()) - allowed - set(sys.stdlib_module_names)
        if stray:
            found[str(path.relative_to(ROOT))] = stray
    return found


def test_package_imports_only_stdlib_numpy_and_cryptography():
    stray = foreign_imports(sorted(SRC.rglob("*.py")), THIRD_PARTY | {"cowkd"})
    assert not stray, stray


def test_tests_import_only_declared_packages_and_their_helpers():
    files = sorted(TESTS.rglob("*.py"))
    helpers = {path.stem for path in files}
    stray = foreign_imports(files, THIRD_PARTY | TEST_ONLY | {"cowkd"} | helpers)
    assert not stray, stray


def test_nothing_imports_scipy():
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    users = [str(p.relative_to(ROOT)) for p in files if "scipy" in imported_roots(p.read_text())]
    assert not users, users


def test_imported_roots_sees_nested_and_dotted_imports():
    source = (
        "import os.path, numpy as np\n"
        "from scipy.stats import beta\n"
        "from . import frames\n"
        "def f():\n"
        "    import sympy\n"
        "    from hypothesis import given\n")
    assert imported_roots(source) == {"os", "numpy", "scipy", "sympy", "hypothesis"}
