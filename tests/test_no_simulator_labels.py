"""No module under `src/cowkd` defines or reads a simulator truth label.

The per-batch security decision may use only what the two parties observe.
Which click was signal, dark count or noise is known to the simulator alone,
so the package carries no such label: no function, class, argument, import,
name or attribute whose name contains "truth". The labelled reference
streams live with the tests (`tests/refsim.py`).
"""

import ast
from pathlib import Path

import cowkd

SRC = Path(cowkd.__file__).resolve().parent


def _names(tree: ast.Module):
    """(line, identifier) of every name a module defines, binds or reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name


def labelled_names(root: Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(root)}:{line}: {name}"
                  for line, name in _names(tree) if "truth" in name.lower()]
    return found


def test_src_has_no_truth_label():
    found = labelled_names(SRC)
    assert not found, f"simulator truth labels in src/cowkd: {found}"


def test_scan_finds_labels(tmp_path):
    (tmp_path / "m.py").write_text(
        "from x import TRUTH_SIGNAL\n"
        "def f(events, truth=None):\n"
        "    return events.truth\n")
    assert len(labelled_names(tmp_path)) == 3
