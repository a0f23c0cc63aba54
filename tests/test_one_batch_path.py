"""Both parties close a batch on one path in `engine/session.py`.

Privacy amplification, the finite-key observables the batch is decided on
and the pool append that delivers its key each have exactly one call site
in the session module, so the two parties cannot amplify, decide or deliver
a batch in different ways.
"""

import ast
from pathlib import Path

import cowkd

SESSION = Path(cowkd.__file__).resolve().parent / "engine" / "session.py"


def _dotted(node: ast.expr) -> str:
    """`a.b.c` for a chain of attributes on a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def call_sites(source: str) -> dict[str, int]:
    """How many calls of each dotted name the source makes."""
    counts: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            counts[name] = counts.get(name, 0) + 1
    return counts


def test_session_closes_batches_on_one_path():
    sites = call_sites(SESSION.read_text())
    for name in ("amplify_batch", "self.pool.append", "corrected_observables"):
        assert sites.get(name) == 1, f"{name}: {sites.get(name, 0)} call sites"


def test_call_sites_counts_each_call():
    sites = call_sites(
        "def f(self):\n"
        "    amplify_batch(x)\n"
        "    self.pool.append(k)\n"
        "    self.pool.append(k)\n"
        "    other.pool.append(k)\n")
    assert sites["amplify_batch"] == 1
    assert sites["self.pool.append"] == 2
    assert sites["other.pool.append"] == 1
