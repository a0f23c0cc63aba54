"""Every function, class and method in `src/cowkd` has a caller in `src/cowkd`.

A name counts as used when it appears as a name or an attribute anywhere in
the package outside the `__init__.py` re-exports. Tests are not callers: an
entry point only a test reaches is deleted, and its test moves onto the code
the session runs. Dunder methods are called by the language and are skipped.
"""

import ast
from pathlib import Path

import cowkd

SRC = Path(cowkd.__file__).resolve().parent

# Public on purpose though nothing in the package calls them.
ALLOWED = {
    # the paper's analysis API: parameter optimization and the security,
    # verification and authentication-cost figures it reports
    "optimize",  # finitekey: the optimal (mu, rate, compression) point
    "eps_ver_bound",  # verification: union bound on a missed block mismatch
    "deception_bound",  # auth: MAC forgery bound
    "consumption_fraction",  # auth: key share spent on tags
    "consumption_report",  # auth: the consumption figures per reference point
    "pads_consumed",  # auth: pads a session of a given length spends
    # the tests' oracle for the parity-check taps
    "dense",  # ParityMatrix.dense
    # the write side of ChannelParams.load's file format
    "save",  # ChannelParams.save
    # key delivery to an application, the pool's consumer-facing use
    "otp_encrypt",  # SecretKeyPool.otp_encrypt
    "remaining",  # PoolLedger.remaining
}


def unused_names(root: Path) -> dict[str, list[str]]:
    """Defined function, class and method names that nothing under `root` uses."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(
                    f"{path.relative_to(root)}:{node.lineno}")
            elif path.name != "__init__.py":
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return {name: where for name, where in defined.items()
            if name not in used and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_has_a_caller_in_src():
    unused = unused_names(SRC)
    stray = {name: where for name, where in unused.items() if name not in ALLOWED}
    assert not stray, f"defined in src/cowkd but used nowhere there: {stray}"


def test_allowlist_names_only_uncalled_definitions():
    # an allowlisted name that gained a caller, or was deleted, leaves the list
    assert set(unused_names(SRC)) >= ALLOWED
