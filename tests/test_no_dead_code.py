"""Every function, class and method in `src/cowkd` has a caller in `src/cowkd`.

A method counts as used only where some attribute `x.name` reads it; a
module-level or nested function, or a class, only where a name `name` is
loaded, imported by `from ... import name`, or read as `module.name` off an
imported module. A local variable or an unrelated attribute of the same name
therefore no longer hides a dead definition. Uses in the `__init__.py`
re-exports do not count. Tests are not callers: an entry point only a test
reaches is deleted, and its test moves onto the code the session runs.
Dunder methods are called by the language and are skipped.
"""

import ast
import importlib.util
import sys
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

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(node, is_method) for every function and class definition in `tree`."""
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                yield child, in_class
            stack.append((child, isinstance(child, ast.ClassDef)))


def _is_module(name: str, package: str) -> bool:
    try:
        name = importlib.util.resolve_name(name, package)
        return name in sys.modules or importlib.util.find_spec(name) is not None
    except (ImportError, AttributeError, ValueError):  # a parent that is no package
        return False


def _module_aliases(tree: ast.Module, package: str) -> set[str]:
    """Names one file binds to modules, by `import m` or `from p import m`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            aliases.update(alias.asname or alias.name for alias in node.names
                           if _is_module(source + sep + alias.name, package))
    return aliases


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def unused_names(root: Path) -> dict[str, list[str]]:
    """Defined function, class and method names that nothing under `root` uses."""
    functions: dict[str, list[str]] = {}
    methods: dict[str, list[str]] = {}
    loaded: set[str] = set()  # names loaded, imported, or read off a module
    attributes: set[str] = set()  # every `x.name`
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, is_method in _definitions(tree):
            (methods if is_method else functions).setdefault(node.name, []).append(
                f"{path.relative_to(root)}:{node.lineno}")
        if path.name == "__init__.py":
            continue
        package = ".".join(("cowkd",) + path.parent.relative_to(root).parts)
        modules = _module_aliases(tree, package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if _root_name(node.value) in modules:
                    loaded.add(node.attr)
    unused = {name: where for name, where in functions.items() if name not in loaded}
    for name, where in methods.items():
        if name not in attributes:
            unused.setdefault(name, []).extend(where)
    return {name: where for name, where in unused.items()
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_has_a_caller_in_src():
    unused = unused_names(SRC)
    stray = {name: where for name, where in unused.items() if name not in ALLOWED}
    assert not stray, f"defined in src/cowkd but used nowhere there: {stray}"


def test_allowlist_names_only_uncalled_definitions():
    # an allowlisted name that gained a caller, or was deleted, leaves the list
    assert set(unused_names(SRC)) >= ALLOWED
