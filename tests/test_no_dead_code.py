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
import re
import runpy
import sys
from pathlib import Path

import cowkd

SRC = Path(cowkd.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Public on purpose though nothing in the package calls them yet: each name
# maps to the open ROADMAP item that gives it a caller.
ALLOWED = {
    # perfbench's tracer binds it by name until the benchmark drops its metrics
    "lfsr_expand": "item 4: the benchmark change",  # privamp.lfsr_expand
    # key delivery to an application, the pool's consumer-facing use
    "otp_encrypt": "item 2: the key-file carry",  # SecretKeyPool.otp_encrypt
    # the paper's security, verification and authentication-cost figures
    "eps_ver_bound": "item 4: the security block",  # verification
    "deception_bound": "item 4: the security block",  # auth: MAC forgery bound
    "consumption_fraction": "item 4: the security block",  # auth: key share spent on tags
    "consumption_report": "item 4: the security block",  # auth: figures per reference point
}
ROADMAP = Path(__file__).resolve().parent.parent / "ROADMAP.md"

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
    assert set(unused_names(SRC)) >= set(ALLOWED)


def test_every_allowlisted_name_names_the_open_item_that_calls_it():
    open_items = set(re.findall(r"^(\d+)\. \*\*", ROADMAP.read_text().split("## Open items")[1],
                                re.M))
    for name, why in ALLOWED.items():
        item = re.match(r"item (\d+): \S", why)
        assert item, f"{name}: {why!r} names no ROADMAP item"
        assert item[1] in open_items, f"{name}: ROADMAP has no open item {item[1]}"


def test_every_name_perfbench_traces_resolves():
    # the tracer rebinds these by name, so a traced benchmark run crashes on
    # one that src/ renamed or deleted; the file is read, not imported, so
    # nothing is written next to it
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    missing = []
    for module, cls, name, _, _ in layers:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, name, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{name}")
    assert not missing, f"perfbench traces names the package lacks: {missing}"
