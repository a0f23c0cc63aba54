"""Every session record's bytes are known to `engine/frames.py` alone.

Only the frames module imports `struct`; the session module converts no
integers to or from bytes and reads no buffer as an array, so a record's
layout cannot drift between the party that writes it and the one that reads
it. Each record is one `_Layout`, whose constant fields are head fields
checked on read rather than a separate prefix.
"""

import ast
from pathlib import Path

import cowkd

PACKAGE = Path(cowkd.__file__).resolve().parent
FRAMES = PACKAGE / "engine" / "frames.py"
SESSION = PACKAGE / "engine" / "session.py"

BYTE_CONVERSIONS = ("to_bytes", "from_bytes", "frombuffer")


def imports(source: str) -> set[str]:
    """Top-level names of every module the source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def byte_conversions(source: str) -> list[str]:
    """Calls of `.to_bytes`, `.from_bytes` or `.frombuffer`, on anything."""
    return [node.func.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in BYTE_CONVERSIONS]


def layouts_with_magic(source: str) -> list[int]:
    """Lines that construct a `_Layout` with more than a name and a head."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_Layout" and (len(node.args) > 2 or node.keywords)]


def test_only_frames_imports_struct():
    importers = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
                       if "struct" in imports(path.read_text()))
    assert importers == ["engine/frames.py"]


def test_session_converts_no_bytes():
    assert byte_conversions(SESSION.read_text()) == []


def test_layouts_take_no_magic():
    source = FRAMES.read_text()
    assert "_Layout(" in source
    assert layouts_with_magic(source) == []


def test_guards_see_what_they_look_for():
    source = (
        "import struct\n"
        "from numpy import frombuffer\n"
        "x = len(p).to_bytes(3, 'big') + int.from_bytes(b, 'big')\n"
        "y = np.frombuffer(data, dtype=np.uint8)\n"
        "a = _Layout('estimation report', 'IQ', b'EST')\n"
        "b = _Layout('tags', 'IH', magic=b'T')\n"
        "c = _Layout('hello', '5s')\n")
    assert imports(source) == {"struct", "numpy"}
    assert sorted(byte_conversions(source)) == ["from_bytes", "frombuffer", "to_bytes"]
    assert sorted(layouts_with_magic(source)) == [5, 6]
