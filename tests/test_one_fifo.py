"""Key material in flight waits in one queue class, `session._Fifo`.

Against a plain `np.concatenate` model, a FIFO hands out the same rows in
the same order whatever the schedule of appends and takes, and the rows it
still holds are the appended arrays themselves (the head one as a view): no
piece is copied before its rows are taken. A guard over the session module
keeps it that way: only `_Fifo` concatenates, and no attribute is regrown
by concatenating onto itself or cut by slicing itself.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cowkd.engine import session
from cowkd.engine.session import _Fifo

SESSION = Path(session.__file__)
ROW_BYTES = 243  # one packed 1944-bit block


def rows_of(kind: str, n: int, first: int) -> np.ndarray:
    """n rows of a 1-D byte array or of packed blocks; row i holds first + i
    (mod 256), so rows taken out of order show."""
    values = (np.arange(first, first + n) % 256).astype(np.uint8)
    return values if kind == "1d" else np.repeat(values[:, None], ROW_BYTES, axis=1)


@given(st.sampled_from(["1d", "2d"]), st.data())
def test_fifo_takes_what_concatenation_would_and_copies_no_queued_piece(kind, data):
    fifo = _Fifo()
    appended = []  # every non-empty array handed to the FIFO, in order
    model = rows_of(kind, 0, 0)  # the rows queued, joined
    for _ in range(data.draw(st.integers(1, 30))):
        if fifo.size and data.draw(st.booleans()):
            n = data.draw(st.integers(1, fifo.size))
            got = fifo.take(n)
            assert got.dtype == np.uint8 and np.array_equal(got, model[:n])
            model = model[n:]
            queued = list(fifo._pieces)
            assert sum(len(piece) for piece in queued) == fifo.size == len(model)
            if queued:
                originals = appended[-len(queued):]
                assert all(piece is orig for piece, orig in zip(queued[1:], originals[1:]))
                head, orig = queued[0], originals[0]
                assert np.shares_memory(head, orig)
                assert np.array_equal(head, orig[len(orig) - len(head):])
        else:
            rows = rows_of(kind, data.draw(st.sampled_from([0, 1, 2, 7, 300])),
                           len(appended) * 37)
            fifo.append(rows)
            if len(rows):
                appended.append(rows)
            model = np.concatenate([model, rows])
        assert fifo.size == len(model)


# ---------------------------------------------------------------------------
# guard: no queue but `_Fifo`
# ---------------------------------------------------------------------------

def _is_concatenate(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr == "concatenate"
            or isinstance(func, ast.Name) and func.id == "concatenate")


def concatenating_definitions(source: str) -> set[str]:
    """Top-level classes and functions that call `concatenate`; "<module>"
    for a call outside them."""
    found = set()
    for top in ast.parse(source).body:
        if any(_is_concatenate(node) for node in ast.walk(top)):
            is_def = isinstance(top, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            found.add(top.name if is_def else "<module>")
    return found


def self_rebinds(source: str) -> list[int]:
    """Lines that assign an attribute a concatenation with itself or a slice
    (or any subscript) of itself, e.g. `self.x = self.x[n:].copy()`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Attribute):
                continue
            name = ast.unparse(target)
            if any(isinstance(sub, ast.Subscript) and ast.unparse(sub.value) == name
                   or _is_concatenate(sub) and any(ast.unparse(part) == name
                                                   for arg in sub.args for part in ast.walk(arg))
                   for sub in ast.walk(node.value)):
                lines.append(node.lineno)
    return lines


def test_only_fifo_concatenates_in_the_session():
    assert concatenating_definitions(SESSION.read_text()) == {"_Fifo"}


def test_session_regrows_and_cuts_no_attribute_in_place():
    assert self_rebinds(SESSION.read_text()) == []


def test_guards_see_what_they_look_for():
    source = (
        "import numpy as np\n"
        "from numpy import concatenate\n"
        "class _Fifo:\n"
        "    def take(self, parts):\n"
        "        return np.concatenate(parts)\n"
        "class Party:\n"
        "    def grow(self, bits):\n"
        "        self.key_bits = np.concatenate([self.key_bits, bits])\n"
        "    def cut(self, n):\n"
        "        self.key_bits = self.key_bits[n:].copy()\n"
        "        self.rest = self.rest[n]\n"
        "        self.size = self.size - n\n"
        "        self.other = self.key_bits[:n]\n"
        "def join(a, b):\n"
        "    return concatenate((a, b))\n"
        "x = np.concatenate([[0], [1]])\n")
    assert concatenating_definitions(source) == {"_Fifo", "Party", "join", "<module>"}
    assert self_rebinds(source) == [8, 10, 11]
