"""Each direction of the service channel is one authenticated stream.

`session._Stream` holds what a direction needs: its bytes per channel, its
transcript hash, the bytes not yet tagged, the units tagged and the pad
schedule position through its last non-tag frame. One function forms a
unit's pad index, 2 * unit + direction. The endpoint keeps one stream per
direction, not a twin field of each, and the pad schedule is the
endpoint's: the parties hold no schedule state and carve the pool where
the endpoint says.
"""

import ast
from pathlib import Path

import cowkd

SESSION = Path(cowkd.__file__).resolve().parent / "engine" / "session.py"


def _is_two(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def pad_index_functions(source: str) -> list[str]:
    """Functions holding a sum one of whose terms is twice something: the
    form 2 * unit + direction of a pad index."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
                    isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
                    and (_is_two(term.left) or _is_two(term.right))
                    for term in (node.left, node.right)):
                found.append(func.name)
                break
    return found


def _classes(source: str, root: str) -> list[ast.ClassDef]:
    """Class `root` and every class derived from it, directly or not."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    family = {root}
    grew = True
    while grew:
        grew = False
        for cls in classes:
            if cls.name not in family and any(
                    isinstance(base, ast.Name) and base.id in family for base in cls.bases):
                family.add(cls.name)
                grew = True
    return [cls for cls in classes if cls.name in family]


def party_schedule_state(source: str, root: str = "_PartyBase") -> list[int]:
    """Lines of the party classes that name the last append's pad position
    or the pool's pad reserve."""
    return sorted(node.lineno for cls in _classes(source, root) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and node.attr == "_appended_pad"
                  or isinstance(node, ast.Name) and node.id == "PAD_RESERVE_TARGET")


def out_in_pairs(source: str, cls_name: str = "_Endpoint") -> list[str]:
    """The X of every `self._out_X` the class assigns next to a `self._in_X`."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == cls_name)
    assigned = set()
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    assigned.add(sub.attr)
    return sorted(name.removeprefix("_out_") for name in assigned
                  if name.startswith("_out_") and "_in_" + name.removeprefix("_out_") in assigned)


def test_one_function_forms_a_pad_index():
    assert pad_index_functions(SESSION.read_text()) == ["take_unit"]


def test_parties_keep_no_pad_schedule_state():
    assert party_schedule_state(SESSION.read_text()) == []


def test_endpoint_keeps_no_twin_fields_per_direction():
    assert out_in_pairs(SESSION.read_text()) == []


def test_guards_see_what_they_look_for():
    source = (
        "class _PartyBase:\n"
        "    def close(self):\n"
        "        self._appended_pad = self.ep.reach()\n"
        "class Bob(_PartyBase):\n"
        "    pass\n"
        "class Alice(Bob):\n"
        "    def carve(self):\n"
        "        return PAD_RESERVE_TARGET\n"
        "class Other:\n"
        "    _appended_pad = PAD_RESERVE_TARGET\n"
        "class _Endpoint:\n"
        "    def __init__(self):\n"
        "        self._out_buf = self._in_buf = bytearray()\n"
        "        self._out_units, self._in_units = 0, 0\n"
        "        self._out_hash: int = 0\n"
        "        self._in_hash += 1\n"
        "        self._out_only = self.bytes_out = self.bytes_in = 0\n"
        "    def emit(self):\n"
        "        return 2 * self._out_units + self.out_dir\n"
        "    def verify(self, unit):\n"
        "        return self.in_dir + unit * 2\n"
        "    def reach(self):\n"
        "        return 2 * (self.units + 1), 3 * self.units + 1\n")
    assert pad_index_functions(source) == ["emit", "verify"]
    assert party_schedule_state(source) == [3, 8]
    assert out_in_pairs(source) == ["buf", "hash", "units"]
