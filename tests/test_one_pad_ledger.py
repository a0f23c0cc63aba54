"""Authentication pads have one ledger: the key pool's.

`cowkd.auth` is arithmetic on (message, key, pad): it keeps no record of the
pads it was handed and has no error of its own. `SecretKeyPool.take_pad` is
the only refusal of a pad index issued before, and the session takes pads at
two sites, one per direction. The pad index on the wire is a head field of
the tag record, checked by `frames` like every other head field.
"""

import ast
from pathlib import Path

import cowkd

PACKAGE = Path(cowkd.__file__).resolve().parent
AUTH = PACKAGE / "auth.py"
FRAMES = PACKAGE / "engine" / "frames.py"
SESSION = PACKAGE / "engine" / "session.py"


def derived_classes(source: str) -> list[str]:
    """Classes that name a base class, as every exception class must."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.bases]


def sets(source: str) -> list[int]:
    """Lines that build, call or annotate a set."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Set, ast.SetComp))
                  or isinstance(node, ast.Name) and node.id == "set")


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def pad_membership_raises(source: str) -> list[int]:
    """Lines of `if <pad> in <...>: raise ...`: refusing a pad seen before."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and any(isinstance(op, ast.In) for op in node.test.ops)
            and any("pad" in name for name in _names(node.test))
            and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))]


def take_pad_calls(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take_pad"]


def checks_through_expect(source: str, function: str) -> bool:
    """Whether `function` hands its second parameter to an `unpack` call as
    an entry of the head fields it expects."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    param = func.args.args[1].arg
    for call in ast.walk(func):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "unpack"):
            continue
        expect = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "expect"), None)
        if isinstance(expect, ast.Tuple) and any(
                isinstance(e, ast.Name) and e.id == param for e in expect.elts):
            return True
    return False


def test_auth_defines_no_error_and_keeps_no_set():
    source = AUTH.read_text()
    assert derived_classes(source) == []
    assert sets(source) == []


def test_only_the_pool_refuses_a_pad_it_issued():
    refusing = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
                      if pad_membership_raises(path.read_text()))
    assert refusing == ["engine/keypool.py"]


def test_session_takes_pads_at_two_sites():
    # one for each tag it sends, one for each tag it verifies
    assert len(take_pad_calls(SESSION.read_text())) == 2


def test_tag_record_checks_its_pad_index_as_a_head_field():
    assert checks_through_expect(FRAMES.read_text(), "decode_auth_tag")


def test_guards_see_what_they_look_for():
    source = (
        "class PadReuseError(RuntimeError):\n"
        "    pass\n"
        "@dataclass\n"
        "class State:\n"
        "    used: set = field(default_factory=set)\n"
        "    def claim(self, pad_index):\n"
        "        if pad_index in self.used:\n"
        "            raise PadReuseError(pad_index)\n"
        "        if pad_index in self.window:\n"
        "            return None\n"
        "        seen = {1, 2} | {i for i in range(3)}\n"
        "        self.pool.take_pad(1); take_pad(2); pool.take_pad(pad_index)\n"
        "def decode_a(payload, pad_index):\n"
        "    index, raw = _AUTH_TAG.unpack(payload)\n"
        "    if index != pad_index:\n"
        "        raise ValueError(index)\n"
        "def decode_b(payload, pad_index):\n"
        "    return _AUTH_TAG.unpack(payload, (pad_index,))\n"
        "def decode_c(payload, pad_index):\n"
        "    return _AUTH_TAG.unpack(payload, expect=(None, pad_index))\n")
    assert derived_classes(source) == ["PadReuseError"]
    assert sets(source) == [5, 5, 11, 11]
    assert pad_membership_raises(source) == [7]
    assert take_pad_calls(source) == [12, 12]
    assert not checks_through_expect(source, "decode_a")
    assert checks_through_expect(source, "decode_b")
    assert checks_through_expect(source, "decode_c")
