"""Each session input is parsed once, by `SessionConfig`.

The config checks its fields and keeps what they parse to: the pre-shared
key, the code rate, the sifting mode, the seed, the applied compression and
its output length, and the calibrated dark-count and noise shares. The
parties read those values; none of them parses a field again or recomputes
the compression or the channel's expected statistics.
"""

import ast
from pathlib import Path

import cowkd
from test_one_stream_per_direction import _classes

SESSION = Path(cowkd.__file__).resolve().parent / "engine" / "session.py"
PARSERS = {"parse_psk", "SiftingMode", "as_rate", "auto_compression", "expected_stats",
           "from_hex"}


def party_parses(source: str, root: str = "_PartyBase") -> list[tuple[int, str]]:
    """(line, name) of every call in the party classes to one of `PARSERS`,
    by bare name or as an attribute."""
    found = []
    for cls in _classes(source, root):
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in PARSERS:
                found.append((node.lineno, name))
    return sorted(found)


def test_no_party_parses_a_config_value():
    assert party_parses(SESSION.read_text()) == []


def test_the_guard_sees_what_it_looks_for():
    source = (
        "class _PartyBase:\n"
        "    def __init__(self, config):\n"
        "        self.pool = SecretKeyPool(parse_psk(config.psk))\n"
        "        self.rate = ldpc.as_rate(config.code_rate)\n"
        "class Bob(_PartyBase):\n"
        "    def close(self):\n"
        "        stats = self.config.params.expected_stats()\n"
        "class Alice(Bob):\n"
        "    def hello(self):\n"
        "        return EntropySeed.from_hex(self.config.seed_hex), SiftingMode(14)\n"
        "    def compress(self):\n"
        "        return self.config.auto_compression\n"
        "class SessionConfig:\n"
        "    def __post_init__(self):\n"
        "        self.mode = SiftingMode(self.sift_bits)\n")
    assert party_parses(source) == [(3, "parse_psk"), (4, "as_rate"), (7, "expected_stats"),
                                    (10, "SiftingMode"), (10, "from_hex")]
