"""A hostile peer rewrites one record mid-session.

Whatever the rewrite, both parties must end, each in `SessionAborted` with
exit 3 or `AuthAlarm` with exit 4, and a session that raises nothing must
still hold equal pools. A hello whose magic or config digest no longer
matches is a configuration mismatch (exit 2), as for a peer that really runs
another protocol or configuration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowkd.engine import EXIT_ABORT, EXIT_AUTH_ALARM, EXIT_CONFIG, LoopbackTransport, SessionAborted
from cowkd.engine import frames
from cowkd.engine import session as session_mod
from cowkd.engine.frames import CH_AUTH_TAG, CH_CONTROL, CH_PA_SEED, CH_SIFTING, CH_SYNDROME, CH_VERIFY
from cowkd.engine.session import AliceParty, BobParty
from cowkd.privamp import SeedReuseError, make_seed
from test_engine import _RewriteTransport, run_parties, small_config


# record -> (sender, channel, payload prefix, (offset, width) fields)
RECORDS = {
    "hello": ("alice", CH_CONTROL, b"COWD1", [(0, 5), (5, 32), (37, 32)]),
    "hello echo": ("bob", CH_CONTROL, b"COWD1", [(0, 5), (5, 32), (37, 32)]),
    "sift disclosure": ("bob", CH_SIFTING, b"", [(0, 8), (8, 4), (12, 1)]),
    "sift response": ("alice", CH_SIFTING, b"", [(0, 4), (4, 1)]),
    "syndrome": ("bob", CH_SYNDROME, b"", [(0, 4), (4, 2), (6, 1)]),
    "verify tags": ("bob", CH_VERIFY, b"", [(0, 4), (4, 2), (6, 6), (12, 6)]),
    "verify response": ("alice", CH_VERIFY, b"", [(0, 4), (4, 2), (6, 1)]),
    "EST": ("alice", CH_CONTROL, b"EST", [(3, 4), (7, 8), (15, 8), (23, 8), (31, 8)]),
    "END from bob": ("bob", CH_CONTROL, b"END", [(0, 3)]),
    "END from alice": ("alice", CH_CONTROL, b"END", [(0, 3)]),
    "PA seed": ("bob", CH_PA_SEED, b"", [(0, 1), (1, 4), (5, 4), (9, 1)]),
    "auth tag from bob": ("bob", CH_AUTH_TAG, b"", [(0, 4), (4, 16)]),
    "auth tag from alice": ("alice", CH_AUTH_TAG, b"", [(0, 4), (4, 16)]),
}


def run_rewritten(record: str, rewrite) -> tuple[dict, AliceParty, BobParty]:
    sender, channel_id, prefix, _ = RECORDS[record]
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=10)
    if sender == "alice":
        ta = evil = _RewriteTransport(ta, channel_id, rewrite, prefix)
    else:
        tb = evil = _RewriteTransport(tb, channel_id, rewrite, prefix)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    errors = run_parties(alice, bob, 30)
    assert evil.rewritten
    return errors, alice, bob


def assert_clean_end(record: str, errors: dict, alice, bob):
    allowed = {EXIT_ABORT, EXIT_AUTH_ALARM}
    if record.startswith("hello"):
        allowed.add(EXIT_CONFIG)
    for err in errors.values():
        assert isinstance(err, SessionAborted) and err.exit_code in allowed, repr(err)
    if not errors:
        assert alice.pool.digest() == bob.pool.digest()


def _set_field(payload: bytes, offset: int, width: int, value: int) -> bytes:
    field = (value % (1 << (8 * width))).to_bytes(width, "big")
    return payload[:offset] + field + payload[offset + width:]


# a rewrite draws its positions as large integers, reduced modulo the
# payload length when the record is on the wire
mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("field"), st.integers(0, 15), st.integers(0, (1 << 128) - 1)),
)


def _mutate(record: str, mutation):
    fields = RECORDS[record][3]

    def rewrite(payload: bytes) -> bytes:
        kind, *args = mutation
        if kind == "truncate":
            return payload[: args[0] % len(payload)]
        if kind == "append":
            return payload + args[0]
        if kind == "flip":
            i = args[0] % len(payload)
            return payload[:i] + bytes([payload[i] ^ args[1]]) + payload[i + 1:]
        offset, width = fields[args[0] % len(fields)]
        return _set_field(payload, offset, width, args[1])

    return rewrite


@pytest.mark.parametrize("record", sorted(RECORDS))
@settings(max_examples=10)
@given(mutation=mutations)
def test_rewritten_record_ends_both_parties_cleanly(record, mutation):
    errors, alice, bob = run_rewritten(record, _mutate(record, mutation))
    assert_clean_end(record, errors, alice, bob)


def _replace(offset: int, value: bytes):
    return lambda p: p[:offset] + value + p[offset + len(value):]


def _diagonal_one_bit_short(payload: bytes) -> bytes:
    """A well-formed seed record whose diagonal lacks its last bit; for
    n_sift = 15,552 it takes as many bytes as the n_sift - 1 bits due."""
    _, batch, _, seed = frames._SEED.unpack(payload, sizes=lambda mode, batch, n: [n])
    return frames.encode_seed(seed[:-1], batch)


@pytest.mark.parametrize("record, rewrite, party, exit_code", [
    ("PA seed", _replace(0, bytes([7])), "alice", EXIT_ABORT),  # unknown mode
    pytest.param("PA seed", _replace(0, bytes([0])), "alice", EXIT_ABORT,
                 id="PA seed-retired mode 0-alice-3"),  # the explicit diagonal
    pytest.param("PA seed", _replace(0, bytes([1])), "alice", EXIT_ABORT,
                 id="PA seed-retired mode 1-alice-3"),  # the LFSR register and taps
    pytest.param("PA seed", _diagonal_one_bit_short, "alice", EXIT_ABORT,
                 id="PA seed-diagonal not n_sift - 1 bits-alice-3"),
    pytest.param("PA seed", lambda p: p[:-1], "alice", EXIT_ABORT,
                 id="PA seed-truncated diagonal-alice-3"),
    ("syndrome", _replace(4, b"\xff\xff"), "alice", EXIT_ABORT),  # 65,535 blocks
    ("sift disclosure", lambda p: p[: len(p) // 2], "alice", EXIT_ABORT),
    ("EST", lambda p: p[:-1], "bob", EXIT_ABORT),
    ("auth tag from bob", lambda p: (int.from_bytes(p[:4], "big") + 2).to_bytes(4, "big") + p[4:],
     "alice", EXIT_AUTH_ALARM),  # the pad index of another unit
    ("auth tag from bob", lambda p: p[:-1], "alice", EXIT_AUTH_ALARM),
])
def test_malformed_record_raises_documented_exit(record, rewrite, party, exit_code):
    errors, alice, bob = run_rewritten(record, rewrite)
    err = errors[party]
    assert isinstance(err, SessionAborted) and err.exit_code == exit_code, repr(err)
    assert_clean_end(record, errors, alice, bob)


@pytest.mark.parametrize("bright_share", [0, 1, 2])
def test_estimate_claiming_more_monitor_clicks_than_disclosed_aborts_both(bright_share):
    # Alice's report counts one more monitor click, split as bright_share
    # bright and the rest destructive, than Bob disclosed monitor events
    # before the seed: Bob aborts on reading it, and Alice on losing her peer
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=10)
    parties = {}

    def claim_one_more(payload: bytes) -> bytes:
        batch, mismatches, dropped = (int.from_bytes(payload[a : a + n], "big")
                                      for a, n in ((3, 4), (7, 8), (15, 8)))
        claimed = parties["bob"]._monitor_disclosed + 1
        bright = claimed * bright_share // 2
        return frames.encode_estimate(batch, mismatches, dropped, bright, claimed - bright)

    evil = _RewriteTransport(ta, CH_CONTROL, claim_one_more, b"EST")
    alice, bob = AliceParty(cfg, evil), BobParty(cfg, tb)
    parties["bob"] = bob
    errors = run_parties(alice, bob, 30)
    assert evil.rewritten
    assert set(errors) == {"alice", "bob"}
    for err in errors.values():
        assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)
    assert "more monitor clicks than were disclosed" in str(errors["bob"])


def test_a_repeated_pa_seed_ends_both_parties_in_exit_3(monkeypatch):
    # Bob announces batch 0's seed again for batch 1: each party's seed
    # ledger refuses it, a protocol abort that leaves the pool unfrozen
    first = []

    def replay_first(rng, n_sift):
        if not first:
            first.append(make_seed(rng, n_sift))
        return first[0]

    cfg = small_config(n_batches=2)
    monkeypatch.setattr(session_mod, "make_seed", replay_first)
    ta, tb = LoopbackTransport.pair(timeout=10)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    errors = run_parties(alice, bob, 30)
    assert set(errors) == {"alice", "bob"}
    for err in errors.values():
        assert isinstance(err, SeedReuseError) and isinstance(err, SessionAborted), repr(err)
        assert err.exit_code == EXIT_ABORT
    assert len(alice.batches) == len(bob.batches) == 1
    assert not alice.pool.frozen and not bob.pool.frozen
