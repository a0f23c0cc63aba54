import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import poly_mac_horner

from cowkd.auth import (
    MAX_LIMBS,
    P127,
    PSK_MIN_BYTES,
    UNIT_BITS,
    AuthKeyState,
    PreSharedKey,
    consumption_fraction,
    consumption_report,
    deception_bound,
    field_mul,
    mod_p,
    parse_psk,
    poly_mac,
    tag,
    verify,
)
from cowkd.engine.frames import decode_auth_tag, encode_auth_tag
from cowkd.errors import SessionAborted


def test_field_mul_matches_bigint_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        a = int.from_bytes(rng.bytes(16), "big") % P127
        b = int.from_bytes(rng.bytes(16), "big") % P127
        assert field_mul(a, b) == (a * b) % P127


def test_mod_p_edge_cases():
    assert mod_p(0) == 0
    assert mod_p(P127) == 0
    assert mod_p(P127 + 5) == 5
    assert mod_p((P127 - 1) * (P127 - 1)) == pow(P127 - 1, 2, P127)


def test_empty_message_tag_equals_pad():
    state = AuthKeyState(poly_key=1234567)
    pad = 0x7FEDCBA987654321
    assert tag(b"", state, pad) == pad


def test_same_message_two_pads_differ_by_pad_xor():
    state = AuthKeyState(poly_key=987654321)
    msg = b"service channel bytes"
    t1 = tag(msg, state, 0x1111)
    t2 = tag(msg, state, 0x2222)
    assert t1 ^ t2 == 0x1111 ^ 0x2222


def test_deception_bound_below_1e33():
    assert deception_bound() <= 1e-33
    assert MAX_LIMBS == 1 + math.ceil(UNIT_BITS / 126)


def test_verify_accepts_unmodified():
    state_a = AuthKeyState(poly_key=31337)
    state_b = AuthKeyState(poly_key=31337)
    msg = bytes(range(256)) * 4
    pad = (1 << 126) | 777
    t = tag(msg, state_a, pad)
    assert verify(msg, t, state_b, pad)
    assert not verify(msg, t, state_b, pad ^ 1)


def test_verify_rejects_single_bit_flip_monte_carlo():
    # 1e5 random keys; expected accepts ~ 1e5 * 2^-114 = 0
    rng = np.random.default_rng(29)
    msg = rng.bytes(64)
    accepts = 0
    for _ in range(100_000):
        state = AuthKeyState(poly_key=int.from_bytes(rng.bytes(16), "big") % P127)
        core = poly_mac(msg, state)
        flipped = bytearray(msg)
        flipped[17] ^= 0x10
        if poly_mac(bytes(flipped), state) == core:
            accepts += 1
    assert accepts == 0


def test_verify_rejects_truncation():
    state_a = AuthKeyState(poly_key=101)
    state_b = AuthKeyState(poly_key=101)
    msg = b"\x00" * 100  # truncating zeros only changes the length limb
    t = tag(msg, state_a, 42)
    assert not verify(msg[:-1], t, state_b, 42)


def test_pad_schedule_desync_aborts():
    # the wire's pad index is a head field the receiver's schedule fixes;
    # pad reuse is the key pool's to refuse (tests/test_engine.py,
    # tests/test_packed_pool.py)
    with pytest.raises(SessionAborted, match="out of step"):
        decode_auth_tag(encode_auth_tag(3, 0), 4)


def test_consumption_report_reference_points():
    one_unit = consumption_report(UNIT_BITS)
    assert one_unit["consumed_bits"] == 127
    assert one_unit["fresh_hash_bits"] == 383
    assert consumption_report(0)["consumed_bits"] == 0
    assert consumption_report(UNIT_BITS + 1)["consumed_bits"] == 254


def test_consumption_fraction_at_217_bits_per_secret_bit():
    frac = consumption_fraction(217)
    assert frac == pytest.approx(0.0263, abs=1e-4)
    assert frac == 217 * 127 / 2**20


def test_tag_wire_roundtrip():
    t = (1 << 126) | 12345
    record = encode_auth_tag(9, t)
    # pad index, 4 bytes, then the tag in 16 bytes, big-endian
    assert record == bytes.fromhex("00000009" "40" + "00" * 13 + "3039")
    assert decode_auth_tag(record, 9) == t
    with pytest.raises(SessionAborted, match="exceeds 127 bits"):
        decode_auth_tag(encode_auth_tag(9, 1 << 127), 9)


def test_poly_mac_rejects_oversized_unit():
    with pytest.raises(ValueError):
        poly_mac(bytes(UNIT_BITS // 8 + 1), AuthKeyState(poly_key=7))


def test_psk_parsing():
    raw = (bytes(range(256)) * 5)[:PSK_MIN_BYTES]  # 1,040 bytes: 16 key + 64 pads
    psk = parse_psk(raw)
    assert isinstance(psk, PreSharedKey)
    assert 0 <= psk.poly_key < P127
    assert len(psk.pads) == 64
    assert all(0 <= p < (1 << 127) for p in psk.pads)
    for short in (b"short", raw[:-1]):
        with pytest.raises(ValueError):
            parse_psk(short)


def test_poly_mac_unit_speed():
    # full 2^20-bit unit must tag fast enough for desk-scale sessions
    import time

    msg = bytes(UNIT_BITS // 8)
    t0 = time.time()
    poly_mac(msg, AuthKeyState(poly_key=0x1234567890ABCDEF))
    assert time.time() - t0 < 0.5


# ---------------------------------------------------------------------------
# the limb-piece kernel against the scalar Horner oracle
# ---------------------------------------------------------------------------

UNIT_BYTES = UNIT_BITS // 8
# around the 16-byte, 21-byte piece-group and 126-byte 8-limb boundaries,
# and the largest units
EDGE_LENGTHS = [0, 1, 15, 16, 17, 20, 21, 22, 125, 126, 127, UNIT_BYTES - 1, UNIT_BYTES]
EDGE_KEYS = [0, 1, 2, P127 - 1]


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_poly_mac_matches_horner_at_edge_lengths_and_keys(length):
    msg = np.random.default_rng(length).bytes(length)
    for key in EDGE_KEYS + [0x1234567890ABCDEF << 60]:
        assert poly_mac(msg, AuthKeyState(poly_key=key)) == poly_mac_horner(msg, key)


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_poly_mac_all_ones_full_unit(key):
    # every piece at 2^21 - 1 and 8,324 limbs: the int64 worst case
    msg = b"\xff" * UNIT_BYTES
    assert poly_mac(msg, AuthKeyState(poly_key=key)) == poly_mac_horner(msg, key)


def test_key_powers_grow_from_short_to_full_unit():
    key, pad = (1 << 126) | 0xABCDEF, 0x5A5A
    state = AuthKeyState(poly_key=key)
    short, full = b"short unit", np.random.default_rng(3).bytes(UNIT_BYTES)
    assert tag(short, state, pad) ^ pad == poly_mac_horner(short, key)
    assert state._powers.shape[0] == 2  # a length limb and one message limb
    assert tag(full, state, pad) ^ pad == poly_mac_horner(full, key)
    assert state._powers.shape[0] == MAX_LIMBS
    assert tag(short, state, pad) ^ pad == poly_mac_horner(short, key)


@given(st.binary(max_size=3000), st.integers(0, P127 - 1))
@example(b"", 0)
@example(b"\xff" * 126, P127 - 1)
def test_poly_mac_matches_horner(msg, key):
    assert poly_mac(msg, AuthKeyState(poly_key=key)) == poly_mac_horner(msg, key)
