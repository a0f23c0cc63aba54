import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import poly_mac_horner

from cowkd.auth import (
    MAX_LIMBS,
    P127,
    TAG_BITS,
    UNIT_BITS,
    AuthKeyState,
    AuthTag,
    PadReuseError,
    PadScheduleError,
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
    t = tag(b"", state, pad, pad_index=0)
    assert t.tag == pad


def test_same_message_two_pads_differ_by_pad_xor():
    state = AuthKeyState(poly_key=987654321)
    msg = b"service channel bytes"
    t1 = tag(msg, state, 0x1111, 0)
    t2 = tag(msg, state, 0x2222, 1)
    assert t1.tag ^ t2.tag == 0x1111 ^ 0x2222


def test_deception_bound_below_1e33():
    assert deception_bound() <= 1e-33
    assert MAX_LIMBS == 1 + math.ceil(UNIT_BITS / 126)


def test_verify_accepts_unmodified():
    state_a = AuthKeyState(poly_key=31337)
    state_b = AuthKeyState(poly_key=31337)
    msg = bytes(range(256)) * 4
    pad = (1 << 126) | 777
    t = tag(msg, state_a, pad, 5)
    assert verify(msg, t, state_b, pad, 5)


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
    t = tag(msg, state_a, 42, 0)
    assert not verify(msg[:-1], t, state_b, 42, 0)


def test_pad_reuse_is_hard_failure():
    state = AuthKeyState(poly_key=999)
    tag(b"a", state, 1, 0)
    with pytest.raises(PadReuseError):
        tag(b"b", state, 2, 0)


def test_pad_schedule_desync_aborts():
    state = AuthKeyState(poly_key=999)
    t = AuthTag(message_unit_index=3, tag=0)
    with pytest.raises(PadScheduleError):
        verify(b"x", t, state, 0, pad_index=4)


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


def test_pad_ledger_matches_consumption():
    state = AuthKeyState(poly_key=5)
    sent_bits = 0
    for i in range(7):
        msg = bytes(1000 * (i + 1))
        tag(msg, state, i + 10, i)
        sent_bits += 8 * len(msg)
    # every unit here is partial, so one pad per message
    assert state.pads_consumed * TAG_BITS == 7 * 127


def test_tag_wire_roundtrip():
    t = AuthTag(9, (1 << 126) | 12345)
    assert decode_auth_tag(encode_auth_tag(t)) == t


def test_poly_mac_rejects_oversized_unit():
    with pytest.raises(ValueError):
        poly_mac(bytes(UNIT_BITS // 8 + 1), AuthKeyState(poly_key=7))


def test_psk_parsing():
    raw = bytes(range(256)) * 1  # 256 bytes: 16 key + 15 pads
    psk = parse_psk(raw)
    assert isinstance(psk, PreSharedKey)
    assert 0 <= psk.poly_key < P127
    assert len(psk.pads) == 15
    assert all(0 <= p < (1 << 127) for p in psk.pads)
    with pytest.raises(ValueError):
        parse_psk(b"short")


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
    assert tag(short, state, pad, 0).tag ^ pad == poly_mac_horner(short, key)
    assert state._powers.shape[0] == 2  # a length limb and one message limb
    assert tag(full, state, pad, 1).tag ^ pad == poly_mac_horner(full, key)
    assert state._powers.shape[0] == MAX_LIMBS
    assert tag(short, state, pad, 2).tag ^ pad == poly_mac_horner(short, key)


@given(st.binary(max_size=3000), st.integers(0, P127 - 1))
@example(b"", 0)
@example(b"\xff" * 126, P127 - 1)
def test_poly_mac_matches_horner(msg, key):
    assert poly_mac(msg, AuthKeyState(poly_key=key)) == poly_mac_horner(msg, key)
