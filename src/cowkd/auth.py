"""Information-theoretic message authentication with one-time-padded tags.

Every 2^20 bits of classical traffic gets a 127-bit tag: a polynomial hash
over the prime field GF(2^127 - 1) evaluated at a long-lived secret key,
XOR-encrypted with a fresh 127-bit pad. Encrypting the tags is what permits
reusing the polynomial key across rounds, cutting the per-tag secret-bit
cost from 383 (a fresh hash function each round) to 127.

Messages are split into 126-bit limbs with the bit length prepended, making
the encoding injective; each limb is a field element since 2^126 < p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

P127 = (1 << 127) - 1  # Mersenne prime field modulus
TAG_BITS = 127
UNIT_BITS = 1 << 20  # classical traffic covered by one tag
LIMB_BITS = 126
FRESH_KEY_BITS = 383  # cost per tag if the hash function were not reused
MAX_LIMBS = 1 + math.ceil(UNIT_BITS / LIMB_BITS)


class PadReuseError(RuntimeError):
    """A one-time pad index was presented twice."""


class PadScheduleError(RuntimeError):
    """Both sides disagree about which pad applies to a unit."""


def mod_p(x: int) -> int:
    """Reduction modulo 2^127 - 1 by folding the high bits."""
    while x >> 127:
        x = (x & P127) + (x >> 127)
    return 0 if x == P127 else x


def field_mul(a: int, b: int) -> int:
    return mod_p(a * b)


def _limbs(message: bytes) -> list[int]:
    """Length limb followed by the 126-bit message limbs."""
    limbs = [8 * len(message)]
    if not message:
        return limbs
    bits = np.unpackbits(np.frombuffer(message, dtype=np.uint8))
    pad = (-bits.size) % LIMB_BITS
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    rows = bits.reshape(-1, LIMB_BITS)
    # left-pad each limb to 128 bits so packbits yields its big-endian bytes
    padded = np.concatenate([np.zeros((rows.shape[0], 2), dtype=np.uint8), rows], axis=1)
    packed = np.packbits(padded, axis=1)
    limbs.extend(int.from_bytes(row.tobytes(), "big") for row in packed)
    return limbs


def poly_mac(message: bytes, poly_key: int) -> int:
    """Unencrypted polynomial hash of a message unit."""
    if 8 * len(message) > UNIT_BITS:
        raise ValueError(f"message unit exceeds {UNIT_BITS} bits")
    acc = 0
    for limb in _limbs(message):
        acc = mod_p(acc * poly_key + limb)
    return acc


@dataclass(frozen=True)
class AuthTag:
    message_unit_index: int  # the pad index
    tag: int  # 127-bit OTP-encrypted hash


@dataclass
class AuthKeyState:
    """Long-lived polynomial key plus the pad consumption ledger."""

    poly_key: int
    _used_pads: set = field(default_factory=set, repr=False)

    def _claim(self, pad_index: int):
        if pad_index in self._used_pads:
            raise PadReuseError(f"pad {pad_index} already consumed")
        self._used_pads.add(pad_index)

    @property
    def pads_consumed(self) -> int:
        return len(self._used_pads)


def tag(message: bytes, state: AuthKeyState, pad: int, pad_index: int) -> AuthTag:
    """Authenticate one message unit under a fresh pad."""
    state._claim(pad_index)
    core = poly_mac(message, state.poly_key)
    return AuthTag(pad_index, core ^ pad)


def verify(message: bytes, received: AuthTag, state: AuthKeyState,
           pad: int, pad_index: int) -> bool:
    """Accept only if the locally computed tag matches the received one."""
    if received.message_unit_index != pad_index:
        raise PadScheduleError(
            f"unit {received.message_unit_index} arrived while expecting {pad_index}")
    state._claim(pad_index)
    core = poly_mac(message, state.poly_key)
    return (core ^ pad) == received.tag


def deception_bound() -> float:
    """Forgery probability per tag for the implemented limb layout."""
    return MAX_LIMBS / float(1 << 127)


def consumption_report(classical_bits_sent: int) -> dict:
    """Secret bits spent on tags, with the fresh-hash cost for comparison."""
    units = math.ceil(classical_bits_sent / UNIT_BITS)
    return {
        "units": units,
        "consumed_bits": TAG_BITS * units,
        "fresh_hash_bits": FRESH_KEY_BITS * units,
    }


def consumption_fraction(classical_bits_per_secret_bit: float) -> float:
    """Fraction of the secret key spent on authentication."""
    return classical_bits_per_secret_bit * TAG_BITS / UNIT_BITS


# ---------------------------------------------------------------------------
# pre-shared key file
# ---------------------------------------------------------------------------

PSK_MIN_BYTES = 128  # 1024 bits


@dataclass(frozen=True)
class PreSharedKey:
    poly_key: int
    pads: tuple  # initial 127-bit pads


def parse_psk(raw: bytes) -> PreSharedKey:
    if len(raw) < PSK_MIN_BYTES:
        raise ValueError(f"pre-shared key needs at least {PSK_MIN_BYTES} bytes")
    poly_key = mod_p(int.from_bytes(raw[:16], "big") & P127)
    pads = []
    for off in range(16, len(raw) - 15, 16):
        pads.append(int.from_bytes(raw[off : off + 16], "big") & P127)
    return PreSharedKey(poly_key, tuple(pads))
