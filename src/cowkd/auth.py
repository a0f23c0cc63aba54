"""Information-theoretic message authentication with one-time-padded tags.

Every 2^20 bits of classical traffic gets a 127-bit tag: a polynomial hash
over the prime field GF(2^127 - 1) evaluated at a long-lived secret key,
XOR-encrypted with a fresh 127-bit pad. Encrypting the tags is what permits
reusing the polynomial key across rounds, cutting the per-tag secret-bit
cost from 383 (a fresh hash function each round) to 127.

Messages are split into 126-bit limbs with the bit length prepended, making
the encoding injective; each limb is a field element since 2^126 < p.

The hash sum(limb_i * k^(n-1-i)) mod p is one int64 matrix product, not a
Horner loop: each limb is cut into six 21-bit pieces straight from the
message bytes, each key power k^m into seven, and the (6, n) x (n, 7)
product sums the piece products over all limbs. With n <= MAX_LIMBS = 8,324
every entry is below 8,324 * 2^42 < 2^56, so int64 cannot overflow; the 42
entries are shifted into place and reduced mod p once. `AuthKeyState` keeps
the key powers for the key's lifetime, grown only as far as a unit needs.

`tag` and `verify` are arithmetic on (message, key, pad) alone: which pad
serves which unit, and that none serves twice, is the key pool's business
(`engine.keypool`).
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
PIECE_BITS = 21  # limbs and key powers are evaluated in 21-bit pieces
_PIECE_MASK = (1 << PIECE_BITS) - 1
_LIMB_PIECES = LIMB_BITS // PIECE_BITS  # 6
_POWER_PIECES = -(-TAG_BITS // PIECE_BITS)  # 7: field elements have 127 bits
_GROUP_PIECES = 8  # 8 pieces = 168 bits = 21 bytes
_GROUP_BYTES = _GROUP_PIECES * PIECE_BITS // 8
# piece k of a group sits 5k bits lower in its 64-bit word than piece 0 (see _pieces)
_PIECE_SHIFTS = np.array([64 - PIECE_BITS - 5 * k for k in range(_GROUP_PIECES)],
                         dtype=np.uint64)


def mod_p(x: int) -> int:
    """Reduction modulo 2^127 - 1 by folding the high bits."""
    while x >> 127:
        x = (x & P127) + (x >> 127)
    return 0 if x == P127 else x


def field_mul(a: int, b: int) -> int:
    return mod_p(a * b)


def _pieces(raw: bytes, groups: int) -> np.ndarray:
    """The 21-bit pieces of the first `groups` 21-byte groups of `raw`
    (zero-filled past its end), most significant first, shape (groups, 8).

    Piece k spans bits 21k .. 21k+20 of its group, inside the big-endian
    64-bit word that starts at byte 2k (bits 16k .. 16k+63), so it is that
    word shifted down by 43 - 5k and masked: one strided read of 8 words per
    group, one shift, one mask.
    """
    # the word at byte 14 of the last group runs one byte past it
    buf = raw.ljust(groups * _GROUP_BYTES + 1, b"\0")
    words = np.ndarray((groups, _GROUP_PIECES), dtype=">u8", buffer=buf,
                       strides=(_GROUP_BYTES, 2))
    return ((words >> _PIECE_SHIFTS) & _PIECE_MASK).astype(np.int64)


def _power_pieces(values: list[int]) -> np.ndarray:
    """Field elements as rows of seven 21-bit pieces, most significant first."""
    raw = b"".join(v.to_bytes(_GROUP_BYTES, "big") for v in values)
    return _pieces(raw, len(values))[:, _GROUP_PIECES - _POWER_PIECES:]


def poly_mac(message: bytes, state: AuthKeyState) -> int:
    """Unencrypted polynomial hash of a message unit under the state's key."""
    n_bits = 8 * len(message)
    if n_bits > UNIT_BITS:
        raise ValueError(f"message unit exceeds {UNIT_BITS} bits")
    n_msg = -(-n_bits // LIMB_BITS)
    n_pieces = n_msg * _LIMB_PIECES
    limbs = np.zeros((1 + n_msg, _LIMB_PIECES), dtype=np.int64)
    limbs[0, -1] = n_bits  # the length limb: n_bits <= 2^20 fits one piece
    pieces = _pieces(message, -(-n_pieces // _GROUP_PIECES)).reshape(-1)
    limbs[1:] = pieces[:n_pieces].reshape(n_msg, _LIMB_PIECES)
    # cross[j, l] = sum_i (piece j of limb i) * (piece l of k^(n-1-i))
    cross = limbs.T @ state.key_powers(1 + n_msg)[::-1]
    top = _LIMB_PIECES + _POWER_PIECES - 2
    return mod_p(sum(c << (PIECE_BITS * (top - j - l))
                     for j, row in enumerate(cross.tolist()) for l, c in enumerate(row)))


@dataclass
class AuthKeyState:
    """Long-lived polynomial key and the table of its powers."""

    poly_key: int
    _powers: np.ndarray = field(  # rows of `_power_pieces` for k^0, k^1, ...
        default_factory=lambda: np.zeros((0, _POWER_PIECES), dtype=np.int64),
        repr=False, compare=False)
    _next_power: int = field(default=1, repr=False, compare=False)  # first power not in the table

    def key_powers(self, n: int) -> np.ndarray:
        """Pieces of k^0 .. k^(n-1), extending the table when it is short."""
        grown = []
        for _ in range(n - self._powers.shape[0]):
            grown.append(self._next_power)
            self._next_power = field_mul(self._next_power, self.poly_key)
        if grown:
            self._powers = np.concatenate([self._powers, _power_pieces(grown)])
        return self._powers[:n]


def tag(message: bytes, state: AuthKeyState, pad: int) -> int:
    """The 127-bit tag of one message unit under a fresh pad."""
    return poly_mac(message, state) ^ pad


def verify(message: bytes, received: int, state: AuthKeyState, pad: int) -> bool:
    """Accept only if the locally computed tag matches the received one."""
    return (poly_mac(message, state) ^ pad) == received


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

# a 16-byte polynomial key and 64 pads. A full-size (512-block) first batch
# spends up to 54 pads before its pool holds key (pad index 53 at 12.5 and
# 25 km, 51 at 1 km, over two seeds); the other 10 pads, five units of
# traffic, are margin. A shorter key is a configuration error.
PSK_MIN_BYTES = 16 + 64 * 16


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
