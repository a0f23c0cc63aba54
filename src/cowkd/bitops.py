"""Bit-array helpers shared across the package.

Bit strings are numpy uint8 arrays holding one bit per element (values 0/1).
Packed wire representations use big-endian bit order within each byte,
matching numpy's packbits/unpackbits default.
"""

from __future__ import annotations

import numpy as np

from .errors import SessionAborted


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 array into bytes, big-endian bit order, zero padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of `pack_bits`: `n_bits` bits from exactly ceil(n_bits / 8) bytes.

    Wire fields are parsed with it, so a short or long field, or a nonzero
    padding bit, raises `SessionAborted`.
    """
    if len(data) != (n_bits + 7) // 8:
        raise SessionAborted(f"{n_bits}-bit field has the wrong length ({len(data)} bytes)")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits[n_bits:].any():
        raise SessionAborted(f"{n_bits}-bit field has nonzero padding bits")
    return bits[:n_bits]


def bits_to_int(bits: np.ndarray) -> int:
    """Interpret a bit array as a big-endian unsigned integer."""
    value = 0
    for b in np.asarray(bits, dtype=np.uint8):
        value = (value << 1) | int(b)
    return value

