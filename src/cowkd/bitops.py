"""Bit-array helpers shared across the package.

Bit strings are numpy uint8 arrays holding one bit per element (values 0/1).
Packed wire representations, and key material held packed, use big-endian
bit order within each byte, matching numpy's packbits/unpackbits default;
`unpack_range` reads a slice of a packed string.
`words48` and `bytes48` convert between bytes and arrays of 48-bit
big-endian words, the verification seeds and tags.
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


def unpack_range(packed: np.ndarray, start: int, n: int) -> np.ndarray:
    """Bits start..start+n-1 of a packed bit string, one per byte; only the
    bytes holding them are unpacked."""
    first = start // 8
    window = np.unpackbits(packed[first : (start + n + 7) // 8])
    return window[start - 8 * first : start - 8 * first + n]


def bits_to_int(bits: np.ndarray) -> int:
    """Interpret a bit array as a big-endian unsigned integer."""
    value = 0
    for b in np.asarray(bits, dtype=np.uint8):
        value = (value << 1) | int(b)
    return value


def words48(data: bytes) -> np.ndarray:
    """Consecutive 6-byte big-endian words of `data` (a multiple of 6 bytes)
    as a uint64 array."""
    words = np.frombuffer(data, dtype=np.uint8).reshape(-1, 6)
    raw = np.zeros((words.shape[0], 8), dtype=np.uint8)
    raw[:, 2:] = words
    return raw.view(">u8").ravel().astype(np.uint64)


def bytes48(values: np.ndarray) -> bytes:
    """Inverse of `words48`: each value below 2^48 as 6 big-endian bytes."""
    raw = np.asarray(values, dtype=">u8").reshape(-1, 1).view(np.uint8)
    return raw[:, 2:].tobytes()
