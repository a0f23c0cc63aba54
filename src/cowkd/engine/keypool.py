"""Distilled-key store with exact consumption bookkeeping.

The pool splits produced key between a pad stream feeding tag encryption and
a delivery stream for external consumers. Pads are addressed by a global pad
index (pre-shared pads first, then 127-bit slices of the reserved stream in
order), so two parties replaying the same production/consumption schedule
hold bit-identical pools regardless of the order the two directions request
pads in. Delivered bytes are zeroized in place and never handed out twice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..auth import TAG_BITS, PreSharedKey
from ..bitops import bits_to_int, unpack_range
from ..errors import SessionAborted


class InsufficientKey(RuntimeError):
    """Delivery backpressure: the pool cannot cover the request."""


class PadsExhausted(SessionAborted):
    """The pad stream cannot cover a requested pad index; the session ends (exit 3)."""


class DeliveryFrozen(RuntimeError):
    """An authentication alarm blocked key delivery."""


@dataclass
class PoolLedger:
    produced: int = 0  # bits appended from privacy amplification
    consumed_auth: int = 0  # bits consumed as tag pads (pool share only)
    delivered: int = 0  # bits handed to consumers
    reserved_auth: int = 0  # bits carved for the pad stream so far

    @property
    def remaining(self) -> int:
        """Unconsumed bits still in the pool (carved-but-unused pads count)."""
        return self.produced - self.consumed_auth - self.delivered


# auth pads the pool keeps carved ahead of use
PAD_RESERVE_TARGET = 96


class _PackedBits:
    """Append-only bit string, packed into a buffer that doubles when full."""

    def __init__(self):
        self.buf = np.zeros(0, dtype=np.uint8)  # zero past the last bit
        self.size = 0  # bits

    def append(self, bits: np.ndarray):
        end = self.size + bits.size
        n_bytes = (end + 7) // 8
        if n_bytes > self.buf.size:
            grown = np.zeros(max(n_bytes, 2 * self.buf.size), dtype=np.uint8)
            grown[: self.buf.size] = self.buf
            self.buf = grown
        first, held = divmod(self.size, 8)
        if held:  # the first byte's leading bits are already held
            bits = np.concatenate([unpack_range(self.buf, 8 * first, held), bits])
        self.buf[first:n_bytes] = np.packbits(bits)
        self.size = end

    def packed(self) -> bytes:
        return self.buf[: (self.size + 7) // 8].tobytes()


class SecretKeyPool:
    def __init__(self, psk: PreSharedKey):
        self._psk_pads = list(psk.pads)
        self._pad_bits = _PackedBits()  # reserved pad stream
        self._delivery = _PackedBits()
        self._delivery_cursor = 0
        self._pads_taken: set[int] = set()
        self.frozen = False
        self.ledger = PoolLedger()

    # -- production -------------------------------------------------------

    def append(self, bits: np.ndarray):
        """Absorb one privacy-amplification output block (one bit per byte)."""
        bits = np.asarray(bits, dtype=np.uint8)
        self.ledger.produced += bits.size
        want = PAD_RESERVE_TARGET * TAG_BITS
        unused_pad_bits = self._pad_bits.size - self.ledger.consumed_auth
        need = max(0, want - unused_pad_bits)
        carve = min(need, bits.size)
        if carve:
            self._pad_bits.append(bits[:carve])
            self.ledger.reserved_auth += carve
        self._delivery.append(bits[carve:])

    # -- authentication pads ------------------------------------------------

    def take_pad(self, pad_index: int) -> int:
        """127-bit pad at a fixed global index (idempotent refusal on reuse)."""
        if pad_index in self._pads_taken:
            raise PadsExhausted(f"pad {pad_index} already taken")
        if pad_index < len(self._psk_pads):
            self._pads_taken.add(pad_index)
            return self._psk_pads[pad_index]
        slot = pad_index - len(self._psk_pads)
        start = slot * TAG_BITS
        if start + TAG_BITS > self._pad_bits.size:
            raise PadsExhausted(
                f"pad {pad_index} beyond reserved stream ({self._pad_bits.size} bits)")
        self._pads_taken.add(pad_index)
        self.ledger.consumed_auth += TAG_BITS
        return bits_to_int(unpack_range(self._pad_bits.buf, start, TAG_BITS))

    # -- delivery -----------------------------------------------------------

    @property
    def deliverable_bits(self) -> int:
        return self._delivery.size - self._delivery_cursor

    def deliver(self, n_bits: int) -> bytes:
        """Hand out fresh key bytes; zeroizes the source region."""
        if self.frozen:
            raise DeliveryFrozen("authentication alarm active")
        if n_bits % 8:
            raise ValueError("delivery granularity is bytes")
        if n_bits > self.deliverable_bits:
            raise InsufficientKey(
                f"need {n_bits} bits, pool holds {self.deliverable_bits}")
        start = self._delivery_cursor // 8
        region = self._delivery.buf[start : start + n_bits // 8]
        out = region.tobytes()
        region[:] = 0
        self._delivery_cursor += n_bits
        self.ledger.delivered += n_bits
        return out

    def freeze(self):
        self.frozen = True

    def otp_encrypt(self, message: bytes) -> bytes:
        """Demonstration one-time-pad application: XOR with fresh pool key.

        Consumes exactly len(message) bytes of key; decryption is the same
        call on the peer's pool (both pools hold identical bits).
        """
        key = self.deliver(8 * len(message))
        return bytes(m ^ k for m, k in zip(message, key))

    # -- audit ----------------------------------------------------------------

    def digest(self) -> str:
        """Fingerprint of all produced key material (order-sensitive)."""
        h = hashlib.sha256()
        h.update(self._pad_bits.packed())
        h.update(b"|")
        h.update(self._delivery.packed())
        return h.hexdigest()

    def summary(self) -> dict:
        return {
            "produced_bits": self.ledger.produced,
            "consumed_auth_bits": self.ledger.consumed_auth,
            "delivered_bits": self.ledger.delivered,
            "reserved_auth_bits": self.ledger.reserved_auth,
            "deliverable_bits": self.deliverable_bits,
            "pads_taken": len(self._pads_taken),
            "frozen": self.frozen,
        }
