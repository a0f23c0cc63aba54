"""Random bit supply: a 256-bit entropy seed expanded by a counter-mode DRBG.

A true-entropy seed (OS entropy, or a fixed value for reproducible runs) keys
an AES-256 counter-mode generator. Independent streams for different
protocol purposes are separated by a 32-bit domain label occupying the top
bits of the 128-bit block counter, so their counter ranges can never overlap.

A domain's stream is the AES-CTR keystream started at counter block
domain * 2^96: block i encrypts the big-endian integer domain * 2^96 + i,
for every i below 2^96, the 96-bit per-domain space. A draw that would
need block 2^96 raises `CounterExhausted` instead of reaching the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

SEED_BITS = 256
_BLOCK_BYTES = 16
# Blocks available to one domain: counter bits below the 32-bit label.
_DOMAIN_SPACE = 1 << 96
# Plaintext of the keystream, encrypted a piece at a time; never written.
_ZEROS = np.zeros(1 << 16, dtype=np.uint8)


class CounterExhausted(RuntimeError):
    """The 96-bit per-domain block counter would wrap."""


@dataclass(frozen=True)
class EntropySeed:
    """256-bit DRBG seed."""

    bits: bytes

    def __post_init__(self):
        if len(self.bits) != SEED_BITS // 8:
            raise ValueError(f"seed must be {SEED_BITS} bits")

    @classmethod
    def from_hex(cls, hex256: str) -> "EntropySeed":
        raw = bytes.fromhex(hex256)
        if len(raw) != SEED_BITS // 8:
            raise ValueError("seed must be 64 hex characters (256 bits)")
        return cls(raw)

    @classmethod
    def from_int(cls, value: int) -> "EntropySeed":
        """Convenience for tests: expand a small integer to a fixed seed."""
        return cls(value.to_bytes(SEED_BITS // 8, "big"))


class RandomStream:
    """Deterministic bit stream from an AES-256-CTR expansion of a seed.

    Single-owner: a stream may be handed between threads but must not be
    drawn from concurrently. Output is a pure function of (seed, domain,
    cumulative bits drawn); drawing 64 bits twice equals drawing 128 once.

    A stream's blocks are consecutive, so it keeps one CTR encryptor and
    each draw writes the next keystream blocks into a fresh numpy buffer;
    the encryptor is rebuilt only when `_block` is not where it stopped.
    """

    def __init__(self, seed: EntropySeed, domain: int = 0):
        if not 0 <= domain < (1 << 32):
            raise ValueError("domain label must fit in 32 bits")
        self.seed = seed
        self.domain = domain
        self._block = 0  # next 128-bit block index within this domain
        self._buf = np.zeros(0, dtype=np.uint8)  # the last block drawn
        self._buf_bits = 0  # unread bits remaining in _buf (from its tail)
        self.bits_emitted = 0
        self._enc = None
        self._enc_block = -1  # the block the encryptor produces next

    # -- raw block generation -------------------------------------------------

    def _raw_blocks_into(self, out: np.ndarray):
        """Fill `out` with the next len(out) / 16 keystream blocks: AES-CTR
        from counter (domain << 96) + block, whose carries stay below the
        domain label."""
        n_blocks = out.size // _BLOCK_BYTES
        if self._block + n_blocks > _DOMAIN_SPACE:
            raise CounterExhausted(
                f"domain {self.domain} exhausted after {self._block} blocks"
            )
        if self._enc_block != self._block:
            start = (self.domain << 96) | self._block
            self._enc = Cipher(algorithms.AES(self.seed.bits),
                               modes.CTR(start.to_bytes(_BLOCK_BYTES, "big"))).encryptor()
        for a in range(0, _BLOCK_BYTES * n_blocks, _ZEROS.size):
            piece = out[a : a + _ZEROS.size]
            self._enc.update_into(_ZEROS[: piece.size], piece)
        self._block += n_blocks
        self._enc_block = self._block

    # -- public draws ----------------------------------------------------------

    def draw_bits(self, n: int) -> np.ndarray:
        """Draw n bits as a uint8 0/1 array, advancing the stream."""
        return np.unpackbits(self._draw_packed(n), count=n)

    def draw_bytes(self, n: int) -> bytes:
        """Draw n bytes. Byte draws are aligned to the bit stream."""
        return self._draw_packed(8 * n).tobytes()

    def draw_uniform(self, n: int) -> np.ndarray:
        """n floats uniform on [0, 1) with 32-bit resolution.

        Each float is the next 32 stream bits read as a big-endian word.
        Off a byte boundary, word i is source bytes 4i..4i+3 shifted left
        by the bits already drawn, joined with the head of byte 4i + 4.
        """
        src, read = self._draw_source(32 * n)
        words = src[: 4 * n].view(">u4")
        if read:
            words = words << read
            words |= src[4 : 4 * n + 4 : 4] >> (8 - read)
        out = words.astype(np.float64)
        out *= 2.0 ** -32
        return out

    def _draw_packed(self, n_bits: int) -> np.ndarray:
        """The next n_bits stream bits, packed most significant first into
        ceil(n_bits / 8) bytes of a fresh array. Bits past n_bits in the last
        byte are filler, not drawn.

        When the stream sits off a byte boundary, each output byte joins the
        tail of one source byte with the head of the next.
        """
        src, read = self._draw_source(n_bits)
        if read:
            src = (src[:-1] << read) | (src[1:] >> (8 - read))
        return src[: (n_bits + 7) // 8]

    def _draw_source(self, n_bits: int) -> tuple[np.ndarray, int]:
        """Advance the stream by n_bits; return a fresh array of source bytes
        holding them, and the bits of its first byte drawn before.

        Unread bits are the last `_buf_bits` bits of `_buf` (one AES block).
        The source ends with one zero byte, the last output byte's filler.
        """
        if n_bits < 0:
            raise ValueError("n must be >= 0")
        have = self._buf_bits
        n_blocks = -(-(n_bits - have) // 128) if n_bits > have else 0
        n_head = (have + 7) // 8
        end = n_head + _BLOCK_BYTES * n_blocks
        src = np.empty(end + 1, dtype=np.uint8)
        src[:n_head] = self._buf[self._buf.size - n_head :]
        if n_blocks:
            self._raw_blocks_into(src[n_head:end])
            self._buf = src[end - _BLOCK_BYTES : end].copy()
        src[end] = 0
        self._buf_bits = have + 128 * n_blocks - n_bits
        self.bits_emitted += n_bits
        return src, (-have) % 8


def new_stream(seed: EntropySeed) -> RandomStream:
    """Root stream at block 0 of domain 0."""
    return RandomStream(seed)
