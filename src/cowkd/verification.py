"""Post-correction key verification and exact error-rate estimation.

Each corrected 1944-bit block is checked with a 48-bit polynomial hash over
GF(2^48), keyed by a fresh random seed per block. Failed blocks are dropped;
the error estimate charges every dropped block a worst-case error rate of
one half, which is what makes comparison-based estimation conservative.

Field: GF(2)[x] / (x^48 + x^5 + x^3 + x^2 + 1). The message is padded from
1944 to 2048 bits with zeros and split into 43 limbs of 48 bits each
(little-endian byte order inside a limb, the final 32-bit remainder
zero-extended). The tag is sum(c_i * s^i, i=1..43): no constant term, so the
all-zero message hashes to zero for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SessionAborted
from .randomness import RandomStream

BLOCK_BITS = 1944
PADDED_BITS = 2048
LIMB_BITS = 48
N_LIMBS = 43  # ceil(2048 / 48)
TAG_MASK = (1 << 48) - 1
REDUCTION_TAIL = 0x2D  # x^48 == x^5 + x^3 + x^2 + 1
FIELD_POLY = (1 << 48) | REDUCTION_TAIL


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def _fold48(v: np.ndarray) -> np.ndarray:
    high = v >> np.uint64(48)
    return (v & np.uint64(TAG_MASK)) ^ high ^ (high << np.uint64(2)) \
        ^ (high << np.uint64(3)) ^ (high << np.uint64(5))


def gf48_mul_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^48) product of uint64 arrays (values < 2^48)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
    hi = np.zeros_like(lo)
    for k in range(48):
        mask = np.where((b >> np.uint64(k)) & np.uint64(1), ~np.uint64(0), np.uint64(0))
        lo ^= (a << np.uint64(k)) & mask
        if k:
            hi ^= (a >> np.uint64(64 - k)) & mask
    # degree <= 94: bits 48..63 of lo plus all of hi form the overflow part
    over = (lo >> np.uint64(48)) | (hi << np.uint64(16))
    r = (lo & np.uint64(TAG_MASK)) ^ over ^ (over << np.uint64(2)) \
        ^ (over << np.uint64(3)) ^ (over << np.uint64(5))
    r = _fold48(r)
    return _fold48(r)


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def _limb_matrix(blocks: np.ndarray) -> np.ndarray:
    """(n_blocks, 43) uint64 limb matrix for a (n_blocks, 1944) bit array."""
    n = blocks.shape[0]
    packed = np.zeros((n, PADDED_BITS // 8), dtype=np.uint8)
    packed[:, : BLOCK_BITS // 8] = np.packbits(blocks, axis=1)
    limbs = np.zeros((n, N_LIMBS), dtype=np.uint64)
    for i in range(N_LIMBS):
        chunk = packed[:, 6 * i : 6 * i + 6]
        value = np.zeros(n, dtype=np.uint64)
        for j in range(chunk.shape[1]):
            value |= chunk[:, j].astype(np.uint64) << np.uint64(8 * j)
        limbs[:, i] = value
    return limbs


def hash_blocks(blocks: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Vectorized per-block hashing: one seed per 1944-bit block row.

    Evaluates sum(c_i * s^i) as one product of the limb matrix with the
    powers s^1..s^43, which take six doubling steps; seven multiplies in all
    instead of Horner's 44 keep the fixed cost per call low.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != BLOCK_BITS:
        raise ValueError("blocks must be (n, 1944)")
    powers = np.asarray(seeds, dtype=np.uint64)[:, None]
    while powers.shape[1] < N_LIMBS:  # s^1..s^k -> s^1..s^2k, capped at 43
        k = min(powers.shape[1], N_LIMBS - powers.shape[1])
        powers = np.concatenate([powers, gf48_mul_vec(powers[:, :k], powers[:, -1:])], axis=1)
    return np.bitwise_xor.reduce(gf48_mul_vec(_limb_matrix(blocks), powers), axis=1)


# ---------------------------------------------------------------------------
# protocol records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationTag:
    """One block's tag; a window's tags travel in block order."""

    seed: int  # 48 bits
    tag: int  # 48 bits


def make_tags(blocks: np.ndarray, rng: RandomStream) -> list[VerificationTag]:
    """Hash every block under a fresh 48-bit seed drawn from `rng`.

    Block i's seed is the i-th 48 bits of one draw, read big-endian.
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    n = blocks.shape[0]
    raw = np.zeros((n, 8), dtype=np.uint8)
    raw[:, 2:] = np.frombuffer(rng.draw_bytes(6 * n), dtype=np.uint8).reshape(n, 6)
    seeds = raw.view(">u8").ravel().astype(np.uint64)
    tags = hash_blocks(blocks, seeds)
    return [VerificationTag(s, t) for s, t in zip(seeds.tolist(), tags.tolist())]


def verify_batch(blocks: np.ndarray, tags: list[VerificationTag]) -> np.ndarray:
    """Recompute tags on local blocks; True where the received tag matches."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    if blocks.shape[0] != len(tags):
        raise SessionAborted(
            f"tag count mismatch: {len(tags)} tags for {blocks.shape[0]} blocks")
    seeds = np.array([t.seed for t in tags], dtype=np.uint64)
    local = hash_blocks(blocks, seeds)
    received = np.array([t.tag for t in tags], dtype=np.uint64)
    return local == received


def eps_ver_bound(n_blocks: int = 512, n_chunks: int = N_LIMBS) -> float:
    """Union bound on an undetected mismatch across a verification batch."""
    return n_blocks * n_chunks / float(1 << 48)


# ---------------------------------------------------------------------------
# error-rate estimation by key comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchEstimate:
    n_blocks: int
    n_dropped: int
    mismatch_count: int
    qber_raw: float
    qber_effective: float


def estimate_from_counts(mismatches: int, n_passed: int, n_dropped: int) -> BatchEstimate:
    """Error rates from the mismatches counted over `n_passed` blocks.

    The effective rate charges each of the `n_dropped` blocks one half.
    """
    n_blocks = n_passed + n_dropped
    n_passed_bits = n_passed * BLOCK_BITS
    qber_raw = mismatches / n_passed_bits if n_passed_bits else 0.0
    qber_effective = ((mismatches + 0.5 * n_dropped * BLOCK_BITS) / (n_blocks * BLOCK_BITS)
                      if n_blocks else 0.0)
    return BatchEstimate(n_blocks, n_dropped, mismatches, qber_raw, qber_effective)
