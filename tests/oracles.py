"""Straightforward reference versions of vectorized kernels, for tests only.

`poly_mac_horner` is the scalar Horner evaluation of the GF(2^127 - 1)
polynomial MAC; `resolve_collisions_isin` resolves collisions with
`np.isin` membership tests; `lfsr_expand_ref` steps the LFSR one bit at a
time and `toeplitz_hash_dense` multiplies by the dense Toeplitz matrix;
`draw_uniform_bits` builds uniform floats from the stream's bits;
`gf48_mul` / `poly_hash48` evaluate the verification hash one limb at a time,
and `make_tags_per_block` draws one tag seed per block.
They define what `cowkd.auth.poly_mac`, `cowkd.sifting.resolve_collisions`,
`cowkd.privamp.lfsr_expand` / `toeplitz_hash`,
`cowkd.randomness.RandomStream.draw_uniform` and
`cowkd.verification.gf48_mul_vec` / `hash_blocks` / `make_tags` must return,
bit for bit.
`sift_pair` runs both sides of one disclosure round trip, and
`estimate_qber` counts errors from the bits themselves, as
`cowkd.verification.estimate_from_counts` does from the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cowkd.auth import LIMB_BITS, UNIT_BITS, mod_p
from cowkd.bitops import pack_bits
from cowkd.cowsim.channel import DetectionArrays, deadtime_mask
from cowkd.errors import SessionAborted
from cowkd.randomness import RandomStream
from cowkd.sifting import (
    CONTROL_DATA,
    CONTROL_MON_DEST,
    CONTROL_MON_OTHER,
    ResolvedEvents,
    SiftingMode,
    _first_per_qubit,
    decode_and_sift,
    encode,
)
from cowkd.verification import (
    N_LIMBS,
    PADDED_BITS,
    TAG_MASK,
    BatchEstimate,
    VerificationTag,
    estimate_from_counts,
    hash_blocks,
)


def limbs(message: bytes) -> list[int]:
    """Length limb followed by the 126-bit message limbs."""
    out = [8 * len(message)]
    if not message:
        return out
    bits = np.unpackbits(np.frombuffer(message, dtype=np.uint8))
    pad = (-bits.size) % LIMB_BITS
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    rows = bits.reshape(-1, LIMB_BITS)
    # left-pad each limb to 128 bits so packbits yields its big-endian bytes
    padded = np.concatenate([np.zeros((rows.shape[0], 2), dtype=np.uint8), rows], axis=1)
    packed = np.packbits(padded, axis=1)
    out.extend(int.from_bytes(row.tobytes(), "big") for row in packed)
    return out


def poly_mac_horner(message: bytes, poly_key: int) -> int:
    """Unencrypted polynomial hash of a message unit, one limb at a time."""
    if 8 * len(message) > UNIT_BITS:
        raise ValueError(f"message unit exceeds {UNIT_BITS} bits")
    acc = 0
    for limb in limbs(message):
        acc = mod_p(acc * poly_key + limb)
    return acc


def resolve_collisions_isin(data: DetectionArrays, monitor: DetectionArrays,
                            deadtime_gates: int, rng: RandomStream) -> ResolvedEvents:
    """Collision resolution with hash-based `np.isin` membership tests."""
    if np.any(np.diff(data.gate) < 0) or np.any(np.diff(monitor.gate) < 0):
        raise SessionAborted("detection streams must be gate-sorted")
    dkeep = deadtime_mask(data.gate, deadtime_gates)
    dg, dt = data.gate[dkeep], data.truth[dkeep]
    raw_count = dg.size

    keep_mon = ~np.isin(monitor.gate, dg)
    live = np.flatnonzero(keep_mon)
    keep_mon[live] = deadtime_mask(monitor.gate[live], deadtime_gates)
    mg = monitor.gate[keep_mon]
    mt = monitor.truth[keep_mon]
    mdest = monitor.destructive[keep_mon]
    keep2 = _first_per_qubit(mg)
    mg, mt, mdest = mg[keep2], mt[keep2], mdest[keep2]

    dq = dg >> 1
    first = _first_per_qubit(dg)
    dup = ~first
    bits = ((dg & 1) ^ 1).astype(np.uint8)
    if dup.any():
        coin = rng.draw_bits(int(dup.sum()))
        bits[np.flatnonzero(dup) - 1] = coin
    dq_k = dq[first]
    dbits = bits[first]
    dtruth = dt[first]

    mq = mg >> 1
    mon_keep = ~np.isin(mq, dq_k)
    mq, mt, mdest = mq[mon_keep], mt[mon_keep], mdest[mon_keep]

    q = np.concatenate([dq_k, mq])
    ctrl = np.concatenate([
        np.full(dq_k.size, CONTROL_DATA, dtype=np.uint8),
        np.where(mdest, CONTROL_MON_DEST, CONTROL_MON_OTHER).astype(np.uint8),
    ])
    bob_bit = np.concatenate([dbits, np.zeros(mq.size, dtype=np.uint8)])
    truth = np.concatenate([dtruth, mt])
    order = np.argsort(q, kind="stable")
    return ResolvedEvents(q[order], ctrl[order], bob_bit[order], truth[order],
                          raw_count=raw_count)


def lfsr_expand_ref(lfsr_state, feedback_poly, length: int) -> np.ndarray:
    """Bit-at-a-time LFSR expansion."""
    state = list(np.asarray(lfsr_state, dtype=np.uint8))
    taps = np.asarray(feedback_poly, dtype=np.uint8)
    if not taps.any():
        raise ValueError("feedback polynomial must be nonzero")
    w = len(state)
    out = list(state)
    while len(out) < length:
        t = len(out)
        bit = 0
        for j in range(1, w + 1):
            if taps[j - 1]:
                bit ^= out[t - j]
        out.append(bit)
    return np.array(out[:length], dtype=np.uint8)


def toeplitz_hash_dense(input_bits: np.ndarray, diagonal: np.ndarray, n_out: int) -> np.ndarray:
    """Dense matrix-vector product, O(n_in * n_out)."""
    x = np.asarray(input_bits, dtype=np.int64)
    d = np.asarray(diagonal, dtype=np.int64)
    n_in = x.size
    rows = [d[np.arange(n_in)[::-1] + i] for i in range(n_out)]
    t = np.stack(rows) if n_out else np.zeros((0, n_in), dtype=np.int64)
    return ((t @ x) & 1).astype(np.uint8)


def draw_uniform_bits(rng: RandomStream, n: int) -> np.ndarray:
    """n floats uniform on [0, 1): 32 stream bits per float, big-endian."""
    raw = rng.draw_bits(32 * n)
    words = np.packbits(raw).view(">u4").astype(np.uint64)
    return words.astype(np.float64) / float(1 << 32)


def gf48_mul(a: int, b: int) -> int:
    """Scalar product in GF(2^48); reference path for the vector core."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    while r >> 48:
        high = r >> 48
        r = (r & TAG_MASK) ^ high ^ (high << 2) ^ (high << 3) ^ (high << 5)
    return r


def _limbs_from_bits(bits: np.ndarray) -> list[int]:
    if bits.size != PADDED_BITS:
        raise ValueError(f"message must be {PADDED_BITS} bits, got {bits.size}")
    data = pack_bits(bits)
    limbs = []
    for i in range(N_LIMBS):
        chunk = data[6 * i : 6 * i + 6]
        limbs.append(int.from_bytes(chunk, "little"))
    return limbs


def poly_hash48(message_bits: np.ndarray, seed: int) -> int:
    """48-bit polynomial hash of a 2048-bit message at evaluation point `seed`."""
    limbs = _limbs_from_bits(np.asarray(message_bits, dtype=np.uint8))
    acc = 0
    for c in reversed(limbs):
        acc = gf48_mul(acc, seed) ^ c
    return gf48_mul(acc, seed)


def make_tags_per_block(blocks: np.ndarray, rng: RandomStream) -> list[VerificationTag]:
    """Verification tags with one 48-bit `draw_int` per block, in block order."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    seeds = np.array([rng.draw_int(48) for _ in range(blocks.shape[0])], dtype=np.uint64)
    tags = hash_blocks(blocks, seeds)
    return [VerificationTag(int(s), int(t)) for s, t in zip(seeds, tags)]


def estimate_qber(alice_original: np.ndarray, alice_corrected: np.ndarray,
                  drop_flags: np.ndarray) -> BatchEstimate:
    """Exact error counting over passed blocks, worst-casing dropped ones.

    `alice_original` holds the bits Alice prepared, `alice_corrected` the
    blocks after syndrome decoding toward the received key; both are
    (n_blocks, 1944). Dropped blocks enter the effective rate at 1/2.
    """
    orig = np.atleast_2d(np.asarray(alice_original, dtype=np.uint8))
    corr = np.atleast_2d(np.asarray(alice_corrected, dtype=np.uint8))
    passed = np.asarray(drop_flags, dtype=bool)
    if orig.shape != corr.shape or orig.shape[0] != passed.size:
        raise ValueError("misaligned estimation inputs")
    n_passed = int(passed.sum())
    return estimate_from_counts(int((orig[passed] ^ corr[passed]).sum()), n_passed,
                                passed.size - n_passed)


@dataclass
class SiftResult:
    """Both parties' aligned view of one sifted chunk."""

    alice_key_bits: np.ndarray
    bob_key_bits: np.ndarray
    monitor_disclosures: list
    raw_count: int
    sifted_count: int


def sift_pair(alice, events: ResolvedEvents, mode: SiftingMode) -> SiftResult:
    """Run the full disclosure round trip for one chunk, both sides."""
    payload, n_blocks = encode(events, mode)
    view = decode_and_sift(alice, payload, mode, n_blocks)
    data = events.data_mask()
    bob_bits = events.bob_bit[data][view.keep_mask]
    return SiftResult(
        alice_key_bits=view.alice_key_bits,
        bob_key_bits=bob_bits.astype(np.uint8),
        monitor_disclosures=list(zip(view.monitor_qubits.tolist(),
                                     view.monitor_destructive.tolist())),
        raw_count=view.raw_count,
        sifted_count=view.sifted_count,
    )
