"""Straightforward reference versions of vectorized kernels, for tests only.

`poly_mac_horner` is the scalar Horner evaluation of the GF(2^127 - 1)
polynomial MAC; `resolve_collisions_isin` resolves collisions with
`np.isin` membership tests; `lfsr_expand_ref` steps the LFSR one bit at a
time, `toeplitz_hash_dense` multiplies by the dense Toeplitz matrix and
`toeplitz_hash_explicit` folds an explicit diagonal's product chunk by chunk;
`parity_dense` expands the LDPC parity-check matrix;
`aes_ctr_bits` computes a stream's bits straight from AES-256 of its
counters and `uniform_from_bits` reads them as uniform floats; `qubit_at`
evaluates one prepared qubit from one AES block;
`encode_bit_columns` / `decode_bit_columns` serialize sifting blocks one
bit column at a time;
`gf48_mul` / `poly_hash48` evaluate the verification hash one limb at a time,
and `make_tags_per_block` draws one tag seed per block.
They define what `cowkd.auth.poly_mac`, `cowkd.sifting.resolve_collisions`,
`cowkd.privamp.lfsr_expand` / `toeplitz_hash`, `cowkd.ldpc.syndrome_batch`,
`cowkd.randomness.RandomStream` draws, `cowkd.cowsim.QubitSource.at`,
`cowkd.sifting.encode` / `decode` and
`cowkd.verification.gf48_mul_vec` / `hash_blocks` / `make_tags` must return,
bit for bit.
`sift_pair` runs both sides of one disclosure round trip, and
`estimate_qber` counts errors from the bits themselves, as
`cowkd.verification.estimate_from_counts` does from the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cowkd.auth import LIMB_BITS, UNIT_BITS, mod_p
from cowkd.bitops import bits_to_int, pack_bits, unpack_bits
from cowkd.cowsim.channel import DetectionArrays
from cowkd.errors import SessionAborted
from cowkd.ldpc import BLOCK_LENGTH, Z, ParityMatrix
from cowkd.privamp import _toeplitz_product
from cowkd.randomness import EntropySeed, RandomStream
from cowkd.sifting import (
    CONTROL_DATA,
    CONTROL_EMPTY,
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
                            rng: RandomStream) -> ResolvedEvents:
    """Collision resolution with hash-based `np.isin` membership tests."""
    if np.any(np.diff(data.gate) < 0) or np.any(np.diff(monitor.gate) < 0):
        raise SessionAborted("detection streams must be gate-sorted")
    dg, dt = data.gate, data.truth

    keep_mon = ~np.isin(monitor.gate, dg)
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
    return ResolvedEvents(q[order], ctrl[order], bob_bit[order], truth[order])


def lfsr_expand_ref(lfsr_state, feedback_poly, length: int) -> np.ndarray:
    """Bit-at-a-time LFSR expansion: d[t] = sum_j c_j d[t-j] mod 2."""
    state = np.asarray(lfsr_state, dtype=np.int64)
    taps = np.asarray(feedback_poly, dtype=np.int64)
    if not taps.any():
        raise ValueError("feedback polynomial must be nonzero")
    w = state.size
    out = np.zeros(max(length, w), dtype=np.int64)
    out[:w] = state
    window_taps = taps[::-1]  # c_w .. c_1, against d[t-w] .. d[t-1]
    for t in range(w, length):
        out[t] = (out[t - w : t] @ window_taps) & 1
    return out[:length].astype(np.uint8)


def toeplitz_hash_dense(input_bits: np.ndarray, diagonal: np.ndarray, n_out: int) -> np.ndarray:
    """Dense matrix-vector product, O(n_in * n_out); the matrix is a strided
    view of the diagonal, T[i][j] = d[n_in-1+i-j], so it is never copied."""
    x = np.asarray(input_bits, dtype=np.int64)
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    d = np.asarray(diagonal, dtype=np.int64)
    t = np.lib.stride_tricks.sliding_window_view(d, x.size)[:n_out, ::-1]
    return ((t @ x) & 1).astype(np.uint8)


_CHUNK = 1 << 17  # input bits folded per partial product


def toeplitz_hash_explicit(x: np.ndarray, d: np.ndarray, n_out: int) -> np.ndarray:
    """T.x for an explicit diagonal d of n_in + n_out - 1 bits, folded in
    chunks of the input: each chunk is multiplied against just the diagonal
    window it can reach, so the FFT size follows the chunk, not n_in."""
    n_in = x.size
    acc = np.zeros(n_out, dtype=np.int64)
    for a in range(0, n_in, _CHUNK):
        chunk = x[a : a + _CHUNK]
        lo = n_in - a - chunk.size
        acc += _toeplitz_product(d[lo : n_in + n_out - 1 - a], chunk, n_out)
    return (acc & 1).astype(np.uint8)


def parity_dense(pm: ParityMatrix) -> np.ndarray:
    """Fully expanded (checks, 1944) uint8 parity-check matrix."""
    h = np.zeros((pm.prototype.shape[0] * Z, BLOCK_LENGTH), dtype=np.uint8)
    rows = np.arange(Z)
    for i, j in zip(*np.nonzero(pm.prototype >= 0)):
        h[i * Z + rows, j * Z + (rows + pm.prototype[i, j]) % Z] = 1
    return h


def aes_ctr_bits(seed: EntropySeed, domain: int, n_bits: int, start: int = 0) -> np.ndarray:
    """n_bits of a domain's stream from block `start` on: AES-256-ECB of the
    big-endian 128-bit counters (domain << 96) + start, start + 1, ...,
    unpacked MSB first."""
    counters = b"".join(((domain << 96) + start + i).to_bytes(16, "big")
                        for i in range(-(-n_bits // 128)))
    enc = Cipher(algorithms.AES(seed.bits), modes.ECB()).encryptor()
    raw = enc.update(counters) + enc.finalize()
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits]


def qubit_at(key: bytes, p_decoy: float, index: int) -> tuple[int, int]:
    """(basis, bit) of one prepared qubit: one AES-256-ECB block of the
    big-endian 128-bit counter `index`. Bytes 0-3, read big-endian, below
    p_decoy * 2^32 make a decoy; the bit is byte 4's low bit."""
    block = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(index.to_bytes(16, "big"))
    basis = int(int.from_bytes(block[:4], "big") < int(p_decoy * 2 ** 32))
    return basis, block[4] & 1


def encode_bit_columns(events: ResolvedEvents, mode: SiftingMode) -> tuple[bytes, int]:
    """Sifting blocks as w delta bit columns plus two control bit columns,
    stacked per block and packed MSB first; returns (payload, n_blocks)."""
    q = events.qubit
    if q.size == 0:
        return b"", 0
    m = mode.overflow_marker
    base = np.concatenate([[0], q[:-1] + 1])
    delta = q - base
    if np.any(delta < 0):
        raise SessionAborted("events out of order")
    over = delta // m
    resid = delta - over * m
    n_blocks = int(q.size + over.sum())

    values = np.full(n_blocks, m, dtype=np.uint16)
    control = np.zeros(n_blocks, dtype=np.uint8)
    pos = np.cumsum(over + 1) - 1
    values[pos] = resid.astype(np.uint16)
    control[pos] = events.control

    w = mode.time_field_bits
    cols = [((values >> (w - 1 - i)) & 1).astype(np.uint8) for i in range(w)]
    cols.append((control >> 1) & 1)
    cols.append(control & 1)
    bits = np.stack(cols, axis=1).reshape(-1)
    return np.packbits(bits).tobytes(), n_blocks


def decode_bit_columns(payload: bytes, mode: SiftingMode,
                       n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `encode_bit_columns`: (qubit indices, control codes)."""
    bb = mode.block_bits
    rows = unpack_bits(payload, n_blocks * bb).reshape(n_blocks, bb)
    w = mode.time_field_bits
    weights = (1 << np.arange(w - 1, -1, -1)).astype(np.int64)
    values = rows[:, :w].astype(np.int64) @ weights
    control = (rows[:, w] << 1) | rows[:, w + 1]

    m = mode.overflow_marker
    is_empty = control == CONTROL_EMPTY
    if np.any(values[is_empty] != m):
        raise SessionAborted("empty block with non-maximal time delta")
    if np.any(values[~is_empty] > mode.max_delta):
        raise SessionAborted("reserved overflow marker on a detection block")
    advance = np.where(is_empty, m, values + 1)
    ends = np.cumsum(advance)
    qubits = ends - 1
    return qubits[~is_empty], control[~is_empty].astype(np.uint8)


def uniform_from_bits(bits: np.ndarray) -> np.ndarray:
    """Floats on [0, 1): each 32 bits read as a big-endian word over 2^32."""
    words = np.packbits(bits).view(">u4")
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
    """Verification tags with one 48-bit seed draw per block, in block order."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    seeds = np.array([bits_to_int(rng.draw_bits(48)) for _ in range(blocks.shape[0])],
                     dtype=np.uint64)
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
