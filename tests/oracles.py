"""Straightforward reference versions of vectorized kernels, for tests only.

`poly_mac_horner` is the scalar Horner evaluation of the GF(2^127 - 1)
polynomial MAC; `resolve_collisions_isin` resolves collisions with
`np.isin` membership tests; `sample_detections_ref` thins each candidate
click by its own acceptance probability, with one qubit lookup per pulse
array, and merges click sources with `np.lexsort`, labelling each click
with its source (`refsim.TRUTH_*`); `lfsr_expand_ref` steps
the LFSR one bit at a time, `toeplitz_hash_dense` multiplies by the dense
Toeplitz matrix and `toeplitz_hash_explicit` folds an explicit diagonal's
product chunk by chunk (the PA hash is x[:w] XOR either's product with
x[w:]);
`parity_dense` expands the LDPC parity-check matrix, and `decode_slice_ref`
builds each min-sum check message from float masks and `np.copysign`;
`aes_ctr_bits` computes a stream's bits straight from AES-256 of its
counters and `uniform_from_bits` reads them as uniform floats; `qubit_at`
evaluates one prepared qubit from one AES block;
`encode_bit_columns` / `decode_bit_columns` serialize sifting blocks one
bit column at a time;
`gf48_mul` / `poly_hash48` evaluate the verification hash one limb at a time,
and `make_tags_per_block` draws one tag seed per block.
They define what `cowkd.auth.poly_mac`, `cowkd.sifting.resolve_collisions`,
`cowkd.cowsim.sample_detections`,
`cowkd.privamp.lfsr_expand` / `toeplitz_hash`, `cowkd.ldpc.syndrome_batch`,
`cowkd.ldpc.codec._decode_slice`,
`cowkd.randomness.RandomStream` draws, `cowkd.cowsim.QubitSource.at`,
`cowkd.sifting.encode` / `decode` and
`cowkd.verification.gf48_mul_vec` / `hash_blocks` / `make_tags` must return,
bit for bit.
`sift_pair` runs both sides of one disclosure round trip, and
`estimate_qber` counts errors from the bits themselves, as
`cowkd.verification.estimate_from_counts` does from the counts.
`SecretKeyPoolRef` keeps the key pool's two streams one bit per byte and
concatenates them on every append; `cowkd.engine.keypool.SecretKeyPool`,
which holds them packed, must hand out the same pads and bytes and keep the
same ledger, summary and digest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cowkd.auth import LIMB_BITS, TAG_BITS, UNIT_BITS, PreSharedKey, mod_p
from cowkd.bitops import bits_to_int, pack_bits, unpack_bits
from cowkd.cowsim import BASIS_DECOY, ChannelParams
from cowkd.cowsim.channel import deadtime_mask
from cowkd.engine.keypool import (
    PAD_RESERVE_TARGET,
    DeliveryFrozen,
    InsufficientKey,
    PadsExhausted,
    PoolLedger,
)
from cowkd.errors import SessionAborted
from cowkd.ldpc import BLOCK_LENGTH, Z, ParityMatrix
from cowkd.ldpc.codec import ITERATIONS, MIN_SUM_SCALE, _syndrome_cols
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
    decode,
    decode_and_sift,
    encode,
)
from cowkd.verification import (
    N_LIMBS,
    PADDED_BITS,
    TAG_MASK,
    BatchEstimate,
    estimate_from_counts,
    hash_blocks,
)
from refsim import TRUTH_DARK, TRUTH_NOISE, TRUTH_SIGNAL, DetectionArrays


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
    dg = data.gate

    keep_mon = ~np.isin(monitor.gate, dg)
    mg = monitor.gate[keep_mon]
    mdest = monitor.destructive[keep_mon]
    keep2 = _first_per_qubit(mg)
    mg, mdest = mg[keep2], mdest[keep2]

    dq = dg >> 1
    first = _first_per_qubit(dg)
    dup = ~first
    bits = ((dg & 1) ^ 1).astype(np.uint8)
    if dup.any():
        coin = rng.draw_bits(int(dup.sum()))
        bits[np.flatnonzero(dup) - 1] = coin
    dq_k = dq[first]
    dbits = bits[first]

    mq = mg >> 1
    mon_keep = ~np.isin(mq, dq_k)
    mq, mdest = mq[mon_keep], mdest[mon_keep]

    q = np.concatenate([dq_k, mq])
    ctrl = np.concatenate([
        np.full(dq_k.size, CONTROL_DATA, dtype=np.uint8),
        np.where(mdest, CONTROL_MON_DEST, CONTROL_MON_OTHER).astype(np.uint8),
    ])
    bob_bit = np.concatenate([dbits, np.zeros(mq.size, dtype=np.uint8)])
    order = np.argsort(q, kind="stable")
    return ResolvedEvents(q[order], ctrl[order], bob_bit[order])


def _geometric_hits_ref(rng: RandomStream, n_slots: int, p: float) -> np.ndarray:
    """Sorted slot indices of Bernoulli(p) hits over n_slots, gap-sampled."""
    if p <= 0.0 or n_slots <= 0:
        return np.zeros(0, dtype=np.int64)
    out = []
    pos = -1
    log_q = math.log1p(-p)
    while pos < n_slots:
        draw = max(int((n_slots - pos) * p * 1.1) + 64, 256)
        u = rng.draw_uniform(draw)
        gaps = np.floor(np.log(np.maximum(u, 1e-300)) / log_q).astype(np.int64)
        hits = pos + np.cumsum(gaps + 1)
        out.append(hits)
        pos = int(hits[-1])
    hits = np.concatenate(out)
    return hits[hits < n_slots]


def _monitor_port_means_ref(params: ChannelParams, m_prev: np.ndarray, m_here: np.ndarray,
                            interferes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m1 = m_prev / 2.0
    m2 = m_here / 2.0
    cross = 2.0 * np.sqrt(m1 * m2) * params.visibility_if
    base = m1 + m2
    dest = np.where(interferes, (base - cross) / 2.0, base / 2.0)
    bright = np.where(interferes, (base + cross) / 2.0, base / 2.0)
    return dest, bright


def sample_detections_ref(params: ChannelParams, source, n_qubits: int,
                          rng: RandomStream) -> tuple[DetectionArrays, DetectionArrays]:
    """Per-click thinning: each candidate's acceptance probability evaluated
    from its own pulse means, with one `source.at` call per pulse array."""
    n_gates = 2 * n_qubits
    t_eta_data = params.t_data_line * params.eta_det_data

    q_max = 1.0 - math.exp(-params.mu * t_eta_data)
    cand = _geometric_hits_ref(rng, n_gates, q_max)
    basis, bit = source.at(cand >> 1)
    is_early = (cand & 1) == 0
    full = np.where(is_early, bit == 1, bit == 0)
    mean = np.where(basis == BASIS_DECOY, params.mu,
                    np.where(full, params.mu_full, params.mu_leak))
    p_true = 1.0 - np.exp(-mean * t_eta_data)
    acc = rng.draw_uniform(cand.size) < (p_true / q_max)
    sig_gates = cand[acc]

    dark_gates = _geometric_hits_ref(rng, n_gates, params.p_dark_data)
    noise_gates = _geometric_hits_ref(rng, n_gates, params.p_dwdm_noise)
    data = _merge_truth_ref(sig_gates, dark_gates, noise_gates)

    t_eta_mon = params.t_monitor_line * params.eta_det_mon
    q_max_mon = 1.0 - math.exp(-params.mu * t_eta_mon)
    mon_streams = []
    for destructive in (True, False):
        cand = _geometric_hits_ref(rng, n_gates, q_max_mon)
        dest_mean, bright_mean = _slot_means_at_ref(params, source, cand, t_eta_mon)
        port_mean = dest_mean if destructive else bright_mean
        p_true = 1.0 - np.exp(-port_mean)
        acc = rng.draw_uniform(cand.size) < (p_true / q_max_mon)
        sig = cand[acc]
        dark = _geometric_hits_ref(rng, n_gates, params.p_dark_mon)
        noise = _geometric_hits_ref(rng, n_gates, params.p_noise_mon_port)
        merged = _merge_truth_ref(sig, dark, noise)
        live = deadtime_mask(merged.gate, params.deadtime_mon_gates)
        mon_streams.append((merged.gate[live], merged.truth[live], destructive))

    mg = np.concatenate([g for g, _, _ in mon_streams])
    mt = np.concatenate([t for _, t, _ in mon_streams])
    md = np.concatenate([np.full(g.size, d, dtype=bool) for g, _, d in mon_streams])
    order = np.argsort(mg, kind="stable")
    return data, DetectionArrays(mg[order], mt[order], md[order])


def _slot_means_at_ref(params: ChannelParams, source, slots: np.ndarray,
                       t_eta_mon: float) -> tuple[np.ndarray, np.ndarray]:
    """Monitor port means at specific gate slots, evaluated lazily."""

    def pulse(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        valid = gates >= 0
        q = np.where(valid, gates >> 1, 0)
        basis, bit = source.at(q)
        is_early = (gates & 1) == 0
        full = np.where(is_early, bit == 1, bit == 0)
        decoy = basis == BASIS_DECOY
        mean = np.where(decoy, params.mu, np.where(full, params.mu_full, params.mu_leak))
        nominal = decoy | full
        mean = np.where(valid, mean, 0.0)
        nominal &= valid
        return mean * t_eta_mon, nominal

    m_here, nom_here = pulse(slots)
    m_prev, nom_prev = pulse(slots - 1)
    return _monitor_port_means_ref(params, m_prev, m_here, nom_prev & nom_here)


def _merge_truth_ref(sig: np.ndarray, dark: np.ndarray, noise: np.ndarray) -> DetectionArrays:
    """Union of click sources at distinct gates, signal taking precedence."""
    gates = np.concatenate([sig, dark, noise])
    truth = np.concatenate([
        np.full(sig.size, TRUTH_SIGNAL, dtype=np.uint8),
        np.full(dark.size, TRUTH_DARK, dtype=np.uint8),
        np.full(noise.size, TRUTH_NOISE, dtype=np.uint8),
    ])
    order = np.lexsort((truth, gates))
    gates, truth = gates[order], truth[order]
    first = np.ones(gates.size, dtype=bool)
    first[1:] = gates[1:] != gates[:-1]
    return DetectionArrays(gates[first], truth[first])


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


# Added to a check's minimum position to find its second minimum; far above
# any message magnitude.
_MASKED = np.float32(1e30)


def decode_slice_ref(bits, targets, ok, taps, llr) -> int:
    """Layered min-sum on a few rows, in place on `bits` and `ok`, with
    float masks, `np.copysign` and a ±1 multiply for the check messages.

    Column-stacked: row p of `lam` holds bit p's posterior LLR for every
    live block, so a layer gathers and scatters its taps as whole rows, and
    freezing a block drops one column. Returns the iterations run.
    """
    tgt = np.ascontiguousarray(targets.T)
    ok[:] = (_syndrome_cols(np.ascontiguousarray(bits.T), taps) == tgt).all(axis=0)
    live = np.flatnonzero(~ok)
    if live.size == 0:
        return 0
    lam = np.ascontiguousarray((1 - 2 * bits[live].T.astype(np.float32)) * llr)
    tgt = tgt[:, live]
    flip = tgt.reshape(len(taps), Z, -1).astype(bool)  # target bit 1 flips the check
    msgs = [np.zeros(t.shape + (live.size,), dtype=np.float32) for t in taps]
    for it in range(1, ITERATIONS + 1):
        for i, t in enumerate(taps):
            q = np.take(lam, t, axis=0)
            q -= msgs[i]
            # the kernel reads a message's sign from its sign bit: no q is -0.0
            assert not np.signbit(q[q == 0]).any()
            # magnitude: the smallest |q| of the check, except at its (unique)
            # position, which gets the second smallest; on a tie both are equal
            mag = np.abs(q)
            min1 = mag.min(axis=0)
            at_min = mag == min1
            at_min &= np.add.reduce(at_min.view(np.uint8), axis=0) == 1
            at = at_min.astype(np.float32)
            min2 = (mag + at * _MASKED).min(axis=0)
            new = np.maximum(at * (MIN_SUM_SCALE * min2), MIN_SUM_SCALE * min1)
            # sign: product of the other taps' signs, flipped by the target bit
            odd = np.logical_xor.reduce(q < 0, axis=0) ^ flip[i]
            new = np.copysign(new, q)
            new *= 1 - 2 * odd.astype(np.float32)
            msgs[i] = new
            q += new
            lam[t] = q
        hard = (lam < 0).view(np.uint8)
        done = (_syndrome_cols(hard, taps) == tgt).all(axis=0)
        if done.any():
            bits[live[done]] = hard[:, done].T
            ok[live[done]] = True
            keep = ~done
            live, lam, tgt, flip = live[keep], lam[:, keep], tgt[:, keep], flip[..., keep]
            msgs = [m[..., keep] for m in msgs]
            if live.size == 0:
                return it
    bits[live] = (lam < 0).T
    return ITERATIONS


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


def make_tags_per_block(blocks: np.ndarray, rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """(seeds, tags) with one 48-bit seed draw per block, in block order."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    seeds = np.array([bits_to_int(rng.draw_bits(48)) for _ in range(blocks.shape[0])],
                     dtype=np.uint64)
    return seeds, hash_blocks(blocks, seeds)


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
    view = decode_and_sift(alice, payload, mode, n_blocks, len(alice))
    data = events.data_mask()
    bob_bits = events.bob_bit[data][view.keep_mask]
    qubits, control = decode(payload, mode, n_blocks)
    mon = control != CONTROL_DATA
    return SiftResult(
        alice_key_bits=view.alice_key_bits,
        bob_key_bits=bob_bits.astype(np.uint8),
        monitor_disclosures=list(zip(qubits[mon].tolist(),
                                     (control[mon] == CONTROL_MON_DEST).tolist())),
        raw_count=view.raw_count,
        sifted_count=view.sifted_count,
    )


class SecretKeyPoolRef:
    """The key pool with both streams one bit per byte, grown by
    concatenation (`cowkd.engine.keypool.SecretKeyPool`'s reference)."""

    def __init__(self, psk: PreSharedKey):
        self._psk_pads = list(psk.pads)
        self._pad_bits = np.zeros(0, dtype=np.uint8)  # reserved pad stream
        self._delivery = np.zeros(0, dtype=np.uint8)
        self._delivery_cursor = 0
        self._pads_taken: set[int] = set()
        self.frozen = False
        self.ledger = PoolLedger()

    def append(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        self.ledger.produced += bits.size
        want = PAD_RESERVE_TARGET * TAG_BITS
        unused_pad_bits = self._pad_bits.size - self.ledger.consumed_auth
        need = max(0, want - unused_pad_bits)
        carve = min(need, bits.size)
        if carve:
            self._pad_bits = np.concatenate([self._pad_bits, bits[:carve]])
            self.ledger.reserved_auth += carve
        self._delivery = np.concatenate([self._delivery, bits[carve:]])

    def take_pad(self, pad_index: int) -> int:
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
        return bits_to_int(self._pad_bits[start : start + TAG_BITS])

    @property
    def deliverable_bits(self) -> int:
        return self._delivery.size - self._delivery_cursor

    def deliver(self, n_bits: int) -> bytes:
        if self.frozen:
            raise DeliveryFrozen("authentication alarm active")
        if n_bits % 8:
            raise ValueError("delivery granularity is bytes")
        if n_bits > self.deliverable_bits:
            raise InsufficientKey(
                f"need {n_bits} bits, pool holds {self.deliverable_bits}")
        start = self._delivery_cursor
        chunk = self._delivery[start : start + n_bits]
        out = np.packbits(chunk).tobytes()
        self._delivery[start : start + n_bits] = 0
        self._delivery_cursor += n_bits
        self.ledger.delivered += n_bits
        return out

    def freeze(self):
        self.frozen = True

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.packbits(self._pad_bits).tobytes())
        h.update(b"|")
        h.update(np.packbits(self._delivery).tobytes())
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
