"""Syndrome coding on 1944-bit blocks: one-way forward reconciliation.

The sender transmits H.x for each key block; the receiver runs ten
iterations of layered normalized min-sum decoding (scale 15/16, below)
steered toward the received syndrome by flipping check-node signs, which is
message-for-message equivalent to translating the problem to an error
pattern and decoding toward the zero syndrome.

Both entry points take a batch of blocks. The syndrome and the decoder
share one set of tap indices per block row (`ParityMatrix.taps`), used to
gather and scatter whole rows of column-stacked blocks. A block is frozen,
and leaves the working arrays, at the first iteration whose hard decision
meets its syndrome, so its result never depends on the blocks decoded beside
it. The session hands the decoder a whole distillation batch at once; it
works through it DECODE_SLICE blocks at a time to keep memory flat.

A layer builds its check messages on the float32 bit patterns of the check
inputs: minima and the tie count on the uint32 magnitudes, each sign as one
XOR-reduced bit. Its float operations (the subtraction, the 15/16 scaling,
the addition) are those of the float-mask formulation in `tests/oracles.py`,
in the same order, so every message equals that one's bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import BLOCK_LENGTH, Z, as_rate, parity_matrix, syndrome_length

ITERATIONS = 10  # decoder iterations per block
# Rows decoded side by side. Rows never interact, so this only bounds the
# working arrays (a few MB) and sets the vector width; results do not depend
# on it.
DECODE_SLICE = 64
_SIGN = np.uint32(1 << 31)  # float32 sign bit
_MAGNITUDE = np.uint32((1 << 31) - 1)

# Min-sum normalization: the shift-add friendly 15/16 reproduces the measured
# frame-failure operating point of the original fixed-point pipeline (about
# 3 % failures at a 1.91 % channel for rate 3/4).
MIN_SUM_SCALE = np.float32(15 / 16)


def _syndrome_cols(bits_t: np.ndarray, taps) -> np.ndarray:
    """Parity checks of column-stacked blocks: (1944, B) bits -> (checks, B)."""
    return np.concatenate([np.bitwise_xor.reduce(np.take(bits_t, t, axis=0), axis=0)
                           for t in taps])


def syndrome_batch(blocks: np.ndarray, rate) -> np.ndarray:
    """H.x over GF(2) for each row of `blocks`; shape (B, 1944*(1-rate))."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    if blocks.shape[1] != BLOCK_LENGTH:
        raise ValueError(f"blocks must be {BLOCK_LENGTH} bits wide")
    synd = _syndrome_cols(np.ascontiguousarray(blocks.T), parity_matrix(rate).taps)
    return np.ascontiguousarray(synd.T)


def decode_batch(noisy: np.ndarray, target_syndromes: np.ndarray, rate,
                 channel_p: float = 0.02) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode each row toward its target syndrome.

    Returns (bits, converged mask, iterations run). A True mask entry
    guarantees the row's syndrome equals its target exactly. A row is frozen
    at the first iteration whose hard decision meets its target, so every
    row's result equals decoding that row alone, whatever else is in the
    batch. Rows are decoded DECODE_SLICE at a time.
    """
    if not 0.0 < channel_p < 0.5:
        raise ValueError("channel_p must be in (0, 0.5)")
    rate = as_rate(rate)
    taps = parity_matrix(rate).taps
    noisy = np.atleast_2d(np.asarray(noisy, dtype=np.uint8))
    targets = np.atleast_2d(np.asarray(target_syndromes, dtype=np.uint8))
    b = noisy.shape[0]
    if noisy.shape[1] != BLOCK_LENGTH or targets.shape != (b, syndrome_length(rate)):
        raise ValueError("noisy/syndrome dimensions inconsistent")

    llr = np.float32(math.log((1.0 - channel_p) / channel_p))
    bits = noisy.copy()
    ok = np.zeros(b, dtype=bool)
    iters = 0
    for lo in range(0, b, DECODE_SLICE):
        part = slice(lo, lo + DECODE_SLICE)
        iters = max(iters, _decode_slice(bits[part], targets[part], ok[part], taps, llr))
    return bits, ok, iters


def _decode_slice(bits, targets, ok, taps, llr) -> int:
    """Layered min-sum on a few rows, in place on `bits` and `ok`.

    Column-stacked: row p of `lam` holds bit p's posterior LLR for every
    live block, so a layer gathers and scatters its taps as whole rows, and
    freezing a block drops one column. Returns the iterations run.

    Magnitudes are non-negative, so they order like their uint32 words.
    `lam` starts at +-llr, never -0.0, and q = lam - m or lam = q + m is
    -0.0 only where its first operand is, so no q is ever -0.0: its sign
    bit says q < 0.
    """
    tgt = np.ascontiguousarray(targets.T)
    ok[:] = (_syndrome_cols(np.ascontiguousarray(bits.T), taps) == tgt).all(axis=0)
    live = np.flatnonzero(~ok)
    if live.size == 0:
        return 0
    lam = np.ascontiguousarray((1 - 2 * bits[live].T.astype(np.float32)) * llr)
    tgt = tgt[:, live]
    # target bit 1 flips the check: its sign bit
    flip = tgt.reshape(len(taps), Z, -1).astype(np.uint32) << 31
    msgs = [np.zeros(t.shape + (live.size,), dtype=np.float32) for t in taps]
    for it in range(1, ITERATIONS + 1):
        for i, t in enumerate(taps):
            q = np.take(lam, t, axis=0)
            q -= msgs[i]
            qw = q.view(np.uint32)
            # magnitude: the smallest |q| of the check, except at its (unique)
            # position, which gets the second smallest; on a tie both are equal
            mag = qw & _MAGNITUDE
            min1 = mag.min(axis=0)
            at_min = (mag == min1).view(np.uint8)
            unique = np.add.reduce(at_min, axis=0, dtype=np.uint8) == 1
            at_min = at_min.astype(np.uint32)
            np.negative(at_min, out=at_min)  # all ones at each minimum
            min2 = np.bitwise_or(mag, at_min, out=mag).min(axis=0)
            small = (MIN_SUM_SCALE * min1.view(np.float32)).view(np.uint32)
            large = (MIN_SUM_SCALE * min2.view(np.float32)).view(np.uint32)
            # sign: the tap's own, times the product of all taps' signs,
            # flipped by the target bit
            sign = np.bitwise_xor.reduce(qw, axis=0)
            sign ^= flip[i]
            sign &= _SIGN
            sign |= small
            # swap in the second minimum at a unique minimum; on a tie every
            # minimum was masked, and nothing is swapped
            at_min &= (large ^ small) * unique
            at_min ^= sign
            new = np.bitwise_and(qw, _SIGN, out=mag)
            new ^= at_min
            msgs[i] = new.view(np.float32)
            q += msgs[i]
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
