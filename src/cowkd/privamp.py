"""Privacy amplification: Toeplitz hashing with compact LFSR-coded seeds.

The reconciled key (995,328 bits) is compressed by a random binary Toeplitz
matrix T, defined by a diagonal sequence d of n_in + n_out - 1 bits with
T[i][j] = d[i - j + n_in - 1]. The product T.x over GF(2) is computed as a
binary convolution; large sizes go through a float FFT whose output is
checked to be safely integral before reduction mod 2, so the result is exact
or the call fails loudly.

In LFSR mode only a feedback polynomial and initial register (n_out bits
each) travel on the wire; the diagonal is the register's output sequence,
d[t] = sum_j c_j * d[t-j] for t >= n_out. Expansion uses power-series
division over GF(2) so it costs a few convolutions instead of one Python
iteration per output bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finitekey import N_SIFT_BLOCK, quantize_compression
from .randomness import RandomStream

_DIRECT_LIMIT = 1 << 11  # below this work product, use exact integer convolve


class SeedReuseError(RuntimeError):
    """A privacy-amplification seed was offered for a second batch."""


class NumericalOverflow(RuntimeError):
    """FFT convolution output too far from integers to trust."""


# ---------------------------------------------------------------------------
# binary convolution machinery
# ---------------------------------------------------------------------------

def _fft_size(n: int) -> int:
    """Smallest size of the form 2^k or 3*2^k covering n points."""
    p2 = 1 << int(np.ceil(np.log2(n)))
    p3 = 3 << max(int(np.ceil(np.log2(n / 3))), 0)
    return min(s for s in (p2, p3) if s >= n)


def _round_checked(raw: np.ndarray) -> np.ndarray:
    rounded = np.rint(raw)
    if np.max(np.abs(raw - rounded)) > 0.25:
        raise NumericalOverflow("convolution residual too large")
    return rounded.astype(np.int64)


def _conv_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer convolution of two 0/1 arrays."""
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=np.int64)
    if min(a.size, b.size) * max(a.size, b.size) <= _DIRECT_LIMIT ** 2:
        return np.convolve(a.astype(np.int64), b.astype(np.int64))
    n = a.size + b.size - 1
    size = _fft_size(n)
    fa = np.fft.rfft(a.astype(np.float64), size)
    fb = np.fft.rfft(b.astype(np.float64), size)
    raw = np.fft.irfft(fa * fb, size)[:n]
    return _round_checked(raw)


def gf2_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polynomial product over GF(2), coefficients as 0/1 arrays."""
    return (_conv_int(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)) & 1).astype(np.uint8)


def _gf2_series_inv(f: np.ndarray, precision: int) -> np.ndarray:
    """Inverse of f (f[0] must be 1) as a power series mod x^precision."""
    if f[0] != 1:
        raise ValueError("series inverse requires a unit constant term")
    inv = np.zeros(1, dtype=np.uint8)
    inv[0] = 1
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        prod = gf2_conv(f[:k], inv)[:k]
        prod[0] ^= 1  # residual r = f*inv - 1
        if prod.any():
            corr = gf2_conv(inv, prod)[:k]
            ext = np.zeros(k, dtype=np.uint8)
            ext[: inv.size] = inv
            ext ^= corr
            inv = ext
        else:
            ext = np.zeros(k, dtype=np.uint8)
            ext[: inv.size] = inv
            inv = ext
    return inv[:precision]


# ---------------------------------------------------------------------------
# LFSR diagonal expansion
# ---------------------------------------------------------------------------

def lfsr_expand(lfsr_state: np.ndarray, feedback_poly: np.ndarray, length: int) -> np.ndarray:
    """Output sequence of a Fibonacci LFSR.

    `lfsr_state` supplies the first W output bits d[0..W); `feedback_poly`
    holds the taps c_1..c_W of the recurrence d[t] = sum_j c_j d[t-j].
    """
    state = np.asarray(lfsr_state, dtype=np.uint8)
    taps = np.asarray(feedback_poly, dtype=np.uint8)
    if state.size != taps.size:
        raise ValueError("state and feedback polynomial must have equal width")
    if not taps.any():
        raise ValueError("feedback polynomial must be nonzero")
    w = state.size
    if length <= w:
        return state[:length].copy()
    # connection polynomial f = 1 + sum c_j x^j; d = g / f with
    # g = f * d_init mod x^w fixing the initial conditions
    f = np.concatenate([[1], taps]).astype(np.uint8)
    g = gf2_conv(f, state)[:w]
    if w <= 256:
        inv = _gf2_series_inv(f, length)
        return gf2_conv(g, inv)[:length]
    return _series_divide_blocks(g, f, w, length)


def _series_divide_blocks(g: np.ndarray, f: np.ndarray, w: int, length: int) -> np.ndarray:
    """g / f mod x^length, emitted in blocks of b = size - w - 1 coefficients.

    Each block costs two fixed-size cyclic convolutions with the spectra of
    f and of its inverse (to precision b) precomputed. With the numerator r
    below x^w, r * inv up to x^b and f * block up to x^(w+b) both stay
    below x^size, so neither wraps around.
    """
    size = _fft_size(2 * w + 1)
    b = size - w - 1
    inv = _gf2_series_inv(f, b)
    spec_f = np.fft.rfft(f.astype(np.float64), size)
    spec_inv = np.fft.rfft(inv.astype(np.float64), size)
    out = np.empty(length, dtype=np.uint8)
    r = g
    pos = 0
    while pos < length:
        spec_r = np.fft.rfft(r.astype(np.float64), size)
        block = (_round_checked(np.fft.irfft(spec_r * spec_inv, size)[:b]) & 1).astype(np.uint8)
        take = min(b, length - pos)
        out[pos : pos + take] = block[:take]
        pos += take
        if pos < length:
            # f*block cancels r below x^b; the next w coefficients are the next numerator
            spec_b = np.fft.rfft(block.astype(np.float64), size)
            t = _round_checked(np.fft.irfft(spec_b * spec_f, size)[: b + w]) & 1
            r = t[b : b + w].astype(np.uint8)
    return out


def lfsr_expand_ref(lfsr_state, feedback_poly, length: int) -> np.ndarray:
    """Bit-at-a-time reference expansion (small sizes, used by tests)."""
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


# ---------------------------------------------------------------------------
# seeds and settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PASeed:
    mode: str  # "explicit_diagonal" | "lfsr"
    diagonal: np.ndarray | None = None
    lfsr_state: np.ndarray | None = None
    feedback_poly: np.ndarray | None = None

    EXPLICIT = "explicit_diagonal"
    LFSR = "lfsr"

    def expanded(self, n_in: int, n_out: int) -> np.ndarray:
        need = n_in + n_out - 1 if n_out else 0
        if self.mode == self.EXPLICIT:
            if self.diagonal is None or self.diagonal.size != need:
                raise ValueError(f"diagonal must carry {need} bits")
            return self.diagonal
        if self.mode == self.LFSR:
            if self.lfsr_state is None or self.lfsr_state.size != n_out:
                raise ValueError("lfsr state must be n_out bits")
            return lfsr_expand(self.lfsr_state, self.feedback_poly, need)
        raise ValueError(f"unknown seed mode {self.mode!r}")

    def fingerprint(self) -> bytes:
        import hashlib

        h = hashlib.sha256(self.mode.encode())
        for arr in (self.diagonal, self.lfsr_state, self.feedback_poly):
            if arr is not None:
                h.update(np.packbits(arr).tobytes())
        return h.digest()


def make_seed(rng: RandomStream, n_in: int, n_out: int, mode: str = PASeed.LFSR) -> PASeed:
    """Draw a fresh seed; LFSR feedback polynomials are uniform nonzero."""
    if mode == PASeed.EXPLICIT:
        return PASeed(mode=mode, diagonal=rng.draw_bits(max(n_in + n_out - 1, 0)))
    state = rng.draw_bits(n_out)
    poly = rng.draw_bits(n_out)
    while n_out and not poly.any():
        poly = rng.draw_bits(n_out)
    return PASeed(mode=PASeed.LFSR, lfsr_state=state, feedback_poly=poly)


@dataclass(frozen=True)
class CompressionSetting:
    """Requested output/input ratio, quantized to the 0.05 % grid."""

    ratio: float
    n_in: int = N_SIFT_BLOCK

    @property
    def quantized(self) -> float:
        return quantize_compression(self.ratio)[0]

    @property
    def n_out(self) -> int:
        if self.n_in == N_SIFT_BLOCK:
            return quantize_compression(self.ratio)[1]
        steps = quantize_compression(self.ratio)[0]
        return int(round(steps * self.n_in))


@dataclass
class DistillationBatch:
    """Verified key bits assembled from passed blocks, ready for hashing."""

    batch_id: int
    bits: np.ndarray
    blocks_attempted: int = 512
    blocks_dropped: int = 0
    n_in: int = N_SIFT_BLOCK

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.size != self.n_in:
            raise ValueError(f"batch must carry {self.n_in} bits")


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

_CHUNK = 1 << 17  # input bits folded per partial convolution


def _toeplitz_window(d: np.ndarray, x: np.ndarray, n_out: int) -> np.ndarray:
    """out[i] = sum_j d[n_in-1+i-j] x[j] mod 2, computed chunk by chunk.

    Only an n_out-wide slice of the full convolution is needed, so each
    input chunk is convolved against just the diagonal window it can reach.
    """
    n_in = x.size
    acc = np.zeros(n_out, dtype=np.int64)
    for a in range(0, n_in, _CHUNK):
        chunk = x[a : a + _CHUNK]
        ln = chunk.size
        lo = n_in - a - ln
        hi = n_in + n_out - 1 - a
        part = _conv_int(d[lo:hi], chunk)
        acc += part[ln - 1 : ln - 1 + n_out]
    return (acc & 1).astype(np.uint8)


def toeplitz_hash(input_bits: np.ndarray, seed: PASeed, n_out: int) -> np.ndarray:
    """T.x over GF(2) for the Toeplitz matrix defined by the seed diagonal."""
    x = np.asarray(input_bits, dtype=np.uint8)
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    if n_out > x.size:
        raise ValueError("cannot extract more bits than supplied")
    d = seed.expanded(x.size, n_out)
    if x.size <= 2 * _CHUNK:
        full = _conv_int(d, x)
        return (full[x.size - 1 : x.size - 1 + n_out] & 1).astype(np.uint8)
    return _toeplitz_window(d, x, n_out)


def toeplitz_hash_dense(input_bits: np.ndarray, diagonal: np.ndarray, n_out: int) -> np.ndarray:
    """Dense matrix-vector reference, O(n_in * n_out); test oracle."""
    x = np.asarray(input_bits, dtype=np.int64)
    d = np.asarray(diagonal, dtype=np.int64)
    n_in = x.size
    rows = [d[np.arange(n_in)[::-1] + i] for i in range(n_out)]
    t = np.stack(rows) if n_out else np.zeros((0, n_in), dtype=np.int64)
    return ((t @ x) & 1).astype(np.uint8)


class SeedLedger:
    """Session-scoped record refusing to hash two batches under one seed."""

    def __init__(self):
        self._seen: set[bytes] = set()

    def register(self, seed: PASeed):
        fp = seed.fingerprint()
        if fp in self._seen:
            raise SeedReuseError("privacy amplification seed already used this session")
        self._seen.add(fp)


def amplify_batch(batch: DistillationBatch, setting: CompressionSetting,
                  seed: PASeed, ledger: SeedLedger | None = None) -> np.ndarray:
    """Compress one verified batch into its secret key bits."""
    if ledger is not None:
        ledger.register(seed)
    return toeplitz_hash(batch.bits, seed, setting.n_out)
