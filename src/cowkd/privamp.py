"""Privacy amplification: Toeplitz hashing with compact LFSR-coded seeds.

The reconciled key x (995,328 bits) is compressed by a random binary
Toeplitz matrix T, defined by a diagonal sequence d of n_in + n_out - 1 bits
with T[i][j] = d[i - j + n_in - 1]. The product T.x over GF(2) is a slice of
the binary convolution d*x, taken from one cyclic float FFT product of
n_in + n_out - 1 points whose output is checked to be safely integral before
reduction mod 2, so the result is exact or the call fails loudly.

Only a feedback polynomial and initial register (w = n_out bits each) travel
on the wire; the diagonal is the register's output sequence,
d[t] = sum_j c_j * d[t-j] for t >= w. Every shift of the characteristic
polynomial chi(z) = z^w + sum_j c_j z^(w-j) therefore maps d to zero, so
with P(z) = sum_j x_j z^(n_in-1-j),

    out[i] = sum_j x_j d[n_in-1-j+i] = sum_{k<w} R_k d[k+i],  R = P mod chi.

The hash of x equals the hash of the w-bit reduced key rev(R) under the
diagonal's first 2w - 1 bits, and the 1.09 M-bit diagonal is never built.
Reversed, the reduction is a power-series division of x by the connection
polynomial f = 1 + sum_j c_j z^j over n_in - w coefficients; rev(R) is the
remainder. The same division by f, with the register as its first quotient
block, expands the diagonal. Division runs in blocks of b = floor(size / 2)
quotient bits, size the smallest 2^k, 3*2^k or 5^5*2^k FFT length covering
2 max(w, 512) points: at n_out = 99,035 that is 9 blocks of 100,000 bits
for the key and one for the diagonal. Each block's quotient is one cyclic
product of 200,000 points against the precomputed spectrum of f's inverse;
the carry it spills into the next block is one of 100,000 points against
f's, because below the block f*q equals the block's known numerator, which
separates what wraps around. The final product of the reduced key with the
diagonal's 198,069 bits runs at 200,000 points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randomness import RandomStream

_DIRECT_LIMIT = 1 << 11  # below this work product, use exact integer convolve
_MIN_BLOCK = 1 << 9  # fewest quotient bits per division block
_FFT_FACTORS = (1, 3, 5 ** 5)  # transform sizes are one of these times 2^k


class SeedReuseError(RuntimeError):
    """A privacy-amplification seed was offered for a second batch."""


class NumericalOverflow(RuntimeError):
    """FFT convolution output too far from integers to trust."""


# ---------------------------------------------------------------------------
# binary convolution machinery
# ---------------------------------------------------------------------------

def _fft_size(n: int) -> int:
    """Smallest size of the form 2^k, 3*2^k or 5^5*2^k covering n points.

    The 5^5 family keeps a full-size PA transform at 200,000 points: on a
    2 vCPU Xeon an rfft + irfft round trip costs ~1.4x as much per point
    from 204,800 points up, and 2^18 = 262,144 is the next size otherwise.
    """
    return min(f << max(int(np.ceil(np.log2(n / f))), 0) for f in _FFT_FACTORS)


def _round_checked(raw: np.ndarray) -> np.ndarray:
    rounded = np.rint(raw)
    residual = raw - rounded
    if np.abs(residual, out=residual).max() > 0.25:
        raise NumericalOverflow("convolution residual too large")
    return rounded.astype(np.int64)


def _spectrum(a: np.ndarray, size: int) -> np.ndarray:
    return np.fft.rfft(a.astype(np.float64), size)


def _product(spec_a: np.ndarray, spec_b: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of the size-point cyclic product, checked integral."""
    return _round_checked(np.fft.irfft(spec_a * spec_b, size)[lo:hi])


def _gf2_series_inv(f: np.ndarray, precision: int) -> np.ndarray:
    """Inverse of f (f[0] must be 1) as a power series mod z^precision.

    Each Newton step lifts precision h to k <= 2h: with f*inv = 1 + z^h r
    mod z^k, the inverse mod z^k is inv + z^h (inv*r mod z^(k-h)). Both
    products fit k points: f[:k]*inv wraps around only below z^h.
    """
    if f[0] != 1:
        raise ValueError("series inverse requires a unit constant term")
    inv = np.ones(1, dtype=np.int64)
    while inv.size < precision:
        h = inv.size
        k = min(2 * h, precision)
        size = _fft_size(k)
        spec_inv = _spectrum(inv, size)
        r = _product(_spectrum(f[:k], size), spec_inv, size, h, k) & 1
        inv = np.concatenate([inv, _product(_spectrum(r, size), spec_inv, size, 0, k - h) & 1])
    return inv[:precision].astype(np.uint8)


# ---------------------------------------------------------------------------
# blocked division: LFSR diagonal expansion and key reduction
# ---------------------------------------------------------------------------

def _connection_poly(lfsr_state: np.ndarray, feedback_poly: np.ndarray) -> np.ndarray:
    """f = 1 + sum_j c_j z^j, after checking the LFSR's width and taps."""
    if lfsr_state.size != feedback_poly.size:
        raise ValueError("state and feedback polynomial must have equal width")
    if not feedback_poly.any():
        raise ValueError("feedback polynomial must be nonzero")
    return np.concatenate([[1], feedback_poly]).astype(np.uint8)


def _division_sizes(w: int) -> tuple[int, int]:
    """(FFT size, block length b) of the blocked division by a degree-w f.

    b >= w keeps a block's carry within the next block; size >= 2b keeps
    the product of a b-bit numerator by the inverse free of wraparound, and
    that of f by the register in `expand`.
    """
    size = _fft_size(2 * max(w, _MIN_BLOCK))
    return size, size // 2


class _Divisor:
    """Power-series division over GF(2) by one connection polynomial f.

    The inverse of f is computed once, to the block length b; each block
    of b quotient bits then costs two cyclic products with precomputed
    spectra: the quotient with that inverse's at `size` points, and the
    carry past the block with f's at `spill_size` (about half as many).
    """

    def __init__(self, f: np.ndarray):
        self.w = f.size - 1
        self.size, self.block = _division_sizes(self.w)
        self.spec_f = _spectrum(f, self.size)
        self.spec_inv = _spectrum(_gf2_series_inv(f, self.block), self.size)
        # a quotient block's spill wraps at this size (see `_block_spill`)
        self.spill_size = _fft_size(max(self.block, self.w + 1))
        self.spec_f_spill = _spectrum(f, self.spill_size)

    def _spill(self, block: np.ndarray, carry: np.ndarray) -> np.ndarray:
        """The w coefficients of f*(quotient so far) just past `block`.

        `carry` is that for the quotient before `block`, aligned to its
        start; f*block spills up to w coefficients past the block's end.
        """
        n = block.size
        spill = _product(_spectrum(block, self.size), self.spec_f, self.size, 0, n + self.w) & 1
        spill[: self.w] ^= carry
        return spill[n:]

    def _block_spill(self, block: np.ndarray, e: np.ndarray, carry: np.ndarray) -> np.ndarray:
        """`_spill` of a quotient block of e, from a product of `spill_size` points.

        Below the block's length n, f*block = e mod 2 (e is the block's
        numerator with the carry in), so the coefficients of f*block that
        wrap from spill_size + j onto j < n read out[j] ^ e[j].
        """
        n, s = block.size, self.spill_size
        out = _product(_spectrum(block, s), self.spec_f_spill, s, 0, min(s, n + self.w)) & 1
        wrap = max(n + self.w - s, 0)
        out[:wrap] ^= e[:wrap]
        spill = np.concatenate([out[n:], out[:wrap]])
        if n < self.w:  # carry bits past a block shorter than w
            spill[: self.w - n] ^= carry[n:]
        return spill

    def divide(self, num: np.ndarray, length: int, carry: np.ndarray,
               remainder: bool) -> tuple[np.ndarray, np.ndarray]:
        """Quotient q = (num - carry) / f mod z^length, and the carry past it.

        `num` is dense and of any length (coefficients past its end are
        zero); `carry` (w coefficients) is subtracted from its start. The
        returned carry c is (carry + f*q)[length : length + w], so the
        remainder num - carry - f*q reads num[length + k] ^ c[k] there; it
        is computed only when `remainder` is set.
        """
        q = np.empty(length, dtype=np.uint8)
        for pos in range(0, length, self.block):
            take = min(self.block, length - pos)
            e = np.zeros(take, dtype=np.int64)
            part = num[pos : pos + take]
            e[: part.size] = part
            e[: self.w] ^= carry[:take]
            block = _product(_spectrum(e, self.size), self.spec_inv, self.size, 0, take) & 1
            q[pos : pos + take] = block
            if remainder or pos + take < length:
                carry = self._block_spill(block, e, carry)
        return q, carry.astype(np.uint8)

    def expand(self, state: np.ndarray, length: int) -> np.ndarray:
        """First `length` >= w output bits of the LFSR with register `state`.

        The register is the sequence's first quotient block: d = g / f with
        g = f*state mod z^w, so the rest is the division of g - f*state,
        which is zero except for the carry f*state spills past z^w.
        """
        carry = self._spill(state, np.zeros(self.w, dtype=np.int64))
        tail, _ = self.divide(np.zeros(0, dtype=np.uint8), length - self.w, carry, False)
        return np.concatenate([state, tail])


def lfsr_expand(lfsr_state: np.ndarray, feedback_poly: np.ndarray, length: int) -> np.ndarray:
    """Output sequence of a Fibonacci LFSR.

    `lfsr_state` supplies the first W output bits d[0..W); `feedback_poly`
    holds the taps c_1..c_W of the recurrence d[t] = sum_j c_j d[t-j].
    """
    state = np.asarray(lfsr_state, dtype=np.uint8)
    f = _connection_poly(state, np.asarray(feedback_poly, dtype=np.uint8))
    if length <= state.size:
        return state[:length].copy()
    return _Divisor(f).expand(state, length)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PASeed:
    """An LFSR seed: the register `state` and the feedback `taps`."""

    state: np.ndarray
    taps: np.ndarray

    def lfsr_parts(self, n_out: int) -> tuple[np.ndarray, np.ndarray]:
        """(state, taps) of a seed whose register is n_out bits wide."""
        if self.state.size != n_out:
            raise ValueError("lfsr state must be n_out bits")
        return (np.asarray(self.state, dtype=np.uint8),
                np.asarray(self.taps, dtype=np.uint8))

    def fingerprint(self) -> bytes:
        import hashlib

        return hashlib.sha256(np.packbits(self.state).tobytes()
                              + np.packbits(self.taps).tobytes()).digest()


def make_seed(rng: RandomStream, n_out: int) -> PASeed:
    """Draw a fresh seed; feedback polynomials are uniform nonzero."""
    state = rng.draw_bits(n_out)
    poly = rng.draw_bits(n_out)
    while n_out and not poly.any():
        poly = rng.draw_bits(n_out)
    return PASeed(state, poly)


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def _toeplitz_product(d: np.ndarray, x: np.ndarray, n_out: int) -> np.ndarray:
    """out[i] = sum_j d[n_in-1+i-j] x[j] as exact integers, d of n_in+n_out-1.

    These are entries n_in-1 .. n_in+n_out-2 of the convolution d*x, so a
    cyclic product of d.size points suffices: what wraps around lands below
    entry n_in - 1.
    """
    n_in = x.size
    if n_in * d.size <= _DIRECT_LIMIT ** 2:
        return np.convolve(d.astype(np.int64), x.astype(np.int64))[n_in - 1 : n_in - 1 + n_out]
    size = _fft_size(d.size)
    return _product(_spectrum(d, size), _spectrum(x, size), size, n_in - 1, n_in - 1 + n_out)


def toeplitz_hash(input_bits: np.ndarray, seed: PASeed, n_out: int) -> np.ndarray:
    """T.x over GF(2) for the Toeplitz matrix whose diagonal the seed's LFSR
    outputs, from the key reduced mod chi (module docstring).

    Reversed, P = Q chi + R reads x = rev(Q) f + z^m rev(R) with
    m = n_in - w, so rev(R) is x[m:] ^ the carry of dividing x by f over m
    coefficients, and the hash of x is the hash of rev(R) under d[:2w-1].
    """
    x = np.asarray(input_bits, dtype=np.uint8)
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    if n_out > x.size:
        raise ValueError("cannot extract more bits than supplied")
    state, taps = seed.lfsr_parts(n_out)
    divisor = _Divisor(_connection_poly(state, taps))
    m = x.size - n_out
    _, carry = divisor.divide(x, m, np.zeros(n_out, dtype=np.int64), True)
    d = divisor.expand(state, 2 * n_out - 1)
    return (_toeplitz_product(d, x[m:] ^ carry, n_out) & 1).astype(np.uint8)


class SeedLedger:
    """Session-scoped record refusing to hash two batches under one seed."""

    def __init__(self):
        self._seen: set[bytes] = set()

    def register(self, seed: PASeed):
        fp = seed.fingerprint()
        if fp in self._seen:
            raise SeedReuseError("privacy amplification seed already used this session")
        self._seen.add(fp)


def amplify_batch(bits: np.ndarray, seed: PASeed, n_out: int, ledger: SeedLedger) -> np.ndarray:
    """Compress one verified batch into its n_out secret key bits, refusing
    a seed `ledger` has seen before."""
    ledger.register(seed)
    return toeplitz_hash(bits, seed, n_out)
