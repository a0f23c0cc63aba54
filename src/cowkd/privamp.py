"""Privacy amplification: modified Toeplitz hashing.

The reconciled key x of n_in bits (995,328 for a full batch) is compressed
to w = n_out bits as

    out = x[:w] ^ T.x[w:],

T the w x (n_in - w) binary Toeplitz matrix T[i][j] = d[n_in - w - 1 + i - j]
on a diagonal d of n_in - 1 uniform bits, which is the whole seed. This is
the modified Toeplitz family of Hayashi and Tsurumaru (IEEE Trans. Inf.
Theory 62, 2213, 2016), and it is 2-universal, as the leftover-hash-lemma
term of `finitekey.finite_penalties` requires: a difference whose right
part is zero hashes to its nonzero left part and never collides, and any
other collides under exactly a 2^-w share of diagonals, since T.r is then
uniform.

T.x[w:] is folded over the key in chunks: each chunk is one cyclic float
FFT product against the diagonal window it reaches, at `size` points, the
smallest 2^k, 3*2^k or 5^5*2^k covering 2w (at least `_MIN_TRANSFORM`),
so a chunk holds size - w + 1 bits. At n_out = 99,035 that is nine products
of 200,000 points, over chunks of 100,966 bits. Every product, however
small, takes this one path: its output is checked to be safely integral
before reduction mod 2, so the result is exact or the call fails loudly.

The key and the diagonal arrive packed, 8 bits per byte in `np.packbits`
order with zero filler bits (a nonzero one is refused), next to the key's
bit count n_in: a full batch is 124,416 bytes of key and as much of seed.
Each product unpacks only the key chunk and the diagonal window it reads.
The hash returns n_out bits, one per byte.

Each hash call owns two transform buffers (`_Transforms`): one float buffer
the inputs are written into and the product is transformed back into, and
the two half spectra. Only parities leave a product, read from the rounded
float's mantissa after the integrality check; the rounding runs in the
second spectrum's memory, free once the product is formed. The buffers go
with the call, so concurrent hashes never share them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .bitops import unpack_range
from .errors import SessionAborted
from .randomness import RandomStream

_MIN_TRANSFORM = 1 << 11  # smallest transform a hash folds its key with
_FFT_FACTORS = (1, 3, 5 ** 5)  # transform sizes are one of these times 2^k
_ROUNDER = 1.5 * 2.0 ** 52  # see `_Transforms.parity`


class SeedReuseError(SessionAborted):
    """A privacy-amplification seed was offered for a second batch; the
    session ends (exit 3)."""


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


class _Transforms:
    """Exact binary convolutions by float FFT, through reused buffers.

    The buffers hold transforms of up to `size` points: one float buffer
    and the two half spectra. One hash call makes its own, reuses them for
    every product and then drops them, so threads hashing at once never
    share one.
    """

    def __init__(self, size: int):
        self._real = np.empty(size)
        self._spec = np.empty((2, size // 2 + 1), dtype=complex)

    def _spectrum(self, a: np.ndarray, size: int, k: int) -> np.ndarray:
        """rfft of the integer sequence `a`, zero-padded to `size` points,
        into spectrum buffer k."""
        real = self._real[:size]
        real[: a.size] = a
        real[a.size :] = 0
        return np.fft.rfft(real, out=self._spec[k, : size // 2 + 1])

    def parity(self, a: np.ndarray, b: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
        """Parities of entries lo..hi-1 of the size-point cyclic product of
        the integer sequences a and b, each checked to lie within 0.25 of an
        integer.

        Adding 1.5 * 2^52 rounds an entry to the nearest integer (ties to
        even, as `np.rint`), held in the low mantissa bits. The product is
        transformed back into the float buffer and rounded into spectrum
        buffer 1, which the product no longer needs.
        """
        spec = self._spectrum(a, size, 0)
        spec *= self._spectrum(b, size, 1)
        raw = np.fft.irfft(spec, size, out=self._real[:size])[lo:hi]
        rounded = np.add(raw, _ROUNDER, out=self._spec[1].view(np.float64)[: hi - lo])
        bits = np.bitwise_and(rounded.view(np.uint64), 1, casting="unsafe",
                              out=np.empty(hi - lo, dtype=np.uint8))
        rounded -= _ROUNDER
        raw -= rounded
        if max(raw.max(), -raw.min()) > 0.25:
            raise NumericalOverflow("convolution residual too large")
        return bits


def _toeplitz_product(d: np.ndarray, x: np.ndarray, n_out: int,
                      transforms: _Transforms | None = None) -> np.ndarray:
    """Parities of out[i] = sum_j d[n_in-1+i-j] x[j], d of n_in+n_out-1 bits.

    These are entries n_in-1 .. n_in+n_out-2 of the convolution d*x, so a
    cyclic product of d.size points suffices: what wraps around lands below
    entry n_in - 1. `transforms` may be a caller's buffers of that size or
    more.
    """
    n_in = x.size
    size = _fft_size(d.size)
    t = transforms or _Transforms(size)
    return t.parity(x, d, size, n_in - 1, n_in - 1 + n_out)


def _chunking(w: int) -> tuple[int, int]:
    """(transform size, chunk bits) of the hash to w bits.

    A chunk of c bits reaches c + w - 1 diagonal bits, so c = size - w + 1
    fills the transform; size >= 2w keeps a chunk longer than the output,
    and size >= `_MIN_TRANSFORM` keeps a narrow output from splitting the
    key into many tiny products.
    """
    size = _fft_size(max(2 * w, _MIN_TRANSFORM))
    return size, size - w + 1


# ---------------------------------------------------------------------------
# seeds and hashing
# ---------------------------------------------------------------------------

def make_seed(rng: RandomStream, n_in: int) -> np.ndarray:
    """Draw a fresh seed for an n_in-bit key: its n_in - 1 bit diagonal."""
    return rng.draw_bits(n_in - 1)


def _packed(bits: np.ndarray, n: int, what: str) -> np.ndarray:
    """`bits` as the 1-D packed form of an n-bit string, or ValueError: it
    must hold exactly ceil(n / 8) bytes, and its filler bits must be zero."""
    packed = np.asarray(bits, dtype=np.uint8)
    if packed.ndim != 1 or packed.size != (n + 7) // 8:
        raise ValueError(f"{what} must be {n} bits packed into {(n + 7) // 8} bytes")
    if n % 8 and packed[-1] & (0xFF >> n % 8):
        raise ValueError(f"{what} has nonzero filler bits")
    return packed


def _inputs(key: np.ndarray, seed: np.ndarray, n_in: int, n_out: int):
    """The packed key and diagonal of a hash to n_out bits, checked."""
    if n_in < 1:
        raise ValueError("the key must hold at least one bit")
    if n_out > n_in:
        raise ValueError("cannot extract more bits than supplied")
    return _packed(key, n_in, "key"), _packed(seed, n_in - 1, "seed")


def toeplitz_hash(key: np.ndarray, seed: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """x[:w] ^ T.x[w:] over GF(2), T the w x (n_in - w) Toeplitz matrix on
    the seed's diagonal, w = n_out (module docstring).

    `key` is the n_in-bit key x and `seed` its (n_in - 1)-bit diagonal, both
    packed; the result is n_out bits, one per byte.
    """
    x, d = _inputs(key, seed, n_in, n_out)
    out = unpack_range(x, 0, n_out)
    if n_out == 0:
        return out
    n_right = n_in - n_out
    size, chunk = _chunking(n_out)
    transforms = _Transforms(size)
    for a in range(0, n_right, chunk):
        n = min(chunk, n_right - a)
        lo = n_right - a - n
        window = unpack_range(d, lo, n + n_out - 1)
        out ^= _toeplitz_product(window, unpack_range(x, n_out + a, n), n_out, transforms)
    return out


def lfsr_expand(lfsr_state: np.ndarray, feedback_poly: np.ndarray, length: int) -> np.ndarray:
    """Output sequence of a Fibonacci LFSR, stepped one bit at a time.

    `lfsr_state` supplies the first W output bits d[0..W); `feedback_poly`
    holds the taps c_1..c_W of the recurrence d[t] = sum_j c_j d[t-j].
    Privacy amplification does not use it; perfbench's tracer binds it.
    """
    state = np.asarray(lfsr_state, dtype=np.uint8)
    poly = np.asarray(feedback_poly, dtype=np.uint8)
    if poly.size != state.size or not poly.any():
        raise ValueError("feedback polynomial must be nonzero and as wide as the state")
    taps = np.flatnonzero(poly) + 1
    out = np.zeros(max(length, state.size), dtype=np.uint8)
    out[: state.size] = state
    for t in range(state.size, length):
        out[t] = np.bitwise_xor.reduce(out[t - taps])
    return out[:length]


class SeedLedger:
    """Session-scoped record refusing to hash two batches under one seed."""

    def __init__(self):
        self._seen: set[bytes] = set()

    def register(self, seed: np.ndarray):
        """Record a packed seed, fingerprinted by its bytes."""
        fp = hashlib.sha256(np.asarray(seed, dtype=np.uint8).tobytes()).digest()
        if fp in self._seen:
            raise SeedReuseError("privacy amplification seed already used this session")
        self._seen.add(fp)


def amplify_batch(key: np.ndarray, seed: np.ndarray, n_in: int, n_out: int,
                  ledger: SeedLedger) -> np.ndarray:
    """Compress one verified batch of n_in bits into its n_out secret key
    bits, refusing a seed `ledger` has seen before; key and seed are packed
    (`toeplitz_hash`). Malformed inputs, a seed with nonzero filler bits
    among them, are refused before the ledger fingerprints the seed, so one
    diagonal has one fingerprint."""
    ledger.register(_inputs(key, seed, n_in, n_out)[1])
    return toeplitz_hash(key, seed, n_in, n_out)
