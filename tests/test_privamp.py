import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lfsr_expand_ref, toeplitz_hash_dense, toeplitz_hash_explicit
from cowkd.engine.frames import _SEED, decode_seed, encode_seed
from cowkd.errors import EXIT_ABORT, SessionAborted
from cowkd.finitekey import N_SIFT_BLOCK, quantize_compression
from cowkd.privamp import (
    PASeed,
    SeedLedger,
    SeedReuseError,
    _connection_poly,
    _division_sizes,
    _Divisor,
    _toeplitz_product,
    amplify_batch,
    lfsr_expand,
    make_seed,
    toeplitz_hash,
)
from cowkd.randomness import EntropySeed, new_stream


def stream(n=1):
    return new_stream(EntropySeed.from_int(100 + n))


def diagonal_of(seed: PASeed, n_in: int, n_out: int) -> np.ndarray:
    """The seed's n_in + n_out - 1 bit diagonal, stepped out by the reference."""
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    return lfsr_expand_ref(seed.state, seed.taps, n_in + n_out - 1)


def test_zero_input_hashes_to_zero():
    rng = stream(1)
    seed = make_seed(rng, 8)
    out = toeplitz_hash(np.zeros(24, dtype=np.uint8), seed, 8)
    assert not out.any()


def test_identity_toeplitz():
    # register e_7 with the single tap c_8 outputs d[7] = 1 and zeros
    # after it: the main diagonal for n_in = 8
    state = np.zeros(8, dtype=np.uint8)
    state[7] = 1
    taps = np.zeros(8, dtype=np.uint8)
    taps[7] = 1
    x = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    assert np.array_equal(toeplitz_hash(x, PASeed(state, taps), 8), x)


def test_matches_dense_oracle_spec_example():
    rng = stream(2)
    x = rng.draw_bits(24)
    seed = make_seed(rng, 8)
    assert np.array_equal(toeplitz_hash(x, seed, 8),
                          toeplitz_hash_dense(x, diagonal_of(seed, 24, 8), 8))


def test_matches_dense_oracle_all_dims_up_to_64():
    # acceptance sweep: 1000 random (n_in, n_out) pairs with dims <= 64
    rng = stream(3)
    dims = np.random.default_rng(41)
    for _ in range(1000):
        n_in = int(dims.integers(1, 65))
        n_out = int(dims.integers(0, n_in + 1))
        x = rng.draw_bits(n_in)
        seed = make_seed(rng, n_out)
        got = toeplitz_hash(x, seed, n_out)
        want = toeplitz_hash_dense(x, diagonal_of(seed, n_in, n_out), n_out)
        assert np.array_equal(got, want)


def test_linearity():
    rng = stream(4)
    seed = make_seed(rng, 40)
    for _ in range(50):
        x = rng.draw_bits(100)
        y = rng.draw_bits(100)
        hxy = toeplitz_hash(x ^ y, seed, 40)
        hx = toeplitz_hash(x, seed, 40)
        hy = toeplitz_hash(y, seed, 40)
        assert np.array_equal(hxy, hx ^ hy)


def test_fft_path_matches_direct_convolution():
    rng = stream(5)
    n_in, n_out = 40_000, 5_000
    x = rng.draw_bits(n_in)
    d = rng.draw_bits(n_in + n_out - 1)
    fft_out = (_toeplitz_product(d, x, n_out) & 1).astype(np.uint8)
    # independent exact path: direct integer convolution on int64
    full = np.convolve(d.astype(np.int64), x.astype(np.int64))
    direct = (full[n_in - 1 : n_in - 1 + n_out] & 1).astype(np.uint8)
    assert np.array_equal(fft_out, direct)


@pytest.mark.parametrize("n_in, n_out", [(3000, 73), (3000, 74), (4000, 97), (4000, 98)])
def test_fft_window_at_transform_size_boundaries(n_in, n_out):
    # diagonals of 3 * 2^10 and 2^12 bits and one more: a transform one
    # point shorter than the diagonal would wrap into the output
    rng = stream(13)
    x = rng.draw_bits(n_in)
    d = rng.draw_bits(n_in + n_out - 1)
    full = np.convolve(d.astype(np.int64), x.astype(np.int64))
    direct = (full[n_in - 1 : n_in - 1 + n_out] & 1).astype(np.uint8)
    assert np.array_equal(_toeplitz_product(d, x, n_out) & 1, direct)


# ---------------------------------------------------------------------------
# LFSR
# ---------------------------------------------------------------------------

def test_lfsr_zero_state_gives_zero_sequence():
    out = lfsr_expand(np.zeros(8, dtype=np.uint8), np.ones(8, dtype=np.uint8), 100)
    assert not out.any()


def test_lfsr_degree4_maximal_period_15():
    # taps {3, 4}: reciprocal of x^4 + x + 1, primitive, so period 15
    taps = np.array([0, 0, 1, 1], dtype=np.uint8)
    state = np.array([1, 0, 0, 0], dtype=np.uint8)
    seq = lfsr_expand_ref(state, taps, 60)
    assert np.array_equal(seq[:15], seq[15:30])
    assert np.array_equal(seq[:15], seq[30:45])
    # no shorter period
    for p in range(1, 15):
        if np.array_equal(seq[:p], seq[p : 2 * p]) and np.array_equal(seq[: 2 * p], seq[p : 3 * p]):
            pytest.fail(f"period {p} shorter than 15")
    # series-division expansion agrees with the stepwise reference
    assert np.array_equal(lfsr_expand(state, taps, 60), seq)


def test_lfsr_expand_matches_reference_random_cases():
    rng = stream(6)
    sizes = np.random.default_rng(43)
    for _ in range(30):
        w = int(sizes.integers(1, 64))
        state = rng.draw_bits(w)
        taps = rng.draw_bits(w)
        if not taps.any():
            taps[int(sizes.integers(0, w))] = 1
        n = int(sizes.integers(1, 1500))
        assert np.array_equal(lfsr_expand(state, taps, n),
                              lfsr_expand_ref(state, taps, n))


@pytest.mark.parametrize("w, length", [
    # up to w = 512 the division emits blocks of 512 bits after the register
    (257, 1700),  # two full blocks, a partial last one
    (257, 1020),  # one full block, a partial one
    (300, 301),  # one partial block of one bit
    (400, 3001),  # five full blocks, a partial last one
    (1, 1025),  # exactly two blocks
    (512, 1536),  # exactly two blocks, register as wide as a block
    (600, 2137),  # blocks of 768 past w = 512: two, plus one bit
])
def test_lfsr_block_division_matches_reference_past_256_bits(w, length):
    rng = stream(10)
    state, taps = rng.draw_bits(w), rng.draw_bits(w)
    taps[-1] = 1
    assert np.array_equal(lfsr_expand(state, taps, length), lfsr_expand_ref(state, taps, length))


def test_lfsr_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        lfsr_expand(np.ones(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8), 20)


@pytest.mark.parametrize("n_in", [50, 200])
@pytest.mark.parametrize("state_bits, tap_bits, taps_nonzero", [
    (50, 50, False),  # zero feedback polynomial
    (49, 49, True),  # register narrower than n_out
    (51, 51, True),  # register wider than n_out
    (50, 49, True),  # taps narrower than the register
])
def test_lfsr_hash_rejects_bad_seed(n_in, state_bits, tap_bits, taps_nonzero):
    rng = stream(12)
    taps = np.ones(tap_bits, dtype=np.uint8) if taps_nonzero else np.zeros(tap_bits, dtype=np.uint8)
    seed = PASeed(rng.draw_bits(state_bits), taps)
    with pytest.raises(ValueError):
        toeplitz_hash(rng.draw_bits(n_in), seed, 50)


def _lfsr_case(w, extra, seed, cw_zero):
    """(x, state, taps, n_out) with n_out = w and n_in = w + extra."""
    gen = np.random.default_rng(seed)
    state = gen.integers(0, 2, w, dtype=np.uint8)
    taps = gen.integers(0, 2, w, dtype=np.uint8)
    if cw_zero:
        taps[-1] = 0  # chi(z) is then divisible by z
    if not taps.any():
        taps[0] = 1
    return gen.integers(0, 2, w + extra, dtype=np.uint8), state, taps, w


@st.composite
def lfsr_hash_cases(draw):
    """n_in from n_out up; for small w also at and around one and two blocks."""
    w = draw(st.integers(1, 600))
    b = _division_sizes(w)[1]
    extra = st.integers(0, 40)
    if w <= 64:
        extra = extra | st.sampled_from([b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1])
    return _lfsr_case(w, draw(extra), draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()))


@settings(max_examples=120)
@given(lfsr_hash_cases())
@example(_lfsr_case(1, 0, 1, False))
@example(_lfsr_case(5, 512, 2, False))
@example(_lfsr_case(64, 1024, 3, True))
@example(_lfsr_case(600, 768, 4, False))
def test_lfsr_hash_matches_dense_oracle(case):
    x, state, taps, n_out = case
    seed = PASeed(state, taps)
    diagonal = lfsr_expand_ref(state, taps, x.size + n_out - 1)
    assert np.array_equal(toeplitz_hash(x, seed, n_out), toeplitz_hash_dense(x, diagonal, n_out))


# SHA-256 of the packed output for a full batch, computed with the earlier
# kernel that expanded the whole n_in + n_out - 1 bit diagonal
@pytest.mark.parametrize("n_out, seed_int, digest", [
    (99_035, 501, "40c208c5ec41e4ccc0bdcaa13d2458337ee5b4437ec3d0c64ceeb286e33b4b01"),
    (77_138, 502, "6720106d440fc3057a017329c32ad7e19b5245fb1cb82d50760453364188dd72"),
])
def test_full_batch_lfsr_hash_digest_pinned(n_out, seed_int, digest):
    rng = new_stream(EntropySeed.from_int(seed_int))
    x = rng.draw_bits(N_SIFT_BLOCK)
    seed = make_seed(rng, n_out)
    out = toeplitz_hash(x, seed, n_out)
    assert hashlib.sha256(np.packbits(out).tobytes()).hexdigest() == digest


def test_lfsr_mode_equals_explicit_mode():
    rng = stream(7)
    n_in, n_out = 3000, 700
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_out)
    diag = lfsr_expand(seed.state, seed.taps, n_in + n_out - 1)
    out_lfsr = toeplitz_hash(x, seed, n_out)
    out_explicit = toeplitz_hash_explicit(x, diag, n_out)
    assert np.array_equal(out_lfsr, out_explicit)


@pytest.mark.parametrize("w, size", [
    (512, 1 << 10),  # 2^k
    (700, 3 << 9),  # 3 * 2^k
    (1550, 5 ** 5),  # 5^5 * 2^k, here with k = 0: an odd transform length
    (3073, 2 * 5 ** 5),  # the family's first even member, as in production
])
def test_lfsr_hash_matches_dense_oracle_in_each_transform_size_family(w, size):
    # n_in spans two division blocks, the second one partial
    assert _division_sizes(w) == (size, size // 2)
    x, state, taps, n_out = _lfsr_case(w, size // 2 + 7, w, False)
    seed = PASeed(state, taps)
    diagonal = lfsr_expand_ref(state, taps, x.size + n_out - 1)
    assert np.array_equal(toeplitz_hash(x, seed, n_out), toeplitz_hash_dense(x, diagonal, n_out))


@pytest.mark.parametrize("w, size, spill_size", [
    (400, 1 << 10, 1 << 9),  # 2^k
    (700, 3 << 9, 3 << 8),  # 3 * 2^k
    (1550, 5 ** 5, 1 << 11),  # 5^5 * 2^k, k = 0
    (3073, 2 * 5 ** 5, 5 ** 5),
    (99_035, 200_000, 100_000),  # production
])
@pytest.mark.parametrize("length", ["b", "w < n < b", "n < w"])
def test_block_spill_at_half_size_equals_full_size_spill(w, size, spill_size, length):
    rng = stream(15)
    divisor = _Divisor(_connection_poly(rng.draw_bits(w), rng.draw_bits(w)))
    b = divisor.block
    assert (divisor.size, divisor.spill_size, w < b) == (size, spill_size, True)
    n = {"b": b, "w < n < b": (w + b) // 2, "n < w": w // 2}[length]
    num = rng.draw_bits(n)
    carry = rng.draw_bits(w)
    block = divisor.divide(num, n, carry, False)  # one quotient block
    e = num.copy()
    e[:w] ^= carry[:n]
    assert np.array_equal(divisor._block_spill(block, e, carry), divisor._spill(block, carry))


def test_full_size_lfsr_hash_equals_expanded_explicit_diagonal():
    # the production shape: 9 division blocks of 100,000 bits at 200,000 points
    n_in, n_out = N_SIFT_BLOCK, 99_035
    assert (n_in, _division_sizes(n_out)) == (995_328, (200_000, 100_000))
    rng = stream(14)
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_out)
    diagonal = lfsr_expand(seed.state, seed.taps, n_in + n_out - 1)
    assert np.array_equal(toeplitz_hash(x, seed, n_out), toeplitz_hash_explicit(x, diagonal, n_out))


def _hash_cases(rng, shapes):
    return [(rng.draw_bits(n_in), make_seed(rng, n_out), n_out) for n_in, n_out in shapes]


def test_hash_result_survives_later_hashes_of_other_sizes():
    # each call's transform buffers are its own: a result shares none of
    # them, whatever the later calls' sizes and inputs
    rng = stream(16)
    shapes = [(60_000, 9_000), (3_000, 700), (120_000, 20_000), (200, 64), (60_000, 9_000)]
    cases = _hash_cases(rng, shapes)
    first = toeplitz_hash(*cases[0])
    kept = first.copy()
    for case in cases[1:]:
        toeplitz_hash(*case)
    assert np.array_equal(first, kept)


def test_threads_hashing_at_once_match_single_thread():
    # as in a loopback session, where both parties amplify in one process;
    # more threads than cores, with frequent switches
    rng = stream(17)
    cases = _hash_cases(rng, [(60_000, 9_000), (40_000, 5_000), (120_000, 20_000), (3_000, 700)])
    want = [toeplitz_hash(*case) for case in cases]
    got = {}

    def work(k):
        for r in range(3):
            for j in range(len(cases)):
                i = (j + k) % len(cases)
                got[k, r, i] = toeplitz_hash(*cases[i])

    threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 4 * 3 * len(cases)
    for (_, _, i), out in got.items():
        assert np.array_equal(out, want[i]), i


# ---------------------------------------------------------------------------
# batch amplification
# ---------------------------------------------------------------------------

def test_table1_rate_identity():
    # sifted rate x compression ~ secret rate at the shortest fibre
    assert 1.26e6 * 0.115 == pytest.approx(1.45e5, rel=0.01)


def test_amplify_batch_and_seed_freshness():
    rng = stream(8)
    bits = rng.draw_bits(N_SIFT_BLOCK)
    n_out = quantize_compression(0.01)[1]
    seed = make_seed(rng, n_out)
    ledger = SeedLedger()
    out = amplify_batch(bits, seed, n_out, ledger)
    assert out.size == n_out
    with pytest.raises(SeedReuseError):
        amplify_batch(bits, seed, n_out, ledger)


def test_amplify_ratio_zero_gives_empty_key():
    rng = stream(9)
    seed = make_seed(rng, 0)
    assert amplify_batch(rng.draw_bits(N_SIFT_BLOCK), seed, 0, SeedLedger()).size == 0


def test_full_batch_throughput_floor():
    rng = stream(10)
    bits = rng.draw_bits(N_SIFT_BLOCK)
    n_out = quantize_compression(0.115)[1]
    seed = make_seed(rng, n_out)
    t0 = time.time()
    out = amplify_batch(bits, seed, n_out, SeedLedger())
    elapsed = time.time() - t0
    assert out.size == 114_463
    assert N_SIFT_BLOCK / elapsed > 1e6, f"only {N_SIFT_BLOCK / elapsed:.0f} bits/s"


def test_seed_wire_roundtrip():
    rng = stream(11)
    seed = make_seed(rng, 50)
    blob = encode_seed(seed, batch_id=7)
    assert blob[0] == 1  # the mode byte
    back, bid = decode_seed(blob)
    assert bid == 7
    assert np.array_equal(back.state, seed.state)
    assert np.array_equal(back.taps, seed.taps)


def test_decode_seed_rejects_explicit_diagonal_mode():
    # a well-formed record of mode 0, an explicit diagonal, aborts
    d = stream(15).draw_bits(249)
    blob = _SEED.pack(0, 7, d.size, bits=[d])
    with pytest.raises(SessionAborted) as info:
        decode_seed(blob)
    assert info.value.exit_code == EXIT_ABORT

