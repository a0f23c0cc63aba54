import hashlib
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lfsr_expand_ref, toeplitz_hash_dense
from cowkd.engine.frames import decode_seed, encode_seed
from cowkd.finitekey import N_SIFT_BLOCK, quantize_compression
from cowkd.privamp import (
    PASeed,
    SeedLedger,
    SeedReuseError,
    _division_sizes,
    amplify_batch,
    lfsr_expand,
    make_seed,
    toeplitz_hash,
)
from cowkd.randomness import EntropySeed, new_stream


def stream(n=1):
    return new_stream(EntropySeed.from_int(100 + n))


def explicit_seed(diag):
    return PASeed(mode=PASeed.EXPLICIT, diagonal=np.asarray(diag, dtype=np.uint8))


def test_zero_input_hashes_to_zero():
    rng = stream(1)
    seed = explicit_seed(rng.draw_bits(31))
    out = toeplitz_hash(np.zeros(24, dtype=np.uint8), seed, 8)
    assert not out.any()


def test_identity_toeplitz():
    d = np.zeros(15, dtype=np.uint8)
    d[7] = 1  # main-diagonal position for n_in = 8
    x = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    assert np.array_equal(toeplitz_hash(x, explicit_seed(d), 8), x)


def test_matches_dense_oracle_spec_example():
    rng = stream(2)
    x = rng.draw_bits(24)
    d = rng.draw_bits(24 + 8 - 1)
    assert np.array_equal(toeplitz_hash(x, explicit_seed(d), 8),
                          toeplitz_hash_dense(x, d, 8))


def test_matches_dense_oracle_all_dims_up_to_64():
    # acceptance sweep: 1000 random (n_in, n_out) pairs with dims <= 64
    rng = stream(3)
    dims = np.random.default_rng(41)
    for _ in range(1000):
        n_in = int(dims.integers(1, 65))
        n_out = int(dims.integers(0, n_in + 1))
        x = rng.draw_bits(n_in)
        d = rng.draw_bits(n_in + n_out - 1 if n_out else 0)
        got = toeplitz_hash(x, explicit_seed(d), n_out)
        want = toeplitz_hash_dense(x, d, n_out)
        assert np.array_equal(got, want)


def test_linearity():
    rng = stream(4)
    d = rng.draw_bits(100 + 40 - 1)
    seed = explicit_seed(d)
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
    fft_out = toeplitz_hash(x, explicit_seed(d), n_out)
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
    assert np.array_equal(toeplitz_hash(x, explicit_seed(d), n_out), direct)


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
    seed = PASeed(mode=PASeed.LFSR, lfsr_state=rng.draw_bits(state_bits), feedback_poly=taps)
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
    seed = PASeed(mode=PASeed.LFSR, lfsr_state=state, feedback_poly=taps)
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
    seed = make_seed(rng, N_SIFT_BLOCK, n_out, mode=PASeed.LFSR)
    out = toeplitz_hash(x, seed, n_out)
    assert hashlib.sha256(np.packbits(out).tobytes()).hexdigest() == digest


def test_lfsr_mode_equals_explicit_mode():
    rng = stream(7)
    n_in, n_out = 3000, 700
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in, n_out, mode=PASeed.LFSR)
    diag = seed.expanded(n_in, n_out)
    out_lfsr = toeplitz_hash(x, seed, n_out)
    out_explicit = toeplitz_hash(x, explicit_seed(diag), n_out)
    assert np.array_equal(out_lfsr, out_explicit)


@pytest.mark.parametrize("w, size", [
    (512, 1 << 10),  # 2^k
    (700, 3 << 9),  # 3 * 2^k
    (1550, 5 ** 5),  # 5^5 * 2^k, here with k = 0: an odd transform length
])
def test_lfsr_hash_matches_dense_oracle_in_each_transform_size_family(w, size):
    # n_in spans two division blocks, the second one partial
    assert _division_sizes(w) == (size, size // 2)
    x, state, taps, n_out = _lfsr_case(w, size // 2 + 7, w, False)
    seed = PASeed(mode=PASeed.LFSR, lfsr_state=state, feedback_poly=taps)
    diagonal = lfsr_expand_ref(state, taps, x.size + n_out - 1)
    assert np.array_equal(toeplitz_hash(x, seed, n_out), toeplitz_hash_dense(x, diagonal, n_out))


def test_full_size_lfsr_hash_equals_expanded_explicit_diagonal():
    # the production shape: 9 division blocks of 100,000 bits at 200,000 points
    n_in, n_out = N_SIFT_BLOCK, 99_035
    assert (n_in, _division_sizes(n_out)) == (995_328, (200_000, 100_000))
    rng = stream(14)
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in, n_out, mode=PASeed.LFSR)
    expl = explicit_seed(seed.expanded(n_in, n_out))
    assert np.array_equal(toeplitz_hash(x, seed, n_out), toeplitz_hash(x, expl, n_out))


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
    seed = make_seed(rng, N_SIFT_BLOCK, n_out, mode=PASeed.LFSR)
    ledger = SeedLedger()
    out = amplify_batch(bits, seed, n_out, ledger)
    assert out.size == n_out
    with pytest.raises(SeedReuseError):
        amplify_batch(bits, seed, n_out, ledger)


def test_amplify_ratio_zero_gives_empty_key():
    rng = stream(9)
    seed = make_seed(rng, N_SIFT_BLOCK, 0)
    assert amplify_batch(rng.draw_bits(N_SIFT_BLOCK), seed, 0, SeedLedger()).size == 0


def test_full_batch_throughput_floor():
    rng = stream(10)
    bits = rng.draw_bits(N_SIFT_BLOCK)
    n_out = quantize_compression(0.115)[1]
    seed = make_seed(rng, N_SIFT_BLOCK, n_out, mode=PASeed.LFSR)
    t0 = time.time()
    out = amplify_batch(bits, seed, n_out, SeedLedger())
    elapsed = time.time() - t0
    assert out.size == 114_463
    assert N_SIFT_BLOCK / elapsed > 1e6, f"only {N_SIFT_BLOCK / elapsed:.0f} bits/s"


def test_seed_wire_roundtrip():
    rng = stream(11)
    for mode in (PASeed.EXPLICIT, PASeed.LFSR):
        seed = make_seed(rng, 200, 50, mode=mode)
        blob = encode_seed(seed, batch_id=7)
        back, bid = decode_seed(blob)
        assert bid == 7
        assert back.mode == seed.mode
        assert np.array_equal(back.expanded(200, 50), seed.expanded(200, 50))

