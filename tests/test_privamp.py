import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lfsr_expand_ref, toeplitz_hash_dense, toeplitz_hash_explicit
from cowkd.engine.frames import _SEED, decode_pa_seed, encode_seed
from cowkd.errors import EXIT_ABORT, SessionAborted
from cowkd.finitekey import N_SIFT_BLOCK, quantize_compression
from cowkd.privamp import (
    SeedLedger,
    SeedReuseError,
    _chunking,
    _toeplitz_product,
    amplify_batch,
    lfsr_expand,
    make_seed,
    toeplitz_hash,
)
from cowkd.randomness import EntropySeed, new_stream


def stream(n=1):
    return new_stream(EntropySeed.from_int(100 + n))


def packed(x: np.ndarray, d: np.ndarray, n_out: int) -> tuple:
    """`toeplitz_hash`'s arguments for the 0/1 key x and diagonal d."""
    return np.packbits(x), np.packbits(d), x.size, n_out


def modified_dense(x: np.ndarray, d: np.ndarray, n_out: int) -> np.ndarray:
    """x[:w] ^ T.x[w:] with T the dense Toeplitz matrix on d, w = n_out."""
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    return x[:n_out] ^ toeplitz_hash_dense(x[n_out:], d, n_out)


def test_zero_input_hashes_to_zero():
    rng = stream(1)
    seed = make_seed(rng, 24)
    out = toeplitz_hash(*packed(np.zeros(24, dtype=np.uint8), seed, 8))
    assert not out.any()


def test_identity_toeplitz():
    # a diagonal whose one set bit is d[7] makes T the identity for
    # n_in = 16, w = 8, so the hash is x[:8] ^ x[8:]
    d = np.zeros(15, dtype=np.uint8)
    d[7] = 1
    x = np.array([1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0], dtype=np.uint8)
    assert np.array_equal(toeplitz_hash(*packed(x, d, 8)), x[:8] ^ x[8:])
    # the zero diagonal keeps the left part alone
    assert np.array_equal(toeplitz_hash(*packed(x, np.zeros(15, dtype=np.uint8), 8)), x[:8])


def test_matches_dense_oracle_spec_example():
    rng = stream(2)
    x = rng.draw_bits(24)
    seed = make_seed(rng, 24)
    assert seed.size == 23
    assert np.array_equal(toeplitz_hash(*packed(x, seed, 8)), modified_dense(x, seed, 8))


def test_matches_dense_oracle_all_dims_up_to_64():
    # acceptance sweep: 1000 random (n_in, n_out) pairs with dims <= 64
    rng = stream(3)
    dims = np.random.default_rng(41)
    for _ in range(1000):
        n_in = int(dims.integers(1, 65))
        n_out = int(dims.integers(0, n_in + 1))
        x = rng.draw_bits(n_in)
        seed = make_seed(rng, n_in)
        assert np.array_equal(toeplitz_hash(*packed(x, seed, n_out)), modified_dense(x, seed, n_out))


def test_linearity():
    rng = stream(4)
    seed = make_seed(rng, 100)
    for _ in range(50):
        x = rng.draw_bits(100)
        y = rng.draw_bits(100)
        hxy = toeplitz_hash(*packed(x ^ y, seed, 40))
        hx = toeplitz_hash(*packed(x, seed, 40))
        hy = toeplitz_hash(*packed(y, seed, 40))
        assert np.array_equal(hxy, hx ^ hy)


@pytest.mark.parametrize("n_in, w", [(10, 3), (12, 4), (14, 5)])
def test_family_is_two_universal_exhaustively(n_in, w):
    # every diagonal make_seed can draw, against every key x != 0: x hashes
    # to zero (collides with 0) under at most a 2^-w share of seeds, exactly
    # that share when its right part x[w:] is nonzero, and never otherwise
    n_seeds = 1 << (n_in - 1)
    seeds = ((np.arange(n_seeds)[:, None] >> np.arange(n_in - 1)) & 1).astype(np.uint8)
    # the hash is linear (test_linearity): column j is the hash of the unit
    # key e_j, here as a w-bit integer
    weights = 1 << np.arange(w)
    units = np.eye(n_in, dtype=np.uint8)
    cols = np.array([[toeplitz_hash(*packed(e, d, w)) @ weights for e in units] for d in seeds],
                    dtype=np.uint8)
    zeros = np.zeros(1 << n_in, dtype=np.int64)  # seeds mapping key x to 0; bit j of x is x[j]
    for block in np.array_split(cols, 16):
        hashes = np.zeros((block.shape[0], 1), dtype=np.uint8)
        for j in range(n_in):
            hashes = np.concatenate([hashes, hashes ^ block[:, j : j + 1]], axis=1)
        zeros += (hashes == 0).sum(axis=0)
    keys = np.arange(1 << n_in)
    right_nonzero = (keys >> w) != 0
    assert zeros[0] == n_seeds
    assert (zeros[1:] << w).max() <= n_seeds
    assert np.all(zeros[right_nonzero] << w == n_seeds)
    assert not zeros[1:][~right_nonzero[1:]].any()


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
    seq = lfsr_expand(state, taps, 60)
    assert np.array_equal(seq[:15], seq[15:30])
    assert np.array_equal(seq[:15], seq[30:45])
    # no shorter period
    for p in range(1, 15):
        if np.array_equal(seq[:p], seq[p : 2 * p]) and np.array_equal(seq[: 2 * p], seq[p : 3 * p]):
            pytest.fail(f"period {p} shorter than 15")
    assert np.array_equal(seq, lfsr_expand_ref(state, taps, 60))


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
    # registers wider than 256 bits and outputs of several hundred to a few
    # thousand bits, some at multiples of 512 and some just past them
    (257, 1700),
    (257, 1020),
    (300, 301),  # one bit past the register
    (400, 3001),
    (1, 1025),
    (512, 1536),  # three times the register
    (600, 2137),
])
def test_lfsr_block_division_matches_reference_past_256_bits(w, length):
    rng = stream(10)
    state, taps = rng.draw_bits(w), rng.draw_bits(w)
    taps[-1] = 1
    assert np.array_equal(lfsr_expand(state, taps, length), lfsr_expand_ref(state, taps, length))


def test_lfsr_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        lfsr_expand(np.ones(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8), 20)


# ---------------------------------------------------------------------------
# modified Toeplitz hash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_in", [50, 200])
@pytest.mark.parametrize("seed_bits", [0, "n_in - 2", "n_in"])
def test_hash_rejects_seed_of_wrong_size(n_in, seed_bits):
    rng = stream(12)
    n = {0: 0, "n_in - 2": n_in - 2, "n_in": n_in}[seed_bits]
    with pytest.raises(ValueError):
        toeplitz_hash(np.packbits(rng.draw_bits(n_in)), rng.draw_bits(n), n_in, 20)
    with pytest.raises(ValueError):  # an output wider than the key
        toeplitz_hash(*packed(rng.draw_bits(n_in), make_seed(rng, n_in), n_in + 1))


@pytest.mark.parametrize("n_in", [50, 200])
@pytest.mark.parametrize("state_bits, tap_bits, taps_nonzero", [
    (50, 50, False),  # zero feedback polynomial
    (49, 49, True),  # register narrower than n_out
    (51, 51, True),  # register wider than n_out
    (50, 49, True),  # taps narrower than the register
])
def test_lfsr_hash_rejects_bad_seed(n_in, state_bits, tap_bits, taps_nonzero):
    # a seed in the retired LFSR form, (register, taps), is refused rather
    # than read as a diagonal, whatever the widths of its two parts
    rng = stream(12)
    taps = np.ones(tap_bits, dtype=np.uint8) if taps_nonzero else np.zeros(tap_bits, dtype=np.uint8)
    seed = (rng.draw_bits(state_bits), taps)
    with pytest.raises(ValueError):
        toeplitz_hash(np.packbits(rng.draw_bits(n_in)), seed, n_in, 50)


def _case(w, extra, seed):
    """(x, diagonal, n_out) with n_out = w and n_in = w + extra."""
    gen = np.random.default_rng(seed)
    n_in = w + extra
    return gen.integers(0, 2, n_in, dtype=np.uint8), gen.integers(0, 2, n_in - 1, dtype=np.uint8), w


@st.composite
def hash_cases(draw):
    """n_in from n_out up; for small w also at and around one and two chunks."""
    w = draw(st.integers(1, 600))
    c = _chunking(w)[1]
    extra = st.integers(0, 40)
    if w <= 64:
        extra = extra | st.sampled_from([c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1])
    return _case(w, draw(extra), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=120)
@given(hash_cases())
@example(_case(1, 0, 1))
@example(_case(5, _chunking(5)[1], 2))
@example(_case(64, 2 * _chunking(64)[1], 3))
@example(_case(600, _chunking(600)[1] + 1, 4))
def test_hash_matches_dense_oracle(case):
    x, d, n_out = case
    assert np.array_equal(toeplitz_hash(*packed(x, d, n_out)), modified_dense(x, d, n_out))


# SHA-256 of the packed output for a full batch, equal to that of
# x[:w] ^ tests/oracles.py::toeplitz_hash_explicit(x[w:], d, w)
@pytest.mark.parametrize("n_out, seed_int, digest", [
    (99_035, 501, "8560a81ec35fff20c94ec4db8e10a112e148e7662fc5ba6bb223478658f36dcd"),
    (77_138, 502, "76b017e380c212ff3f8a4f906a45fedc924e1428495289582551361b0c1e8f3f"),
], ids=["99035-501", "77138-502"])
def test_full_batch_hash_digest_pinned(n_out, seed_int, digest):
    rng = new_stream(EntropySeed.from_int(seed_int))
    x = rng.draw_bits(N_SIFT_BLOCK)
    seed = make_seed(rng, N_SIFT_BLOCK)
    out = toeplitz_hash(*packed(x, seed, n_out))
    assert hashlib.sha256(np.packbits(out).tobytes()).hexdigest() == digest


def test_hash_equals_explicit_product():
    rng = stream(7)
    n_in, n_out = 3000, 700
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in)
    want = x[:n_out] ^ toeplitz_hash_explicit(x[n_out:], seed, n_out)
    assert np.array_equal(toeplitz_hash(*packed(x, seed, n_out)), want)


@pytest.mark.parametrize("w, size", [
    (512, 1 << 11),  # 2^k, at the floor of 2^11 points
    (1100, 3 << 10),  # 3 * 2^k
    (1550, 5 ** 5),  # 5^5 * 2^k, here with k = 0: an odd transform length
    (3073, 2 * 5 ** 5),  # the family's first even member, as in production
])
def test_hash_matches_dense_oracle_in_each_transform_size_family(w, size):
    # the key's right part spans two chunks, the second one partial
    assert _chunking(w) == (size, size - w + 1)
    x, d, n_out = _case(w, size - w + 8, w)
    assert np.array_equal(toeplitz_hash(*packed(x, d, n_out)), modified_dense(x, d, n_out))


def test_full_size_hash_equals_explicit_product():
    # the production shape: 9 chunks of up to 100,966 bits at 200,000 points
    n_in, n_out = N_SIFT_BLOCK, 99_035
    assert (n_in, _chunking(n_out)) == (995_328, (200_000, 100_966))
    rng = stream(14)
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in)
    want = x[:n_out] ^ toeplitz_hash_explicit(x[n_out:], seed, n_out)
    assert np.array_equal(toeplitz_hash(*packed(x, seed, n_out)), want)


def _hash_cases(rng, shapes):
    return [packed(rng.draw_bits(n_in), make_seed(rng, n_in), n_out) for n_in, n_out in shapes]


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
    seed = make_seed(rng, N_SIFT_BLOCK)
    ledger = SeedLedger()
    out = amplify_batch(np.packbits(bits), np.packbits(seed), N_SIFT_BLOCK, n_out, ledger)
    assert out.size == n_out
    with pytest.raises(SeedReuseError):
        amplify_batch(np.packbits(bits), np.packbits(seed), N_SIFT_BLOCK, n_out, ledger)


def test_amplify_ratio_zero_gives_empty_key():
    rng = stream(9)
    seed = make_seed(rng, N_SIFT_BLOCK)
    assert amplify_batch(np.packbits(rng.draw_bits(N_SIFT_BLOCK)), np.packbits(seed),
                         N_SIFT_BLOCK, 0, SeedLedger()).size == 0


def test_full_batch_throughput_floor():
    rng = stream(10)
    bits = rng.draw_bits(N_SIFT_BLOCK)
    n_out = quantize_compression(0.115)[1]
    seed = make_seed(rng, N_SIFT_BLOCK)
    bits, seed = np.packbits(bits), np.packbits(seed)
    t0 = time.time()
    out = amplify_batch(bits, seed, N_SIFT_BLOCK, n_out, SeedLedger())
    elapsed = time.time() - t0
    assert out.size == 114_463
    assert N_SIFT_BLOCK / elapsed > 1e6, f"only {N_SIFT_BLOCK / elapsed:.0f} bits/s"


def test_seed_wire_roundtrip():
    rng = stream(11)
    seed = make_seed(rng, 50)
    blob = encode_seed(seed, batch_id=7)
    assert blob[0] == 2  # the mode byte
    assert len(blob) == 9 + 7  # mode, batch, bit count, 49 bits
    assert np.array_equal(decode_pa_seed(blob, 7, 50), seed)
    with pytest.raises(SessionAborted, match="out of step"):
        decode_pa_seed(blob, 8, 50)  # the seed of another batch


def test_decode_seed_rejects_explicit_diagonal_mode():
    # a well-formed record of mode 0, an explicit diagonal, aborts
    d = stream(15).draw_bits(249)
    blob = _SEED.pack(0, 7, d.size, bits=[d])
    with pytest.raises(SessionAborted) as info:
        decode_pa_seed(blob, 7, 250)
    assert info.value.exit_code == EXIT_ABORT


@pytest.mark.parametrize("n_bits", [48, 50])
def test_decode_pa_seed_rejects_diagonal_of_another_length(n_bits):
    # the diagonal of a 50-bit key is 49 bits
    blob = encode_seed(stream(19).draw_bits(n_bits), batch_id=3)
    with pytest.raises(SessionAborted, match="not a diagonal of 49 bits") as info:
        decode_pa_seed(blob, 3, 50)
    assert info.value.exit_code == EXIT_ABORT



# ---------------------------------------------------------------------------
# packed inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_in, n_out", [
    (N_SIFT_BLOCK, 99_035),
    (N_SIFT_BLOCK, 77_138),
    (N_SIFT_BLOCK, 0),
    (N_SIFT_BLOCK, 1),
    (N_SIFT_BLOCK, N_SIFT_BLOCK - 1),
    (N_SIFT_BLOCK - 3, 99_035),  # a key that ends mid-byte
])
def test_packed_full_size_hash_equals_explicit_product(n_in, n_out):
    rng = stream(20)
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in)
    want = (x[:n_out] ^ toeplitz_hash_explicit(x[n_out:], seed, n_out) if n_out
            else np.zeros(0, dtype=np.uint8))
    got = toeplitz_hash(np.packbits(x), np.packbits(seed), n_in, n_out)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("n_in", [1, 2, 9, 1_003])
def test_packed_hash_at_output_edges_equals_both_oracles(n_in):
    # n_out = 0, 1 and n_in - 1, keys that are not a whole number of bytes
    rng = stream(21)
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in)
    for n_out in sorted({0, 1, n_in - 1}):
        got = toeplitz_hash(np.packbits(x), np.packbits(seed), n_in, n_out)
        assert np.array_equal(got, modified_dense(x, seed, n_out)), n_out
        if n_out:
            explicit = x[:n_out] ^ toeplitz_hash_explicit(x[n_out:], seed, n_out)
            assert np.array_equal(got, explicit), n_out


def test_packed_key_and_seed_with_nonzero_filler_bits_are_rejected():
    # a 50-bit key packs into 7 bytes with 6 filler bits, its 49-bit
    # diagonal into 7 bytes with 7; a nonzero filler bit is refused, by the
    # hash and by amplify_batch before its ledger fingerprints the seed, so
    # one diagonal has one fingerprint
    rng = stream(22)
    n_in = 50
    x = rng.draw_bits(n_in)
    seed = make_seed(rng, n_in)
    key, diagonal = np.packbits(x), np.packbits(seed)
    bad_key, bad_seed = key.copy(), diagonal.copy()
    bad_key[-1] |= 1
    bad_seed[-1] |= 1
    ledger = SeedLedger()
    for args in ((bad_key, diagonal), (key, bad_seed)):
        with pytest.raises(ValueError, match="filler"):
            toeplitz_hash(*args, n_in, 20)
    with pytest.raises(ValueError, match="filler"):
        amplify_batch(key, bad_seed, n_in, 20, ledger)
    out = amplify_batch(key, diagonal, n_in, 20, ledger)
    assert np.array_equal(out, modified_dense(x, seed, 20))
    assert ledger._seen == {hashlib.sha256(np.packbits(seed).tobytes()).digest()}
    with pytest.raises(SeedReuseError):
        amplify_batch(key, diagonal, n_in, 20, ledger)
    # packed arrays a byte short or long, or not flat, are refused as well
    for args in ((key[:-1], diagonal), (key, diagonal[:-1]), (np.r_[key, 0], diagonal),
                 (key, np.r_[diagonal, 0]), (key[None], diagonal)):
        with pytest.raises(ValueError):
            toeplitz_hash(*args, n_in, 20)
