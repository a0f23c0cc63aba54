import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import estimate_qber, gf48_mul, make_tags_per_block, poly_hash48

from cowkd.engine.frames import decode_tags, encode_tags
from cowkd.errors import SessionAborted
from cowkd.randomness import EntropySeed, new_stream
from cowkd.verification import (
    BLOCK_BITS,
    FIELD_POLY,
    N_LIMBS,
    PADDED_BITS,
    eps_ver_bound,
    gf48_mul_vec,
    hash_blocks,
    make_tags,
    verify_batch,
)


def stream(n=1):
    return new_stream(EntropySeed.from_int(n))


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def _poly_mod(a, b):
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _frobenius(times, f):
    # x^(2^times) mod f, squaring by an independent shift-and-reduce routine
    r = 2
    for _ in range(times):
        sq = 0
        for k in range(r.bit_length()):
            if (r >> k) & 1:
                sq ^= 1 << (2 * k)
        r = _poly_mod(sq, f)
    return r


def test_field_polynomial_is_irreducible():
    assert FIELD_POLY.bit_length() == 49
    assert _frobenius(48, FIELD_POLY) == 2
    for d in (24, 16):  # 48 / p for each prime divisor p of 48
        assert _poly_gcd(_frobenius(d, FIELD_POLY) ^ 2, FIELD_POLY) == 1


def test_gf48_mul_basics():
    assert gf48_mul(0, 12345) == 0
    assert gf48_mul(1, 12345) == 12345
    x47 = 1 << 47
    assert gf48_mul(x47, 2) == 0x2D  # x^48 reduces to the tail


def test_gf48_mul_matches_naive_reduction():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = int(rng.integers(0, 1 << 48))
        b = int(rng.integers(0, 1 << 48))
        # naive: carry-less multiply, then long division by the field poly
        r = 0
        aa, bb = a, b
        while bb:
            if bb & 1:
                r ^= aa
            aa <<= 1
            bb >>= 1
        expected = _poly_mod(r, FIELD_POLY)
        assert gf48_mul(a, b) == expected


def test_gf48_vector_core_matches_scalar():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << 48, size=500).astype(np.uint64)
    b = rng.integers(0, 1 << 48, size=500).astype(np.uint64)
    vec = gf48_mul_vec(a, b)
    for i in range(a.size):
        assert int(vec[i]) == gf48_mul(int(a[i]), int(b[i]))


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def test_zero_message_hashes_to_zero():
    msg = np.zeros(PADDED_BITS, dtype=np.uint8)
    for seed in (0, 1, 0xDEADBEEF, (1 << 48) - 1):
        assert poly_hash48(msg, seed) == 0


def test_hash_blocks_matches_scalar_path():
    rng = stream(3)
    blocks = rng.draw_bits(5 * BLOCK_BITS).reshape(5, BLOCK_BITS)
    seeds = np.array([7, 99, 12345, 1 << 40, 3], dtype=np.uint64)
    vec = hash_blocks(blocks, seeds)
    for i in range(5):
        padded = np.concatenate([blocks[i], np.zeros(PADDED_BITS - BLOCK_BITS, dtype=np.uint8)])
        assert int(vec[i]) == poly_hash48(padded, int(seeds[i]))


def test_single_chunk_difference_rarely_collides():
    # Monte-Carlo over random seeds; expected collisions ~ 1e5 * 43 / 2^48 ~ 0
    rng = np.random.default_rng(5)
    n = 100_000
    seeds = rng.integers(0, 1 << 48, size=n).astype(np.uint64)
    delta = np.uint64(rng.integers(1, 1 << 48))
    # difference polynomial delta * s^i evaluates to 0 only at s = 0
    i = int(rng.integers(1, N_LIMBS + 1))
    acc = np.full(n, delta, dtype=np.uint64)
    for _ in range(i):
        acc = gf48_mul_vec(acc, seeds)
    collisions = int((acc == 0).sum()) - int((seeds == 0).sum() > 0)
    assert collisions <= 0


def test_verification_epsilon_bound():
    assert eps_ver_bound(512) <= 8e-11
    assert eps_ver_bound(512) == 512 * 43 / 2**48


def test_tag_wire_roundtrip():
    # window | blocks | (seed, tag) per block, each 48 bits big-endian
    seeds = np.array([0xABCDEF012345, 1], dtype=np.uint64)
    tags = np.array([0x123456789ABC, (1 << 48) - 1], dtype=np.uint64)
    blob = encode_tags(7, seeds, tags)
    assert blob.hex() == ("00000007" "0002" "abcdef012345" "123456789abc"
                          "000000000001" "ffffffffffff")
    back_seeds, back_tags = decode_tags(blob, 7, 2)
    assert np.array_equal(back_seeds, seeds) and np.array_equal(back_tags, tags)
    with pytest.raises(SessionAborted, match="wrong length"):
        decode_tags(blob[:-1], 7, 2)


def test_identical_blocks_all_pass():
    rng = stream(4)
    blocks = rng.draw_bits(8 * BLOCK_BITS).reshape(8, BLOCK_BITS)
    seeds, tags = make_tags(blocks, stream(9))
    assert verify_batch(blocks, seeds, tags).all()


def test_flipped_bit_drops_only_that_block():
    rng = stream(6)
    blocks = rng.draw_bits(8 * BLOCK_BITS).reshape(8, BLOCK_BITS)
    seeds, tags = make_tags(blocks, stream(10))
    tampered = blocks.copy()
    tampered[3, 1000] ^= 1
    flags = verify_batch(tampered, seeds, tags)
    assert not flags[3]
    assert flags.sum() == 7


def test_tag_count_mismatch_aborts():
    rng = stream(8)
    blocks = rng.draw_bits(4 * BLOCK_BITS).reshape(4, BLOCK_BITS)
    seeds, tags = make_tags(blocks, stream(11))
    with pytest.raises(SessionAborted):
        verify_batch(blocks[:3], seeds, tags)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([0, 1, 2, 63, 64, 65, 512]), skip=st.integers(0, 47),
       seed=st.integers(0, 1 << 32))
def test_make_tags_matches_per_block_draws(n, skip, seed):
    # one draw for all seeds gives each block the seed a draw per block would,
    # from any bit offset, and leaves the stream at the same place
    blocks = np.random.default_rng(seed).integers(0, 2, (n, BLOCK_BITS), dtype=np.uint8)
    fast, ref = stream(seed), stream(seed)
    fast.draw_bits(skip)
    ref.draw_bits(skip)
    for got, want in zip(make_tags(blocks, fast), make_tags_per_block(blocks, ref)):
        assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert np.array_equal(fast.draw_bits(64), ref.draw_bits(64))


def test_seeds_are_fresh_per_block():
    blocks = np.zeros((64, BLOCK_BITS), dtype=np.uint8)
    seeds, _ = make_tags(blocks, stream(12))
    assert np.unique(seeds).size == seeds.size


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_estimate_zero_errors_zero_drops():
    blocks = stream(14).draw_bits(4 * BLOCK_BITS).reshape(4, BLOCK_BITS)
    est = estimate_qber(blocks, blocks, np.ones(4, dtype=bool))
    assert est.mismatch_count == 0
    assert est.qber_raw == 0.0
    assert est.qber_effective == 0.0


def test_estimate_reproduces_effective_qber_identity():
    # raw 1.91 % with a 3.1 % drop rate -> 0.969 * 0.0191 + 0.031 * 0.5
    n_blocks = 1000
    n_drop = 31
    rng = np.random.default_rng(17)
    orig = rng.integers(0, 2, size=(n_blocks, BLOCK_BITS)).astype(np.uint8)
    corr = orig.copy()
    passed = np.ones(n_blocks, dtype=bool)
    passed[:n_drop] = False
    n_err = round(0.0191 * (n_blocks - n_drop) * BLOCK_BITS)
    # place errors at unique positions so no two flips cancel
    seen = set()
    placed = 0
    while placed < n_err:
        r, c = int(rng.integers(n_drop, n_blocks)), int(rng.integers(0, BLOCK_BITS))
        if (r, c) not in seen:
            seen.add((r, c))
            corr[r, c] ^= 1
            placed += 1
    est = estimate_qber(orig, corr, passed)
    expected = (1 - n_drop / n_blocks) * est.qber_raw + (n_drop / n_blocks) * 0.5
    assert est.qber_effective == pytest.approx(expected, rel=1e-12)
    assert est.qber_raw == pytest.approx(0.0191, abs=2e-5)
    assert est.qber_effective == pytest.approx(0.034, abs=5e-4)


def test_estimate_inverts_to_drop_rate():
    # effective 1.98 % at raw 1.70 % implies a drop rate near 0.58 %
    q_raw, q_eff = 0.0170, 0.0198
    drop = (q_eff - q_raw) / (0.5 - q_raw)
    assert drop == pytest.approx(0.0058, abs=2e-4)


def test_estimate_rejects_misaligned_input():
    a = np.zeros((4, BLOCK_BITS), dtype=np.uint8)
    with pytest.raises(ValueError):
        estimate_qber(a, a[:3], np.ones(4, dtype=bool))
