import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import draw_uniform_bits
from cowkd.bitops import bits_to_int, int_to_bits, pack_bits, unpack_bits, xor_bytes
from cowkd.randomness import CounterExhausted, EntropySeed, RandomStream, new_stream


def test_seed_validation():
    with pytest.raises(ValueError):
        EntropySeed(b"short", "fixed")
    with pytest.raises(ValueError):
        EntropySeed.from_hex("ab")
    seed = EntropySeed.from_hex("ab" * 32)
    assert seed.source == "fixed"
    assert EntropySeed.from_os().source == "os"


def test_same_seed_same_output():
    s = EntropySeed.from_int(11)
    a = new_stream(s).draw_bits(4096)
    b = new_stream(s).draw_bits(4096)
    assert np.array_equal(a, b)


def test_two_draws_equal_one_draw():
    s = EntropySeed.from_int(12)
    r1, r2 = new_stream(s), new_stream(s)
    first = np.concatenate([r1.draw_bits(64), r1.draw_bits(64)])
    assert np.array_equal(first, r2.draw_bits(128))
    # odd split across block boundaries
    r3, r4 = new_stream(s), new_stream(s)
    parts = [r3.draw_bits(n) for n in (1, 130, 7, 250)]
    assert np.array_equal(np.concatenate(parts), r4.draw_bits(388))


def test_avalanche_over_100_seed_pairs():
    # flipping one seed bit decorrelates the first 1024 output bits
    diffs = []
    for k in range(100):
        base = 2 * k + 1
        s1 = EntropySeed.from_int(base)
        s2 = EntropySeed.from_int(base ^ (1 << (k % 256)))
        d = int((new_stream(s1).draw_bits(1024) ^ new_stream(s2).draw_bits(1024)).sum())
        diffs.append(d)
        sigma = np.sqrt(1024 * 0.25)
        assert abs(d - 512) < 5 * sigma, d
    mean = np.mean(diffs)
    assert abs(mean - 512) < 3 * np.sqrt(1024 * 0.25 / 100)


def test_monobit_frequency():
    bits = new_stream(EntropySeed.from_int(13)).draw_bits(1_000_000)
    assert 0.49 < bits.mean() < 0.51


def test_throughput_floor():
    r = new_stream(EntropySeed.from_int(14))
    t0 = time.time()
    r.draw_bits(10_000_000)
    assert time.time() - t0 < 1.0


def test_zero_draw_leaves_state():
    r = new_stream(EntropySeed.from_int(15))
    before = r.bits_emitted
    out = r.draw_bits(0)
    assert out.size == 0 and r.bits_emitted == before


def test_substreams_are_disjoint_and_labels_unique():
    r = new_stream(EntropySeed.from_int(16))
    sub_a = r.substream(10)
    sub_b = r.substream(11)
    a = sub_a.draw_bits(2048)
    b = sub_b.draw_bits(2048)
    c = r.draw_bits(2048)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        r.substream(10)  # label reuse
    with pytest.raises(ValueError):
        r.substream(0)  # reserved for the root


def test_counter_exhaustion_is_explicit():
    r = new_stream(EntropySeed.from_int(17))
    r._block = (1 << 96) - 1
    with pytest.raises(CounterExhausted):
        r.draw_bits(256)


def test_draw_helpers():
    r = new_stream(EntropySeed.from_int(18))
    u = r.draw_uniform(1000)
    assert ((0 <= u) & (u < 1)).all()
    v = r.draw_int(48)
    assert 0 <= v < 1 << 48
    assert len(r.draw_bytes(6)) == 6


def test_bitops_round_trips():
    bits = new_stream(EntropySeed.from_int(19)).draw_bits(64)
    assert np.array_equal(unpack_bits(pack_bits(bits), 64), bits)
    n = bits_to_int(bits)
    assert np.array_equal(int_to_bits(n, 64), bits)
    with pytest.raises(ValueError):
        int_to_bits(256, 8)
    assert xor_bytes(b"\x0f\xf0", b"\xff\x00") == b"\xf0\xf0"
    with pytest.raises(ValueError):
        xor_bytes(b"\x00", b"\x00\x00")


@given(seed=st.integers(0, 2 ** 16),
       ops=st.lists(st.tuples(st.sampled_from(["bits", "uniform", "bytes"]), st.integers(0, 300)),
                    max_size=12))
def test_interleaved_draws_match_bit_level_oracle(seed, ops):
    fast = new_stream(EntropySeed.from_int(seed))
    ref = new_stream(EntropySeed.from_int(seed))
    for kind, n in ops:
        if kind == "bits":
            assert np.array_equal(fast.draw_bits(n), ref.draw_bits(n))
        elif kind == "uniform":
            assert np.array_equal(fast.draw_uniform(n), draw_uniform_bits(ref, n))
        else:
            assert fast.draw_bytes(n) == np.packbits(ref.draw_bits(8 * n)).tobytes()
        assert fast.bits_emitted == ref.bits_emitted
    assert np.array_equal(fast.draw_bits(131), ref.draw_bits(131))
