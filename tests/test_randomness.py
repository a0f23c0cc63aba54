import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import aes_ctr_bits, uniform_from_bits
from cowkd.bitops import bits_to_int, pack_bits, unpack_bits
from cowkd.randomness import CounterExhausted, EntropySeed, RandomStream, new_stream


def test_seed_validation():
    with pytest.raises(ValueError):
        EntropySeed(b"short")
    with pytest.raises(ValueError):
        EntropySeed.from_hex("ab")
    assert EntropySeed.from_hex("ab" * 32).bits == b"\xab" * 32


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
    # domain-separated streams of one seed: distinct labels, distinct bits
    s = EntropySeed.from_int(16)
    a = RandomStream(s, 10).draw_bits(2048)
    b = RandomStream(s, 11).draw_bits(2048)
    c = new_stream(s).draw_bits(2048)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RandomStream(s, 1 << 32)  # the label must fit its 32 counter bits
    with pytest.raises(ValueError):
        RandomStream(s, -1)


def test_counter_exhaustion_is_explicit():
    r = new_stream(EntropySeed.from_int(17))
    r._block = (1 << 96) - 1
    with pytest.raises(CounterExhausted):
        r.draw_bits(256)


def test_stream_crosses_block_2_64_and_ends_at_2_96():
    # the per-domain counter is 96 bits wide: block 2^64 follows 2^64 - 1,
    # and the domain's last block 2^96 - 1 is drawn before it is exhausted
    s = EntropySeed.from_int(20)
    r = RandomStream(s, 5)
    r._block = (1 << 64) - 1
    assert np.array_equal(r.draw_bits(300), aes_ctr_bits(s, 5, 300, start=(1 << 64) - 1))
    assert r._block == (1 << 64) + 2
    r = RandomStream(s, 5)
    r._block = (1 << 96) - 1
    assert np.array_equal(r.draw_bits(128), aes_ctr_bits(s, 5, 128, start=(1 << 96) - 1))
    with pytest.raises(CounterExhausted):
        r.draw_bits(1)


def test_draw_helpers():
    r = new_stream(EntropySeed.from_int(18))
    u = r.draw_uniform(1000)
    assert ((0 <= u) & (u < 1)).all()
    assert len(r.draw_bytes(6)) == 6
    with pytest.raises(ValueError):
        r.draw_bits(-1)


def test_bitops_round_trips():
    bits = new_stream(EntropySeed.from_int(19)).draw_bits(64)
    assert np.array_equal(unpack_bits(pack_bits(bits), 64), bits)
    assert bits_to_int(bits) == int.from_bytes(pack_bits(bits), "big")


_BITS_PER = {"bits": 1, "bytes": 8, "uniform": 32}


def _at_every_bit_offset(test):
    # word and byte draws from each of the 8 bit offsets, across AES blocks
    for k in range(8):
        ops = [("bits", k), ("uniform", 9), ("bytes", 5), ("bits", 131), ("uniform", 1)]
        test = example(seed=k, domain=k % 2, ops=ops)(test)
    return test


@given(seed=st.integers(0, 2 ** 16), domain=st.sampled_from([0, 1, 3]),
       ops=st.lists(st.tuples(st.sampled_from(["bits", "uniform", "bytes", "jump"]),
                              st.integers(0, 300)), max_size=12))
@example(seed=0, domain=1, ops=[("uniform", 5), ("jump", 0), ("bits", 7), ("jump", 9),
                                ("jump", 9), ("bytes", 3)])
@_at_every_bit_offset
def test_interleaved_draws_match_bit_level_oracle(seed, domain, ops):
    # every draw is the next slice of the AES counter stream, whatever kind
    # of draw came before it; a jump draws the rest of the current block and
    # then sets the block counter by hand (forward, back or in place), after
    # which the stream continues from that block
    s = EntropySeed.from_int(seed)
    r = RandomStream(s, domain)
    start, pos, emitted = 0, 0, 0  # current run of blocks, bits drawn from it, in all
    for kind, n in ops + [("bits", 131)]:
        if kind == "jump":
            rest = r._buf_bits
            want = aes_ctr_bits(s, domain, pos + rest, start)[pos:]
            assert np.array_equal(r.draw_bits(rest), want)
            emitted += rest
            start, pos = n, 0
            r._block = start
            continue
        want = aes_ctr_bits(s, domain, pos + _BITS_PER[kind] * n, start)[pos:]
        pos += want.size
        emitted += want.size
        if kind == "bits":
            got = r.draw_bits(n)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        elif kind == "uniform":
            assert np.array_equal(r.draw_uniform(n), uniform_from_bits(want))
        else:
            assert r.draw_bytes(n) == np.packbits(want).tobytes()
        assert r.bits_emitted == emitted
        assert r._block == start + -(-pos // 128)


def test_draws_survive_later_draws():
    # each draw's keystream passes through buffers; a result must not share them
    r = new_stream(EntropySeed.from_int(21))
    u = r.draw_uniform(5000)
    bits = r.draw_bits(999)
    kept = u.copy(), bits.copy()
    r.draw_bits(3)  # off a byte boundary
    r.draw_uniform(5000)
    r.draw_bits(40_000)
    r.draw_uniform(7)
    assert np.array_equal(u, kept[0]) and np.array_equal(bits, kept[1])
