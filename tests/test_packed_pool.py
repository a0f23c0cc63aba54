"""The packed key pool against its one-bit-per-byte reference.

`SecretKeyPool` holds its pad and delivery streams packed, in buffers that
double when full; `oracles.SecretKeyPoolRef` holds them one bit per byte and
concatenates on every append. Driven through one schedule, the two must hand
out the same pads and bytes and keep the same ledger, summary and digest,
and the packed pool's storage must grow with the key, not with the number
of appends.
"""

import hashlib
import math
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SecretKeyPoolRef
from cowkd.auth import TAG_BITS, parse_psk
from cowkd.engine.keypool import PAD_RESERVE_TARGET, SecretKeyPool

PSK = bytes(range(256)) * 32
N_PSK_PADS = len(parse_psk(PSK).pads)


def outcome(call):
    """What a pool call returned, or the exception it raised."""
    try:
        return "ok", call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def same_state(pool, ref):
    assert asdict(pool.ledger) == asdict(ref.ledger)
    assert pool.summary() == ref.summary()
    assert pool.deliverable_bits == ref.deliverable_bits
    assert pool.digest() == ref.digest()


# an append's next_pad: inside the pre-shared pads, or up to 200 pads past them
next_pads = st.integers(0, N_PSK_PADS + 200)
appends = st.tuples(st.just("append"), st.integers(1, 6000).filter(lambda n: n % 8),
                    st.integers(0, 2 ** 32 - 1), next_pads)  # sizes off byte boundaries
operations = st.one_of(
    appends,
    appends,
    # pre-shared pads, carved pads in any order, repeats and pads not yet carved
    st.tuples(st.just("take_pad"), st.integers(N_PSK_PADS - 2, N_PSK_PADS + 100)),
    # the first carved pads, so that a carved pad is often asked for twice
    st.tuples(st.just("take_pad"), st.integers(N_PSK_PADS, N_PSK_PADS + 3)),
    st.tuples(st.just("deliver"), st.integers(0, 400).map(lambda n: 8 * n)),
    st.tuples(st.just("deliver"), st.integers(0, 60).map(lambda n: 8 * n)),
    st.tuples(st.just("deliver"), st.integers(1, 64).filter(lambda n: n % 8)),
)


# a first block of none to over twice the pad reserve (12,192 bits), so that
# delivery starts at once, later or not at all (at once only while next_pad
# stays inside the pre-shared pads)
first_append = st.tuples(st.just("append"), st.integers(0, 4).map(lambda k: 7_001 * k),
                         st.integers(0, 2 ** 32 - 1), next_pads)


@settings(max_examples=150, deadline=None)
@given(first_append, st.lists(operations, min_size=5, max_size=50), st.integers(0, 80))
def test_packed_pool_matches_reference(first, schedule, freeze_at):
    pool, ref = SecretKeyPool(parse_psk(PSK)), SecretKeyPoolRef(parse_psk(PSK))
    for step, (op, *args) in enumerate([first, *schedule]):
        if step == freeze_at:
            pool.freeze()
            ref.freeze()
        if op == "append":
            n, seed, next_pad = args
            bits = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
            pool.append(bits, next_pad)
            ref.append(bits.copy(), next_pad)
        elif op == "take_pad":
            assert outcome(lambda: pool.take_pad(*args)) == outcome(lambda: ref.take_pad(*args))
        else:
            assert outcome(lambda: pool.deliver(*args)) == outcome(lambda: ref.deliver(*args))
        same_state(pool, ref)


def test_pool_storage_grows_with_the_key_not_the_appends():
    # 2,000 full-batch PA outputs: each stream's buffer stays within one
    # doubling of its bits, and the history is copied only when a buffer
    # grows, O(log n) times in all
    block = np.random.default_rng(11).integers(0, 2, 99_035, dtype=np.uint8)
    n_appends = 2_000
    pool = SecretKeyPool(parse_psk(PSK))
    streams = (pool._pad_bits, pool._delivery)
    grown = [0, 0]
    copied = 0  # bytes of history copied into grown buffers
    for _ in range(n_appends):
        before = [s.buf for s in streams]
        pool.append(block, next_pad=0)
        for k, (s, old) in enumerate(zip(streams, before)):
            if s.buf is not old:
                grown[k] += 1
                copied += old.size
    del before
    produced = n_appends * block.size
    assert pool.ledger.produced == produced
    assert sum(s.size for s in streams) == produced
    for s in streams:
        assert (s.size + 7) // 8 <= s.buf.size <= 2 * ((s.size + 7) // 8)
    first_delivery_bytes = (block.size - PAD_RESERVE_TARGET * TAG_BITS + 7) // 8
    assert grown[0] == 1  # the pad reserve is carved from the first block
    assert grown[1] <= 1 + math.ceil(math.log2(streams[1].buf.size / first_delivery_bytes))
    assert copied <= streams[1].buf.size
    # the digest is sha256(packed pad stream | packed delivery stream), the
    # delivery stream being the first block's rest and then whole blocks;
    # packed here 8 blocks (a whole number of bytes) at a time
    carve = PAD_RESERVE_TARGET * TAG_BITS
    h = hashlib.sha256(np.packbits(block[:carve]).tobytes() + b"|")
    head = np.concatenate([block[carve:], *[block] * 7])  # 3 + 7 * 3 bits past bytes
    assert head.size % 8 == 0
    h.update(np.packbits(head).tobytes())
    eight = np.packbits(np.tile(block, 8)).tobytes()
    for _ in range((n_appends - 8) // 8):
        h.update(eight)
    assert (n_appends - 8) % 8 == 0
    assert pool.digest() == h.hexdigest()
