import socket
import threading

import numpy as np
import pytest

from cowkd.auth import PSK_MIN_BYTES, TAG_BITS, parse_psk
from cowkd.engine import (
    EXIT_ABORT,
    EXIT_CONFIG,
    AuthAlarm,
    DeliveryFrozen,
    InsufficientKey,
    LoopbackTransport,
    PadsExhausted,
    SecretKeyPool,
    SessionAborted,
    SessionConfig,
    TcpTransport,
    TransportClosed,
    decode_header,
    encode_frame,
    run_session,
)
from cowkd.engine import frames
from cowkd.engine import session as session_mod
from cowkd.engine.frames import (
    CH_ADMIN,
    CH_PA_SEED,
    CH_SIFTING,
    CH_VERIFY,
    HEADER_BYTES,
)
from cowkd.engine.keypool import PAD_RESERVE_TARGET
from cowkd.engine.session import AliceParty, BobParty
from cowkd.presets import channel_params
from cowkd.sifting import CONTROL_DATA, SiftingMode
from cowkd.verification import BLOCK_BITS

PSK = bytes(range(256)) * 32  # 8 KiB deterministic test PSK
SEED = "ab" * 32
# pool and per-direction transcript digests of small_config(): a refactor
# must not change the keys or the wire
SMALL_CONFIG_POOL_DIGEST = "a4904d7162d4814b7db577445e26aa88bd276fc920a50646106729e5c142398e"
SMALL_CONFIG_ALICE_TO_BOB = "9b7f355f60e1da6019c8adf790d7435a11023e82158a4c8fde789ede5be64ecf"
SMALL_CONFIG_BOB_TO_ALICE = "237825d035b1b9d9a03419b14e5eeb673214a3cd667b3e00681ef8dbf581e653"


def small_config(**kw):
    defaults = dict(
        params=channel_params(1.0),
        n_batches=2,
        blocks_per_batch=8,
        chunk_qubits=1 << 21,
        seed_hex=SEED,
        psk=PSK,
        compression=0.115,
        enforce_compression_bound=False,
    )
    defaults.update(kw)
    return SessionConfig(**defaults)


# ---------------------------------------------------------------------------
# frames and transports
# ---------------------------------------------------------------------------

def test_frame_roundtrip():
    raw = encode_frame(CH_SIFTING, b"hello")
    channel, length = decode_header(raw[:4])
    assert channel == CH_SIFTING and length == 5
    assert raw[4:] == b"hello"


def test_frame_rejects_bad_channel_and_size():
    with pytest.raises(SessionAborted):
        encode_frame(99, b"")
    with pytest.raises(SessionAborted):
        encode_frame(CH_SIFTING, b"x" * (1 << 24))
    with pytest.raises(SessionAborted):
        decode_header(bytes([99, 0, 0, 0]))


def test_loopback_transport_ordering():
    a, b = LoopbackTransport.pair(timeout=5)
    a.send(b"abc")
    a.send(b"def")
    assert b.recv_exact(6) == b"abcdef"
    b.send(b"xy")
    assert a.recv_exact(2) == b"xy"
    a.close()
    b.close()


def test_tcp_transport_roundtrip():
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    got = {}

    def server():
        t = TcpTransport.listen_accept("127.0.0.1", port, timeout=10)
        got["data"] = t.recv_exact(4)
        t.send(b"pong")
        t.close()

    th = threading.Thread(target=server, daemon=True)
    th.start()
    client = TcpTransport.connect("127.0.0.1", port, timeout=10)
    client.send(b"ping")
    assert client.recv_exact(4) == b"pong"
    client.close()
    th.join(5)
    assert got["data"] == b"ping"


def _write_pieces(sock, frame, sizes, close_after):
    """Send `frame` in pieces of the given sizes (cycled), then maybe close."""
    import time

    pos, k = 0, 0
    while pos < len(frame):
        step = sizes[k % len(sizes)]
        sock.sendall(frame[pos : pos + step])
        pos += step
        k += 1
        time.sleep(0)  # let the reader take what has arrived so far
    if close_after:
        sock.close()


@pytest.mark.parametrize("sizes", [[1], [3, 1, 7, 2, 5], [4093, 1, 8191]])
def test_tcp_recv_exact_assembles_pieces(sizes):
    import socket

    frame = np.random.default_rng(len(sizes)).integers(0, 256, 13_000, dtype=np.uint8).tobytes()
    a, b = socket.socketpair()
    reader = TcpTransport(a)
    writer = threading.Thread(target=_write_pieces, args=(b, frame, sizes, False))
    writer.start()
    try:
        assert reader.recv_exact(7) == frame[:7]
        assert reader.recv_exact(len(frame) - 7) == frame[7:]
    finally:
        writer.join(10)
        assert not writer.is_alive()
        reader.close()
        b.close()


def test_tcp_recv_exact_close_mid_frame_raises():
    import socket

    a, b = socket.socketpair()
    reader = TcpTransport(a)
    writer = threading.Thread(target=_write_pieces, args=(b, b"\x01" * 301, [1, 150], True))
    writer.start()
    try:
        with pytest.raises(TransportClosed):
            reader.recv_exact(1000)
    finally:
        writer.join(10)
        assert not writer.is_alive()
        reader.close()


# ---------------------------------------------------------------------------
# key pool
# ---------------------------------------------------------------------------

def make_pool():
    return SecretKeyPool(parse_psk(PSK))


def delivering_pool():
    """A pool whose pad reserve is already full, so that it delivers all it
    absorbs next while no pad index passes the pre-shared pads (next_pad 0)."""
    pool = make_pool()
    pool.append(np.zeros(PAD_RESERVE_TARGET * TAG_BITS, dtype=np.uint8), next_pad=0)
    assert pool.deliverable_bits == 0
    return pool


def test_pool_psk_pads_then_reserved_stream():
    pool = make_pool()
    n_psk = (len(PSK) - 16) // 16
    p0 = pool.take_pad(0)
    assert 0 <= p0 < (1 << 127)
    with pytest.raises(PadsExhausted):
        pool.take_pad(0)  # single use
    with pytest.raises(PadsExhausted):
        pool.take_pad(n_psk)  # nothing produced yet
    rng = np.random.default_rng(3)
    pool.append(rng.integers(0, 2, size=2000).astype(np.uint8), next_pad=0)
    v1 = pool.take_pad(n_psk)
    v2 = pool.take_pad(n_psk + 1)
    assert v1 != v2
    with pytest.raises(PadsExhausted):
        pool.take_pad(n_psk)  # a carved pad is single use too
    assert pool.ledger.consumed_auth == 2 * TAG_BITS


def test_pool_pad_order_independence():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=3000).astype(np.uint8)
    a = make_pool()
    b = make_pool()
    a.append(bits, next_pad=0)
    b.append(bits, next_pad=0)
    n_psk = (len(PSK) - 16) // 16
    idx = [n_psk, n_psk + 2, n_psk + 1]
    vals_a = [a.take_pad(i) for i in idx]
    vals_b = [b.take_pad(i) for i in sorted(idx)]
    assert sorted(vals_a) == sorted(vals_b)
    assert a.digest() == b.digest()


def test_pools_carve_alike_whenever_their_pads_are_taken():
    # in a session each party takes the pads of its own tags at once and the
    # peer's only when their tags arrive; both append under the same
    # next_pad, so both pools carve alike and hand out the same pads
    n_psk = len(parse_psk(PSK).pads)
    rng = np.random.default_rng(12)
    a, b = make_pool(), make_pool()
    pads_a, pads_b, late = {}, {}, []
    start = n_psk - 60
    for next_pad in (n_psk - 30, n_psk + 50, n_psk + 140, n_psk + 230):
        block = rng.integers(0, 2, 40_000, dtype=np.uint8)
        a.append(block, next_pad)
        b.append(block, next_pad)
        assert a.digest() == b.digest()
        for i in reversed(late):  # b's pads of the last round, after the append
            pads_b[i] = b.take_pad(i)
        due = range(start, next_pad + PAD_RESERVE_TARGET // 2)
        for i in due:
            pads_a[i] = a.take_pad(i)
        for i in due[::2]:
            pads_b[i] = b.take_pad(i)
        late, start = list(due[1::2]), due.stop
    for i in late:
        pads_b[i] = b.take_pad(i)
    assert pads_a == pads_b
    assert a.summary() == b.summary()
    assert a.summary()["reserved_auth_bits"] == (230 + PAD_RESERVE_TARGET) * TAG_BITS


def test_pool_delivery_disjoint_and_zeroized():
    pool = delivering_pool()
    rng = np.random.default_rng(5)
    pool.append(rng.integers(0, 2, size=4096).astype(np.uint8), next_pad=0)
    k1 = pool.deliver(128)
    k2 = pool.deliver(128)
    assert k1 != k2
    assert pool.ledger.delivered == 256
    # a second pool fed the same key and asked later must not see k1 again
    with pytest.raises(InsufficientKey):
        pool.deliver(1 << 20)
    ledger = pool.ledger
    assert ledger.produced - ledger.consumed_auth - ledger.delivered == (
        PAD_RESERVE_TARGET * TAG_BITS + 4096 - 256)


def test_pool_delivery_cadence_identity():
    # 30 fresh 128-bit keys per second needs exactly 3840 bps of delivery
    pool = delivering_pool()
    rng = np.random.default_rng(6)
    pool.append(rng.integers(0, 2, size=3840).astype(np.uint8), next_pad=0)
    for _ in range(30):
        pool.deliver(128)
    assert pool.deliverable_bits == 0
    assert 30 * 128 == 3840


def test_pool_freeze_blocks_delivery():
    pool = delivering_pool()
    pool.append(np.ones(512, dtype=np.uint8), next_pad=0)
    pool.freeze()
    with pytest.raises(DeliveryFrozen):
        pool.deliver(128)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def test_loopback_session_pools_identical():
    ra, rb = run_session(small_config())
    assert ra["pool_digest"] == rb["pool_digest"] == SMALL_CONFIG_POOL_DIGEST
    assert ra["secret_bits"] > 0
    assert ra["alarms"] == [] and rb["alarms"] == []
    assert ra["transcript"]["out"] == rb["transcript"]["in"] == SMALL_CONFIG_ALICE_TO_BOB
    assert ra["transcript"]["in"] == rb["transcript"]["out"] == SMALL_CONFIG_BOB_TO_ALICE


def test_frame_spanning_several_units_is_tagged_unit_by_unit():
    # one frame longer than two 2^20-bit units: each unit gets its own pad
    ta, tb = LoopbackTransport.pair(timeout=5)
    sender = session_mod._Endpoint(ta, make_pool(), parse_psk(PSK).poly_key, out_dir=1)
    receiver = session_mod._Endpoint(tb, make_pool(), parse_psk(PSK).poly_key, out_dir=0)
    big = bytes(range(256)) * 1200  # 307,200 bytes
    received = []

    def receive():  # the frame outgrows the socket buffer: read while it is sent
        try:
            received.append(receiver.recv())
            received.append(receiver.recv())  # verifies the two full units
            receiver.recv_final_tag()
        except Exception as exc:
            received.append(exc)

    reader = threading.Thread(target=receive)
    reader.start()
    sender.send(CH_SIFTING, big)
    sender.send(CH_ADMIN, b"end")
    sender.flush_final_tag()
    reader.join(10)
    assert not reader.is_alive()
    assert received[0] == (CH_SIFTING, big)
    assert received[1] == (CH_ADMIN, b"end")
    assert received[2:] == []  # the final tag verified
    assert sender.units_tagged() == receiver.units_tagged() == 3
    ta.close()
    tb.close()


def test_loopback_session_deterministic_across_runs():
    ra1, rb1 = run_session(small_config())
    ra2, rb2 = run_session(small_config())
    assert ra1["transcript"] == ra2["transcript"]
    assert rb1["pool_digest"] == rb2["pool_digest"]
    assert ra1["per_batch"] == ra2["per_batch"]


def test_session_observables_match_calibration():
    ra, rb = run_session(small_config(n_batches=3))
    qbers = [row["qber_raw"] for row in ra["per_batch"]]
    assert np.mean(qbers) == pytest.approx(0.017, abs=0.004)
    # per-batch visibility carries ~0.005 statistical noise at this size
    vis = [row["visibility_raw"] for row in ra["per_batch"]]
    assert np.mean(vis) == pytest.approx(0.9814, abs=0.012)
    assert rb["sifted_fraction"] == pytest.approx(0.732, abs=0.02)


def test_session_auth_reconciliation():
    ra, rb = run_session(small_config())
    # both directions tag the same number of units; every pad is 127 bits
    assert ra["auth_units"] == rb["auth_units"]
    n_psk = (len(PSK) - 16) // 16
    pool_pads = max(0, ra["pool"]["pads_taken"] - n_psk)
    assert ra["pool"]["consumed_auth_bits"] == pool_pads * TAG_BITS
    # the pool issues one pad per unit tagged or verified, and no other
    for report in (ra, rb):
        assert report["pool"]["pads_taken"] == report["auth_units"]


def test_session_with_heavy_drops_still_agrees():
    # rate 5/6 at a 1.7 % channel fails most blocks; the batch must refill
    # from later passing windows and both pools must still match
    cfg = small_config(code_rate="5/6", n_batches=1, blocks_per_batch=4)
    ra, rb = run_session(cfg)
    assert ra["pool_digest"] == rb["pool_digest"]
    assert ra["per_batch"][0]["dropped_blocks"] > 0
    assert ra["qber_effective"] > ra["qber_raw"]


def test_session_over_its_compression_bound_aborts_at_batch_0():
    # an 8-block batch measures a secret fraction of 0 (the finite-size
    # penalties), so with the bound on, the configured 0.115 exceeds it:
    # both parties freeze their pools at batch 0 and deliver nothing
    cfg = small_config(enforce_compression_bound=True)
    ta, tb = LoopbackTransport.pair(timeout=20)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    errors = run_parties(alice, bob, 30)
    assert set(errors) == {"alice", "bob"}
    for party in (alice, bob):
        err = errors[party.role]
        assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)
        assert str(err) == ("batch 0: compression 0.1150 exceeds measured secret "
                            "fraction 0.0000")
        assert party.alarms == [str(err)]
        assert party.pool.frozen
        assert party.batches == []
        assert party.pool.ledger.produced == party.pool.ledger.delivered == 0


def test_full_size_batch_over_its_compression_bound_aborts():
    # one full 512-block batch at 1 km measures a secret fraction near 0.11,
    # so an explicit compression of 0.2 exceeds it: both parties abort at
    # batch 0 with frozen pools, no batch row and nothing delivered
    cfg = SessionConfig(params=channel_params(1.0), n_batches=1, seed_hex="5e" * 32,
                        psk=PSK, compression=0.2)
    assert cfg.enforce_compression_bound and cfg.blocks_per_batch == 512
    ta, tb = LoopbackTransport.pair(timeout=60)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    errors = run_parties(alice, bob, 90)
    assert set(errors) == {"alice", "bob"}
    for party in (alice, bob):
        err = errors[party.role]
        assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)
        assert str(err).startswith("batch 0: compression 0.2000 exceeds measured secret fraction 0.1")
        assert party.alarms == [str(err)]
        assert party.pool.frozen
        assert party.batches == []
        assert party.pool.ledger.produced == party.pool.ledger.delivered == 0
    assert str(errors["alice"]) == str(errors["bob"])  # both decide from the same counts


@pytest.mark.parametrize("cfg, pool_digest", [
    (small_config(), SMALL_CONFIG_POOL_DIGEST),
    # rate 5/6 drops most blocks: 22 of 26 and 13 of 17
    (small_config(code_rate="5/6", n_batches=2, blocks_per_batch=4),
     "a293b6b9d1f43ade74f36eb4f403aefc24f798f2e18bab7ba7ce08e779454d1c"),
], ids=["small", "heavy drops"])
def test_sub_windows_keep_keys_and_drops(monkeypatch, cfg, pool_digest):
    # Bob streams each batch's error correction in sub-windows. Rows decode
    # independently under the batch's prior and tag seeds are drawn in block
    # order, so where the windows split changes neither keys nor drop counts
    ra, _ = run_session(cfg)
    monkeypatch.setattr(session_mod, "SUB_WINDOW_BLOCKS", 2)
    ta, tb = LoopbackTransport.pair(timeout=20)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    assert run_parties(alice, bob, 30) == {}
    assert bob.window >= cfg.n_batches * cfg.blocks_per_batch // 2
    patched = alice.report()
    assert patched["pool_digest"] == bob.report()["pool_digest"] == ra["pool_digest"] == pool_digest
    assert patched["per_batch"] == ra["per_batch"]  # attempted and dropped blocks included


@pytest.mark.parametrize("cfg", [
    small_config(),
    small_config(code_rate="5/6", n_batches=2, blocks_per_batch=4),
    small_config(params=channel_params(25.0), blocks_per_batch=16),
], ids=["small", "heavy drops", "25 km"])
def test_both_parties_close_each_batch_alike(cfg):
    # both parties cut, estimate, amplify and decide each batch on one path,
    # from the same counts, so their batch rows agree field by field
    ra, rb = run_session(cfg)
    assert len(ra["per_batch"]) == cfg.n_batches
    assert ra["per_batch"] == rb["per_batch"]


@pytest.mark.parametrize("km, n_batches, blocks, chunk", [
    (1.0, 40, 64, 1 << 23),  # was an authentication alarm on unit 81
    (1.0, 60, 32, 1 << 22),  # was exit 0 with different pools
    (25.0, 16, 64, 1 << 23),  # was exit 0 with different pools
], ids=["1 km 40x64", "1 km 60x32", "25 km 16x64"])
def test_sessions_past_the_pre_shared_pads_keep_equal_pools(km, n_batches, blocks, chunk):
    # on the shortest valid key the pads soon come from the pool's stream.
    # Each party has taken its own tags' pads by an append but not yet those
    # of the peer's tags in flight; both carve from the schedule position
    # they share, so the pools stay equal and every tag verifies
    cfg = small_config(params=channel_params(km), n_batches=n_batches, blocks_per_batch=blocks,
                       chunk_qubits=chunk, seed_hex="5e" * 32, psk=PSK[:PSK_MIN_BYTES])
    ra, rb = run_session(cfg)
    assert ra["pool_digest"] == rb["pool_digest"]
    for report in (ra, rb):
        assert report["exit_code"] == 0 and report["alarms"] == []
        assert report["batches"] == n_batches
        assert report["pool"]["consumed_auth_bits"] > 0  # pads past the pre-shared ones


def test_pad_reserve_covers_batches_past_its_constant():
    # a 1,024-block batch spans ~100 pad indices, more than the constant
    # reserve: each append carves 1.5 spans ahead, so the third batch no
    # longer ends in "pad 303 beyond reserved stream" with ample key pooled
    cfg = small_config(n_batches=3, blocks_per_batch=1024, chunk_qubits=1 << 24,
                       seed_hex="5e" * 32, psk=PSK[:2000])
    ra, rb = run_session(cfg, timeout=60)
    assert ra["pool_digest"] == rb["pool_digest"]
    for report in (ra, rb):
        assert report["exit_code"] == 0 and report["batches"] == 3
        assert report["pool"]["consumed_auth_bits"] > 0  # pads past the pre-shared ones


def test_psk_too_short_for_the_first_batch_aborts_both_with_exit_3():
    # the shortest valid key holds 64 pads, enough for a full-size first
    # batch; a 1,024-block batch at 1 km tags more units than that before
    # the pool holds any key, so both parties end in exit 3 with live
    # pools, never in a stray exception or an authentication alarm
    cfg = SessionConfig(params=channel_params(1.0), n_batches=1, blocks_per_batch=1024,
                        seed_hex="5e" * 32, psk=PSK[:PSK_MIN_BYTES])
    assert len(parse_psk(cfg.psk).pads) == 64
    ta, tb = LoopbackTransport.pair(timeout=20)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, tb)
    errors = run_parties(alice, bob, 30)
    assert set(errors) == {"alice", "bob"}
    assert isinstance(errors["bob"], PadsExhausted), repr(errors["bob"])
    for party in (alice, bob):
        err = errors[party.role]
        assert isinstance(err, SessionAborted) and not isinstance(err, AuthAlarm), repr(err)
        assert err.exit_code == EXIT_ABORT
        assert not party.pool.frozen and party.batches == []


class _RecordingTransport:
    """Logs each frame in the order its side sends or reads it."""

    def __init__(self, inner):
        self._inner = inner
        self.log = []  # ("send" | "recv", channel id, payload)
        self._reading = None  # channel of a header whose payload comes next

    def send(self, data: bytes):
        self.log.append(("send", decode_header(data[:HEADER_BYTES])[0], data[HEADER_BYTES:]))
        self._inner.send(data)

    def recv_exact(self, n):
        data = self._inner.recv_exact(n)
        if self._reading is None:
            channel_id, length = decode_header(data)
            if length:
                self._reading = channel_id
            else:
                self.log.append(("recv", channel_id, b""))
        else:
            self.log.append(("recv", self._reading, bytes(data)))
            self._reading = None
        return data

    def close(self):
        self._inner.close()


def test_bob_discloses_ahead_only_while_the_batch_needs_it(monkeypatch):
    n_data = []  # data detections of each disclosed chunk, in order
    encode = session_mod.encode

    def counting_encode(events, mode):
        n_data.append(int(events.data_mask().sum()))
        return encode(events, mode)

    monkeypatch.setattr(session_mod, "encode", counting_encode)
    cfg = small_config()
    ta, tb = LoopbackTransport.pair(timeout=20)
    recorder = _RecordingTransport(tb)
    alice, bob = AliceParty(cfg, ta), BobParty(cfg, recorder)
    assert run_parties(alice, bob, 30) == {}
    assert bob.report()["pool_digest"] == SMALL_CONFIG_POOL_DIGEST

    # replay Bob's view: the bits he holds toward the batch and does not know
    # to be dropped, whether queued, in flight or passed
    held = disclosed = read = deepest = 0
    for kind, channel_id, payload in recorder.log:
        if (kind, channel_id) == ("send", CH_SIFTING):
            unread = disclosed - read  # disclosed chunks whose verdict is unread
            if unread:
                assert unread < session_mod.MAX_UNREAD_CHUNKS
                # even keeping every data bit of those chunks, the batch needed this one
                assert (held + sum(n_data[read:disclosed])) // BLOCK_BITS < cfg.blocks_per_batch
            deepest = max(deepest, unread)
            disclosed += 1
        elif (kind, channel_id) == ("recv", CH_SIFTING):
            held += int(frames.decode_sift_response(payload, n_data[read]).sum())
            read += 1
        elif (kind, channel_id) == ("recv", CH_VERIFY):
            window, n = int.from_bytes(payload[:4], "big"), int.from_bytes(payload[4:6], "big")
            held -= BLOCK_BITS * int(n - frames.decode_verify_response(payload, window, n).sum())
        elif (kind, channel_id) == ("send", CH_PA_SEED):
            assert disclosed == read  # nothing disclosed past the batch's last chunk
            held -= cfg.n_sift
    assert deepest > 1  # more than one chunk ahead at least once
    assert disclosed == read == len(n_data)


# per-direction transcript digests of small_config() in 2-block sub-windows
# with Bob one chunk ahead (MAX_UNREAD_CHUNKS = 2)
TWO_DEEP_ALICE_TO_BOB = "0fc98eba5569184cf48458a68cc7d36274c0a5a6b67547c7245a707b5bc8012a"
TWO_DEEP_BOB_TO_ALICE = "e5151e72860f1013ba6e7db6e065c5bb0cf026e7cf154ea22b8d4135d7fe146d"


def test_reading_verdicts_later_moves_only_the_frame_order(monkeypatch):
    # in 2-block sub-windows, windows go out between disclosures, so how far
    # ahead Bob discloses moves frames in both directions; it reads verdicts
    # and sends windows in the same chunk order, so keys and drops stay
    monkeypatch.setattr(session_mod, "SUB_WINDOW_BLOCKS", 2)
    cfg = small_config()
    runs = []
    for depth in (session_mod.MAX_UNREAD_CHUNKS, 2):
        monkeypatch.setattr(session_mod, "MAX_UNREAD_CHUNKS", depth)
        runs.append(run_session(cfg)[0])
    deep, two = runs
    assert deep["pool_digest"] == two["pool_digest"] == SMALL_CONFIG_POOL_DIGEST
    assert deep["per_batch"] == two["per_batch"]
    assert deep["transcript"]["out"] != two["transcript"]["out"]
    assert deep["transcript"]["in"] != two["transcript"]["in"]
    assert two["transcript"] == {"out": TWO_DEEP_ALICE_TO_BOB, "in": TWO_DEEP_BOB_TO_ALICE}


def test_session_over_small_socket_buffers_completes(monkeypatch):
    # Bob reads Alice's replies late; the unread ones must fit the socket
    # buffers, or both parties would block in sendall until the read timeout
    monkeypatch.setattr(session_mod, "SUB_WINDOW_BLOCKS", 2)
    ends = socket.socketpair()
    for sock in ends:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sock.settimeout(20)
    cfg = small_config()
    alice, bob = AliceParty(cfg, TcpTransport(ends[0])), BobParty(cfg, TcpTransport(ends[1]))
    assert run_parties(alice, bob, 60) == {}
    assert alice.report()["pool_digest"] == bob.report()["pool_digest"] \
        == SMALL_CONFIG_POOL_DIGEST


def run_parties(alice, bob, timeout: float) -> dict:
    """Run both parties in threads; return the exception each raised, by role."""
    errors = {}

    def run(name, party):
        try:
            party.run()
        except BaseException as exc:
            errors[name] = exc

    ths = [threading.Thread(target=run, args=("alice", alice), daemon=True),
           threading.Thread(target=run, args=("bob", bob), daemon=True)]
    for t in ths:
        t.start()
    for t in ths:
        t.join(timeout)
    assert not any(t.is_alive() for t in ths)
    return errors


class _TamperTransport:
    """Flips one byte in the nth sent frame payload."""

    def __init__(self, inner, after_bytes: int):
        self._inner = inner
        self._remaining = after_bytes
        self.tampered = False

    def send(self, data: bytes):
        if not self.tampered and len(data) > 40 and self._remaining <= 0:
            buf = bytearray(data)
            buf[20] ^= 0x01
            data = bytes(buf)
            self.tampered = True
        self._remaining -= len(data)
        self._inner.send(data)

    def recv_exact(self, n):
        return self._inner.recv_exact(n)

    def close(self):
        self._inner.close()


def test_tampered_traffic_raises_auth_alarm_and_freezes():
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=20)
    evil = _TamperTransport(tb, after_bytes=2000)
    alice = AliceParty(cfg, ta)
    bob = BobParty(cfg, evil)
    errors = run_parties(alice, bob, 60)
    assert any(isinstance(e, AuthAlarm) for e in errors.values()), errors
    assert alice.pool.frozen or bob.pool.frozen


class _RewriteTransport:
    """Rewrites the payload of the first frame sent on one channel whose
    payload starts with `prefix`."""

    def __init__(self, inner, channel_id: int, rewrite, prefix: bytes = b""):
        self._inner = inner
        self._channel_id = channel_id
        self._rewrite = rewrite
        self._prefix = prefix
        self.rewritten = False

    def send(self, data: bytes):
        channel_id, _ = decode_header(data[:HEADER_BYTES])
        payload = data[HEADER_BYTES:]
        if not self.rewritten and channel_id == self._channel_id \
                and payload.startswith(self._prefix):
            data = encode_frame(channel_id, self._rewrite(payload))
            self.rewritten = True
        self._inner.send(data)

    def recv_exact(self, n):
        return self._inner.recv_exact(n)

    def close(self):
        self._inner.close()


def test_sifting_disclosure_of_another_length_aborts_alice():
    # a disclosure covers exactly chunk_qubits qubits; one qubit short ends
    # Alice with exit 3 at the first sifting frame
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=20)
    short = (cfg.chunk_qubits - 1).to_bytes(8, "big")
    evil = _RewriteTransport(tb, CH_SIFTING, lambda p: short + p[8:])
    alice = AliceParty(cfg, ta)
    errors = run_parties(alice, BobParty(cfg, evil), 30)
    assert evil.rewritten
    err = errors["alice"]
    assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)
    assert "sifting disclosure out of step" in str(err)
    assert alice.total_qubits == 0


def test_sifting_disclosure_past_its_chunk_aborts_alice():
    # a well-formed disclosure whose one data event lies past the chunk:
    # 129 overflow blocks advance 129 x 16,383 = 2,113,407 qubits > 2^21
    cfg = small_config(n_batches=1)
    mode = SiftingMode(cfg.sift_bits)
    words = np.full(130, mode.overflow_marker << 2, dtype=mode.word_dtype)
    words[-1] = CONTROL_DATA  # no further gap, a data detection
    assert 129 * mode.overflow_marker >= cfg.chunk_qubits
    overrun = frames.encode_sift_disclosure(cfg.chunk_qubits, words.size, words.tobytes())
    ta, tb = LoopbackTransport.pair(timeout=20)
    evil = _RewriteTransport(tb, CH_SIFTING, lambda p: overrun)
    alice = AliceParty(cfg, ta)
    errors = run_parties(alice, BobParty(cfg, evil), 30)
    assert evil.rewritten
    err = errors["alice"]
    assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)
    assert "runs past its chunk" in str(err)
    assert alice.total_qubits == 0
    assert errors["bob"].exit_code == EXIT_ABORT, repr(errors["bob"])


def _bump_window(payload: bytes) -> bytes:
    return (int.from_bytes(payload[:4], "big") + 1).to_bytes(4, "big") + payload[4:]


@pytest.mark.parametrize("rewrite, match", [
    (_bump_window, "out of step"),
    (lambda p: p + b"\x00", "wrong length"),
    (lambda p: p[:-1], "wrong length"),
])
def test_bob_rejects_malformed_verify_response(rewrite, match):
    # Alice's reply must echo Bob's (window, n_blocks) and carry one flag per block
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=20)
    evil = _RewriteTransport(ta, CH_VERIFY, rewrite)
    errors = run_parties(AliceParty(cfg, evil), BobParty(cfg, tb), 30)
    assert evil.rewritten
    err = errors["bob"]
    assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT
    assert match in str(err)


@pytest.mark.parametrize("rewrite", [lambda p: p[:-1], lambda p: p + bytes(12)])
def test_alice_rejects_wrong_size_tag_frame(rewrite):
    # the tag frame must hold exactly 12 bytes per block of the syndrome frame
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=20)
    evil = _RewriteTransport(tb, CH_VERIFY, rewrite)
    errors = run_parties(AliceParty(cfg, ta), BobParty(cfg, evil), 30)
    assert evil.rewritten
    err = errors["alice"]
    assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT
    assert "wrong length" in str(err)


def test_config_digest_mismatch_aborts():
    ta, tb = LoopbackTransport.pair(timeout=10)
    errors = run_parties(AliceParty(small_config(), ta),
                         BobParty(small_config(code_rate="2/3"), tb), 20)
    aborts = [e for e in errors.values() if isinstance(e, SessionAborted)]
    assert aborts and any(e.exit_code == EXIT_CONFIG for e in aborts)


class _QuietPeer:
    """A peer's end of the stream that sends nothing, or hangs up after its hello."""

    def __init__(self, inner, hang_up: bool):
        self._inner = inner
        self._hang_up = hang_up

    def send(self, data: bytes):
        if self._hang_up:
            self._inner.send(data)
            self._inner.close()

    def recv_exact(self, n):
        return self._inner.recv_exact(n)

    def close(self):
        self._inner.close()


@pytest.mark.parametrize("hang_up", [False, True], ids=["silent", "closes after hello"])
def test_lost_or_silent_peer_aborts_with_exit_3(hang_up):
    # a read timeout or a closed stream ends the session in SessionAborted
    # (exit 3), never in a stray socket error
    cfg = small_config(n_batches=1)
    ta, tb = LoopbackTransport.pair(timeout=0.5)
    errors = run_parties(AliceParty(cfg, _QuietPeer(ta, hang_up)), BobParty(cfg, tb), 10)
    assert set(errors) == {"alice", "bob"}
    for err in errors.values():
        assert type(err) is SessionAborted and err.exit_code == EXIT_ABORT, repr(err)


def test_config_validation():
    with pytest.raises(SessionAborted):
        SessionConfig(psk=b"")  # missing pre-shared key
    with pytest.raises(SessionAborted):
        small_config(chunk_qubits=session_mod.ALICE_BUFFER_QUBITS + 1)
    # a key too short to parse, a ratio outside [0, 1] and a compression
    # that extracts no key end before any connection as configuration errors
    for kw in (dict(psk=PSK[:100]), dict(compression=1.5), dict(compression=0.0)):
        with pytest.raises(SessionAborted) as info:
            small_config(**kw)
        assert info.value.exit_code == EXIT_CONFIG
    # so do session sizes below one, a chunk of zero qubits included
    for kw in (dict(chunk_qubits=0), dict(chunk_qubits=-5), dict(blocks_per_batch=0),
               dict(blocks_per_batch=-3), dict(n_batches=0)):
        with pytest.raises(SessionAborted) as info:
            small_config(**kw)
        assert info.value.exit_code == EXIT_CONFIG, kw


def test_pool_otp_utility_round_trip():
    a = delivering_pool()
    b = delivering_pool()
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=4096).astype(np.uint8)
    a.append(bits, next_pad=0)
    b.append(bits, next_pad=0)
    msg = b"one-time pad demo payload"
    ct = a.otp_encrypt(msg)
    assert ct != msg
    # peer decrypts with the same pool consumption
    key = b.deliver(8 * len(msg))
    pt = bytes(c ^ k for c, k in zip(ct, key))
    assert pt == msg
    assert a.ledger.delivered == 8 * len(msg)


def test_traffic_shares_sum_to_one():
    ra, rb = run_session(small_config(n_batches=1))
    for rep in (ra, rb):
        shares = rep["traffic_breakdown"]["shares"]
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_classical_bits_per_secret_bit_near_published():
    # full-size batch at the 1 km preset; normalized at the published
    # 11.5 % compression the published figure is 217 classical bits per
    # secret bit (+-20 %)
    cfg = SessionConfig(params=channel_params(1.0), n_batches=1,
                        blocks_per_batch=512, chunk_qubits=1 << 24,
                        seed_hex=SEED, psk=PSK)
    ra, _ = run_session(cfg, timeout=900)
    normalized = ra["classical_bits_total"] / (0.115 * 995_328 * ra["batches"])
    assert 217 * 0.8 < normalized < 217 * 1.2, normalized


def test_session_with_short_sifting_blocks():
    # 6-bit mode floods the stream with overflow blocks at this detection
    # rate; the pipeline must still agree end to end
    ra, rb = run_session(small_config(n_batches=1, sift_bits=6))
    assert ra["pool_digest"] == rb["pool_digest"]
    assert ra["secret_bits"] > 0
    share6 = ra["traffic_breakdown"]["shares"]["sifting"]
    ra14, _ = run_session(small_config(n_batches=1))
    assert ra["classical_bits_total"] > ra14["classical_bits_total"]
