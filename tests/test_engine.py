import socket
import threading

import numpy as np
import pytest

from cowkd.auth import TAG_BITS, parse_psk
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
from cowkd.engine.session import AliceParty, BobParty
from cowkd.presets import channel_params
from cowkd.verification import BLOCK_BITS

PSK = bytes(range(256)) * 32  # 8 KiB deterministic test PSK
SEED = "ab" * 32
# pool and per-direction transcript digests of small_config(): a refactor
# must not change the keys or the wire
SMALL_CONFIG_POOL_DIGEST = "3882e8f3cc148771962b6a34f8cdc888c8ebdc2d3babfa4d73bad7b2c84b4744"
SMALL_CONFIG_ALICE_TO_BOB = "233a6f677e48932a9e7ad29904829717dc7ed00251a2dac7a6210debe58ba9a9"
SMALL_CONFIG_BOB_TO_ALICE = "b894ab3bb6ea0990be32929315d03ac366cf1bc154b96e3de8f7be0b70010254"


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

def make_pool(**kw):
    return SecretKeyPool(parse_psk(PSK), **kw)


def test_pool_psk_pads_then_reserved_stream():
    pool = make_pool(pad_reserve_target=4)
    n_psk = (len(PSK) - 16) // 16
    p0 = pool.take_pad(0)
    assert 0 <= p0 < (1 << 127)
    with pytest.raises(PadsExhausted):
        pool.take_pad(0)  # single use
    with pytest.raises(PadsExhausted):
        pool.take_pad(n_psk)  # nothing produced yet
    rng = np.random.default_rng(3)
    pool.append(rng.integers(0, 2, size=2000).astype(np.uint8))
    v1 = pool.take_pad(n_psk)
    v2 = pool.take_pad(n_psk + 1)
    assert v1 != v2
    assert pool.ledger.consumed_auth == 2 * TAG_BITS


def test_pool_pad_order_independence():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=3000).astype(np.uint8)
    a = make_pool()
    b = make_pool()
    a.append(bits)
    b.append(bits)
    n_psk = (len(PSK) - 16) // 16
    idx = [n_psk, n_psk + 2, n_psk + 1]
    vals_a = [a.take_pad(i) for i in idx]
    vals_b = [b.take_pad(i) for i in sorted(idx)]
    assert sorted(vals_a) == sorted(vals_b)
    assert a.digest() == b.digest()


def test_pool_delivery_disjoint_and_zeroized():
    pool = make_pool(pad_reserve_target=0)
    rng = np.random.default_rng(5)
    pool.append(rng.integers(0, 2, size=4096).astype(np.uint8))
    k1 = pool.deliver(128)
    k2 = pool.deliver(128)
    assert k1 != k2
    assert pool.ledger.delivered == 256
    # a second pool fed the same key and asked later must not see k1 again
    with pytest.raises(InsufficientKey):
        pool.deliver(1 << 20)
    assert pool.ledger.remaining == 4096 - 256


def test_pool_delivery_cadence_identity():
    # 30 fresh 128-bit keys per second needs exactly 3840 bps of delivery
    pool = make_pool(pad_reserve_target=0)
    rng = np.random.default_rng(6)
    pool.append(rng.integers(0, 2, size=3840).astype(np.uint8))
    for _ in range(30):
        pool.deliver(128)
    assert pool.deliverable_bits == 0
    assert 30 * 128 == 3840


def test_pool_freeze_blocks_delivery():
    pool = make_pool(pad_reserve_target=0)
    pool.append(np.ones(512, dtype=np.uint8))
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


def test_session_with_heavy_drops_still_agrees():
    # rate 5/6 at a 1.7 % channel fails most blocks; the batch must refill
    # from later passing windows and both pools must still match
    cfg = small_config(code_rate="5/6", n_batches=1, blocks_per_batch=4)
    ra, rb = run_session(cfg)
    assert ra["pool_digest"] == rb["pool_digest"]
    assert ra["per_batch"][0]["dropped_blocks"] > 0
    assert ra["qber_effective"] > ra["qber_raw"]


@pytest.mark.parametrize("cfg, pool_digest", [
    (small_config(), SMALL_CONFIG_POOL_DIGEST),
    # rate 5/6 drops most blocks: 22 of 26 and 13 of 17
    (small_config(code_rate="5/6", n_batches=2, blocks_per_batch=4),
     "907abe8b86ee3c4e308e79c41bd1208061aaedd8651897adc6c36be4a7c2cd91"),
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
TWO_DEEP_ALICE_TO_BOB = "3c6cb37cd35bab4e33e3176ee52c483212714b46a1623232b94942b728e45882"
TWO_DEEP_BOB_TO_ALICE = "b55131bd87a47a92adfd06210e12e9426fd371d571550a29df350a56d32e9d65"


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
    assert alice.qubits_seen == 0


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


def test_pool_otp_utility_round_trip():
    a = make_pool(pad_reserve_target=0)
    b = make_pool(pad_reserve_target=0)
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=4096).astype(np.uint8)
    a.append(bits)
    b.append(bits)
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
