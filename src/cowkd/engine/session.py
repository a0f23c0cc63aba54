"""Two-party distillation sessions over a framed service channel.

Bob owns the detectors, so he drives: he discloses detection times chunk by
chunk, sends syndromes and verification tags for his sifted blocks, and
announces the privacy-amplification seed per batch. Alice sifts, decodes
toward Bob's key, verifies, counts the exact error rate against her original
bits, and mirrors the pool operations. She answers every request in the
order it arrives, so her loop is driven by Bob's frames alone.

Bob does not wait on each answer before he sends on:

- Reply FIFO. Bob keeps one queue of requests whose reply he has not read
  (sifting disclosures and EC sub-windows) and reads Alice's replies
  strictly in that order. Every decision that changes what he sends uses
  only replies already read, so each direction's transcript is a function
  of the seed and the configuration alone. The unread replies (at most
  `MAX_UNREAD_CHUNKS` sifting responses of ~5 KB each at 1 km, plus a few
  bytes per window verdict) take ~20 KB, below the default socket buffers.
- Chunks ahead. Bob discloses another chunk before he reads the oldest
  unread verdict, up to `MAX_UNREAD_CHUNKS` unread, while all the data bits
  of the unread chunks cannot close the batch; the batch then needs the new
  chunk whatever Alice answers. He reads the verdicts and runs the EC
  windows in chunk order, so keys, tag draws and the quantum stream's draws
  are those of strict alternation; only the order of disclosures among
  window frames moves. Deeper, Alice decodes while Bob samples instead of
  each waiting on the other; much deeper, error correction starts late.
- Streamed error correction. Bob sends every `SUB_WINDOW_BLOCKS` queued
  full blocks as their own syndrome and verify frames and reads the verdict
  later, while Alice decodes and he samples the next chunks. The window
  closes on the chunk whose queued, in-flight and passed blocks fill
  `blocks_per_batch`, counting in-flight blocks as passed: Bob sends the
  rest of the queue and reads every verdict before he tops up or amplifies.
  When dropped blocks leave the batch short, later chunks top it up the
  same way. Rows decode independently under the batch's decoder prior and
  tag seeds are drawn in block order, so keys and drop counts do not depend
  on where windows split.

All quantum-side randomness lives in one seed-derived stream held by Bob;
protocol randomness (verification seeds and PA seeds) comes from his party
stream, another domain of the same seed. Given the same session seed and
configuration, transcripts and pools are bit-identical run to run.

Per-direction authentication: every non-admin frame byte enters a 2^20-bit
unit stream; each filled unit is tagged under pad index 2*unit + direction
and the receiver re-verifies against its mirrored stream. A mismatch freezes
key delivery and aborts the session. The key pool alone issues pads, each
index once (`SecretKeyPool.take_pad`). Each batch's append carves pads up to
`_Endpoint.next_pad`: the index past both directions' units through the last
frame sent and the last frame read. At an append those are Bob's PA seed and
Alice's estimation report on both sides, so the two pools carve alike,
although each has yet to verify tags the other has already sent. The carve
reaches 1.5 times the pad span of the batch just closed past that index, or
the pool's reserve if more, so a large batch does not outrun its pads.

Each batch is delivered only if its measured secret fraction covers the
applied compression: the configured one, or by default 0.85 of the secret
fraction of the batch the channel should measure
(`presets.expected_observables`). The measurement uses what the two parties
observe: Alice's exact mismatch count and the batch's dropped blocks, the
monitor visibility Alice counts from Bob's monitor disclosures since the
last seed (`decode_and_sift`), and the dark-count and background-noise
shares of the calibrated trusted detectors (`ChannelParams.expected_stats`).
Alice sends her counts in the estimation report; both parties then decide
alike, in `_PartyBase._close_batch`: it amplifies the batch, decides it and
only then appends its key to the pool.

Key material in flight waits in one kind of queue, `_Fifo`: arrays queued
in order, counted in rows and joined only when rows are taken, so no queued
piece is copied while it waits. Each party keeps one for its sifted bits
(one bit per byte, taken a window at a time for error correction) and one
for its verified blocks (packed, 243 bytes per block, taken a batch at a
time for amplification); Alice keeps a third for the mismatch count of each
verified block, summed when the batch closes. The PA seed is packed as soon
as Bob has sent it or Alice has decoded it, and the batch is amplified from
the packed key and seed; its output is held one bit per byte.

Every record is built and parsed by `frames`. A malformed record or a lost or
silent peer ends the session in `SessionAborted` (exit 3), a bad tag in
`AuthAlarm` (exit 4).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .. import auth as auth_mod
from .. import ldpc
from ..auth import UNIT_BITS, AuthKeyState, parse_psk
from ..cowsim import ChannelParams, QubitSource
from ..cowsim.channel import sample_detections
from ..errors import EXIT_AUTH_ALARM, EXIT_CONFIG, EXIT_OK, AuthAlarm, SessionAborted
from ..finitekey import (
    FiniteKeyBudget,
    Observables,
    corrected_observables,
    quantize_compression,
    secret_fraction,
)
from ..ldpc.codec import DECODE_SLICE
from ..presets import expected_observables
from ..privamp import SeedLedger, amplify_batch, make_seed
from ..randomness import EntropySeed, RandomStream
from ..sifting import SiftingMode, decode_and_sift, encode, resolve_collisions
from ..verification import BLOCK_BITS, estimate_from_counts, make_tags, verify_batch
from . import frames
from .frames import (
    CH_ADMIN,
    CH_AUTH_TAG,
    CH_CONTROL,
    CH_PA_SEED,
    CH_SIFTING,
    CH_SYNDROME,
    CH_VERIFY,
    CHANNEL_NAMES,
    HEADER_BYTES,
    decode_header,
    encode_frame,
)
from .keypool import PAD_RESERVE_TARGET, SecretKeyPool
from .transport import TransportClosed

# domain labels of the session seed's streams
DOM_QUANTUM = 1
DOM_BOB = 3

_UNIT_BYTES = UNIT_BITS // 8
# Bob sends error correction in sub-windows of at most this many blocks, the
# decoder's slice; syndrome and verify frames count them in 16 bits
SUB_WINDOW_BLOCKS = DECODE_SLICE
# sifting disclosures Bob may have sent ahead of reading their verdicts
MAX_UNREAD_CHUNKS = 4
# fixed protocol constants; the margin and the prior enter
# `SessionConfig.digest()`, so both parties must agree on them
COMPRESSION_MARGIN = 0.85  # auto compression = margin * expected secret fraction
CHANNEL_P_PRIOR = 0.02  # decoder prior until the first batch is measured
# qubits Alice holds prepared for one sifting disclosure; a chunk must fit
ALICE_BUFFER_QUBITS = 1 << 24


@dataclass
class SessionConfig:
    params: ChannelParams = field(default_factory=ChannelParams)
    code_rate: str = "3/4"
    sift_bits: int = 14
    compression: float | None = None  # None: derive from expected observables
    n_batches: int = 3
    blocks_per_batch: int = 512
    chunk_qubits: int = 1 << 24
    seed_hex: str | None = None
    psk: bytes = b""
    # refuse to deliver when the measured secret fraction falls below the
    # applied compression; disable only for reduced-size plumbing tests
    enforce_compression_bound: bool = True

    def __post_init__(self):
        # every bad value ends here, in one configuration error (exit 2)
        try:
            for name in ("chunk_qubits", "blocks_per_batch", "n_batches"):
                value = getattr(self, name)
                if not isinstance(value, Integral) or value < 1:
                    raise ValueError(f"{name} must be a whole number of at least 1, not {value!r}")
            if self.chunk_qubits > ALICE_BUFFER_QUBITS:
                raise ValueError("sifting chunk exceeds Alice's preparation buffer")
            parse_psk(self.psk)
            ldpc.as_rate(self.code_rate)
            SiftingMode(self.sift_bits)
            if self.seed_hex is not None:
                EntropySeed.from_hex(self.seed_hex)
            if self.compression is not None:
                quantize_compression(self.compression)
        except (TypeError, ValueError) as exc:
            raise SessionAborted(str(exc), EXIT_CONFIG) from exc

    @property
    def n_sift(self) -> int:
        return self.blocks_per_batch * BLOCK_BITS

    def digest(self) -> bytes:
        # "pe_mode" and "subsample_eta" name a retired session mode; hashing
        # them as the constants they always held keeps the hello bytes, and
        # so every transcript, as they were
        blob = json.dumps({
            "params": self.params.to_json(),
            "code_rate": self.code_rate,
            "sift_bits": self.sift_bits,
            "pe_mode": "key_comparison",
            "compression": self.compression,
            "margin": COMPRESSION_MARGIN,
            "n_batches": self.n_batches,
            "blocks_per_batch": self.blocks_per_batch,
            "chunk_qubits": self.chunk_qubits,
            "prior": CHANNEL_P_PRIOR,
            "subsample_eta": 0.125,
        }, sort_keys=True).encode()
        return hashlib.sha256(blob).digest()

    def observables(self, qber_raw: float, qber_effective: float,
                    visibility_raw: float) -> Observables:
        """Finite-key observables at these rates, with the calibrated
        dark-count and noise shares (`ChannelParams.expected_stats`)."""
        stats = self.params.expected_stats()
        return corrected_observables(
            qber_raw=qber_raw, qber_effective=qber_effective, visibility_raw=visibility_raw,
            dark_qber=stats["qber_dark"], noise_qber=stats["qber_noise"],
            mu=self.params.mu, code_rate=float(ldpc.as_rate(self.code_rate)),
            n_sift=self.n_sift, p_decoy=self.params.p_decoy, t_bob=self.params.t_bob,
        )

    def auto_compression(self) -> float:
        """The configured compression, or the margin times the secret fraction
        of the batch the channel should measure (`presets.expected_observables`)."""
        if self.compression is not None:
            return quantize_compression(self.compression)[0]
        obs = expected_observables(self.params, self.code_rate, self.n_sift)
        f_sec = secret_fraction(obs, FiniteKeyBudget.reference())
        return quantize_compression(f_sec * COMPRESSION_MARGIN)[0]


# ---------------------------------------------------------------------------
# authenticated framing endpoint
# ---------------------------------------------------------------------------

class _Endpoint:
    """Transport wrapper handling tagging, verification and accounting.

    A failed or timed-out transport raises `SessionAborted`; a tag that is
    malformed, out of schedule or wrong freezes the pool and raises
    `AuthAlarm`.
    """

    def __init__(self, transport, pool: SecretKeyPool, poly_key: int, out_dir: int):
        self.transport = transport
        self.pool = pool
        self.auth_state = AuthKeyState(poly_key)
        self.out_dir = out_dir
        self.in_dir = 1 - out_dir
        self._out_buf = bytearray()
        self._in_buf = bytearray()
        self._out_units = 0
        self._in_units = 0
        self._sent = 0  # stream bytes through the last frame sent, not the tags it triggers
        self._read = 0  # stream bytes through the last frame read
        self.bytes_out: dict[int, int] = {c: 0 for c in CHANNEL_NAMES}
        self.bytes_in: dict[int, int] = {c: 0 for c in CHANNEL_NAMES}
        self._out_hash = hashlib.sha256()
        self._in_hash = hashlib.sha256()

    def _io(self, call, *args):
        try:
            return call(*args)
        except TransportClosed as exc:  # socket timeouts included
            raise SessionAborted(f"service channel failed: {exc}") from exc

    # -- send ----------------------------------------------------------------

    def send(self, channel_id: int, payload: bytes):
        self._write(channel_id, encode_frame(channel_id, payload))
        self._sent = self._out_units * _UNIT_BYTES + len(self._out_buf)
        # tag each unit the stream fills; a tag frame joins the stream too
        while len(self._out_buf) >= _UNIT_BYTES:
            unit = bytes(self._out_buf[:_UNIT_BYTES])
            del self._out_buf[:_UNIT_BYTES]
            self._emit_tag(unit)

    def _write(self, channel_id: int, raw: bytes):
        self._io(self.transport.send, raw)
        self.bytes_out[channel_id] += len(raw)
        self._out_hash.update(raw)
        if channel_id != CH_ADMIN:
            self._out_buf.extend(raw)

    def _emit_tag(self, unit: bytes):
        pad_index = 2 * self._out_units + self.out_dir
        self._out_units += 1
        tag = auth_mod.tag(unit, self.auth_state, self.pool.take_pad(pad_index))
        self._write(CH_AUTH_TAG, encode_frame(CH_AUTH_TAG, frames.encode_auth_tag(pad_index, tag)))

    def flush_final_tag(self):
        """Tag whatever remains of the outbound stream (possibly empty)."""
        unit = bytes(self._out_buf)
        self._out_buf.clear()
        self._emit_tag(unit)

    # -- receive ---------------------------------------------------------------

    def _read_frame(self) -> tuple[int, bytes, bytes]:
        header = self._io(self.transport.recv_exact, HEADER_BYTES)
        channel_id, length = decode_header(header)
        payload = self._io(self.transport.recv_exact, length) if length else b""
        self.bytes_in[channel_id] += HEADER_BYTES + length
        self._in_hash.update(header)
        self._in_hash.update(payload)
        return channel_id, header, payload

    def recv(self) -> tuple[int, bytes]:
        """Next non-auth frame; tag frames are consumed and verified inline."""
        while True:
            channel_id, header, payload = self._read_frame()
            if channel_id == CH_AUTH_TAG:
                self._verify_tag(payload)
            if channel_id != CH_ADMIN:
                self._in_buf += header
                self._in_buf += payload
            if channel_id != CH_AUTH_TAG:
                self._read = self._in_units * _UNIT_BYTES + len(self._in_buf)
                return channel_id, payload

    def expect(self, channel_id: int) -> bytes:
        """Payload of the next frame, which must arrive on `channel_id`."""
        got, payload = self.recv()
        if got != channel_id:
            raise SessionAborted(
                f"expected a {CHANNEL_NAMES[channel_id]} frame, got {CHANNEL_NAMES[got]}")
        return payload

    def recv_final_tag(self):
        """Verify the peer's closing tag, which covers the rest of its stream."""
        channel_id, _, payload = self._read_frame()
        if channel_id != CH_AUTH_TAG:
            raise SessionAborted("peer failed to flush its final tag")
        self._verify_tag(payload)

    def _verify_tag(self, payload: bytes):
        # a tag covers one full unit, or what is left when the peer closes
        message = bytes(self._in_buf[:_UNIT_BYTES])
        del self._in_buf[:_UNIT_BYTES]
        unit = self._in_units
        self._in_units += 1
        pad_index = 2 * unit + self.in_dir
        pad = self.pool.take_pad(pad_index)
        try:
            tag = frames.decode_auth_tag(payload, pad_index)
            ok, problem = auth_mod.verify(message, tag, self.auth_state, pad), "mismatch"
        except SessionAborted as exc:  # malformed, or under another unit's pad
            ok, problem = False, str(exc)
        if not ok:
            self.pool.freeze()
            raise AuthAlarm(f"authentication failed on unit {unit}: {problem}")

    def next_pad(self) -> int:
        """The pad index past both directions' units through the last frame
        sent and the last frame read: where the pool's carve reaches."""
        return 2 * (max(self._sent, self._read) // _UNIT_BYTES) + 2

    # -- accounting --------------------------------------------------------------

    def total_classical_bits(self) -> int:
        out_b = sum(v for c, v in self.bytes_out.items() if c != CH_ADMIN)
        in_b = sum(v for c, v in self.bytes_in.items() if c != CH_ADMIN)
        return 8 * (out_b + in_b)

    def units_tagged(self) -> int:
        return self._out_units + self._in_units

    def transcript_digests(self) -> dict:
        return {"out": self._out_hash.hexdigest(), "in": self._in_hash.hexdigest()}


# ---------------------------------------------------------------------------
# session state shared by both parties
# ---------------------------------------------------------------------------

@dataclass
class BatchRow:
    batch: int
    qber_raw: float
    qber_effective: float
    visibility_raw: float
    visibility_corrected: float
    dark_qber: float
    noise_qber: float
    f_sec_measured: float
    compression: float
    n_out_bits: int
    attempted_blocks: int
    dropped_blocks: int
    monitor_clicks: int  # bright + destructive clicks behind visibility_raw


class _PartyBase:
    role = "?"

    def __init__(self, config: SessionConfig, transport, out_dir: int):
        self.config = config
        psk = parse_psk(config.psk)
        self.pool = SecretKeyPool(psk)
        self.ep = _Endpoint(transport, self.pool, psk.poly_key, out_dir)
        self.mode = SiftingMode(config.sift_bits)
        self.rate = ldpc.as_rate(config.code_rate)
        self.compression = config.auto_compression()
        self.n_out = round(self.compression * config.n_sift)
        if self.n_out == 0:
            raise SessionAborted(
                "configured compression extracts no key at this block size",
                EXIT_CONFIG)
        self.seed_ledger = SeedLedger()
        self.batches: list[BatchRow] = []
        self.sifted = _Fifo()  # sifted bits awaiting error correction, one per byte
        self.passed = _Fifo()  # verified blocks awaiting amplification, packed rows
        self.total_sifted = 0
        self.total_raw = 0
        self.total_qubits = 0
        self.channel_p = CHANNEL_P_PRIOR
        self.alarms: list[str] = []
        self.window = 0  # EC windows so far
        self._dropped_blocks = 0  # since the last amplification round
        self._appended_pad = 0  # pad schedule position at the last append

    def run(self) -> dict:
        try:
            self._run()
        finally:
            self.ep.transport.close()
        return self.report()

    def _close_batch(self, batch_index: int, mismatches: int, bright: int, dest: int,
                     seed: np.ndarray):
        """Amplify under the packed `seed`, decide and deliver the next batch
        of passed blocks, from the counts of Alice's estimation report; both
        parties close batches here."""
        cfg = self.config
        batch_key = self.passed.take(cfg.blocks_per_batch).reshape(-1)
        dropped, self._dropped_blocks = self._dropped_blocks, 0
        est = estimate_from_counts(mismatches, cfg.blocks_per_batch, dropped)
        key = amplify_batch(batch_key, seed, cfg.n_sift, self.n_out, self.seed_ledger)
        # no monitor click is no evidence of coherence: visibility 0
        v_raw = (bright - dest) / (bright + dest) if bright + dest else 0.0
        obs = cfg.observables(min(est.qber_raw, 1.0), min(est.qber_effective, 1.0),
                              max(v_raw, 0.0))
        f_sec = secret_fraction(obs, FiniteKeyBudget.reference())
        if cfg.enforce_compression_bound and self.compression > f_sec + 1e-12:
            self.alarms.append(
                f"batch {batch_index}: compression {self.compression:.4f} "
                f"exceeds measured secret fraction {f_sec:.4f}")
            self.pool.freeze()
            raise SessionAborted(self.alarms[-1])
        # carve ahead by 1.5 times the pad span of the batch just closed, at
        # least the reserve; both parties measure the same span
        next_pad = self.ep.next_pad()
        span, self._appended_pad = next_pad - self._appended_pad, next_pad
        self.pool.append(key, next_pad + max(0, span + span // 2 - PAD_RESERVE_TARGET))
        stats = cfg.params.expected_stats()
        self.batches.append(BatchRow(
            batch=batch_index, qber_raw=est.qber_raw, qber_effective=est.qber_effective,
            visibility_raw=obs.visibility_raw,
            visibility_corrected=obs.visibility_corrected,
            dark_qber=stats["qber_dark"], noise_qber=stats["qber_noise"],
            f_sec_measured=f_sec, compression=self.compression,
            n_out_bits=key.size, attempted_blocks=est.n_blocks,
            dropped_blocks=est.n_dropped, monitor_clicks=bright + dest,
        ))
        self.channel_p = min(max(est.qber_raw, 1e-4), 0.3)

    # report ---------------------------------------------------------------------

    def report(self) -> dict:
        cfg = self.config
        time_s = self.total_qubits / cfg.params.f_qubit if self.total_qubits else 0.0
        produced = self.pool.ledger.produced
        consumed = self.pool.ledger.consumed_auth
        total_bits = self.ep.total_classical_bits()
        breakdown = self.traffic_breakdown()
        auth_fraction = consumed / produced if produced else 0.0
        return {
            "role": self.role,
            "batches": len(self.batches),
            "qubits": self.total_qubits,
            "channel_time_s": time_s,
            "raw_detections": self.total_raw,
            "sifted_bits": self.total_sifted,
            "sifted_fraction": self.total_sifted / self.total_raw if self.total_raw else 0.0,
            "sifted_rate_bps": self.total_sifted / time_s if time_s else 0.0,
            "secret_bits": produced,
            "secret_rate_bps": produced / time_s if time_s else 0.0,
            "authenticated_rate_bps": produced * (1 - auth_fraction) / time_s if time_s else 0.0,
            "auth_consumed_bits": consumed,
            "auth_units": self.ep.units_tagged(),
            "auth_fraction": auth_fraction,
            "compression": self.compression,
            "classical_bits_total": total_bits,
            "classical_bits_per_secret_bit": total_bits / produced if produced else 0.0,
            "traffic_breakdown": breakdown,
            "per_batch": [vars(row) for row in self.batches],
            "qber_raw": self.batches[-1].qber_raw if self.batches else 0.0,
            "qber_effective": self.batches[-1].qber_effective if self.batches else 0.0,
            "visibility_raw": self.batches[-1].visibility_raw if self.batches else 1.0,
            "pool": self.pool.summary(),
            "pool_digest": self.pool.digest(),
            "transcript": self.ep.transcript_digests(),
            "alarms": self.alarms,
            "exit_code": EXIT_AUTH_ALARM if self.pool.frozen else EXIT_OK,
        }

    def traffic_breakdown(self) -> dict:
        total = 0
        by = {}
        for cid, name in CHANNEL_NAMES.items():
            if cid == CH_ADMIN:
                continue
            n = self.ep.bytes_out[cid] + self.ep.bytes_in[cid]
            by[name] = n
            total += n
        shares = {
            "sifting": by["sifting"] / total,
            "ec_verify": (by["syndrome"] + by["verify"]) / total,
            "pa_seed": by["pa_seed"] / total,
            "auth": by["auth_tag"] / total,
            "control": by["control"] / total,
        } if total else {}
        return {"bytes": by, "shares": shares}

# ---------------------------------------------------------------------------
# Bob: detector side, drives the pipeline
# ---------------------------------------------------------------------------

class BobParty(_PartyBase):
    role = "bob"

    def __init__(self, config: SessionConfig, transport):
        super().__init__(config, transport, out_dir=1)
        self.rng: RandomStream | None = None
        self.source: QubitSource | None = None
        # requests whose reply is unread, oldest first, as (reader, request);
        # Alice answers in the order she receives them
        self._pending: deque = deque()
        self._in_flight = 0  # blocks sent for correction whose verdict is unread
        self._monitor_disclosed = 0  # monitor events disclosed since the last seed

    def _run(self):
        cfg = self.config
        self._handshake()
        batch = 0
        unread: deque[np.ndarray] = deque()  # data bits of chunks whose verdict is unread
        while batch < cfg.n_batches:
            if not unread:
                unread.append(self._disclose())
            while (len(unread) < MAX_UNREAD_CHUNKS
                   and self._short_of_batch(sum(bits.size for bits in unread))):
                unread.append(self._disclose())
            self._read_replies(until=unread.popleft())
            self._ec_window()
            while self.passed.size >= cfg.blocks_per_batch and batch < cfg.n_batches:
                self._pa_round(batch)
                batch += 1
        self.ep.send(CH_CONTROL, frames.END)
        self.ep.flush_final_tag()
        if self.ep.expect(CH_CONTROL) != frames.END:
            raise SessionAborted("peer failed to close the session")
        self.ep.recv_final_tag()

    def _handshake(self):
        cfg = self.config
        self.ep.send(CH_ADMIN, b"bob ready")
        self.ep.expect(CH_ADMIN)
        peer_digest, quantum_seed = frames.decode_hello(self.ep.expect(CH_CONTROL))
        if peer_digest != cfg.digest():
            raise SessionAborted("configuration mismatch between parties", EXIT_CONFIG)
        self.ep.send(CH_CONTROL, frames.encode_hello(cfg.digest(), quantum_seed))
        qseed = EntropySeed(quantum_seed)
        self.rng = RandomStream(qseed, DOM_QUANTUM)
        self.proto_rng = RandomStream(qseed, DOM_BOB)
        self.source = QubitSource(self.rng.draw_bytes(32), cfg.params.p_decoy)

    def _read_replies(self, until=None):
        """Read Alice's replies in request order, through `until` or all of them."""
        while self._pending:
            read, request = self._pending.popleft()
            read(request)
            if request is until:
                return

    def _disclose(self) -> np.ndarray:
        """Simulate and disclose one chunk; return Bob's bits of its data events,
        which wait for Alice's verdict."""
        cfg = self.config
        n_q = cfg.chunk_qubits
        chunk_view = _OffsetSource(self.source, self.total_qubits)
        # gates and qubits stay chunk-local; collision resolution does not
        # depend on where the chunk starts
        data, monitor = sample_detections(cfg.params, chunk_view, n_q, self.rng)
        events = resolve_collisions(data, monitor, self.rng)
        self.total_qubits += n_q
        payload, n_blocks = encode(events, self.mode)
        self.ep.send(CH_SIFTING, frames.encode_sift_disclosure(n_q, n_blocks, payload))
        bits = events.bob_bit[events.data_mask()]
        self._monitor_disclosed += len(events) - bits.size
        self._pending.append((self._read_sift_verdict, bits))
        return bits

    def _short_of_batch(self, unread_bits: int = 0) -> bool:
        """Whether the queued, in-flight and passed blocks, with `unread_bits`
        more sifted bits, fall short of the batch (see the module docstring)."""
        blocks = ((self.sifted.size + unread_bits) // BLOCK_BITS + self._in_flight
                  + self.passed.size)
        return blocks < self.config.blocks_per_batch

    def _read_sift_verdict(self, bits: np.ndarray):
        keep = frames.decode_sift_response(self.ep.expect(CH_SIFTING), bits.size)
        kept_bits = bits[keep]  # Bob's bits of the events Alice keeps
        self.total_raw += bits.size
        self.total_sifted += kept_bits.size
        self.sifted.append(kept_bits)

    # EC + verification in sub-windows; a closing window sends the whole
    # queue and reads every outstanding verdict (see the module docstring)
    def _ec_window(self):
        queued = self.sifted.size // BLOCK_BITS
        closing = not self._short_of_batch()
        while queued >= SUB_WINDOW_BLOCKS or (closing and queued):
            n_blocks = min(queued, SUB_WINDOW_BLOCKS)
            self._send_window(n_blocks)
            queued -= n_blocks
        if closing:
            self._read_replies()

    def _send_window(self, n_blocks: int):
        blocks = self.sifted.take(n_blocks * BLOCK_BITS).reshape(n_blocks, BLOCK_BITS)
        synd = ldpc.syndrome_batch(blocks, self.rate)
        self.ep.send(CH_SYNDROME, frames.encode_syndrome(self.window, synd))
        seeds, tags = make_tags(blocks, self.proto_rng)
        self.ep.send(CH_VERIFY, frames.encode_tags(self.window, seeds, tags))
        self._pending.append((self._read_ec_verdict, (self.window, blocks)))
        self._in_flight += n_blocks
        self.window += 1

    def _read_ec_verdict(self, window_blocks: tuple[int, np.ndarray]):
        window, blocks = window_blocks
        n_blocks = blocks.shape[0]
        flags = frames.decode_verify_response(self.ep.expect(CH_VERIFY), window, n_blocks)
        self.passed.append(np.packbits(blocks[flags], axis=1))
        self._dropped_blocks += int(n_blocks - flags.sum())
        self._in_flight -= n_blocks

    def _pa_round(self, batch_index: int):
        cfg = self.config
        seed = make_seed(self.proto_rng, cfg.n_sift)
        self.ep.send(CH_PA_SEED, frames.encode_seed(seed, batch_index))
        seed = np.packbits(seed)
        # Alice's estimation report covers the disclosures sent before the seed
        mism, bright, dest = frames.decode_estimate(
            self.ep.expect(CH_CONTROL), batch_index, self._dropped_blocks, cfg.n_sift,
            self._monitor_disclosed)
        self._monitor_disclosed = 0
        self._close_batch(batch_index, mism, bright, dest, seed)


# ---------------------------------------------------------------------------
# Alice: source side
# ---------------------------------------------------------------------------

class AliceParty(_PartyBase):
    role = "alice"

    def __init__(self, config: SessionConfig, transport):
        super().__init__(config, transport, out_dir=0)
        self.source: QubitSource | None = None
        self._mismatches = _Fifo()  # mismatch count of each passed block
        self._monitor = [0, 0]  # bright, destructive counted since the last seed

    def _run(self):
        self._handshake()
        batch = 0
        while batch < self.config.n_batches:
            ch, payload = self.ep.recv()
            if ch == CH_SIFTING:
                self._sift_round(payload)
            elif ch == CH_SYNDROME:
                self._ec_round(payload)
            elif ch == CH_PA_SEED:
                self._pa_round(payload, batch)
                batch += 1
            else:
                raise SessionAborted(f"unexpected frame on {CHANNEL_NAMES[ch]}")
        if self.ep.expect(CH_CONTROL) != frames.END:
            raise SessionAborted("expected session end")
        self.ep.recv_final_tag()
        self.ep.send(CH_CONTROL, frames.END)
        self.ep.flush_final_tag()

    def _handshake(self):
        cfg = self.config
        if cfg.seed_hex:
            session_seed = EntropySeed.from_hex(cfg.seed_hex).bits
        else:
            import os

            session_seed = os.urandom(32)
        self.ep.send(CH_ADMIN, b"alice ready")
        self.ep.expect(CH_ADMIN)
        self.ep.send(CH_CONTROL, frames.encode_hello(cfg.digest(), session_seed))
        # Bob echoes only a hello that matched his configuration
        if frames.decode_hello(self.ep.expect(CH_CONTROL)) != (cfg.digest(), session_seed):
            raise SessionAborted("peer echoed a different hello")
        qseed = EntropySeed(session_seed)
        rng = RandomStream(qseed, DOM_QUANTUM)
        self.source = QubitSource(rng.draw_bytes(32), cfg.params.p_decoy)

    def _sift_round(self, payload: bytes):
        cfg = self.config
        n_q, n_blocks, blocks = frames.decode_sift_disclosure(payload, cfg.chunk_qubits)
        view = decode_and_sift(_OffsetSource(self.source, self.total_qubits),
                               blocks, self.mode, n_blocks, n_q)
        self.total_qubits += n_q
        self.total_raw += view.raw_count
        self.total_sifted += view.sifted_count
        self._monitor[0] += view.monitor_bright
        self._monitor[1] += view.monitor_dest
        self.sifted.append(view.alice_key_bits)
        self.ep.send(CH_SIFTING, frames.encode_sift_response(view.keep_mask))

    def _ec_round(self, payload: bytes):
        synd = frames.decode_syndrome(payload, self.window, self.rate,
                                      self.sifted.size // BLOCK_BITS)
        n_blocks = synd.shape[0]
        mine = self.sifted.take(n_blocks * BLOCK_BITS).reshape(n_blocks, BLOCK_BITS)
        corrected, ok, _ = ldpc.decode_batch(mine, synd, self.rate,
                                             channel_p=self.channel_p)
        seeds, tags = frames.decode_tags(self.ep.expect(CH_VERIFY), self.window, n_blocks)
        passed = verify_batch(corrected, seeds, tags) & ok
        self.ep.send(CH_VERIFY, frames.encode_verify_response(self.window, passed))
        self.window += 1
        self.passed.append(np.packbits(corrected[passed], axis=1))
        self._mismatches.append((mine[passed] ^ corrected[passed]).sum(axis=1))
        self._dropped_blocks += int(n_blocks - passed.sum())

    def _pa_round(self, payload: bytes, batch_index: int):
        cfg = self.config
        seed = np.packbits(frames.decode_pa_seed(payload, batch_index, cfg.n_sift))
        if self.passed.size < cfg.blocks_per_batch:
            raise SessionAborted("privacy amplification seed before its batch is complete")
        mism = int(self._mismatches.take(cfg.blocks_per_batch).sum())
        bright, dest = self._monitor
        self._monitor = [0, 0]
        self.ep.send(CH_CONTROL, frames.encode_estimate(batch_index, mism, self._dropped_blocks,
                                                        bright, dest))
        self._close_batch(batch_index, mism, bright, dest, seed)


class _Fifo:
    """Arrays queued in order and counted in rows along axis 0. Rows are
    joined only when taken; a partial take leaves a view of the head array."""

    def __init__(self):
        self._pieces: deque[np.ndarray] = deque()
        self.size = 0  # rows queued

    def append(self, rows: np.ndarray):
        if len(rows):
            self._pieces.append(rows)
            self.size += len(rows)

    def take(self, n: int) -> np.ndarray:
        """The oldest n rows, 1 <= n <= size, joined."""
        taken = []
        self.size -= n
        while n:
            head = self._pieces.popleft()
            if len(head) > n:
                self._pieces.appendleft(head[n:])
                head = head[:n]
            taken.append(head)
            n -= len(head)
        return np.concatenate(taken)


class _OffsetSource:
    """Shift a qubit-index window so chunk-local indices resolve globally."""

    def __init__(self, source: QubitSource, offset: int):
        self._source = source
        self._offset = offset

    def at(self, indices):
        return self._source.at(np.asarray(indices, dtype=np.int64) + self._offset)


# ---------------------------------------------------------------------------
# loopback runner
# ---------------------------------------------------------------------------

def run_session(config: SessionConfig, timeout: float = 600.0) -> tuple[dict, dict]:
    """Run both parties in-process over a loopback transport."""
    import threading

    from .transport import LoopbackTransport

    ta, tb = LoopbackTransport.pair(timeout=timeout)
    results: dict = {}
    errors: dict = {}

    def _runner(name, party):
        try:
            results[name] = party.run()
        except BaseException as exc:  # propagate to the caller
            errors[name] = exc

    alice = AliceParty(config, ta)
    bob = BobParty(config, tb)
    th_a = threading.Thread(target=_runner, args=("alice", alice), daemon=True)
    th_b = threading.Thread(target=_runner, args=("bob", bob), daemon=True)
    th_a.start()
    th_b.start()
    th_a.join(timeout)
    th_b.join(timeout)
    if errors:
        raise next(iter(errors.values()))
    if "alice" not in results or "bob" not in results:
        raise SessionAborted("session did not complete in time")
    return results["alice"], results["bob"]
