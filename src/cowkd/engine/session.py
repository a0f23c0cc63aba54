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
unit stream; each filled unit is tagged (pad index = 2*unit + direction) and
the receiver re-verifies against its mirrored stream. A mismatch freezes key
delivery and aborts the session.

Every record is built and parsed by `frames`. A malformed record or a lost or
silent peer ends the session in `SessionAborted` (exit 3), a bad tag in
`AuthAlarm` (exit 4).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import auth as auth_mod
from .. import ldpc
from ..auth import UNIT_BITS, AuthKeyState, PadScheduleError, parse_psk
from ..cowsim import ChannelParams, QubitSource
from ..cowsim.channel import TRUTH_DARK, TRUTH_NOISE, TRUTH_SIGNAL, interfering_slot_mask, sample_detections
from ..errors import EXIT_AUTH_ALARM, EXIT_CONFIG, EXIT_OK, AuthAlarm, SessionAborted
from ..finitekey import (
    FiniteKeyBudget,
    corrected_observables,
    quantize_compression,
    secret_fraction,
)
from ..ldpc.codec import DECODE_SLICE
from ..ldpc.fer import fer_estimate
from ..privamp import SeedLedger, amplify_batch, make_seed
from ..randomness import EntropySeed, RandomStream
from ..sifting import ResolvedEvents, SiftingMode, decode_and_sift, encode, resolve_collisions
from ..verification import BLOCK_BITS, BatchEstimate, estimate_from_counts, make_tags, verify_batch
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
from .keypool import SecretKeyPool
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
        if self.chunk_qubits > ALICE_BUFFER_QUBITS:
            raise SessionAborted(
                "sifting chunk exceeds Alice's preparation buffer", EXIT_CONFIG)
        if not self.psk:
            raise SessionAborted("pre-shared key required", EXIT_CONFIG)

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

    def auto_compression(self) -> float:
        """Compression from the expected operating point, with margin.

        Mirrors the per-batch measurement pipeline: the truth audit reports
        the interferometer's own contrast as the corrected visibility, so
        the expectation uses it directly rather than the error-share proxy.
        """
        if self.compression is not None:
            return quantize_compression(self.compression)[0]
        stats = self.params.expected_stats()
        q = stats["qber_expected"]
        fer = fer_estimate(self.code_rate, q)
        q_eff = (1 - fer) * q + 0.5 * fer
        obs = corrected_observables(
            qber_raw=q, qber_effective=q_eff,
            visibility_raw=self.params.visibility_if,
            dark_qber=stats["qber_dark"], noise_qber=stats["qber_noise"],
            mu=self.params.mu, code_rate=float(ldpc.as_rate(self.code_rate)),
            n_sift=self.n_sift, p_decoy=self.params.p_decoy,
            t_bob=self.params.t_bob,
        )
        obs.visibility_corrected = self.params.visibility_if
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
        self.bytes_out: dict[int, int] = {c: 0 for c in CHANNEL_NAMES}
        self.bytes_in: dict[int, int] = {c: 0 for c in CHANNEL_NAMES}
        self._out_hash = hashlib.sha256()
        self._in_hash = hashlib.sha256()
        self.alarm: str | None = None

    def _io(self, call, *args):
        try:
            return call(*args)
        except TransportClosed as exc:  # socket timeouts included
            raise SessionAborted(f"service channel failed: {exc}") from exc

    # -- send ----------------------------------------------------------------

    def send(self, channel_id: int, payload: bytes):
        self._write(channel_id, encode_frame(channel_id, payload))
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
        tag = auth_mod.tag(unit, self.auth_state, self.pool.take_pad(pad_index), pad_index)
        self._write(CH_AUTH_TAG, encode_frame(CH_AUTH_TAG, frames.encode_auth_tag(tag)))

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
            tag = frames.decode_auth_tag(payload)
            ok, problem = auth_mod.verify(message, tag, self.auth_state, pad, pad_index), "mismatch"
        except (SessionAborted, PadScheduleError) as exc:  # malformed or out of schedule
            ok, problem = False, str(exc)
        if not ok:
            self.alarm = f"authentication failed on unit {unit}: {problem}"
            self.pool.freeze()
            raise AuthAlarm(self.alarm)

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
        self.key_bits = np.zeros(0, dtype=np.uint8)  # kept sifted bits, FIFO
        self.total_sifted = 0
        self.total_raw = 0
        self.total_qubits = 0
        self.channel_p = CHANNEL_P_PRIOR
        self.alarms: list[str] = []
        self.window = 0  # EC windows so far
        self._dropped_blocks = 0  # since the last amplification round
        self._audit = np.zeros(8, dtype=np.int64)  # Bob fills; Alice receives

    def run(self) -> dict:
        try:
            self._run()
        finally:
            self.ep.transport.close()
        return self.report()

    # small helpers ---------------------------------------------------------

    def _take_key_bits(self, n: int) -> np.ndarray:
        out = self.key_bits[:n]
        # copy the remainder (under a block) so a taken window's buffer is
        # freed with the window, before privacy amplification allocates
        self.key_bits = self.key_bits[n:].copy()
        return out

    def _estimate_and_reset(self, mismatches: int) -> BatchEstimate:
        """This batch's error estimate; the drop count restarts for the next."""
        dropped, self._dropped_blocks = self._dropped_blocks, 0
        return estimate_from_counts(mismatches, self.config.blocks_per_batch, dropped)

    def _batch_observables(self, est: BatchEstimate, audit: np.ndarray):
        (n_kept, err_total, err_dark, err_noise,
         nb_raw, nd_raw, nb_sig, nd_sig) = (int(x) for x in audit)
        dark_q = err_dark / n_kept if n_kept else 0.0
        noise_q = err_noise / n_kept if n_kept else 0.0
        v_raw = (nb_raw - nd_raw) / (nb_raw + nd_raw) if nb_raw + nd_raw else 1.0
        obs = corrected_observables(
            qber_raw=min(est.qber_raw, 1.0), qber_effective=min(est.qber_effective, 1.0),
            visibility_raw=max(v_raw, 0.0),
            dark_qber=dark_q, noise_qber=noise_q,
            mu=self.config.params.mu, code_rate=float(self.rate),
            n_sift=self.config.n_sift, p_decoy=self.config.params.p_decoy,
            t_bob=self.config.params.t_bob,
        )
        v_corr = (nb_sig - nd_sig) / (nb_sig + nd_sig) if nb_sig + nd_sig else 1.0
        obs.visibility_corrected = max(min(v_corr, 1.0), 0.0)
        return obs

    def _finish_batch(self, batch_index: int, est: BatchEstimate, audit: np.ndarray,
                      key: np.ndarray):
        obs = self._batch_observables(est, audit)
        f_sec = secret_fraction(obs, FiniteKeyBudget.reference())
        if self.config.enforce_compression_bound and self.compression > f_sec + 1e-12:
            self.alarms.append(
                f"batch {batch_index}: compression {self.compression:.4f} "
                f"exceeds measured secret fraction {f_sec:.4f}")
            self.pool.freeze()
            raise SessionAborted(self.alarms[-1])
        self.pool.append(key)
        n_kept = int(audit[0])
        self.batches.append(BatchRow(
            batch=batch_index, qber_raw=est.qber_raw, qber_effective=est.qber_effective,
            visibility_raw=obs.visibility_raw,
            visibility_corrected=obs.visibility_corrected,
            dark_qber=int(audit[2]) / n_kept if n_kept else 0.0,
            noise_qber=int(audit[3]) / n_kept if n_kept else 0.0,
            f_sec_measured=f_sec, compression=self.compression,
            n_out_bits=key.size, attempted_blocks=est.n_blocks,
            dropped_blocks=est.n_dropped,
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

@dataclass
class _Chunk:
    """A disclosed sifting chunk whose verdict Bob has not read yet."""

    events: ResolvedEvents
    dmask: np.ndarray  # data events
    n_data: int
    q0: int  # first qubit


class BobParty(_PartyBase):
    role = "bob"

    def __init__(self, config: SessionConfig, transport):
        super().__init__(config, transport, out_dir=1)
        self.rng: RandomStream | None = None
        self.source: QubitSource | None = None
        self.pa_buffer = np.zeros(0, dtype=np.uint8)  # verified key bits
        # requests whose reply is unread, oldest first, as (reader, request);
        # Alice answers in the order she receives them
        self._pending: deque = deque()
        self._in_flight = 0  # blocks sent for correction whose verdict is unread

    def _run(self):
        cfg = self.config
        self._handshake()
        batch = 0
        unread: deque[_Chunk] = deque()  # disclosed chunks whose verdict is unread
        while batch < cfg.n_batches:
            if not unread:
                unread.append(self._disclose())
            while len(unread) < MAX_UNREAD_CHUNKS and self._batch_needs_next(unread):
                unread.append(self._disclose())
            self._read_replies(until=unread.popleft())
            self._ec_window()
            while self.pa_buffer.size >= cfg.n_sift and batch < cfg.n_batches:
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

    # one sifting chunk: simulate and disclose; Alice's verdict is read later
    def _disclose(self) -> _Chunk:
        cfg = self.config
        n_q = cfg.chunk_qubits
        q0 = self.total_qubits
        chunk_view = _OffsetSource(self.source, q0)
        # gates and qubits stay chunk-local; collision resolution does not
        # depend on where the chunk starts
        data, monitor = sample_detections(cfg.params, chunk_view, n_q, self.rng)
        events = resolve_collisions(data, monitor, self.rng)
        self._accumulate_audit(monitor, q0)
        self.total_qubits += n_q
        payload, n_blocks = encode(events, self.mode)
        self.ep.send(CH_SIFTING, frames.encode_sift_disclosure(n_q, n_blocks, payload))
        dmask = events.data_mask()
        chunk = _Chunk(events, dmask, int(dmask.sum()), q0)
        self._pending.append((self._read_sift_verdict, chunk))
        return chunk

    def _batch_needs_next(self, unread: deque[_Chunk]) -> bool:
        """Whether the batch needs the next chunk whatever Alice keeps of `unread`.

        It does when all the data bits of the chunks whose verdict is unread
        would still leave the queued, in-flight and passed blocks short of
        the batch.
        """
        held = self.key_bits.size + sum(chunk.n_data for chunk in unread)
        blocks = held // BLOCK_BITS + self._in_flight + self.pa_buffer.size // BLOCK_BITS
        return blocks < self.config.blocks_per_batch

    def _read_sift_verdict(self, chunk: _Chunk):
        events, dmask = chunk.events, chunk.dmask
        keep = frames.decode_sift_response(self.ep.expect(CH_SIFTING), chunk.n_data)
        kept = np.flatnonzero(dmask)[keep]  # the events Alice keeps
        kept_bits = events.bob_bit[kept].astype(np.uint8)
        self.total_raw += chunk.n_data
        self.total_sifted += kept_bits.size
        self._audit_errors(events, kept, kept_bits, chunk.q0)
        self.key_bits = np.concatenate([self.key_bits, kept_bits])

    # EC + verification in sub-windows; a closing window sends the whole
    # queue and reads every outstanding verdict (see the module docstring)
    def _ec_window(self):
        queued = self.key_bits.size // BLOCK_BITS
        closing = (queued + self._in_flight + self.pa_buffer.size // BLOCK_BITS
                   >= self.config.blocks_per_batch)
        while queued >= SUB_WINDOW_BLOCKS or (closing and queued):
            n_blocks = min(queued, SUB_WINDOW_BLOCKS)
            self._send_window(n_blocks)
            queued -= n_blocks
        if closing:
            self._read_replies()

    def _send_window(self, n_blocks: int):
        blocks = self._take_key_bits(n_blocks * BLOCK_BITS).reshape(n_blocks, BLOCK_BITS)
        synd = ldpc.syndrome_batch(blocks, self.rate)
        self.ep.send(CH_SYNDROME, frames.encode_syndrome(self.window, synd))
        tags = make_tags(blocks, self.proto_rng)
        self.ep.send(CH_VERIFY, frames.encode_tags(self.window, tags))
        self._pending.append((self._read_ec_verdict, (self.window, blocks)))
        self._in_flight += n_blocks
        self.window += 1

    def _read_ec_verdict(self, window_blocks: tuple[int, np.ndarray]):
        window, blocks = window_blocks
        n_blocks = blocks.shape[0]
        flags = frames.decode_verify_response(self.ep.expect(CH_VERIFY), window, n_blocks)
        self.pa_buffer = np.concatenate([self.pa_buffer, blocks[flags].reshape(-1)])
        self._dropped_blocks += int(n_blocks - flags.sum())
        self._in_flight -= n_blocks

    def _pa_round(self, batch_index: int):
        cfg = self.config
        batch_bits = self.pa_buffer[: cfg.n_sift]
        self.pa_buffer = self.pa_buffer[cfg.n_sift :]
        seed = make_seed(self.proto_rng, self.n_out)
        self.ep.send(CH_PA_SEED, frames.encode_seed(seed, batch_index))

        # exchange estimation inputs: Alice's exact mismatch count against
        # Bob's truth-channel audit
        mism = frames.decode_estimate(self.ep.expect(CH_CONTROL), batch_index,
                                      self._dropped_blocks, cfg.n_sift)
        audit = self._audit.copy()
        self.ep.send(CH_CONTROL, frames.encode_audit(batch_index, audit))
        self._audit[:] = 0

        est = self._estimate_and_reset(mism)
        self._finish_batch(batch_index, est, audit,
                           amplify_batch(batch_bits, seed, self.n_out, self.seed_ledger))

    # truth-channel audit accumulators (simulation only)
    def _accumulate_audit(self, monitor, q0: int):
        if len(monitor) == 0:
            return
        interf = interfering_slot_mask(self.source.at, monitor.gate + 2 * q0)
        dest = monitor.destructive
        sig = monitor.truth == TRUTH_SIGNAL
        self._audit[4] += int((interf & ~dest).sum())
        self._audit[5] += int((interf & dest).sum())
        self._audit[6] += int((interf & ~dest & sig).sum())
        self._audit[7] += int((interf & dest & sig).sum())

    def _audit_errors(self, events, kept, kept_bits, q0: int):
        q = events.qubit[kept]
        truth = events.truth[kept]
        _, alice_bits = self.source.at(q + q0)
        err = kept_bits != alice_bits
        self._audit[0] += q.size
        self._audit[1] += int(err.sum())
        self._audit[2] += int((err & (truth == TRUTH_DARK)).sum())
        self._audit[3] += int((err & (truth == TRUTH_NOISE)).sum())


# ---------------------------------------------------------------------------
# Alice: source side
# ---------------------------------------------------------------------------

class AliceParty(_PartyBase):
    role = "alice"

    def __init__(self, config: SessionConfig, transport):
        super().__init__(config, transport, out_dir=0)
        self.source: QubitSource | None = None
        self.corrected_buffer = np.zeros(0, dtype=np.uint8)
        self.qubits_seen = 0
        # mismatches of each passed block, in consumption order
        self._block_mismatches: list[int] = []

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
        view = decode_and_sift(_OffsetSource(self.source, self.qubits_seen),
                               blocks, self.mode, n_blocks)
        if any(q[-1] >= n_q for q in (view.data_qubits, view.monitor_qubits) if q.size):
            raise SessionAborted("sifting disclosure runs past its chunk")
        self.qubits_seen += n_q
        self.total_qubits += n_q
        self.total_raw += view.raw_count
        self.total_sifted += view.sifted_count
        self.key_bits = np.concatenate([self.key_bits, view.alice_key_bits])
        self.ep.send(CH_SIFTING, frames.encode_sift_response(view.keep_mask))

    def _ec_round(self, payload: bytes):
        synd = frames.decode_syndrome(payload, self.window, self.rate,
                                      self.key_bits.size // BLOCK_BITS)
        n_blocks = synd.shape[0]
        mine = self._take_key_bits(n_blocks * BLOCK_BITS).reshape(n_blocks, BLOCK_BITS)
        corrected, ok, _ = ldpc.decode_batch(mine, synd, self.rate,
                                             channel_p=self.channel_p)
        tags = frames.decode_tags(self.ep.expect(CH_VERIFY), self.window, n_blocks)
        passed = verify_batch(corrected, tags) & ok
        self.ep.send(CH_VERIFY, frames.encode_verify_response(self.window, passed))
        self.window += 1
        self.corrected_buffer = np.concatenate(
            [self.corrected_buffer, corrected[passed].reshape(-1)])
        per_block = (mine[passed] ^ corrected[passed]).sum(axis=1)
        self._block_mismatches.extend(int(v) for v in per_block)
        self._dropped_blocks += int(n_blocks - passed.sum())

    def _pa_round(self, payload: bytes, batch_index: int):
        cfg = self.config
        seed = frames.decode_pa_seed(payload, batch_index, self.n_out)
        if self.corrected_buffer.size < cfg.n_sift:
            raise SessionAborted("privacy amplification seed before its batch is complete")
        batch_bits = self.corrected_buffer[: cfg.n_sift]
        self.corrected_buffer = self.corrected_buffer[cfg.n_sift :]
        mism = sum(self._block_mismatches[: cfg.blocks_per_batch])
        del self._block_mismatches[: cfg.blocks_per_batch]
        self.ep.send(CH_CONTROL, frames.encode_estimate(batch_index, mism, self._dropped_blocks))
        audit = np.array(frames.decode_audit(self.ep.expect(CH_CONTROL), batch_index),
                         dtype=np.int64)
        est = self._estimate_and_reset(mism)
        self._finish_batch(batch_index, est, audit,
                           amplify_batch(batch_bits, seed, self.n_out, self.seed_ledger))


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
