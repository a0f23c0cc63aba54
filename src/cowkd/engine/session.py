"""Two-party distillation sessions over a framed service channel.

Bob owns the detectors, so he drives: he discloses detection times chunk by
chunk, sends syndromes and verification tags for his sifted blocks, and
announces the privacy-amplification seed per batch. Error correction runs in
one window per batch: Bob queues full sifted blocks until they, with the
passed blocks awaiting amplification, fill `blocks_per_batch`, then sends
all queued blocks as one syndrome frame and one verify frame (several
pairs past `MAX_WINDOW_BLOCKS`, the frames' 16-bit block count). When dropped
blocks leave the batch short, the next chunk that makes up the shortfall
triggers a small top-up window. Alice sifts, decodes
toward Bob's key, verifies, counts the exact error rate against her original
bits, and mirrors the pool operations. All quantum-side randomness lives in
one seed-derived substream held by Bob; protocol randomness (verification
seeds, PA seeds) comes from his party substream. Given the same session
seed and configuration, transcripts and pools are bit-identical run to run.

Per-direction authentication: every non-admin frame byte enters a 2^20-bit
unit stream; each filled unit is tagged (pad index = 2*unit + direction) and
the receiver re-verifies against its mirrored stream. A mismatch freezes key
delivery and aborts the session.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .. import auth as auth_mod
from .. import ldpc
from ..auth import UNIT_BITS, AuthKeyState, AuthTag, parse_psk
from ..cowsim import ChannelParams, QubitSource
from ..cowsim.channel import TRUTH_DARK, TRUTH_NOISE, TRUTH_SIGNAL, interfering_slot_mask, sample_detections
from ..finitekey import (
    FiniteKeyBudget,
    PEMode,
    corrected_observables,
    quantize_compression,
    secret_fraction,
)
from ..ldpc.fer import fer_estimate
from ..privamp import CompressionSetting, DistillationBatch, PASeed, SeedLedger, amplify_batch, decode_seed, encode_seed, make_seed
from ..randomness import EntropySeed, RandomStream
from ..sifting import SiftingMode, decode_and_sift, encode, resolve_collisions
from ..verification import BLOCK_BITS, VerificationTag, make_tags, verify_batch
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

PROTOCOL_MAGIC = b"COWD1"

# substream labels off the session seed
DOM_QUANTUM = 1
DOM_BOB = 3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_AUTH_ALARM = 4


class SessionAborted(RuntimeError):
    def __init__(self, message: str, exit_code: int = EXIT_ABORT):
        super().__init__(message)
        self.exit_code = exit_code


class AuthAlarm(SessionAborted):
    def __init__(self, message: str):
        super().__init__(message, EXIT_AUTH_ALARM)


@dataclass
class SessionConfig:
    params: ChannelParams = field(default_factory=ChannelParams)
    code_rate: str = "3/4"
    sift_bits: int = 14
    pe_mode: str = PEMode.KEY_COMPARISON
    compression: float | None = None  # None: derive from expected observables
    compression_margin: float = 0.85
    n_batches: int = 3
    blocks_per_batch: int = 512
    chunk_qubits: int = 1 << 24
    alice_buffer_qubits: int = 1 << 24
    seed_hex: str | None = None
    psk: bytes = b""
    channel_p_prior: float = 0.02
    pad_reserve_target: int = 96
    deadtime_gates: int = 0
    subsample_eta: float = 0.125
    # refuse to deliver when the measured secret fraction falls below the
    # applied compression; disable only for reduced-size plumbing tests
    enforce_compression_bound: bool = True

    def __post_init__(self):
        if self.chunk_qubits > self.alice_buffer_qubits:
            raise SessionAborted(
                "sifting chunk exceeds Alice's preparation buffer", EXIT_CONFIG)
        if not self.psk:
            raise SessionAborted("pre-shared key required", EXIT_CONFIG)

    @property
    def n_sift(self) -> int:
        return self.blocks_per_batch * BLOCK_BITS

    def digest(self) -> bytes:
        blob = json.dumps({
            "params": self.params.to_json(),
            "code_rate": self.code_rate,
            "sift_bits": self.sift_bits,
            "pe_mode": self.pe_mode,
            "compression": self.compression,
            "margin": self.compression_margin,
            "n_batches": self.n_batches,
            "blocks_per_batch": self.blocks_per_batch,
            "chunk_qubits": self.chunk_qubits,
            "prior": self.channel_p_prior,
            "subsample_eta": self.subsample_eta,
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
            t_bob=self.params.t_bob, pe_mode=self.pe_mode,
            eta_pe=self.subsample_eta,
        )
        obs.visibility_corrected = self.params.visibility_if
        f_sec = secret_fraction(obs, FiniteKeyBudget.reference())
        return quantize_compression(f_sec * self.compression_margin)[0]


# ---------------------------------------------------------------------------
# authenticated framing endpoint
# ---------------------------------------------------------------------------

class _Endpoint:
    """Transport wrapper handling tagging, verification and accounting."""

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

    # -- send ----------------------------------------------------------------

    def send(self, channel_id: int, payload: bytes):
        raw = encode_frame(channel_id, payload)
        self.transport.send(raw)
        self.bytes_out[channel_id] += len(raw)
        self._out_hash.update(raw)
        if channel_id != CH_ADMIN:
            self._out_buf.extend(raw)
            self._drain_out_units()

    def _drain_out_units(self):
        unit_bytes = UNIT_BITS // 8
        while len(self._out_buf) >= unit_bytes:
            unit = bytes(self._out_buf[:unit_bytes])
            del self._out_buf[:unit_bytes]
            self._emit_tag(unit, self._out_units)
            self._out_units += 1

    def _emit_tag(self, message: bytes, unit_index: int):
        pad_index = 2 * unit_index + self.out_dir
        pad = self.pool.take_pad(pad_index)
        tag = auth_mod.tag(message, self.auth_state, pad, pad_index)
        raw = encode_frame(CH_AUTH_TAG, tag.to_bytes())
        self.transport.send(raw)
        self.bytes_out[CH_AUTH_TAG] += len(raw)
        self._out_hash.update(raw)
        self._out_buf.extend(raw)
        # a tag frame can itself complete the next unit
        self._drain_out_units()

    def flush_final_tag(self):
        """Tag whatever remains of the outbound stream (possibly empty)."""
        unit = bytes(self._out_buf)
        self._out_buf.clear()
        self._emit_tag(unit, self._out_units)
        self._out_units += 1

    def drain_final_tag(self):
        """Consume the peer's closing tag frame and verify the remainder."""
        header = self.transport.recv_exact(HEADER_BYTES)
        channel_id, length = decode_header(header)
        payload = self.transport.recv_exact(length) if length else b""
        raw = header + payload
        self.bytes_in[channel_id] += len(raw)
        self._in_hash.update(raw)
        if channel_id != CH_AUTH_TAG:
            raise SessionAborted("peer failed to flush its final tag")
        self._verify_final_tag(AuthTag.from_bytes(payload))

    def _verify_final_tag(self, tag: AuthTag):
        message = bytes(self._in_buf)
        self._in_buf.clear()
        pad_index = 2 * self._in_units + self.in_dir
        self._in_units += 1
        pad = self.pool.take_pad(pad_index)
        if not auth_mod.verify(message, tag, self.auth_state, pad, pad_index):
            self.alarm = "authentication tag mismatch on the closing unit"
            self.pool.freeze()
            raise AuthAlarm(self.alarm)

    # -- receive ---------------------------------------------------------------

    def recv(self) -> tuple[int, bytes]:
        """Next non-auth frame; tag frames are consumed and verified inline."""
        while True:
            header = self.transport.recv_exact(HEADER_BYTES)
            channel_id, length = decode_header(header)
            payload = self.transport.recv_exact(length) if length else b""
            raw = header + payload
            self.bytes_in[channel_id] += len(raw)
            self._in_hash.update(raw)
            if channel_id == CH_AUTH_TAG:
                self._verify_tag(AuthTag.from_bytes(payload))
                self._in_buf.extend(raw)
                continue
            if channel_id != CH_ADMIN:
                self._in_buf.extend(raw)
            return channel_id, payload

    def _verify_tag(self, tag: AuthTag):
        unit_bytes = UNIT_BITS // 8
        if len(self._in_buf) >= unit_bytes:
            message = bytes(self._in_buf[:unit_bytes])
            del self._in_buf[:unit_bytes]
        else:  # final flush tag covers the partial unit
            message = bytes(self._in_buf)
            self._in_buf.clear()
        pad_index = 2 * self._in_units + self.in_dir
        self._in_units += 1
        pad = self.pool.take_pad(pad_index)
        if not auth_mod.verify(message, tag, self.auth_state, pad, pad_index):
            self.alarm = f"authentication tag mismatch on unit {self._in_units - 1}"
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
# control-channel records
# ---------------------------------------------------------------------------

def _pack_hello(cfg_digest: bytes, quantum_seed: bytes) -> bytes:
    return PROTOCOL_MAGIC + cfg_digest + quantum_seed


def _unpack_hello(payload: bytes) -> tuple[bytes, bytes]:
    if payload[:5] != PROTOCOL_MAGIC:
        raise SessionAborted("peer speaks a different protocol", EXIT_CONFIG)
    return payload[5:37], payload[37:69]


_EST = struct.Struct(">IQQQ")  # batch, mismatches, passed_bits, dropped_blocks
# syndrome and verify frames count a window's blocks, and tags index them,
# in 16 bits; a larger window is sent as several
MAX_WINDOW_BLOCKS = 0xFFFF
_AUD = struct.Struct(">IQQQQQQQQ")


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
        self.pool = SecretKeyPool(psk, config.pad_reserve_target)
        self.ep = _Endpoint(transport, self.pool, psk.poly_key, out_dir)
        self.mode = SiftingMode(config.sift_bits)
        self.rate = ldpc.as_rate(config.code_rate)
        self.compression = config.auto_compression()
        self.n_out = CompressionSetting(self.compression, config.n_sift).n_out
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
        self.channel_p = config.channel_p_prior
        self.alarms: list[str] = []
        self.subsample_errors = 0
        self.subsample_disclosed = 0
        # estimation bookkeeping: one mismatch count per passed block (in
        # consumption order) plus drops since the last amplification round
        self._block_mismatches: list[int] = []
        self._dropped_blocks = 0
        self._audit = np.zeros(8, dtype=np.int64)  # Bob fills; Alice receives

    # small helpers ---------------------------------------------------------

    def _take_key_bits(self, n: int) -> np.ndarray:
        out = self.key_bits[:n]
        # copy the remainder (under a block) so a taken window's buffer is
        # freed with the window, before privacy amplification allocates
        self.key_bits = self.key_bits[n:].copy()
        return out

    def _estimate_and_reset(self, batch_index: int, mismatch_override=None) -> dict:
        passed = self.config.blocks_per_batch
        dropped = self._dropped_blocks
        consumed = self._block_mismatches[:passed]
        del self._block_mismatches[:passed]
        self._dropped_blocks = 0
        mism = sum(consumed) if mismatch_override is None else mismatch_override
        attempted = passed + dropped
        q_raw = mism / (passed * BLOCK_BITS) if passed else 0.0
        q_eff = ((mism + 0.5 * dropped * BLOCK_BITS) / (attempted * BLOCK_BITS)
                 if attempted else 0.0)
        if self.config.pe_mode == PEMode.SUBSAMPLING and self.subsample_disclosed:
            q_raw = self.subsample_errors / self.subsample_disclosed
            q_eff = min((q_raw * passed * BLOCK_BITS + 0.5 * dropped * BLOCK_BITS)
                        / (attempted * BLOCK_BITS), 0.5) if attempted else q_raw
        return {"batch": batch_index, "q_raw": q_raw, "q_eff": q_eff,
                "attempted": attempted, "dropped": dropped, "mismatches": mism}

    def _batch_observables(self, est: dict, audit: np.ndarray):
        (n_kept, err_total, err_dark, err_noise,
         nb_raw, nd_raw, nb_sig, nd_sig) = (int(x) for x in audit)
        dark_q = err_dark / n_kept if n_kept else 0.0
        noise_q = err_noise / n_kept if n_kept else 0.0
        v_raw = (nb_raw - nd_raw) / (nb_raw + nd_raw) if nb_raw + nd_raw else 1.0
        obs = corrected_observables(
            qber_raw=min(est["q_raw"], 1.0), qber_effective=min(est["q_eff"], 1.0),
            visibility_raw=max(v_raw, 0.0),
            dark_qber=dark_q, noise_qber=noise_q,
            mu=self.config.params.mu, code_rate=float(self.rate),
            n_sift=self.config.n_sift, p_decoy=self.config.params.p_decoy,
            t_bob=self.config.params.t_bob, pe_mode=self.config.pe_mode,
            eta_pe=self.config.subsample_eta,
        )
        v_corr = (nb_sig - nd_sig) / (nb_sig + nd_sig) if nb_sig + nd_sig else 1.0
        obs.visibility_corrected = max(min(v_corr, 1.0), 0.0)
        return obs

    def _finish_batch(self, batch_index: int, est: dict, audit: np.ndarray,
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
            batch=batch_index, qber_raw=est["q_raw"], qber_effective=est["q_eff"],
            visibility_raw=obs.visibility_raw,
            visibility_corrected=obs.visibility_corrected,
            dark_qber=int(audit[2]) / n_kept if n_kept else 0.0,
            noise_qber=int(audit[3]) / n_kept if n_kept else 0.0,
            f_sec_measured=f_sec, compression=self.compression,
            n_out_bits=key.size, attempted_blocks=est["attempted"],
            dropped_blocks=est["dropped"],
        ))
        self.channel_p = min(max(est["q_raw"], 1e-4), 0.3)

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
        self.pa_buffer = np.zeros(0, dtype=np.uint8)  # verified key bits
        self.window = 0

    def run(self) -> dict:
        cfg = self.config
        try:
            self._handshake()
            batch = 0
            while batch < cfg.n_batches:
                self._chunk_round()
                self._ec_window()
                while self.pa_buffer.size >= cfg.n_sift and batch < cfg.n_batches:
                    self._pa_round(batch)
                    batch += 1
            self.ep.send(CH_CONTROL, b"END")
            self.ep.flush_final_tag()
            ch, payload = self.ep.recv()
            if (ch, payload) != (CH_CONTROL, b"END"):
                raise SessionAborted("peer failed to close the session")
            self.ep.drain_final_tag()
        finally:
            self.ep.transport.close()
        return self.report()

    def _handshake(self):
        cfg = self.config
        self.ep.send(CH_ADMIN, b"bob ready")
        ch, _ = self.ep.recv()
        if ch != CH_ADMIN:
            raise SessionAborted("expected peer banner", EXIT_CONFIG)
        ch, payload = self.ep.recv()
        if ch != CH_CONTROL:
            raise SessionAborted("expected hello", EXIT_CONFIG)
        peer_digest, quantum_seed = _unpack_hello(payload)
        if peer_digest != cfg.digest():
            raise SessionAborted("configuration mismatch between parties", EXIT_CONFIG)
        self.ep.send(CH_CONTROL, _pack_hello(cfg.digest(), quantum_seed))
        qseed = EntropySeed(quantum_seed, "fixed")
        self.rng = RandomStream(qseed, DOM_QUANTUM)
        self.proto_rng = RandomStream(qseed, DOM_BOB)
        self.source = QubitSource(self.rng.draw_bytes(32), cfg.params.p_decoy)

    # one sifting chunk: simulate, disclose, apply Alice's verdicts
    def _chunk_round(self):
        cfg = self.config
        n_q = cfg.chunk_qubits
        q0 = self.total_qubits
        chunk_view = _OffsetSource(self.source, q0)
        data, monitor = sample_detections(cfg.params, chunk_view, n_q, self.rng)
        data.gate += 2 * q0
        monitor.gate += 2 * q0
        events = resolve_collisions(data, monitor, cfg.deadtime_gates, self.rng)
        self._accumulate_audit(monitor)
        self.total_qubits += n_q
        payload, n_blocks = encode(_shift_events(events, -q0), self.mode)
        head = struct.pack(">IQI", 0, n_q, n_blocks)
        self.ep.send(CH_SIFTING, head + payload)

        ch, resp = self.ep.recv()
        if ch != CH_SIFTING:
            raise SessionAborted(f"expected sifting response, got {CHANNEL_NAMES[ch]}")
        (n_data,) = struct.unpack(">I", resp[:4])
        keep = np.unpackbits(np.frombuffer(resp[4:], dtype=np.uint8), count=n_data).astype(bool)
        dmask = events.data_mask()
        if n_data != int(dmask.sum()):
            raise SessionAborted("sifting response does not match disclosure")
        kept_bits = events.bob_bit[dmask][keep].astype(np.uint8)
        self.total_raw += n_data
        self.total_sifted += kept_bits.size
        self._audit_errors(events, dmask, keep)
        kept_bits = self._maybe_subsample(kept_bits)
        self.key_bits = np.concatenate([self.key_bits, kept_bits])

    def _maybe_subsample(self, kept_bits: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.pe_mode != PEMode.SUBSAMPLING or kept_bits.size == 0:
            return kept_bits
        mask = self.proto_rng.draw_uniform(kept_bits.size) < cfg.subsample_eta
        disclosed = kept_bits[mask]
        head = struct.pack(">II", kept_bits.size, int(mask.sum()))
        self.ep.send(CH_CONTROL, b"SMP" + head + np.packbits(mask).tobytes()
                     + np.packbits(disclosed).tobytes())
        self.subsample_disclosed += disclosed.size
        ch, resp = self.ep.recv()
        if ch != CH_CONTROL or resp[:3] != b"SME":
            raise SessionAborted("expected subsample error report")
        self.subsample_errors += struct.unpack(">Q", resp[3:11])[0]
        return kept_bits[~mask]

    # EC + verification over every queued full block, once they complete the
    # batch together with the passed blocks awaiting amplification
    def _ec_window(self):
        while True:
            queued = self.key_bits.size // BLOCK_BITS
            n_passed = self.pa_buffer.size // BLOCK_BITS
            if queued == 0 or queued + n_passed < self.config.blocks_per_batch:
                return
            self._ec_round(min(queued, MAX_WINDOW_BLOCKS))

    def _ec_round(self, n_blocks: int):
        blocks = self._take_key_bits(n_blocks * BLOCK_BITS).reshape(n_blocks, BLOCK_BITS)
        synd = ldpc.syndrome_batch(blocks, self.rate)
        rate_code = f"{self.rate.numerator}/{self.rate.denominator}".encode()
        head = struct.pack(">IHB", self.window, n_blocks, len(rate_code))
        self.ep.send(CH_SYNDROME, head + rate_code + np.packbits(synd).tobytes())
        tags = make_tags(blocks, self.proto_rng, first_index=0)
        blob = b"".join(t.to_bytes() for t in tags)
        self.ep.send(CH_VERIFY, struct.pack(">IH", self.window, n_blocks) + blob)

        ch, resp = self.ep.recv()
        if ch != CH_VERIFY:
            raise SessionAborted(f"expected verify response, got {CHANNEL_NAMES[ch]}")
        if len(resp) != 6 + (n_blocks + 7) // 8:
            raise SessionAborted("verify response has the wrong length")
        if struct.unpack(">IH", resp[:6]) != (self.window, n_blocks):
            raise SessionAborted("verify response out of step")
        flags = np.unpackbits(np.frombuffer(resp[6:], dtype=np.uint8),
                              count=n_blocks).astype(bool)
        passed = blocks[flags].reshape(-1)
        self.pa_buffer = np.concatenate([self.pa_buffer, passed])
        self._block_mismatches.extend([0] * int(flags.sum()))
        self._dropped_blocks += int(n_blocks - flags.sum())
        self.window += 1

    def _pa_round(self, batch_index: int):
        cfg = self.config
        batch_bits = self.pa_buffer[: cfg.n_sift]
        self.pa_buffer = self.pa_buffer[cfg.n_sift :]
        seed = make_seed(self.proto_rng, cfg.n_sift, self.n_out, mode=PASeed.LFSR)
        self.ep.send(CH_PA_SEED, encode_seed(seed, batch_index))

        # exchange estimation inputs: Alice's exact mismatch count against
        # Bob's truth-channel audit
        ch, est_payload = self.ep.recv()
        if ch != CH_CONTROL or est_payload[:3] != b"EST":
            raise SessionAborted("expected estimation report")
        _, mism, _, _ = _EST.unpack(est_payload[3:])
        audit = self._audit.copy()
        self.ep.send(CH_CONTROL, b"AUD" + _AUD.pack(batch_index, *audit))
        self._audit[:] = 0

        est = self._estimate_and_reset(batch_index, mismatch_override=int(mism))
        batch = DistillationBatch(batch_index, batch_bits,
                                  blocks_attempted=est["attempted"],
                                  blocks_dropped=est["dropped"],
                                  n_in=cfg.n_sift)
        key = amplify_batch(batch, CompressionSetting(self.compression, cfg.n_sift),
                            seed, self.seed_ledger)
        self._finish_batch(batch_index, est, audit, key)

    # truth-channel audit accumulators (simulation only)
    def _accumulate_audit(self, monitor):
        if len(monitor) == 0:
            return
        interf = interfering_slot_mask(self.source.at, monitor.gate)
        dest = monitor.destructive
        sig = monitor.truth == TRUTH_SIGNAL
        self._audit[4] += int((interf & ~dest).sum())
        self._audit[5] += int((interf & dest).sum())
        self._audit[6] += int((interf & ~dest & sig).sum())
        self._audit[7] += int((interf & dest & sig).sum())

    def _audit_errors(self, events, dmask, keep):
        q = events.qubit[dmask][keep]
        bob = events.bob_bit[dmask][keep]
        truth = events.truth[dmask][keep]
        _, alice_bits = self.source.at(q)
        err = bob != alice_bits
        self._audit[0] += q.size
        self._audit[1] += int(err.sum())
        self._audit[2] += int((err & (truth == TRUTH_DARK)).sum())
        self._audit[3] += int((err & (truth == TRUTH_NOISE)).sum())


def _shift_events(events, offset: int):
    from ..sifting import ResolvedEvents

    return ResolvedEvents(events.qubit + offset, events.control, events.bob_bit,
                          events.truth, events.raw_count, events.run_id)


# ---------------------------------------------------------------------------
# Alice: source side
# ---------------------------------------------------------------------------

class AliceParty(_PartyBase):
    role = "alice"

    def __init__(self, config: SessionConfig, transport,
                 os_entropy: bool | None = None):
        super().__init__(config, transport, out_dir=0)
        self.source: QubitSource | None = None
        self.corrected_buffer = np.zeros(0, dtype=np.uint8)
        self.original_buffer = np.zeros(0, dtype=np.uint8)
        self.qubits_seen = 0
        self.pending_audit: np.ndarray | None = None

    def run(self) -> dict:
        cfg = self.config
        try:
            self._handshake()
            batch = 0
            while batch < cfg.n_batches:
                ch, payload = self.ep.recv()
                if ch == CH_SIFTING:
                    self._sift_round(payload)
                elif ch == CH_SYNDROME:
                    self._ec_round(payload)
                elif ch == CH_PA_SEED:
                    self._pa_round(payload, batch)
                    batch += 1
                elif ch == CH_CONTROL and payload[:3] == b"SMP":
                    self._subsample_round(payload[3:])
                else:
                    raise SessionAborted(f"unexpected frame on {CHANNEL_NAMES[ch]}")
            ch, payload = self.ep.recv()
            if (ch, payload) != (CH_CONTROL, b"END"):
                raise SessionAborted("expected session end")
            self.ep.drain_final_tag()
            self.ep.send(CH_CONTROL, b"END")
            self.ep.flush_final_tag()
        finally:
            self.ep.transport.close()
        return self.report()

    def _handshake(self):
        cfg = self.config
        if cfg.seed_hex:
            session_seed = EntropySeed.from_hex(cfg.seed_hex).bits
        else:
            import os

            session_seed = os.urandom(32)
        self.ep.send(CH_ADMIN, b"alice ready")
        ch, _ = self.ep.recv()
        if ch != CH_ADMIN:
            raise SessionAborted("expected peer banner", EXIT_CONFIG)
        self.ep.send(CH_CONTROL, _pack_hello(cfg.digest(), session_seed))
        ch, payload = self.ep.recv()
        if ch != CH_CONTROL:
            raise SessionAborted("expected hello echo", EXIT_CONFIG)
        peer_digest, echoed = _unpack_hello(payload)
        if peer_digest != cfg.digest() or echoed != session_seed:
            raise SessionAborted("configuration mismatch between parties", EXIT_CONFIG)
        qseed = EntropySeed(session_seed, "fixed")
        rng = RandomStream(qseed, DOM_QUANTUM)
        self.source = QubitSource(rng.draw_bytes(32), cfg.params.p_decoy)

    def _sift_round(self, payload: bytes):
        cfg = self.config
        _, n_q, n_blocks = struct.unpack(">IQI", payload[:16])
        if n_q > cfg.alice_buffer_qubits:
            raise SessionAborted("preparation buffer overflow")
        view = decode_and_sift(_OffsetSource(self.source, self.qubits_seen),
                               payload[16:], self.mode, n_blocks)
        self.qubits_seen += n_q
        self.total_qubits += n_q
        self.total_raw += view.raw_count
        self.total_sifted += view.sifted_count
        self.key_bits = np.concatenate([self.key_bits, view.alice_key_bits])
        resp = struct.pack(">I", view.raw_count) + np.packbits(view.keep_mask).tobytes()
        self.ep.send(CH_SIFTING, resp)

    def _subsample_round(self, payload: bytes):
        n_kept, n_disc = struct.unpack(">II", payload[:8])
        nb = (n_kept + 7) // 8
        mask = np.unpackbits(np.frombuffer(payload[8 : 8 + nb], dtype=np.uint8),
                             count=n_kept).astype(bool)
        bob_vals = np.unpackbits(np.frombuffer(payload[8 + nb :], dtype=np.uint8),
                                 count=n_disc)
        mine = self.key_bits[-n_kept:] if n_kept else np.zeros(0, dtype=np.uint8)
        errors = int((mine[mask] != bob_vals).sum())
        self.subsample_errors += errors
        self.subsample_disclosed += n_disc
        head = self.key_bits[: self.key_bits.size - n_kept]
        self.key_bits = np.concatenate([head, mine[~mask]])
        self.ep.send(CH_CONTROL, b"SME" + struct.pack(">Q", errors))

    def _ec_round(self, payload: bytes):
        win, n_blocks, rate_len = struct.unpack(">IHB", payload[:7])
        rate_code = payload[7 : 7 + rate_len].decode()
        if ldpc.as_rate(rate_code) != self.rate:
            raise SessionAborted("peer switched code rate mid-session")
        synd_bits = n_blocks * ldpc.syndrome_length(self.rate)
        synd = np.unpackbits(np.frombuffer(payload[7 + rate_len :], dtype=np.uint8),
                             count=synd_bits).reshape(n_blocks, -1)
        mine = self._take_key_bits(n_blocks * BLOCK_BITS).reshape(n_blocks, BLOCK_BITS)
        corrected, ok, _ = ldpc.decode_batch(mine, synd, self.rate,
                                             channel_p=self.channel_p)
        ch, tag_payload = self.ep.recv()
        if ch != CH_VERIFY:
            raise SessionAborted("expected verification tags")
        if len(tag_payload) != 6 + VerificationTag.WIRE_BYTES * n_blocks:
            raise SessionAborted("verification tag frame has the wrong length")
        if struct.unpack(">IH", tag_payload[:6]) != (win, n_blocks):
            raise SessionAborted("verification tags out of step")
        tags = [VerificationTag.from_bytes(tag_payload[6 + 14 * i : 20 + 14 * i])
                for i in range(n_blocks)]
        flags = verify_batch(corrected, tags) & ok
        self.ep.send(CH_VERIFY, struct.pack(">IH", win, n_blocks)
                     + np.packbits(flags).tobytes())
        passed = flags
        self.corrected_buffer = np.concatenate(
            [self.corrected_buffer, corrected[passed].reshape(-1)])
        per_block = (mine[passed] ^ corrected[passed]).sum(axis=1)
        self._block_mismatches.extend(int(v) for v in per_block)
        self._dropped_blocks += int(n_blocks - passed.sum())

    def _pa_round(self, payload: bytes, batch_index: int):
        cfg = self.config
        seed, batch_id = decode_seed(payload)
        if batch_id != batch_index:
            raise SessionAborted("privacy amplification batches out of step")
        batch_bits = self.corrected_buffer[: cfg.n_sift]
        self.corrected_buffer = self.corrected_buffer[cfg.n_sift :]
        batch_mism = sum(self._block_mismatches[: cfg.blocks_per_batch])
        self.ep.send(CH_CONTROL, b"EST" + _EST.pack(
            batch_index, batch_mism, 0, self._dropped_blocks))
        ch, audit_payload = self.ep.recv()
        if ch != CH_CONTROL or audit_payload[:3] != b"AUD":
            raise SessionAborted("expected truth audit")
        audit = np.array(_AUD.unpack(audit_payload[3:])[1:], dtype=np.int64)
        est = self._estimate_and_reset(batch_index)
        batch = DistillationBatch(batch_index, batch_bits,
                                  blocks_attempted=est["attempted"],
                                  blocks_dropped=est["dropped"],
                                  n_in=cfg.n_sift)
        key = amplify_batch(batch, CompressionSetting(self.compression, cfg.n_sift),
                            seed, self.seed_ledger)
        self._finish_batch(batch_index, est, audit, key)


class _OffsetSource:
    """Shift a qubit-index window so chunk-local indices resolve globally."""

    def __init__(self, source: QubitSource, offset: int):
        self._source = source
        self._offset = offset
        self.run_id = source.run_id

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
