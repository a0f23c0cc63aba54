"""Stochastic simulation of the coherent one-way optical link.

Time axis: qubit i occupies gates 2i (early bin) and 2i+1 (late bin). A data
qubit carries one pulse: bit 1 in the early bin, bit 0 in the late bin, with
extinction leakage in the other; a decoy qubit fills both bins. The
monitoring interferometer delays light by one gate, so monitor slot g
overlaps half of pulse g-1 with half of pulse g: slots where both
contributions are nominally non-empty interfere (destructive port suppressed
by the visibility), lone pulses split evenly between the ports.

Two equivalent sampling paths are provided. The dense path draws every gate
and is the reference; the sparse path draws candidate clicks at an upper
bound rate and thins them, which is what makes full-size sessions (5e8
qubits per distillation batch) tractable. Prepared qubits are a pure
function of a 256-bit key and the qubit index, so either party can evaluate
any index without materializing the sequence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ..randomness import RandomStream
from .params import ChannelParams

BASIS_DATA = 0
BASIS_DECOY = 1

TRUTH_SIGNAL = 0
TRUTH_DARK = 1
TRUTH_NOISE = 2
TRUTH_NAMES = {TRUTH_SIGNAL: "signal", TRUTH_DARK: "dark", TRUTH_NOISE: "noise"}

DET_DATA = "data"
DET_MONITOR = "monitor"


class RunMismatch(ValueError):
    """Streams from different simulation runs were combined."""


class QubitSource:
    """Random-access view of Alice's prepared sequence.

    Qubit i's basis and bit derive from an AES block at counter i, so
    evaluation at arbitrary indices is O(1) and both parties of a simulated
    session can share the view through the 256-bit key.
    """

    def __init__(self, key: bytes, p_decoy: float, run_id: int = 0):
        if len(key) != 32:
            raise ValueError("qubit source key must be 32 bytes")
        self.key = key
        self.p_decoy = p_decoy
        self.run_id = run_id
        self._cipher = Cipher(algorithms.AES(key), modes.ECB())

    @classmethod
    def from_stream(cls, rng: RandomStream, p_decoy: float, run_id: int = 0) -> "QubitSource":
        return cls(rng.draw_bytes(32), p_decoy, run_id)

    def at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(basis, bit) arrays for the given qubit indices."""
        idx = np.asarray(indices, dtype=np.uint64)
        blocks = np.zeros((idx.size, 16), dtype=np.uint8)
        blocks[:, 8:16] = idx[:, None].view(np.uint8).reshape(idx.size, 8)[:, ::-1]
        enc = self._cipher.encryptor()
        out = np.frombuffer(enc.update(blocks.tobytes()) + enc.finalize(),
                            dtype=np.uint8).reshape(idx.size, 16)
        u32 = (out[:, 0].astype(np.uint64) << np.uint64(24)) \
            | (out[:, 1].astype(np.uint64) << np.uint64(16)) \
            | (out[:, 2].astype(np.uint64) << np.uint64(8)) \
            | out[:, 3].astype(np.uint64)
        basis = (u32 < int(self.p_decoy * (1 << 32))).astype(np.uint8)
        bit = out[:, 4] & 1
        return basis, bit

    def sequence(self, n_qubits: int) -> "PreparedSequence":
        basis, bit = self.at(np.arange(n_qubits))
        return PreparedSequence(basis, bit, run_id=self.run_id, source=self)


@dataclass
class PreparedSequence:
    """Materialized view of a prepared-qubit range starting at index 0."""

    basis: np.ndarray
    bit: np.ndarray
    run_id: int = 0
    source: QubitSource | None = None

    def __len__(self):
        return self.basis.size

    def at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(basis, bit) arrays for the given qubit indices, as `QubitSource.at`."""
        return self.basis[indices], self.bit[indices]

    def pulse_bins(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (early, late) nominal pulse presence per qubit."""
        decoy = self.basis == BASIS_DECOY
        early = decoy | (self.bit == 1)
        late = decoy | (self.bit == 0)
        return early, late


def prepare_sequence(params: ChannelParams, n_qubits: int,
                     rng: RandomStream, run_id: int = 0) -> PreparedSequence:
    """Draw Alice's state choices for a run of n_qubits."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    source = QubitSource.from_stream(rng, params.p_decoy, run_id)
    return source.sequence(n_qubits)


@dataclass
class DetectionArrays:
    """Column-oriented detection stream (sorted by gate index)."""

    gate: np.ndarray  # int64 gate indices
    truth: np.ndarray  # TRUTH_* codes
    destructive: np.ndarray | None = None  # monitor only
    run_id: int = 0

    def __len__(self):
        return self.gate.size


# ---------------------------------------------------------------------------
# pulse means
# ---------------------------------------------------------------------------

def _gate_means(params: ChannelParams, seq: PreparedSequence) -> np.ndarray:
    """Mean photon number per gate at Alice's output, shape (2 n,)."""
    n = len(seq)
    means = np.empty(2 * n)
    decoy = seq.basis == BASIS_DECOY
    means[0::2] = np.where(decoy, params.mu,
                           np.where(seq.bit == 1, params.mu_full, params.mu_leak))
    means[1::2] = np.where(decoy, params.mu,
                           np.where(seq.bit == 0, params.mu_full, params.mu_leak))
    return means


def _monitor_port_means(params: ChannelParams, m_prev: np.ndarray, m_here: np.ndarray,
                        interferes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(destructive, bright) slot means from two half-pulse contributions."""
    m1 = m_prev / 2.0
    m2 = m_here / 2.0
    cross = 2.0 * np.sqrt(m1 * m2) * params.visibility_if
    base = m1 + m2
    dest = np.where(interferes, (base - cross) / 2.0, base / 2.0)
    bright = np.where(interferes, (base + cross) / 2.0, base / 2.0)
    return dest, bright


# ---------------------------------------------------------------------------
# dense reference path
# ---------------------------------------------------------------------------

def transmit_detect(params: ChannelParams, seq: PreparedSequence,
                    rng: RandomStream) -> tuple[DetectionArrays, DetectionArrays]:
    """Per-gate simulation of both detectors; reference implementation."""
    n_gates = 2 * len(seq)
    means = _gate_means(params, seq)

    # data detector: signal / dark / background, independent-or composition
    m_det = means * params.t_data_line * params.eta_det_data
    p_sig = 1.0 - np.exp(-m_det)
    u = rng.draw_uniform(3 * n_gates)
    sig = u[:n_gates] < p_sig
    dark = u[n_gates : 2 * n_gates] < params.p_dark_data
    noise = u[2 * n_gates :] < params.p_dwdm_noise
    any_click = sig | dark | noise
    gates = np.flatnonzero(any_click).astype(np.int64)
    truth = np.where(sig[gates], TRUTH_SIGNAL,
                     np.where(dark[gates], TRUTH_DARK, TRUTH_NOISE)).astype(np.uint8)
    data = DetectionArrays(gates, truth, run_id=seq.run_id)

    # monitor slots: overlap of consecutive pulses on the monitoring line
    m_mon = means * params.t_monitor_line * params.eta_det_mon
    early, late = seq.pulse_bins()
    present = np.empty(n_gates, dtype=bool)
    present[0::2] = early
    present[1::2] = late
    m_prev = np.concatenate([[0.0], m_mon[:-1]])
    prev_present = np.concatenate([[False], present[:-1]])
    interferes = prev_present & present
    dest_mean, bright_mean = _monitor_port_means(params, m_prev, m_mon, interferes)

    mon_gate_list, mon_truth_list, mon_dest_list = [], [], []
    for destructive, port_mean in ((True, dest_mean), (False, bright_mean)):
        p_click = 1.0 - np.exp(-port_mean)
        v = rng.draw_uniform(3 * n_gates)
        psig = v[:n_gates] < p_click
        pdark = v[n_gates : 2 * n_gates] < params.p_dark_mon
        pnoise = v[2 * n_gates :] < params.p_noise_mon_port
        clk = psig | pdark | pnoise
        g = np.flatnonzero(clk).astype(np.int64)
        t = np.where(psig[g], TRUTH_SIGNAL,
                     np.where(pdark[g], TRUTH_DARK, TRUTH_NOISE)).astype(np.uint8)
        live = deadtime_mask(g, params.deadtime_mon_gates)
        g, t = g[live], t[live]
        mon_gate_list.append(g)
        mon_truth_list.append(t)
        mon_dest_list.append(np.full(g.size, destructive, dtype=bool))

    mg = np.concatenate(mon_gate_list)
    order = np.argsort(mg, kind="stable")
    monitor = DetectionArrays(
        mg[order],
        np.concatenate(mon_truth_list)[order],
        np.concatenate(mon_dest_list)[order],
        run_id=seq.run_id,
    )
    return data, monitor


def deadtime_mask(gates: np.ndarray, deadtime_gates: int) -> np.ndarray:
    """True for each click of a gate-sorted stream that a detector blind for
    `deadtime_gates` gates after every accepted click registers."""
    keep = np.ones(gates.size, dtype=bool)
    if deadtime_gates <= 0:
        return keep
    next_live = -(1 << 62)
    for k, gate in enumerate(gates.tolist()):
        if gate >= next_live:
            next_live = gate + deadtime_gates
        else:
            keep[k] = False
    return keep


# ---------------------------------------------------------------------------
# sparse path (thinning against an upper-bound click rate)
# ---------------------------------------------------------------------------

def _geometric_hits(rng: RandomStream, n_slots: int, p: float) -> np.ndarray:
    """Sorted slot indices of Bernoulli(p) hits over n_slots, gap-sampled."""
    if p <= 0.0 or n_slots <= 0:
        return np.zeros(0, dtype=np.int64)
    out = []
    pos = -1
    log_q = math.log1p(-p)
    while pos < n_slots:
        draw = max(int((n_slots - pos) * p * 1.1) + 64, 256)
        u = rng.draw_uniform(draw)
        gaps = np.floor(np.log(np.maximum(u, 1e-300)) / log_q).astype(np.int64)
        hits = pos + np.cumsum(gaps + 1)
        out.append(hits)
        pos = int(hits[-1])
    hits = np.concatenate(out)
    return hits[hits < n_slots]


def sample_detections(params: ChannelParams, source: QubitSource, n_qubits: int,
                      rng: RandomStream) -> tuple[DetectionArrays, DetectionArrays]:
    """Sparse equivalent of transmit_detect for large runs."""
    n_gates = 2 * n_qubits
    t_eta_data = params.t_data_line * params.eta_det_data

    # data detector signal: bound by the brightest bin (a decoy pulse)
    q_max = 1.0 - math.exp(-params.mu * t_eta_data)
    cand = _geometric_hits(rng, n_gates, q_max)
    basis, bit = source.at(cand >> 1)
    is_early = (cand & 1) == 0
    full = np.where(is_early, bit == 1, bit == 0)
    mean = np.where(basis == BASIS_DECOY, params.mu,
                    np.where(full, params.mu_full, params.mu_leak))
    p_true = 1.0 - np.exp(-mean * t_eta_data)
    acc = rng.draw_uniform(cand.size) < (p_true / q_max)
    sig_gates = cand[acc]

    dark_gates = _geometric_hits(rng, n_gates, params.p_dark_data)
    noise_gates = _geometric_hits(rng, n_gates, params.p_dwdm_noise)
    data = _merge_truth(sig_gates, dark_gates, noise_gates, run_id=source.run_id)

    # monitor ports
    t_eta_mon = params.t_monitor_line * params.eta_det_mon
    q_max_mon = 1.0 - math.exp(-params.mu * t_eta_mon)
    mon_streams = []
    for destructive in (True, False):
        cand = _geometric_hits(rng, n_gates, q_max_mon)
        dest_mean, bright_mean = _slot_means_at(params, source, cand, t_eta_mon)
        port_mean = dest_mean if destructive else bright_mean
        p_true = 1.0 - np.exp(-port_mean)
        acc = rng.draw_uniform(cand.size) < (p_true / q_max_mon)
        sig = cand[acc]
        dark = _geometric_hits(rng, n_gates, params.p_dark_mon)
        noise = _geometric_hits(rng, n_gates, params.p_noise_mon_port)
        merged = _merge_truth(sig, dark, noise, run_id=source.run_id)
        live = deadtime_mask(merged.gate, params.deadtime_mon_gates)
        mon_streams.append((merged.gate[live], merged.truth[live], destructive))

    mg = np.concatenate([g for g, _, _ in mon_streams])
    mt = np.concatenate([t for _, t, _ in mon_streams])
    md = np.concatenate([np.full(g.size, d, dtype=bool) for g, _, d in mon_streams])
    order = np.argsort(mg, kind="stable")
    monitor = DetectionArrays(mg[order], mt[order], md[order], run_id=source.run_id)
    return data, monitor


def _slot_means_at(params: ChannelParams, source: QubitSource, slots: np.ndarray,
                   t_eta_mon: float) -> tuple[np.ndarray, np.ndarray]:
    """Monitor port means at specific gate slots, evaluated lazily."""

    def pulse(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        valid = gates >= 0
        q = np.where(valid, gates >> 1, 0)
        basis, bit = source.at(q)
        is_early = (gates & 1) == 0
        full = np.where(is_early, bit == 1, bit == 0)
        decoy = basis == BASIS_DECOY
        mean = np.where(decoy, params.mu, np.where(full, params.mu_full, params.mu_leak))
        nominal = decoy | full
        mean = np.where(valid, mean, 0.0)
        nominal &= valid
        return mean * t_eta_mon, nominal

    m_here, nom_here = pulse(slots)
    m_prev, nom_prev = pulse(slots - 1)
    return _monitor_port_means(params, m_prev, m_here, nom_prev & nom_here)


def _merge_truth(sig: np.ndarray, dark: np.ndarray, noise: np.ndarray,
                 run_id: int) -> DetectionArrays:
    """Union of click sources at distinct gates, signal taking precedence."""
    gates = np.concatenate([sig, dark, noise])
    truth = np.concatenate([
        np.full(sig.size, TRUTH_SIGNAL, dtype=np.uint8),
        np.full(dark.size, TRUTH_DARK, dtype=np.uint8),
        np.full(noise.size, TRUTH_NOISE, dtype=np.uint8),
    ])
    order = np.lexsort((truth, gates))
    gates, truth = gates[order], truth[order]
    first = np.ones(gates.size, dtype=bool)
    first[1:] = gates[1:] != gates[:-1]
    return DetectionArrays(gates[first], truth[first], run_id=run_id)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def ground_truth_stats(seq_or_source, data: DetectionArrays,
                       monitor: DetectionArrays, n_qubits: int | None = None) -> dict:
    """Audit-level QBER and visibility from the truth channel.

    QBER compares each data-basis detection's time-bin readout against the
    prepared bit. Visibility contrasts bright against destructive monitor
    clicks on interfering slots; the corrected variant drops dark/noise
    clicks first.
    """
    run_id = seq_or_source.run_id
    lookup = seq_or_source.at
    if data.run_id != run_id or monitor.run_id != run_id:
        raise RunMismatch("detection streams do not belong to this preparation")

    qubit = data.gate >> 1
    basis, bit = lookup(qubit)
    on_data = basis == BASIS_DATA
    measured_bit = (data.gate & 1) ^ 1  # early gate -> bit 1, late -> bit 0
    errors = int((measured_bit[on_data] != bit[on_data]).sum())
    n_data = int(on_data.sum())

    interf = interfering_slot_mask(lookup, monitor.gate)
    vis_all = _visibility(monitor, interf, truth_only=False)
    vis_sig = _visibility(monitor, interf, truth_only=True)
    return {
        "qber_true": errors / n_data if n_data else 0.0,
        "n_data_detections": n_data,
        "n_errors": errors,
        "visibility_raw": vis_all,
        "visibility_corrected": vis_sig,
        "n_monitor_interfering": int(interf.sum()),
    }


def interfering_slot_mask(lookup, gates: np.ndarray) -> np.ndarray:
    def nominal(g):
        valid = g >= 0
        basis, bit = lookup(np.where(valid, g >> 1, 0))
        is_early = (g & 1) == 0
        full = np.where(is_early, bit == 1, bit == 0)
        return ((basis == BASIS_DECOY) | full) & valid

    return nominal(gates) & nominal(gates - 1)


def _visibility(monitor: DetectionArrays, interf: np.ndarray, truth_only: bool) -> float:
    sel = interf.copy()
    if truth_only:
        sel &= monitor.truth == TRUTH_SIGNAL
    n_dest = int((sel & monitor.destructive).sum())
    n_bright = int((sel & ~monitor.destructive).sum())
    total = n_dest + n_bright
    return (n_bright - n_dest) / total if total else 1.0


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_csv(path, data: DetectionArrays, monitor: DetectionArrays):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gate_index", "detector", "truth"])
        for stream, name in ((data, DET_DATA), (monitor, DET_MONITOR)):
            for k in range(len(stream)):
                w.writerow([int(stream.gate[k]), name, TRUTH_NAMES[int(stream.truth[k])]])
