"""Dense reference simulation of the COW link, for tests only.

`transmit_detect` draws every gate of a materialized prepared sequence; it is
the reference that `cowkd.cowsim.sample_detections` (candidate clicks drawn
at an upper-bound rate, then thinned) must match in distribution.
`ground_truth_stats` audits detections against the prepared sequence: the
true QBER and the raw and signal-only monitor visibility. `QubitSource` here
is the engine's qubit source plus a run id and `sequence`, which
materializes a prefix of the prepared qubits; `DetectionArrays` carries the
run id of the sequence it was drawn from, so the audit can refuse streams of
another run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cowkd.cowsim import ChannelParams
from cowkd.cowsim import QubitSource as _QubitSource
from cowkd.cowsim.channel import (
    BASIS_DATA,
    BASIS_DECOY,
    TRUTH_DARK,
    TRUTH_NOISE,
    TRUTH_SIGNAL,
    _monitor_port_means,
    deadtime_mask,
    interfering_slot_mask,
)
from cowkd.cowsim.channel import DetectionArrays as _DetectionArrays
from cowkd.randomness import RandomStream


class RunMismatch(ValueError):
    """Streams from different simulation runs were combined."""


class QubitSource(_QubitSource):
    def __init__(self, key: bytes, p_decoy: float, run_id: int = 0):
        super().__init__(key, p_decoy)
        self.run_id = run_id

    @classmethod
    def from_stream(cls, rng: RandomStream, p_decoy: float, run_id: int = 0) -> "QubitSource":
        return cls(rng.draw_bytes(32), p_decoy, run_id)

    def sequence(self, n_qubits: int) -> "PreparedSequence":
        basis, bit = self.at(np.arange(n_qubits))
        return PreparedSequence(basis, bit, run_id=self.run_id, source=self)


@dataclass
class DetectionArrays(_DetectionArrays):
    """A detection stream tagged with the run that produced it."""

    run_id: int = 0


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
    # streams of the engine's sampler carry no run id; they count as run 0
    if any(getattr(s, "run_id", 0) != run_id for s in (data, monitor)):
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


def _visibility(monitor: DetectionArrays, interf: np.ndarray, truth_only: bool) -> float:
    sel = interf.copy()
    if truth_only:
        sel &= monitor.truth == TRUTH_SIGNAL
    n_dest = int((sel & monitor.destructive).sum())
    n_bright = int((sel & ~monitor.destructive).sum())
    total = n_dest + n_bright
    return (n_bright - n_dest) / total if total else 1.0
