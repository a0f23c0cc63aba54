"""Stochastic simulation of the coherent one-way optical link.

Time axis: qubit i occupies gates 2i (early bin) and 2i+1 (late bin). A data
qubit carries one pulse: bit 1 in the early bin, bit 0 in the late bin, with
extinction leakage in the other; a decoy qubit fills both bins. The
monitoring interferometer delays light by one gate, so monitor slot g
overlaps half of pulse g-1 with half of pulse g: slots where both
contributions are nominally non-empty interfere (destructive port suppressed
by the visibility), lone pulses split evenly between the ports.

Detections are sampled sparsely: candidate clicks are drawn at an upper
bound rate and thinned, which is what makes full-size sessions (5e8 qubits
per distillation batch) tractable. Prepared qubits are a pure function of a
256-bit key and the qubit index, so either party can evaluate any index
without materializing the sequence.
"""

from __future__ import annotations

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


class QubitSource:
    """Random-access view of Alice's prepared sequence.

    Qubit i's basis and bit derive from an AES block at counter i, so
    evaluation at arbitrary indices is O(1) and both parties of a simulated
    session can share the view through the 256-bit key.
    """

    def __init__(self, key: bytes, p_decoy: float):
        if len(key) != 32:
            raise ValueError("qubit source key must be 32 bytes")
        self.key = key
        self.p_decoy = p_decoy
        self._cipher = Cipher(algorithms.AES(key), modes.ECB())

    @classmethod
    def from_stream(cls, rng: RandomStream, p_decoy: float) -> "QubitSource":
        return cls(rng.draw_bytes(32), p_decoy)

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


@dataclass
class DetectionArrays:
    """Column-oriented detection stream (sorted by gate index)."""

    gate: np.ndarray  # int64 gate indices
    truth: np.ndarray  # TRUTH_* codes
    destructive: np.ndarray | None = None  # monitor only

    def __len__(self):
        return self.gate.size


# ---------------------------------------------------------------------------
# pulse means
# ---------------------------------------------------------------------------

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
    """Data and monitor detections of n_qubits prepared by `source`.

    The dense per-gate reference it must agree with in distribution lives
    with the tests (`tests/refsim.py`).
    """
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
    data = _merge_truth(sig_gates, dark_gates, noise_gates)

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
        merged = _merge_truth(sig, dark, noise)
        live = deadtime_mask(merged.gate, params.deadtime_mon_gates)
        mon_streams.append((merged.gate[live], merged.truth[live], destructive))

    mg = np.concatenate([g for g, _, _ in mon_streams])
    mt = np.concatenate([t for _, t, _ in mon_streams])
    md = np.concatenate([np.full(g.size, d, dtype=bool) for g, _, d in mon_streams])
    order = np.argsort(mg, kind="stable")
    monitor = DetectionArrays(mg[order], mt[order], md[order])
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


def _merge_truth(sig: np.ndarray, dark: np.ndarray, noise: np.ndarray) -> DetectionArrays:
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
    return DetectionArrays(gates[first], truth[first])


def interfering_slot_mask(lookup, gates: np.ndarray) -> np.ndarray:
    """True at monitor slots where two nominally non-empty half pulses meet."""
    def nominal(g):
        valid = g >= 0
        basis, bit = lookup(np.where(valid, g >> 1, 0))
        is_early = (g & 1) == 0
        full = np.where(is_early, bit == 1, bit == 0)
        return ((basis == BASIS_DECOY) | full) & valid

    return nominal(gates) & nominal(gates - 1)
