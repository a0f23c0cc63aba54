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

# Qubits per cipher pass of `QubitSource.at`: 128 kB of counters and of
# ciphertext, reused, so a lookup neither allocates nor faults in fresh pages.
_LOOKUP_PIECE = 1 << 13


class QubitSource:
    """Random-access view of Alice's prepared sequence.

    Qubit i's basis and bit derive from an AES block at counter i, so
    evaluation at arbitrary indices is O(1) and both parties of a simulated
    session can share the view through the 256-bit key.

    Single-owner, like `RandomStream`: lookups reuse the source's counter and
    ciphertext buffers, so two threads must not call `at` at once.
    """

    def __init__(self, key: bytes, p_decoy: float):
        if len(key) != 32:
            raise ValueError("qubit source key must be 32 bytes")
        self.p_decoy = p_decoy
        # ECB keeps no state between whole blocks: one encryptor serves every lookup
        self._ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        self._counters = np.zeros((_LOOKUP_PIECE, 2), dtype=">u8")  # column 0 stays 0
        self._blocks = np.empty(16 * _LOOKUP_PIECE + 15, dtype=np.uint8)  # ECB needs 15 spare

    def at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(basis, bit) arrays for the given qubit indices.

        Qubit i encrypts the big-endian 128-bit counter i. Its basis is decoy
        when the ciphertext's first 32-bit word, big-endian, falls below
        p_decoy * 2^32; its bit is the low bit of the fifth byte. Each piece
        of up to _LOOKUP_PIECE indices is one cipher pass into the source's
        ciphertext buffer, read straight into the fresh result arrays.
        """
        idx = np.asarray(indices).ravel()
        basis = np.empty(idx.size, dtype=np.uint8)
        bit = np.empty(idx.size, dtype=np.uint8)
        below = int(self.p_decoy * (1 << 32))
        for a in range(0, idx.size, _LOOKUP_PIECE):
            piece = slice(a, a + _LOOKUP_PIECE)
            counters = self._counters[: idx[piece].size]
            counters[:, 1] = idx[piece]
            self._ecb.update_into(counters.view(np.uint8), self._blocks)
            blocks = self._blocks[: 16 * counters.shape[0]].reshape(-1, 16)
            np.less(blocks.view("<u4")[:, 0].byteswap(), below, out=basis[piece].view(bool))
            np.bitwise_and(blocks[:, 4], 1, out=bit[piece])
        return basis, bit


@dataclass
class DetectionArrays:
    """Column-oriented detection stream (sorted by gate index)."""

    gate: np.ndarray  # int64 gate indices
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
        gaps = np.log(np.maximum(u, 1e-300, out=u))
        gaps /= log_q
        hits = np.floor(gaps, out=gaps).astype(np.int64)
        hits += 1
        np.cumsum(hits, out=hits)
        hits += pos
        out.append(hits)
        pos = int(hits[-1])
    # hits increase, so only the last draw can run past n_slots
    out[-1] = hits[: np.searchsorted(hits, n_slots)]
    return out[0] if len(out) == 1 else np.concatenate(out)


# Pulse code of one gate: 2 * basis + whether the gate holds the qubit's
# pulse, so a data qubit's empty (leakage) bin is 0, its full bin 1 and a
# decoy's bins 2 and 3. _NO_PULSE stands for the gate before qubit 0.
_NO_PULSE = 4
_NOMINAL = np.array([False, True, True, True, False])  # a non-empty half pulse


def _pulse_codes(source: QubitSource, gates: np.ndarray) -> np.ndarray:
    basis, bit = source.at(gates >> 1)
    return (basis << 1) | (bit ^ (gates.astype(np.uint8) & 1))


def _acceptance_tables(params: ChannelParams, t_eta_data: float, q_max: float,
                       t_eta_mon: float, q_max_mon: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Thinning ratios p_true / q_max per class: the data detector's by pulse
    code (4 entries), and each monitor port's (destructive first) by the
    codes of the slot's two half pulses, 4 * previous + this (20 entries).

    They apply the per-click expressions to the class values, so each entry
    is the float a per-click evaluation would compare against.
    """
    means = np.array([params.mu_leak, params.mu_full, params.mu, params.mu, 0.0])
    data = (1.0 - np.exp(-means[:_NO_PULSE] * t_eta_data)) / q_max
    prev, here = np.divmod(np.arange(4 * (_NO_PULSE + 1)), 4)
    m = means * t_eta_mon
    ports = _monitor_port_means(params, m[prev], m[here], _NOMINAL[prev] & _NOMINAL[here])
    return data, [(1.0 - np.exp(-mean)) / q_max_mon for mean in ports]


def sample_detections(params: ChannelParams, source: QubitSource, n_qubits: int,
                      rng: RandomStream) -> tuple[DetectionArrays, DetectionArrays]:
    """Data and monitor detections of n_qubits prepared by `source`.

    Candidate clicks are thinned against class tables computed once per
    call (`_acceptance_tables`): a candidate's pulse codes pick its entry.
    The dense per-gate reference this must agree with in distribution lives
    with the tests (`tests/refsim.py`).
    """
    n_gates = 2 * n_qubits
    t_eta_data = params.t_data_line * params.eta_det_data
    t_eta_mon = params.t_monitor_line * params.eta_det_mon
    # candidate rates: bound by the brightest bin (a decoy pulse)
    q_max = 1.0 - math.exp(-params.mu * t_eta_data)
    q_max_mon = 1.0 - math.exp(-params.mu * t_eta_mon)
    accept, port_accept = _acceptance_tables(params, t_eta_data, q_max, t_eta_mon, q_max_mon)

    cand = _geometric_hits(rng, n_gates, q_max)
    acc = rng.draw_uniform(cand.size) < accept[_pulse_codes(source, cand)]
    sig_gates = cand[acc]

    dark_gates = _geometric_hits(rng, n_gates, params.p_dark_data)
    noise_gates = _geometric_hits(rng, n_gates, params.p_dwdm_noise)
    data = DetectionArrays(_click_union(sig_gates, dark_gates, noise_gates))

    mon_streams = []
    for destructive, port_table in zip((True, False), port_accept):
        cand = _geometric_hits(rng, n_gates, q_max_mon)
        # the slots' half pulses and their predecessors' in one lookup
        codes = _pulse_codes(source, np.concatenate([cand - 1, cand]))
        if cand.size and cand[0] == 0:
            codes[0] = _NO_PULSE
        slot_class = 4 * codes[: cand.size] + codes[cand.size :]
        acc = rng.draw_uniform(cand.size) < port_table[slot_class]
        sig = cand[acc]
        dark = _geometric_hits(rng, n_gates, params.p_dark_mon)
        noise = _geometric_hits(rng, n_gates, params.p_noise_mon_port)
        gates = _click_union(sig, dark, noise)
        mon_streams.append((gates[deadtime_mask(gates, params.deadtime_mon_gates)], destructive))

    mg = np.concatenate([g for g, _ in mon_streams])
    md = np.concatenate([np.full(g.size, d, dtype=bool) for g, d in mon_streams])
    order = np.argsort(mg, kind="stable")
    return data, DetectionArrays(mg[order], md[order])


def _click_union(sig: np.ndarray, dark: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Sorted gates at which any click source fires, each gate once."""
    gates = np.concatenate([sig, dark, noise])
    gates.sort(kind="stable")  # merges the three sorted runs
    first = np.ones(gates.size, dtype=bool)
    first[1:] = gates[1:] != gates[:-1]
    return gates[first]
