"""Detection-time disclosure, collision resolution, and sift-out.

Bob discloses detections as fixed-width blocks: a time delta counted in
qubit periods (so data bit values never leave his side) plus two control
bits. Control codes: 00 empty/overflow filler, 01 data-basis detection,
10 monitor detection on the destructive port, 11 monitor detection on the
other port. A gap too wide for the time field is bridged by overflow blocks,
each advancing 2^w - 1 qubit periods (the delta value 2^w - 1 is reserved as
the overflow marker).

Wire layout per block, most significant bit first: w delta bits, then the
two control bits (then one optional sampling flag when enabled). Blocks are
packed back to back with no per-block framing; e.g. in 6-bit mode a data
detection three qubits after the previous one serializes as 000011 01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitops import unpack_bits
from .cowsim.channel import BASIS_DATA, DetectionArrays, deadtime_mask
from .errors import SessionAborted
from .randomness import RandomStream

CONTROL_EMPTY = 0b00
CONTROL_DATA = 0b01
CONTROL_MON_DEST = 0b10
CONTROL_MON_OTHER = 0b11

_VALID_WIDTHS = (6, 14)


@dataclass(frozen=True)
class SiftingMode:
    time_field_bits: int = 14
    sample_flag: bool = False  # optional third control bit (off by default)

    def __post_init__(self):
        if self.time_field_bits not in _VALID_WIDTHS:
            raise ValueError(f"time field must be one of {_VALID_WIDTHS}")

    @property
    def block_bits(self) -> int:
        return self.time_field_bits + 2 + (1 if self.sample_flag else 0)

    @property
    def overflow_marker(self) -> int:
        return (1 << self.time_field_bits) - 1

    @property
    def max_delta(self) -> int:
        return (1 << self.time_field_bits) - 2

    @classmethod
    def for_detection_probability(cls, p_detect: float) -> "SiftingMode":
        """Cheaper of the two widths at this per-qubit detection probability."""
        costs = {w: sifting_cost(p_detect, cls(w)) for w in _VALID_WIDTHS}
        return cls(min(costs, key=costs.get))


# ---------------------------------------------------------------------------
# collision resolution
# ---------------------------------------------------------------------------

@dataclass
class ResolvedEvents:
    """At most one disclosure-ready event per qubit, in qubit order."""

    qubit: np.ndarray  # int64, strictly increasing
    control: np.ndarray  # CONTROL_DATA / CONTROL_MON_*
    bob_bit: np.ndarray  # measured bit for data events, 0 otherwise
    truth: np.ndarray
    raw_count: int = 0  # data-detector clicks before resolution

    def __len__(self):
        return self.qubit.size

    def data_mask(self) -> np.ndarray:
        return self.control == CONTROL_DATA


def resolve_collisions(data: DetectionArrays, monitor: DetectionArrays,
                       deadtime_gates: int, rng: RandomStream) -> ResolvedEvents:
    """Apply double-click policy and logical deadtime to raw detections.

    Same-gate clicks in both detectors keep the data record; clicks in both
    bins of one qubit collapse to a uniformly random bit; a detector is
    blind for `deadtime_gates` after each accepted click. Where a data and a
    monitor event survive within one qubit period, the data event wins (one
    disclosure per qubit period).

    Both streams must be sorted by gate index (the channel emits them that
    way; an unsorted stream aborts). Every membership test below relies on
    it: it is a binary search into a sorted array.
    """
    if np.any(np.diff(data.gate) < 0) or np.any(np.diff(monitor.gate) < 0):
        raise SessionAborted("detection streams must be gate-sorted")
    dkeep = deadtime_mask(data.gate, deadtime_gates)
    dg, dt = data.gate[dkeep], data.truth[dkeep]
    raw_count = dg.size

    # same-gate cross-detector: drop the monitor record; then one event per
    # qubit period (the channel emits the destructive port first on ties)
    keep_mon = ~_in_sorted(monitor.gate, dg)
    live = np.flatnonzero(keep_mon)
    keep_mon[live] = deadtime_mask(monitor.gate[live], deadtime_gates)
    mg = monitor.gate[keep_mon]
    mt = monitor.truth[keep_mon]
    mdest = monitor.destructive[keep_mon]
    keep2 = _first_per_qubit(mg)
    mg, mt, mdest = mg[keep2], mt[keep2], mdest[keep2]

    # both-bin collapse on the data detector
    dq = dg >> 1
    first = _first_per_qubit(dg)
    dup = ~first
    bits = ((dg & 1) ^ 1).astype(np.uint8)  # early gate reads bit 1
    if dup.any():
        coin = rng.draw_bits(int(dup.sum()))
        bits[np.flatnonzero(dup) - 1] = coin  # overwrite the kept (first) record
    dq_k = dq[first]
    dbits = bits[first]
    dtruth = dt[first]

    # merge: data beats monitor within a qubit period
    mq = mg >> 1
    mon_keep = ~_in_sorted(mq, dq_k)
    mq, mt, mdest = mq[mon_keep], mt[mon_keep], mdest[mon_keep]

    q = np.concatenate([dq_k, mq])
    ctrl = np.concatenate([
        np.full(dq_k.size, CONTROL_DATA, dtype=np.uint8),
        np.where(mdest, CONTROL_MON_DEST, CONTROL_MON_OTHER).astype(np.uint8),
    ])
    bob_bit = np.concatenate([dbits, np.zeros(mq.size, dtype=np.uint8)])
    truth = np.concatenate([dtruth, mt])
    order = np.argsort(q, kind="stable")
    return ResolvedEvents(q[order], ctrl[order], bob_bit[order], truth[order],
                          raw_count=raw_count)


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True where a[i] occurs in b, which must be sorted: a binary search per element."""
    if b.size == 0:
        return np.zeros(a.size, dtype=bool)
    pos = np.searchsorted(b, a)
    pos[pos == b.size] = 0
    return b[pos] == a


def _first_per_qubit(gates: np.ndarray) -> np.ndarray:
    """True at the first of each run of gates within one qubit period."""
    q = gates >> 1
    first = np.ones(q.size, dtype=bool)
    first[1:] = q[1:] != q[:-1]
    return first


# ---------------------------------------------------------------------------
# block encoding
# ---------------------------------------------------------------------------

def encode(events: ResolvedEvents, mode: SiftingMode,
           sample_mask: np.ndarray | None = None) -> tuple[bytes, int]:
    """Serialize events to packed sifting blocks; returns (payload, n_blocks)."""
    q = events.qubit
    if q.size == 0:
        return b"", 0
    m = mode.overflow_marker
    base = np.concatenate([[0], q[:-1] + 1])
    delta = q - base
    if np.any(delta < 0):
        raise SessionAborted("events out of order")
    over = delta // m
    resid = delta - over * m
    n_blocks = int(q.size + over.sum())

    values = np.full(n_blocks, m, dtype=np.uint16)
    control = np.zeros(n_blocks, dtype=np.uint8)
    pos = np.cumsum(over + 1) - 1
    values[pos] = resid.astype(np.uint16)
    control[pos] = events.control
    flags = None
    if mode.sample_flag:
        flags = np.zeros(n_blocks, dtype=np.uint8)
        if sample_mask is not None:
            flags[pos] = np.asarray(sample_mask, dtype=np.uint8)

    w = mode.time_field_bits
    cols = [((values >> (w - 1 - i)) & 1).astype(np.uint8) for i in range(w)]
    cols.append((control >> 1) & 1)
    cols.append(control & 1)
    if flags is not None:
        cols.append(flags)
    bits = np.stack(cols, axis=1).reshape(-1)
    return np.packbits(bits).tobytes(), n_blocks


def decode(payload: bytes, mode: SiftingMode, n_blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of encode: (qubit indices, control codes, sample flags)."""
    bb = mode.block_bits
    rows = unpack_bits(payload, n_blocks * bb).reshape(n_blocks, bb)
    w = mode.time_field_bits
    weights = (1 << np.arange(w - 1, -1, -1)).astype(np.int64)
    values = rows[:, :w].astype(np.int64) @ weights
    control = (rows[:, w] << 1) | rows[:, w + 1]
    flags = rows[:, w + 2].astype(bool) if mode.sample_flag else np.zeros(n_blocks, dtype=bool)

    m = mode.overflow_marker
    is_empty = control == CONTROL_EMPTY
    if np.any(values[is_empty] != m):
        raise SessionAborted("empty block with non-maximal time delta")
    if np.any(values[~is_empty] > mode.max_delta):
        raise SessionAborted("reserved overflow marker on a detection block")
    advance = np.where(is_empty, m, values + 1)
    ends = np.cumsum(advance)
    qubits = ends - 1
    return qubits[~is_empty], control[~is_empty].astype(np.uint8), flags[~is_empty]


# ---------------------------------------------------------------------------
# Alice-side sift-out
# ---------------------------------------------------------------------------

@dataclass
class AliceSiftView:
    """Alice's verdicts on one sifting chunk."""

    data_qubits: np.ndarray  # disclosed data-basis detections, in order
    keep_mask: np.ndarray  # True where the detection hit a data-basis qubit
    alice_key_bits: np.ndarray  # her bits for the kept detections
    monitor_qubits: np.ndarray
    monitor_destructive: np.ndarray
    raw_count: int
    sifted_count: int


def decode_and_sift(alice, payload: bytes, mode: SiftingMode, n_blocks: int) -> AliceSiftView:
    """Decode Bob's blocks and decide keep/discard per data detection.

    `alice` is any object whose `at(indices)` returns the (basis, bit) arrays
    of her prepared qubits at those indices, such as her `QubitSource`.
    Detections on decoy qubits leave the key (they only feed the coherence
    statistics); monitor disclosures are split out with their port bit.
    """
    qubits, control, _ = decode(payload, mode, n_blocks)
    is_data = control == CONTROL_DATA
    dq = qubits[is_data]
    basis, bits = alice.at(dq)
    keep = basis == BASIS_DATA
    mon = ~is_data
    return AliceSiftView(
        data_qubits=dq,
        keep_mask=keep,
        alice_key_bits=bits[keep].astype(np.uint8),
        monitor_qubits=qubits[mon],
        monitor_destructive=control[mon] == CONTROL_MON_DEST,
        raw_count=int(dq.size),
        sifted_count=int(keep.sum()),
    )


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def sifting_cost(p_detect: float, mode: SiftingMode) -> float:
    """Expected disclosure bits per detection under geometric gaps."""
    if not 0.0 < p_detect <= 1.0:
        raise ValueError("p_detect must be in (0, 1]")
    m = mode.overflow_marker
    covered = 1.0 - (1.0 - p_detect) ** m
    return mode.block_bits / covered


def shannon_limit(p_detect: float) -> float:
    """Entropy of the geometric gap distribution, per detection."""
    if not 0.0 < p_detect <= 1.0:
        raise ValueError("p_detect must be in (0, 1]")
    if p_detect == 1.0:
        return 0.0
    q = 1.0 - p_detect
    return (-q * math.log2(q) - p_detect * math.log2(p_detect)) / p_detect
