"""Detection-time disclosure, collision resolution, and sift-out.

Bob discloses detections as fixed-width blocks: a time delta counted in
qubit periods (so data bit values never leave his side) plus two control
bits. Control codes: 00 empty/overflow filler, 01 data-basis detection,
10 monitor detection on the destructive port, 11 monitor detection on the
other port. A gap too wide for the time field is bridged by overflow blocks,
each advancing 2^w - 1 qubit periods (the delta value 2^w - 1 is reserved as
the overflow marker).

Wire layout per block, most significant bit first: w delta bits, then the
two control bits. Blocks are packed back to back with no per-block framing,
so each is one big-endian 8-bit (6-bit mode) or 16-bit (14-bit mode) word;
e.g. in 6-bit mode a data detection three qubits after the previous one
serializes as 000011 01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cowsim.channel import BASIS_DATA, BASIS_DECOY, DetectionArrays
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

    def __post_init__(self):
        if self.time_field_bits not in _VALID_WIDTHS:
            raise ValueError(f"time field must be one of {_VALID_WIDTHS}")

    @property
    def block_bits(self) -> int:
        return self.time_field_bits + 2

    @property
    def word_dtype(self) -> np.dtype:
        """A block is exactly one big-endian 8- or 16-bit word."""
        return np.dtype(f">u{self.block_bits // 8}")

    @property
    def overflow_marker(self) -> int:
        return (1 << self.time_field_bits) - 1

    @property
    def max_delta(self) -> int:
        return (1 << self.time_field_bits) - 2


# ---------------------------------------------------------------------------
# collision resolution
# ---------------------------------------------------------------------------

@dataclass
class ResolvedEvents:
    """At most one disclosure-ready event per qubit, in qubit order."""

    qubit: np.ndarray  # int64, strictly increasing
    control: np.ndarray  # CONTROL_DATA / CONTROL_MON_*
    bob_bit: np.ndarray  # measured bit for data events, 0 otherwise

    def __len__(self):
        return self.qubit.size

    def data_mask(self) -> np.ndarray:
        return self.control == CONTROL_DATA


def resolve_collisions(data: DetectionArrays, monitor: DetectionArrays,
                       rng: RandomStream) -> ResolvedEvents:
    """Apply the double-click policy to raw detections.

    Same-gate clicks in both detectors keep the data record; clicks in both
    bins of one qubit collapse to a uniformly random bit. Where a data and a
    monitor event survive within one qubit period, the data event wins (one
    disclosure per qubit period).

    Both streams must be sorted by gate index (the channel emits them that
    way; an unsorted stream aborts). Every membership test below relies on
    it: it is a binary search into a sorted array.
    """
    if _unsorted(data.gate) or _unsorted(monitor.gate):
        raise SessionAborted("detection streams must be gate-sorted")
    dg = data.gate

    # same-gate cross-detector: drop the monitor record; then one event per
    # qubit period (the channel emits the destructive port first on ties)
    keep_mon = ~_in_sorted(monitor.gate, dg)
    mg = monitor.gate[keep_mon]
    mdest = monitor.destructive[keep_mon]
    keep2 = _first_per_qubit(mg)
    mg, mdest = mg[keep2], mdest[keep2]

    # both-bin collapse on the data detector
    dq = dg >> 1
    first = _first_per_qubit(dg)
    dup = ~first
    bits = (dg.astype(np.uint8) & 1) ^ 1  # early gate reads bit 1
    if dup.any():
        coin = rng.draw_bits(int(dup.sum()))
        bits[np.flatnonzero(dup) - 1] = coin  # overwrite the kept (first) record
    dq_k = dq[first]
    dbits = bits[first]

    # merge: data beats monitor within a qubit period
    mq = mg >> 1
    mon_keep = ~_in_sorted(mq, dq_k)
    mq, mdest = mq[mon_keep], mdest[mon_keep]

    q = np.concatenate([dq_k, mq])
    ctrl = np.concatenate([
        np.full(dq_k.size, CONTROL_DATA, dtype=np.uint8),
        np.where(mdest, CONTROL_MON_DEST, CONTROL_MON_OTHER).astype(np.uint8),
    ])
    bob_bit = np.concatenate([dbits, np.zeros(mq.size, dtype=np.uint8)])
    order = np.argsort(q, kind="stable")
    return ResolvedEvents(q[order], ctrl[order], bob_bit[order])


def _unsorted(a: np.ndarray) -> bool:
    return bool((a[1:] < a[:-1]).any())


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

def encode(events: ResolvedEvents, mode: SiftingMode) -> tuple[bytes, int]:
    """Serialize events to packed sifting blocks; returns (payload, n_blocks)."""
    q = events.qubit
    if q.size == 0:
        return b"", 0
    m = mode.overflow_marker
    delta = np.diff(q, prepend=-1)
    delta -= 1  # qubit periods since the previous event ended
    if delta.min() < 0:
        raise SessionAborted("events out of order")
    words = (delta << 2) | events.control
    if delta.max() >= m:  # gaps bridged by overflow blocks
        over = delta // m
        words -= (over * m) << 2
        blocks = np.full(q.size + int(over.sum()), m << 2, dtype=np.int64)
        blocks[np.cumsum(over + 1) - 1] = words
        words = blocks
    return words.astype(mode.word_dtype).tobytes(), words.size


def decode(payload: bytes, mode: SiftingMode, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of encode: (qubit indices, control codes)."""
    if len(payload) != n_blocks * mode.word_dtype.itemsize:
        raise SessionAborted(f"{n_blocks} sifting blocks in {len(payload)} bytes")
    words = np.frombuffer(payload, dtype=mode.word_dtype)
    values = (words >> 2).astype(np.int64)
    control = (words & 3).astype(np.uint8)

    m = mode.overflow_marker
    is_empty = control == CONTROL_EMPTY
    if np.any(values[is_empty] != m):
        raise SessionAborted("empty block with non-maximal time delta")
    if np.any(values[~is_empty] > mode.max_delta):
        raise SessionAborted("reserved overflow marker on a detection block")
    advance = np.where(is_empty, m, values + 1)
    ends = np.cumsum(advance)
    qubits = ends - 1
    return qubits[~is_empty], control[~is_empty]


# ---------------------------------------------------------------------------
# Alice-side sift-out
# ---------------------------------------------------------------------------

@dataclass
class AliceSiftView:
    """Alice's verdicts on one sifting chunk."""

    keep_mask: np.ndarray  # per disclosed data detection: it hit a data-basis qubit
    alice_key_bits: np.ndarray  # her bits for the kept detections
    raw_count: int
    sifted_count: int
    # monitor disclosures in periods whose two slots both interfere, by port
    monitor_bright: int
    monitor_dest: int


def decode_and_sift(alice, payload: bytes, mode: SiftingMode, n_blocks: int,
                    n_qubits: int) -> AliceSiftView:
    """Decode Bob's blocks of one `n_qubits`-qubit chunk and decide
    keep/discard per data detection.

    `alice` is any object whose `at(indices)` returns the (basis, bit) arrays
    of her prepared qubits at those indices, such as her `QubitSource`.
    Detections on decoy qubits leave the key; monitor disclosures are split
    out with their port bit. A disclosure whose last event lies past the
    chunk is refused before any lookup (events are strictly increasing).

    A monitor disclosure names a qubit period i, not which of its two slots
    clicked. Slot 2i+1 interferes when qubit i fills both bins (a decoy),
    slot 2i when qubit i's early bin and qubit i-1's late bin are full (i-1
    a decoy or a data 0). Periods where both hold count toward the monitor
    visibility, by port. Period 0 is skipped, so no lookup falls before
    the chunk; the data qubits, those periods and their predecessors are
    looked up at once.
    """
    qubits, control = decode(payload, mode, n_blocks)
    if qubits.size and qubits[-1] >= n_qubits:
        raise SessionAborted("sifting disclosure runs past its chunk")
    is_data = control == CONTROL_DATA
    dq = qubits[is_data]
    counted = ~is_data & (qubits > 0)
    periods = qubits[counted]
    basis, bits = alice.at(np.concatenate([dq, periods, periods - 1]))
    n, m = dq.size, periods.size
    keep = basis[:n] == BASIS_DATA
    prev_late_full = (basis[n + m :] == BASIS_DECOY) | (bits[n + m :] == 0)
    interfering = (basis[n : n + m] == BASIS_DECOY) & prev_late_full
    n_dest = int((control[counted][interfering] == CONTROL_MON_DEST).sum())
    return AliceSiftView(
        keep_mask=keep,
        alice_key_bits=bits[:n][keep].astype(np.uint8),
        raw_count=int(dq.size),
        sifted_count=int(keep.sum()),
        monitor_bright=int(interfering.sum()) - n_dest,
        monitor_dest=n_dest,
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
