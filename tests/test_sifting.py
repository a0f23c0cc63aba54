import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import resolve_collisions_isin, sift_pair
from refsim import prepare_sequence

from cowkd.cowsim import ChannelParams, DetectionArrays
from cowkd.errors import SessionAborted
from cowkd.randomness import EntropySeed, new_stream
from cowkd.sifting import (
    CONTROL_DATA,
    CONTROL_MON_DEST,
    CONTROL_MON_OTHER,
    AliceSiftView,
    ResolvedEvents,
    SiftingMode,
    decode,
    decode_and_sift,
    encode,
    resolve_collisions,
    shannon_limit,
    sifting_cost,
)


def stream(n=1):
    return new_stream(EntropySeed.from_int(400 + n))


def events_from(qubits, controls=None, bits=None):
    q = np.asarray(qubits, dtype=np.int64)
    c = (np.full(q.size, CONTROL_DATA, dtype=np.uint8) if controls is None
         else np.asarray(controls, dtype=np.uint8))
    b = np.zeros(q.size, dtype=np.uint8) if bits is None else np.asarray(bits, dtype=np.uint8)
    return ResolvedEvents(q, c, b, np.zeros(q.size, dtype=np.uint8), raw_count=q.size)


def detarrays(gates, destructive=None):
    g = np.asarray(gates, dtype=np.int64)
    t = np.zeros(g.size, dtype=np.uint8)
    d = None if destructive is None else np.asarray(destructive, dtype=bool)
    return DetectionArrays(g, t, d)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_single_detection_gap_zero_one_block():
    payload, n = encode(events_from([0]), SiftingMode(6))
    assert n == 1
    assert len(payload) == 1  # 8 bits
    q, c, _ = decode(payload, SiftingMode(6), n)
    assert q.tolist() == [0] and c.tolist() == [CONTROL_DATA]


def test_overflow_split_matches_documented_rule():
    # gap of 100 qubit periods in 6-bit mode: one overflow (advances 63)
    # plus a block carrying the residual 37
    mode = SiftingMode(6)
    payload, n = encode(events_from([100]), mode)
    assert n == 2
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=16).reshape(2, 8)
    first_val = int(bits[0, :6] @ (1 << np.arange(5, -1, -1)))
    first_ctrl = int(bits[0, 6] << 1 | bits[0, 7])
    second_val = int(bits[1, :6] @ (1 << np.arange(5, -1, -1)))
    assert (first_val, first_ctrl) == (63, 0)
    assert second_val == 37
    q, c, _ = decode(payload, mode, n)
    assert q.tolist() == [100]


def test_round_trip_random_streams_both_modes():
    rng = np.random.default_rng(7)
    for w in (6, 14):
        mode = SiftingMode(w)
        for _ in range(20):
            n_ev = int(rng.integers(1, 400))
            gaps = rng.geometric(0.02, size=n_ev) - 1
            qubits = np.cumsum(gaps + 1) - 1
            controls = rng.choice(
                [CONTROL_DATA, CONTROL_MON_DEST, CONTROL_MON_OTHER], size=n_ev)
            ev = events_from(qubits, controls)
            payload, n_blocks = encode(ev, mode)
            q, c, _ = decode(payload, mode, n_blocks)
            assert np.array_equal(q, qubits)
            assert np.array_equal(c, controls)


def test_decode_rejects_malformed_streams():
    mode = SiftingMode(6)
    payload, n = encode(events_from([5]), mode)
    with pytest.raises(SessionAborted):
        decode(payload, mode, n + 1)  # claims more blocks than bytes carry
    # a detection block carrying the reserved overflow marker
    bad = np.packbits(np.concatenate([np.ones(6, dtype=np.uint8), [0, 1]])).tobytes()
    with pytest.raises(SessionAborted):
        decode(bad, mode, 1)
    # an empty block with a non-maximal delta
    bad = np.packbits(np.array([0, 0, 0, 1, 1, 0, 0, 0], dtype=np.uint8)).tobytes()
    with pytest.raises(SessionAborted):
        decode(bad, mode, 1)


def test_sample_flag_changes_block_width():
    mode = SiftingMode(6, sample_flag=True)
    assert mode.block_bits == 9
    ev = events_from([0, 3, 9])
    payload, n = encode(ev, mode, sample_mask=np.array([1, 0, 1], dtype=np.uint8))
    q, c, flags = decode(payload, mode, n)
    assert q.tolist() == [0, 3, 9]
    assert flags.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# collision resolution
# ---------------------------------------------------------------------------

def test_deadtime_window_keeps_documented_set():
    data = detarrays([10, 12, 200])
    mon = detarrays([], [])
    ev = resolve_collisions(data, mon, deadtime_gates=50, rng=stream(1))
    assert (ev.qubit << 1 | (1 - ev.bob_bit)).tolist() or True  # structure sane
    assert np.array_equal(ev.qubit, np.array([5, 100]))  # gates 10 and 200


def test_same_gate_double_click_keeps_data_detector():
    data = detarrays([40])
    mon = detarrays([40, 41], [True, True])
    ev = resolve_collisions(data, mon, 0, stream(2))
    assert ev.qubit.tolist() == [20]
    assert ev.control.tolist() == [CONTROL_DATA]


def test_both_bin_clicks_resolve_to_fair_coin():
    n = 10_000
    gates = np.arange(2 * n, dtype=np.int64)  # every qubit clicks twice
    data = detarrays(gates)
    mon = detarrays([], [])
    ev = resolve_collisions(data, mon, 0, stream(3))
    assert len(ev) == n
    ones = int(ev.bob_bit.sum())
    assert abs(ones - n / 2) < 3 * np.sqrt(n * 0.25), ones


def test_monitor_collapses_to_one_event_per_qubit():
    mon = detarrays([100, 101, 300], [False, True, True])
    ev = resolve_collisions(detarrays([]), mon, 0, stream(4))
    assert ev.qubit.tolist() == [50, 150]
    assert ev.control.tolist() == [CONTROL_MON_OTHER, CONTROL_MON_DEST]


def test_unsorted_input_rejected():
    with pytest.raises(SessionAborted):
        resolve_collisions(detarrays([5, 3]), detarrays([], []), 0, stream(5))


@st.composite
def detection_streams(draw, with_port: bool):
    # gates from a narrow range, so same-gate clicks in both detectors, both
    # bins of one qubit and data/monitor clicks in one qubit period are common
    gates = sorted(draw(st.lists(st.integers(0, 40), max_size=30)))
    n = len(gates)
    truth = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    dest = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if with_port else None
    return DetectionArrays(np.asarray(gates, dtype=np.int64), np.asarray(truth, dtype=np.uint8),
                           None if dest is None else np.asarray(dest, dtype=bool))


@given(detection_streams(False), detection_streams(True), st.sampled_from([0, 2, 7]))
@example(detarrays([]), detarrays([], []), 0)
@example(detarrays([]), detarrays([4, 4, 5], [True, False, True]), 0)
@example(detarrays([8, 9, 9]), detarrays([], []), 0)
@example(detarrays([10, 11]), detarrays([10, 11, 12], [False, True, True]), 0)
@example(detarrays([70]), detarrays([70, 75], [True, True]), 50)  # a dropped click starts no deadtime
def test_resolve_collisions_matches_isin_oracle(data, mon, deadtime):
    got = resolve_collisions(data, mon, deadtime, stream(6))
    want = resolve_collisions_isin(data, mon, deadtime, stream(6))
    for name in ("qubit", "control", "bob_bit", "truth"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got.raw_count == want.raw_count


# ---------------------------------------------------------------------------
# sift-out
# ---------------------------------------------------------------------------

def test_all_data_basis_keeps_every_detection():
    params = ChannelParams(p_decoy=0.0)
    seq = prepare_sequence(params, 1000, stream(6))
    ev = events_from([3, 100, 500], bits=[1, 0, 1])
    res = sift_pair(seq, ev, SiftingMode(14))
    assert res.sifted_count == res.raw_count == 3


def test_decoy_detections_leave_key_but_are_counted():
    params = ChannelParams(p_decoy=0.5)
    seq = prepare_sequence(params, 2000, stream(7))
    qubits = np.arange(0, 2000, 7)
    ev = events_from(qubits)
    payload, n_blocks = encode(ev, SiftingMode(14))
    view = decode_and_sift(seq, payload, SiftingMode(14), n_blocks)
    decoy_hits = (seq.basis[qubits] == 1).sum()
    assert view.raw_count == qubits.size
    assert view.sifted_count == qubits.size - decoy_hits
    assert view.alice_key_bits.size == view.sifted_count


def test_sifted_fraction_converges_to_spec_ratio():
    # detections hit decoy qubits at twice the data-qubit rate
    params = ChannelParams(p_decoy=0.155)
    rng = stream(8)
    seq = prepare_sequence(params, 1_000_000, rng)
    decoy = seq.basis == 1
    u = rng.draw_uniform(len(seq))
    p0 = 0.05
    hit = u < np.where(decoy, 2 * p0, p0)
    qubits = np.flatnonzero(hit)
    ev = events_from(qubits)
    res = sift_pair(seq, ev, SiftingMode(14))
    ratio = res.sifted_count / res.raw_count
    expected = (1 - 0.155) / (1 + 0.155)
    assert ratio == pytest.approx(expected, abs=0.006)


def test_alignment_alice_bob_same_qubits():
    params = ChannelParams(p_decoy=0.155)
    rng = stream(9)
    seq = prepare_sequence(params, 50_000, rng)
    qubits = np.flatnonzero(rng.draw_uniform(len(seq)) < 0.005)
    bob_bits = seq.bit[qubits]  # error-free channel: Bob reads Alice's bits
    ev = events_from(qubits, bits=bob_bits)
    res = sift_pair(seq, ev, SiftingMode(14))
    assert np.array_equal(res.alice_key_bits, res.bob_key_bits)


def test_monitor_disclosures_extracted():
    params = ChannelParams(p_decoy=0.155)
    seq = prepare_sequence(params, 1000, stream(10))
    ev = events_from([10, 20, 30], [CONTROL_DATA, CONTROL_MON_DEST, CONTROL_MON_OTHER])
    res = sift_pair(seq, ev, SiftingMode(14))
    assert res.monitor_disclosures == [(20, True), (30, False)]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_cost_at_p1_is_block_width():
    assert sifting_cost(1.0, SiftingMode(6)) == 8.0
    assert sifting_cost(1.0, SiftingMode(14)) == 16.0


def test_cost_monotone_decreasing_in_p():
    mode = SiftingMode(14)
    ps = [1e-4, 1e-3, 1e-2, 1e-1]
    costs = [sifting_cost(p, mode) for p in ps]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_cost_within_twice_shannon_with_best_mode():
    # claim is stated for per-gate detection probabilities (nu_bit = 2)
    for p_gate in np.logspace(-4, -1, 40):
        p_qubit = min(2 * p_gate, 1.0)
        best = min(sifting_cost(p_qubit, SiftingMode(6)),
                   sifting_cost(p_qubit, SiftingMode(14)))
        assert best <= 2 * shannon_limit(p_gate), p_gate


def test_mode_crossover_region():
    # costs of the two widths meet near p ~ 1.1e-2; they agree within 15 %
    # through the crossover region
    for p in (0.0095, 0.0105, 0.0115):
        c6 = sifting_cost(p, SiftingMode(6))
        c14 = sifting_cost(p, SiftingMode(14))
        assert abs(c6 - c14) / c14 < 0.15, p
    assert SiftingMode.for_detection_probability(0.002).time_field_bits == 14
    assert SiftingMode.for_detection_probability(0.05).time_field_bits == 6


def test_cost_14bit_near_shannon_at_low_p():
    p = 1e-4
    assert sifting_cost(p, SiftingMode(14)) <= 2 * shannon_limit(p)


def test_empirical_cost_matches_analytic_within_1pct():
    rng = stream(11)
    p = 0.003
    n = 2_000_000
    hits = np.flatnonzero(rng.draw_uniform(n) < p)
    ev = events_from(hits)
    for w in (6, 14):
        mode = SiftingMode(w)
        _, n_blocks = encode(ev, mode)
        empirical = n_blocks * mode.block_bits / hits.size
        analytic = sifting_cost(p, mode)
        assert empirical == pytest.approx(analytic, rel=0.01), w
