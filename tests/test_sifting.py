import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (decode_bit_columns, encode_bit_columns, resolve_collisions_isin,
                     sample_detections_ref, sift_pair)
from refsim import PreparedSequence, QubitSource, interfering_slot_mask, prepare_sequence

from cowkd.cowsim import BASIS_DATA, BASIS_DECOY, ChannelParams, DetectionArrays
from cowkd.finitekey import corrected_observables
from cowkd.presets import channel_params
from cowkd.errors import EXIT_ABORT, SessionAborted
from cowkd.randomness import EntropySeed, new_stream
from cowkd.sifting import (
    CONTROL_DATA,
    CONTROL_MON_DEST,
    CONTROL_MON_OTHER,
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
    return ResolvedEvents(q, c, b)


def detarrays(gates, destructive=None):
    g = np.asarray(gates, dtype=np.int64)
    d = None if destructive is None else np.asarray(destructive, dtype=bool)
    return DetectionArrays(g, d)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_single_detection_gap_zero_one_block():
    payload, n = encode(events_from([0]), SiftingMode(6))
    assert n == 1
    assert len(payload) == 1  # 8 bits
    q, c = decode(payload, SiftingMode(6), n)
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
    q, c = decode(payload, mode, n)
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
            q, c = decode(payload, mode, n_blocks)
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


@st.composite
def event_streams(draw):
    """Strictly increasing qubits with gaps up to 3 * 2^14, so both modes
    need overflow blocks, and random detection control codes."""
    gaps = draw(st.lists(st.integers(0, 20) | st.integers(0, 3 << 14), max_size=60))
    qubits = np.cumsum(np.asarray(gaps, dtype=np.int64) + 1) - 1
    controls = draw(st.lists(st.sampled_from([CONTROL_DATA, CONTROL_MON_DEST, CONTROL_MON_OTHER]),
                             min_size=len(gaps), max_size=len(gaps)))
    return events_from(qubits, controls)


def _decoded_or_abort(decoder, payload, mode, n_blocks):
    try:
        q, c = decoder(payload, mode, n_blocks)
    except SessionAborted as err:
        assert err.exit_code == EXIT_ABORT
        return "abort"
    return q.dtype.str, q.tobytes(), c.dtype.str, c.tobytes()


@given(events=event_streams(), w=st.sampled_from([6, 14]))
@example(events=events_from([0, 62, 63, 126, 200_000]), w=6)
def test_word_codec_matches_bit_column_codec(events, w):
    mode = SiftingMode(w)
    payload, n_blocks = encode(events, mode)
    assert (payload, n_blocks) == encode_bit_columns(events, mode)
    assert len(payload) * 8 == n_blocks * mode.block_bits
    got = _decoded_or_abort(decode, payload, mode, n_blocks)
    assert got == _decoded_or_abort(decode_bit_columns, payload, mode, n_blocks)
    assert got[1] == events.qubit.tobytes() and got[3] == events.control.tobytes()


@st.composite
def raw_disclosures(draw):
    """(w, payload, n_blocks): blocks of any delta and control, mostly
    well-formed, with the payload now and then a byte short or long."""
    w = draw(st.sampled_from([6, 14]))
    marker = (1 << w) - 1
    blocks = draw(st.lists(st.tuples(st.integers(0, marker) | st.just(marker), st.integers(0, 3)),
                           max_size=30))
    payload = b"".join(((v << 2) | c).to_bytes((w + 2) // 8, "big") for v, c in blocks)
    payload = draw(st.sampled_from([payload, payload, payload[:-1], payload + b"\x00"]))
    return w, payload, len(blocks)


@given(case=raw_disclosures())
@example(case=(6, bytes([0b11111101]), 1))  # reserved marker on a detection
@example(case=(14, bytes([0xFF, 0xFE]), 1))
@example(case=(6, bytes([0b00011000]), 1))  # empty block, non-maximal delta
@example(case=(14, bytes([0x00, 0x04]), 1))
@example(case=(14, bytes([0x00, 0x05, 0x00]), 1))  # long payload
@example(case=(14, bytes([0x00]), 1))  # short payload
@example(case=(6, b"", 1))
def test_hostile_payloads_decode_as_bit_column_codec_or_abort(case):
    # both decoders return the same blocks or both end in exit 3
    w, payload, n_blocks = case
    mode = SiftingMode(w)
    assert (_decoded_or_abort(decode, payload, mode, n_blocks)
            == _decoded_or_abort(decode_bit_columns, payload, mode, n_blocks))


# ---------------------------------------------------------------------------
# collision resolution
# ---------------------------------------------------------------------------

def test_same_gate_double_click_keeps_data_detector():
    data = detarrays([40])
    mon = detarrays([40, 41], [True, True])
    ev = resolve_collisions(data, mon, stream(2))
    assert ev.qubit.tolist() == [20]
    assert ev.control.tolist() == [CONTROL_DATA]


def test_both_bin_clicks_resolve_to_fair_coin():
    n = 10_000
    gates = np.arange(2 * n, dtype=np.int64)  # every qubit clicks twice
    data = detarrays(gates)
    mon = detarrays([], [])
    ev = resolve_collisions(data, mon, stream(3))
    assert len(ev) == n
    ones = int(ev.bob_bit.sum())
    assert abs(ones - n / 2) < 3 * np.sqrt(n * 0.25), ones


def test_monitor_collapses_to_one_event_per_qubit():
    mon = detarrays([100, 101, 300], [False, True, True])
    ev = resolve_collisions(detarrays([]), mon, stream(4))
    assert ev.qubit.tolist() == [50, 150]
    assert ev.control.tolist() == [CONTROL_MON_OTHER, CONTROL_MON_DEST]


def test_unsorted_input_rejected():
    with pytest.raises(SessionAborted):
        resolve_collisions(detarrays([5, 3]), detarrays([], []), stream(5))


@st.composite
def detection_streams(draw, with_port: bool):
    # gates from a narrow range, so same-gate clicks in both detectors, both
    # bins of one qubit and data/monitor clicks in one qubit period are common
    gates = sorted(draw(st.lists(st.integers(0, 40), max_size=30)))
    n = len(gates)
    dest = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if with_port else None
    return DetectionArrays(np.asarray(gates, dtype=np.int64),
                           None if dest is None else np.asarray(dest, dtype=bool))


@given(detection_streams(False), detection_streams(True))
@example(detarrays([]), detarrays([], []))
@example(detarrays([]), detarrays([4, 4, 5], [True, False, True]))
@example(detarrays([8, 9, 9]), detarrays([], []))
@example(detarrays([10, 11]), detarrays([10, 11, 12], [False, True, True]))
@example(detarrays([70]), detarrays([70, 75], [True, True]))
def test_resolve_collisions_matches_isin_oracle(data, mon):
    got = resolve_collisions(data, mon, stream(6))
    want = resolve_collisions_isin(data, mon, stream(6))
    for name in ("qubit", "control", "bob_bit"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name


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
    view = decode_and_sift(seq, payload, SiftingMode(14), n_blocks, len(seq))
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


class _NoLookup:
    def at(self, indices):
        raise AssertionError("looked up a qubit")


def test_disclosure_past_its_chunk_is_refused_before_any_lookup():
    # events at 10 and 20 need a chunk of at least 21 qubits; the last
    # event's index alone decides, since events are strictly increasing
    ev = events_from([10, 20], [CONTROL_DATA, CONTROL_MON_DEST])
    payload, n_blocks = encode(ev, SiftingMode(14))
    for n_qubits in (0, 11, 20):
        with pytest.raises(SessionAborted, match="runs past its chunk") as info:
            decode_and_sift(_NoLookup(), payload, SiftingMode(14), n_blocks, n_qubits)
        assert info.value.exit_code == EXIT_ABORT
    seq = prepare_sequence(ChannelParams(p_decoy=0.155), 21, stream(12))
    assert decode_and_sift(seq, payload, SiftingMode(14), n_blocks, 21).raw_count == 1


def test_monitor_disclosures_extracted():
    params = ChannelParams(p_decoy=0.155)
    seq = prepare_sequence(params, 1000, stream(10))
    ev = events_from([10, 20, 30], [CONTROL_DATA, CONTROL_MON_DEST, CONTROL_MON_OTHER])
    res = sift_pair(seq, ev, SiftingMode(14))
    assert res.monitor_disclosures == [(20, True), (30, False)]


@pytest.mark.parametrize("control", [CONTROL_MON_DEST, CONTROL_MON_OTHER],
                         ids=["destructive", "bright"])
def test_counted_monitor_periods_are_those_whose_two_slots_interfere(control):
    # every (basis, bit) of qubits i - 1 and i: a disclosure of period i
    # counts toward the visibility, on its own port, exactly when both of
    # the period's monitor slots interfere
    qubit_states = list(itertools.product((BASIS_DATA, BASIS_DECOY), (0, 1)))
    for prev, here in itertools.product(qubit_states, repeat=2):
        seq = PreparedSequence(np.array([BASIS_DECOY, prev[0], here[0]], dtype=np.uint8),
                               np.array([0, prev[1], here[1]], dtype=np.uint8))
        payload, n_blocks = encode(events_from([2], [control]), SiftingMode(14))
        view = decode_and_sift(seq, payload, SiftingMode(14), n_blocks, len(seq))
        both_interfere = bool(interfering_slot_mask(seq.at, np.array([4, 5])).all())
        counted = (view.monitor_dest, view.monitor_bright)[control == CONTROL_MON_OTHER]
        assert view.monitor_bright + view.monitor_dest == counted == both_interfere, (prev, here)


def test_monitor_period_0_is_never_counted():
    # its predecessor lies in the previous chunk, which Alice no longer holds
    seq = PreparedSequence(np.full(2, BASIS_DECOY, dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    assert interfering_slot_mask(seq.at, np.array([1])).all()
    for control in (CONTROL_MON_DEST, CONTROL_MON_OTHER):
        payload, n_blocks = encode(events_from([0], [control]), SiftingMode(14))
        view = decode_and_sift(seq, payload, SiftingMode(14), n_blocks, len(seq))
        assert view.monitor_bright == view.monitor_dest == 0


def test_counted_monitor_visibility_estimates_the_interferometer():
    # 2^28 qubits at 1 km, drawn by the per-click sampler: the counted
    # periods' visibility, corrected by the calibrated dark and noise shares
    # of the sifted key's measured QBER, is the interferometer's
    p = channel_params(1.0)
    src = QubitSource(bytes(range(32)), p.p_decoy)
    rng = stream(11)
    data, monitor = sample_detections_ref(p, src, 1 << 28, rng)
    events = resolve_collisions(data, monitor, rng)
    payload, n_blocks = encode(events, SiftingMode(14))
    view = decode_and_sift(src, payload, SiftingMode(14), n_blocks, 1 << 28)
    bob_bits = events.bob_bit[events.data_mask()][view.keep_mask]
    qber = float((bob_bits != view.alice_key_bits).mean())
    n = view.monitor_bright + view.monitor_dest
    v_raw = (view.monitor_bright - view.monitor_dest) / n
    stats = p.expected_stats()
    obs = corrected_observables(qber, qber, v_raw, stats["qber_dark"], stats["qber_noise"],
                                p.mu, 0.75)
    share = (stats["qber_dark"] + stats["qber_noise"]) / qber
    sigma = (1 - share) * math.sqrt((1 - v_raw ** 2) / n)
    assert n > 10_000
    assert abs(obs.visibility_corrected - p.visibility_if) < 4 * sigma

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
    # the wide field is cheaper at low detection probability, the narrow one at high
    assert sifting_cost(0.002, SiftingMode(14)) < sifting_cost(0.002, SiftingMode(6))
    assert sifting_cost(0.05, SiftingMode(6)) < sifting_cost(0.05, SiftingMode(14))


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
