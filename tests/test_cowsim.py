import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import _slot_means_at_ref, qubit_at, sample_detections_ref
from refsim import (DetectionArrays, QubitSource, RunMismatch, ground_truth_stats,
                    interfering_slot_mask, prepare_sequence, transmit_detect)

from cowkd.cowsim import BASIS_DATA, BASIS_DECOY, ChannelParams, channel, sample_detections
from cowkd.cowsim.channel import _acceptance_tables, _pulse_codes
from cowkd.presets import channel_params, measured_point
from cowkd.randomness import EntropySeed, new_stream


def stream(n=1):
    return new_stream(EntropySeed.from_int(700 + n))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_invariants_enforced():
    with pytest.raises(ValueError):
        ChannelParams(mu=0.0)
    with pytest.raises(ValueError):
        ChannelParams(p_decoy=1.0)
    with pytest.raises(ValueError):
        ChannelParams(t_bob=0.0)
    with pytest.raises(ValueError):
        ChannelParams(f_gate=1e9, f_qubit=625e6)  # not two gates per qubit


@pytest.mark.parametrize("change", [
    {"fibre_km": -5.0},
    {"atten_db_per_km": -0.2},
    {"insertion_losses_db": {"fbg_filter": -1.4}},
    {"fibre_km": float("nan")},
], ids=["fibre", "attenuation", "insertion loss", "fibre not a number"])
def test_negative_loss_is_refused(change):
    # a negative loss would bring Bob more light than at 0 km; a NaN fibre
    # from a channel file ended in a traceback inside the simulator
    with pytest.raises(ValueError, match="must be at least 0"):
        ChannelParams(**change)
    ChannelParams(**{k: 0.0 if k != "insertion_losses_db" else {} for k in change})


def test_loss_arithmetic_against_scalar_oracle():
    p = ChannelParams(fibre_km=10.0)
    # data line: fibre + filter + both multiplexers, then the splitter
    db = 10 * 0.2 + 1.4 + 1.8 + 1.8
    assert p.t_data_line == pytest.approx(10 ** (-db / 10) * 0.8, rel=1e-12)
    # monitor line additionally crosses the interferometer
    db_mon = db + 1.3
    assert p.t_monitor_line == pytest.approx(10 ** (-db_mon / 10) * 0.2, rel=1e-12)


def test_doubling_fibre_scales_transmission_exactly():
    base = ChannelParams(fibre_km=5.0)
    double = ChannelParams(fibre_km=10.0)
    assert double.t_data_line / base.t_data_line == pytest.approx(10 ** (-0.1), rel=1e-12)


def test_config_file_round_trip(tmp_path):
    p = ChannelParams(mu=0.1, fibre_km=12.5, p_dark_data=3e-6)
    path = tmp_path / "channel.json"
    path.write_text(p.to_json())
    assert ChannelParams.load(path) == p


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------

def test_no_decoys_when_probability_zero():
    seq = prepare_sequence(ChannelParams(p_decoy=0.0), 40_000, stream(1))
    assert (seq.basis == BASIS_DATA).all()


def test_decoy_fraction_within_binomial_bounds():
    n = 1_000_000
    seq = prepare_sequence(ChannelParams(p_decoy=0.155), n, stream(2))
    count = int((seq.basis == BASIS_DECOY).sum())
    sigma = math.sqrt(n * 0.155 * 0.845)
    assert abs(count - 0.155 * n) < 3 * sigma


def test_bit_balance_within_bounds():
    n = 1_000_000
    seq = prepare_sequence(ChannelParams(), n, stream(3))
    data_bits = seq.bit[seq.basis == BASIS_DATA]
    sigma = math.sqrt(data_bits.size * 0.25)
    assert abs(int(data_bits.sum()) - data_bits.size / 2) < 3 * sigma


def test_qubit_source_is_random_access_consistent():
    src = QubitSource.from_stream(stream(4), 0.155)
    seq = src.sequence(5000)
    idx = np.array([17, 4999, 0, 2500])
    basis, bit = src.at(idx)
    assert np.array_equal(basis, seq.basis[idx])
    assert np.array_equal(bit, seq.bit[idx])


_index = st.integers(0, (1 << 32) + 5) | st.integers(0, (1 << 63) - 1)


@given(key=st.binary(min_size=32, max_size=32), p_decoy=st.sampled_from([0.0, 0.155, 0.5]),
       indices=st.lists(_index, max_size=40) | st.lists(_index, min_size=1, max_size=3).map(
           lambda xs: xs * 3))
@example(key=bytes(32), p_decoy=0.155, indices=[])
@example(key=bytes(32), p_decoy=0.155, indices=[(1 << 32) - 1, 1 << 32, 7, 7, 0])
def test_qubit_lookup_matches_scalar_aes_oracle(key, p_decoy, indices):
    # empty, single, unsorted and repeated index sets, indices past 2^32 included
    basis, bit = channel.QubitSource(key, p_decoy).at(np.array(indices, dtype=np.int64))
    want = [qubit_at(key, p_decoy, i) for i in indices]
    assert basis.dtype == bit.dtype == np.uint8
    assert [(int(a), int(b)) for a, b in zip(basis, bit)] == want


def test_lookup_results_survive_later_lookups():
    # lookups reuse the source's cipher buffers; a result must not share them
    src = channel.QubitSource(bytes(range(32)), 0.155)
    idx = np.arange(40_000, dtype=np.int64) * 7  # spans several cipher passes
    basis, bit = src.at(idx)
    kept = basis.copy(), bit.copy()
    src.at(idx[::-1] + 1)
    src.at(np.arange(100, dtype=np.int64))
    assert np.array_equal(basis, kept[0]) and np.array_equal(bit, kept[1])


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_dark_channel_silent_when_zeroed():
    p = ChannelParams(mu=1e-9, p_dark_data=0.0, p_dwdm_noise=0.0,
                      dark_rate_mon_hz=0.0)
    seq = prepare_sequence(p, 100_000, stream(5))
    data, mon = transmit_detect(p, seq, stream(6))
    assert len(data) == 0 and len(mon) == 0


def test_detection_rate_matches_expectation():
    p = channel_params(1.0)
    n = 500_000
    seq = prepare_sequence(p, n, stream(7))
    data, _ = transmit_detect(p, seq, stream(8))
    expected = p.expected_stats()["p_click_per_qubit"] * n
    assert abs(len(data) - expected) < 4 * math.sqrt(expected)


def test_sifted_equivalent_rate_within_factor_two_of_reference():
    p = channel_params(1.0)
    stats = p.expected_stats()
    reference = measured_point(1.0).sifted_rate
    assert reference / 2 < stats["sifted_rate_bps"] < reference * 2


def test_extinction_floor_near_published_value():
    # a 25 dB extinction ratio limits the error rate to about 0.3 %
    p = ChannelParams(eta_im=10 ** -2.5, p_dark_data=0.0, p_dwdm_noise=0.0)
    assert p.expected_stats()["qber_expected"] == pytest.approx(0.003, abs=5e-4)


def test_dark_dominated_channel_approaches_half_qber():
    p = ChannelParams(mu=1e-6, p_dark_data=2e-3, p_dwdm_noise=0.0,
                      dark_rate_mon_hz=0.0)
    seq = prepare_sequence(p, 400_000, stream(9))
    data, mon = transmit_detect(p, seq, stream(10))
    gt = ground_truth_stats(seq, data, mon)
    assert gt["n_data_detections"] > 500
    assert gt["qber_true"] == pytest.approx(0.5, abs=0.05)


def test_ground_truth_qber_matches_calibration():
    p = channel_params(1.0)
    src = QubitSource.from_stream(stream(11), p.p_decoy)
    n = 6_000_000
    data, mon = sample_detections_ref(p, src, n, stream(12))
    gt = ground_truth_stats(src, data, mon, n)
    expected = p.expected_stats()["qber_expected"]
    sigma = math.sqrt(expected * (1 - expected) / gt["n_data_detections"])
    assert abs(gt["qber_true"] - expected) < 4 * sigma + 1e-4


def test_sparse_and_dense_paths_statistically_equivalent():
    p = channel_params(1.0)
    n = 400_000
    seq = prepare_sequence(p, n, stream(13))
    d1, m1 = transmit_detect(p, seq, stream(14))
    src = QubitSource.from_stream(stream(15), p.p_decoy)
    d2, m2 = sample_detections(p, src, n, stream(16))
    # counts are Poisson-like; compare at 5 combined sigma
    for a, b in ((len(d1), len(d2)), (len(m1), len(m2))):
        assert abs(a - b) < 5 * math.sqrt(a + b), (a, b)


def test_perfect_interference_silences_destructive_port():
    p = ChannelParams(visibility_if=1.0, p_dark_data=0.0, p_dwdm_noise=0.0,
                      dark_rate_mon_hz=0.0)
    seq = prepare_sequence(p, 300_000, stream(17))
    _, mon = transmit_detect(p, seq, stream(18))
    lookup = lambda idx: (seq.basis[idx], seq.bit[idx])
    interf = interfering_slot_mask(lookup, mon.gate)
    # interfering slots may click only on the bright port
    assert not (interf & mon.destructive).any()
    assert len(mon) > 0


def test_monitor_deadtime_spacing():
    p = ChannelParams(deadtime_mon_s=8e-9)  # 10 gates at 1.25 GHz
    gates = p.deadtime_mon_gates
    assert gates == 10
    seq = prepare_sequence(p, 200_000, stream(19))
    _, mon = transmit_detect(p, seq, stream(20))
    for port in (True, False):
        g = mon.gate[mon.destructive == port]
        if g.size > 1:
            assert np.diff(g).min() >= gates


def test_visibility_estimate_tracks_interferometer():
    p = channel_params(1.0)
    src = QubitSource.from_stream(stream(21), p.p_decoy)
    data, mon = sample_detections_ref(p, src, 4_000_000, stream(22))
    gt = ground_truth_stats(src, data, mon, 4_000_000)
    n = gt["n_monitor_interfering"]
    sigma = math.sqrt((1 - p.visibility_if ** 2) / max(n, 1))
    assert abs(gt["visibility_raw"] - measured_point(1.0).visibility_raw) \
        < 4 * sigma + 0.01


def test_run_mismatch_detected():
    p = ChannelParams()
    seq = prepare_sequence(p, 1000, stream(23), run_id=1)
    data = DetectionArrays(np.array([3], dtype=np.int64),
                           np.array([0], dtype=np.uint8), run_id=2)
    mon = DetectionArrays(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8),
                          np.zeros(0, dtype=bool), run_id=2)
    with pytest.raises(RunMismatch):
        ground_truth_stats(seq, data, mon)



# ---------------------------------------------------------------------------
# class-table thinning against the per-click oracle
# ---------------------------------------------------------------------------

def _same_detections(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a.gate, b.gate) and a.gate.dtype == b.gate.dtype
    assert np.array_equal(got[1].destructive, want[1].destructive)


def _check_against_oracle(params, key, n_qubits, seed):
    streams = [new_stream(EntropySeed.from_int(seed)) for _ in range(2)]
    got = sample_detections(params, channel.QubitSource(key, params.p_decoy), n_qubits, streams[0])
    want = sample_detections_ref(params, channel.QubitSource(key, params.p_decoy), n_qubits,
                                 streams[1])
    _same_detections(got, want)
    assert streams[0]._block == streams[1]._block
    assert streams[0].bits_emitted == streams[1].bits_emitted
    return got


@given(seed=st.integers(0, 2 ** 16), key=st.binary(min_size=32, max_size=32),
       n_qubits=st.integers(0, 3000),
       mu=st.sampled_from([0.089, 0.5, 0.95]),
       p_decoy=st.sampled_from([0.0, 0.155, 0.5]),
       eta_det=st.sampled_from([0.096, 1.0]),
       visibility_if=st.sampled_from([0.9, 0.998, 1.0]),
       p_dark_data=st.sampled_from([0.0, 1e-3, 0.05]),
       p_dwdm_noise=st.sampled_from([0.0, 0.02]),
       dark_rate_mon_hz=st.sampled_from([0.0, 800.0, 5e7]),
       deadtime_mon_s=st.sampled_from([0.0, 8e-9]))
@example(seed=1, key=bytes(32), n_qubits=2000, mu=0.95, p_decoy=0.0, eta_det=1.0,
         visibility_if=1.0, p_dark_data=0.0, p_dwdm_noise=0.0, dark_rate_mon_hz=0.0,
         deadtime_mon_s=8e-9)
def test_sampler_matches_per_click_oracle(seed, key, n_qubits, mu, p_decoy, eta_det,
                                          visibility_if, p_dark_data, p_dwdm_noise,
                                          dark_rate_mon_hz, deadtime_mon_s):
    # small chunks, bright enough that both detectors click often: the same
    # clicks and the same stream position as per-click thinning
    params = ChannelParams(mu=mu, p_decoy=p_decoy, fibre_km=0.0, eta_det_data=eta_det,
                           eta_det_mon=eta_det, visibility_if=visibility_if,
                           p_dark_data=p_dark_data, p_dwdm_noise=p_dwdm_noise,
                           dark_rate_mon_hz=dark_rate_mon_hz, deadtime_mon_s=deadtime_mon_s)
    _check_against_oracle(params, key, n_qubits, seed)


@pytest.mark.parametrize("km", [1.0, 25.0])
def test_full_size_chunk_matches_per_click_oracle(km):
    data, monitor = _check_against_oracle(channel_params(km), bytes(range(32)), 1 << 24, 31)
    assert len(data) > 10_000 and len(monitor) > 2_000


@pytest.mark.parametrize("km", [1.0, 25.0])
def test_acceptance_tables_equal_per_click_ratios(km):
    # the premise of class-table thinning: each table entry is bit for bit
    # the ratio the per-click expressions give, on arrays of chunk size
    p = channel_params(km)
    src = channel.QubitSource(bytes(range(32)), p.p_decoy)
    t_eta_data = p.t_data_line * p.eta_det_data
    t_eta_mon = p.t_monitor_line * p.eta_det_mon
    q_max = 1.0 - math.exp(-p.mu * t_eta_data)
    q_max_mon = 1.0 - math.exp(-p.mu * t_eta_mon)
    data_table, port_tables = _acceptance_tables(p, t_eta_data, q_max, t_eta_mon, q_max_mon)

    gates = np.arange(100_000, dtype=np.int64) * 3  # both bins, every class
    basis, bit = src.at(gates >> 1)
    full = np.where((gates & 1) == 0, bit == 1, bit == 0)
    mean = np.where(basis == BASIS_DECOY, p.mu, np.where(full, p.mu_full, p.mu_leak))
    ratio = (1.0 - np.exp(-mean * t_eta_data)) / q_max
    assert np.array_equal(data_table[_pulse_codes(src, gates)], ratio)

    codes = _pulse_codes(src, np.concatenate([gates - 1, gates]))
    codes[0] = 4  # gate 0 has no predecessor
    slot_class = 4 * codes[: gates.size] + codes[gates.size :]
    assert np.unique(slot_class).size == 17  # 16 pulse pairs and one slot before qubit 0
    for table, port_mean in zip(port_tables, _slot_means_at_ref(p, src, gates, t_eta_mon)):
        assert np.array_equal(table[slot_class], (1.0 - np.exp(-port_mean)) / q_max_mon)
