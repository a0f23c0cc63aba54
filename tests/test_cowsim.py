import math

import numpy as np
import pytest

from refsim import (DetectionArrays, QubitSource, RunMismatch, ground_truth_stats, prepare_sequence,
                    transmit_detect)

from cowkd.cowsim import BASIS_DATA, BASIS_DECOY, ChannelParams, sample_detections
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
    p.save(path)
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
    data, mon = sample_detections(p, src, n, stream(12))
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
    from cowkd.cowsim.channel import interfering_slot_mask

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
    data, mon = sample_detections(p, src, 4_000_000, stream(22))
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

