import inspect

import numpy as np
import pytest

from oracles import parity_dense
from cowkd import ldpc
from cowkd.ldpc import fer as ldpc_fer
from cowkd.ldpc import matrices
from cowkd.randomness import EntropySeed, new_stream


def stream(n=1):
    return new_stream(EntropySeed.from_int(200 + n))


ALL_RATES = ["1/2", "2/3", "3/4", "5/6"]


def test_syndrome_lengths():
    expected = {"1/2": 972, "2/3": 648, "3/4": 486, "5/6": 324}
    for r, n in expected.items():
        assert ldpc.syndrome_length(ldpc.as_rate(r)) == n
        assert ldpc.syndrome_batch(np.zeros(1944, dtype=np.uint8), r).shape == (1, n)


def test_as_rate_accepts_floats_and_strings():
    assert ldpc.as_rate(0.75) == ldpc.as_rate("3/4")
    with pytest.raises(ValueError):
        ldpc.as_rate("7/8")


def test_data_file_checksum_guard(monkeypatch):
    monkeypatch.setattr(matrices, "_DATA_SHA256", "0" * 64)
    monkeypatch.setattr(matrices, "_cache", {})
    with pytest.raises(RuntimeError, match="corrupted"):
        matrices.parity_matrix("3/4")


def test_zero_block_zero_syndrome():
    for r in ALL_RATES:
        assert not ldpc.syndrome_batch(np.zeros(1944, dtype=np.uint8), r).any()


def test_syndrome_linearity():
    rng = stream(1)
    for r in ALL_RATES:
        x = rng.draw_bits(1944)
        y = rng.draw_bits(1944)
        sx = ldpc.syndrome_batch(x, r)
        sy = ldpc.syndrome_batch(y, r)
        assert np.array_equal(sx ^ sy, ldpc.syndrome_batch(x ^ y, r))


def test_syndrome_matches_dense_oracle():
    rng = stream(2)
    for r in ALL_RATES:
        h = parity_dense(ldpc.parity_matrix(r)).astype(np.int64)
        x = rng.draw_bits(5 * 1944).reshape(5, 1944)
        want = (x @ h.T % 2).astype(np.uint8)
        assert np.array_equal(ldpc.syndrome_batch(x, r), want)
        assert np.array_equal(ldpc.syndrome_batch(x[0], r), want[:1])


def test_expanded_weights_match_prototype():
    for r in ALL_RATES:
        pm = ldpc.parity_matrix(r)
        h = parity_dense(pm)
        row_deg = (pm.prototype >= 0).sum(axis=1)
        # every expanded row in block-row i has the prototype's row degree
        assert np.array_equal(h.sum(axis=1).reshape(-1, 81),
                              np.repeat(row_deg, 81).reshape(-1, 81))
        col_deg = (pm.prototype >= 0).sum(axis=0)
        assert np.array_equal(h.sum(axis=0).reshape(24, 81),
                              np.repeat(col_deg, 81).reshape(24, 81))


def test_circulant_shift_consistency():
    # rolling every 81-bit column block rolls each syndrome block in step
    rng = stream(3)
    x = rng.draw_bits(1944)
    s = ldpc.syndrome_batch(x, "3/4")
    for delta in (1, 17, 80):
        xs = np.roll(x.reshape(24, 81), delta, axis=1).reshape(-1)
        ss = ldpc.syndrome_batch(xs, "3/4")
        assert np.array_equal(ss.reshape(-1, 81),
                              np.roll(s.reshape(-1, 81), delta, axis=1))


def test_decode_zero_errors_returns_input():
    rng = stream(4)
    x = rng.draw_bits(1944)
    bits, ok, iters = ldpc.decode_batch(x, ldpc.syndrome_batch(x, "3/4"), "3/4",
                                        channel_p=0.02)
    assert ok.tolist() == [True]
    assert iters == 0
    assert np.array_equal(bits[0], x)


def test_decode_corrects_sparse_errors():
    rng = stream(5)
    x = rng.draw_bits(1944)
    synd = ldpc.syndrome_batch(x, "3/4")
    noisy = x.copy()
    for pos in (7, 400, 1200, 1900):
        noisy[pos] ^= 1
    bits, ok, _ = ldpc.decode_batch(noisy, synd, "3/4", channel_p=0.01)
    assert ok.tolist() == [True]
    assert np.array_equal(bits[0], x)


def test_decoder_soundness_on_status():
    # decoded status must mean the syndrome matches exactly
    rng = stream(6)
    true = rng.draw_bits(16 * 1944).reshape(16, 1944)
    synd = ldpc.syndrome_batch(true, "2/3")
    flips = (rng.draw_uniform(16 * 1944).reshape(16, 1944) < 0.02).astype(np.uint8)
    bits, ok, _ = ldpc.decode_batch(true ^ flips, synd, "2/3", channel_p=0.02)
    got = ldpc.syndrome_batch(bits, "2/3")
    for i in range(16):
        if ok[i]:
            assert np.array_equal(got[i], synd[i])


def test_decode_rows_independent_across_slices():
    # each row decodes as if alone: frozen once its syndrome matches, and
    # unaffected by the slice it lands in (70 rows span two slices)
    rng = stream(8)
    n = 70
    assert ldpc.codec.DECODE_SLICE < n
    true = rng.draw_bits(n * 1944).reshape(n, 1944)
    synd = ldpc.syndrome_batch(true, "3/4")
    # error rates from clean to hopeless, so rows freeze at different
    # iterations and some never converge
    p = np.linspace(0.0, 0.04, n)[:, None]
    flips = (rng.draw_uniform(n * 1944).reshape(n, 1944) < p).astype(np.uint8)
    bits, ok, _ = ldpc.decode_batch(true ^ flips, synd, "3/4", channel_p=0.02)
    assert 0 < ok.sum() < n
    for i in range(n):
        alone, ok_alone, _ = ldpc.decode_batch(true[i] ^ flips[i], synd[i], "3/4",
                                               channel_p=0.02)
        assert ok[i] == ok_alone[0], i
        assert np.array_equal(bits[i], alone[0]), i


def test_sign_flip_equals_translate_then_decode():
    # decoding toward syndrome s from y must equal y xor (error-pattern
    # decode of the zero word toward s xor H.y)
    rng = stream(7)
    for r in ("1/2", "3/4"):
        true = rng.draw_bits(4 * 1944).reshape(4, 1944)
        synd = ldpc.syndrome_batch(true, r)
        flips = (rng.draw_uniform(4 * 1944).reshape(4, 1944) < 0.03).astype(np.uint8)
        noisy = true ^ flips
        direct, ok1, _ = ldpc.decode_batch(noisy, synd, r, channel_p=0.03)
        e_synd = synd ^ ldpc.syndrome_batch(noisy, r)
        zeros = np.zeros_like(noisy)
        epat, ok2, _ = ldpc.decode_batch(zeros, e_synd, r, channel_p=0.03)
        assert np.array_equal(ok1, ok2)
        assert np.array_equal(direct, noisy ^ epat)


def test_decode_validates_inputs():
    x = np.zeros(1944, dtype=np.uint8)
    s = np.zeros(486, dtype=np.uint8)
    with pytest.raises(ValueError):
        ldpc.decode_batch(x, s, "3/4", channel_p=0.0)
    with pytest.raises(ValueError):
        ldpc.decode_batch(x, np.zeros(487, dtype=np.uint8), "3/4", channel_p=0.01)
    with pytest.raises(ValueError):
        ldpc.decode_batch(x[:100], s, "3/4", channel_p=0.01)


def test_fer_interpolation_behaviour():
    # below the measured grid the failure rate collapses to the floor value
    assert ldpc_fer.fer_estimate("3/4", 0.001) == ldpc_fer.FER_TABLE["3/4"][0][1]
    assert ldpc_fer.fer_estimate("3/4", 0.5) == ldpc_fer.FER_TABLE["3/4"][-1][1]
    # interpolation stays between endpoints
    x0, y0 = ldpc_fer.FER_TABLE["3/4"][3]
    x1, y1 = ldpc_fer.FER_TABLE["3/4"][4]
    mid = ldpc_fer.fer_estimate("3/4", (x0 + x1) / 2)
    assert min(y0, y1) <= mid <= max(y0, y1)


def test_fer_table_monotone_per_rate():
    for rate, pts in ldpc_fer.FER_TABLE.items():
        fers = [f for _, f in pts]
        assert all(a <= b + 1e-9 for a, b in zip(fers, fers[1:])), rate


@pytest.mark.slow
def test_fer_monotone_in_crossover_monte_carlo():
    # three operating points per rate, fixed seeds
    grids = {"1/2": (0.06, 0.08, 0.095), "2/3": (0.03, 0.04, 0.05),
             "3/4": (0.015, 0.025, 0.03), "5/6": (0.0075, 0.012, 0.02)}
    for rate, points in grids.items():
        fers = [ldpc_fer.measure_point(rate, p, 512, seed=300) for p in points]
        assert fers[0] <= fers[1] <= fers[2], (rate, fers)


def test_fer_script_prints_the_table_literal():
    # regenerating the table is a paste of `python -m cowkd.ldpc.fer`'s output
    assert ldpc_fer.format_table(ldpc_fer.FER_TABLE) in inspect.getsource(ldpc_fer)
