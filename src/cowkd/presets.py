"""Reference configurations for the three measured fibre lengths.

The observable presets carry the published operating points (mean photon
number, code rate, raw/verified QBER with its detector-intrinsic
contributions, raw visibility and rates). Channel presets are desk-scale
calibrations of the stochastic link model that reproduce those operating
points; the extinction-ratio leakage absorbs error sources the simulator
does not model individually (detector jitter, afterpulsing). The one
expectation of what a channel yields, `expected_observables`, feeds both a
session's auto compression and the paper's parameter optimization,
`optimum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .finitekey import (
    N_SIFT_BLOCK,
    FiniteKeyBudget,
    Observables,
    OptimizationResult,
    corrected_observables,
    optimize,
)
from .ldpc import as_rate
from .ldpc.fer import fer_estimate


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured configuration: inputs and reported results."""

    fibre_km: float
    mu: float
    det_efficiency: float
    code_rate: float
    compression: float  # applied compression factor
    qber_raw: float
    qber_effective: float  # after charging dropped blocks at 1/2
    dark_qber: float  # dark-count share of the raw QBER
    dwdm_qber: float  # background-noise share of the raw QBER
    visibility_raw: float
    sifted_rate: float  # bps
    secret_rate: float  # bps
    authenticated_rate: float  # bps

    def observables(self, **kwargs) -> Observables:
        return corrected_observables(
            qber_raw=self.qber_raw,
            qber_effective=self.qber_effective,
            visibility_raw=self.visibility_raw,
            dark_qber=self.dark_qber,
            noise_qber=self.dwdm_qber,
            mu=self.mu,
            code_rate=self.code_rate,
            **kwargs,
        )


MEASURED = {
    1.0: MeasuredPoint(
        fibre_km=1.0, mu=0.089, det_efficiency=0.096, code_rate=3 / 4,
        compression=0.115, qber_raw=0.0170, qber_effective=0.0198,
        dark_qber=0.0041, dwdm_qber=0.0005, visibility_raw=0.9814,
        sifted_rate=1.26e6, secret_rate=1.45e5, authenticated_rate=1.41e5,
    ),
    12.5: MeasuredPoint(
        fibre_km=12.5, mu=0.084, det_efficiency=0.073, code_rate=3 / 4,
        compression=0.120, qber_raw=0.0187, qber_effective=0.0303,
        dark_qber=0.0076, dwdm_qber=0.0011, visibility_raw=0.9806,
        sifted_rate=5.38e5, secret_rate=6.29e4, authenticated_rate=6.12e4,
    ),
    25.0: MeasuredPoint(
        fibre_km=25.0, mu=0.105, det_efficiency=0.069, code_rate=3 / 4,
        compression=0.065, qber_raw=0.0191, qber_effective=0.0342,
        dark_qber=0.0085, dwdm_qber=0.0019, visibility_raw=0.9781,
        sifted_rate=3.59e5, secret_rate=2.25e4, authenticated_rate=2.14e4,
    ),
}


def measured_point(fibre_km: float) -> MeasuredPoint:
    try:
        return MEASURED[float(fibre_km)]
    except KeyError:
        raise KeyError(f"no measured preset at {fibre_km} km; have {sorted(MEASURED)}")


def nearest_point(fibre_km: float) -> MeasuredPoint:
    return MEASURED[min(MEASURED, key=lambda km: abs(km - fibre_km))]


def channel_params(fibre_km: float, **overrides):
    """Desk-scale channel calibrated to a measured operating point.

    Solves the extinction leakage, dark and background probabilities so the
    simulated error composition reproduces the reported QBER rows, and sets
    the interferometer visibility so the raw (background-inflated) monitor
    contrast lands on the reported value. The leakage term absorbs error
    sources the simulator does not model individually. Distances between the
    measured points borrow the nearest point's calibration with the fibre
    length overridden. `expected_observables` is its inverse.
    """
    from .cowsim import ChannelParams

    point = nearest_point(fibre_km)
    q_int = point.qber_raw - point.dark_qber - point.dwdm_qber
    # the monitor efficiency is an effective value: it absorbs the physical
    # detector's deadtime and any unmodelled monitoring-line losses, sized so
    # the disclosure traffic mirrors the measured system's budget
    params = ChannelParams(
        mu=point.mu,
        fibre_km=float(fibre_km),
        eta_det_data=point.det_efficiency,
        eta_det_mon=0.08,
    )
    for _ in range(3):
        stats = params.expected_stats()
        pdq = stats["p_click_per_data_qubit"]
        mu_t_eta = point.mu * params.t_data_line * params.eta_det_data
        m_leak = -math.log1p(-min(q_int * pdq, 0.5))
        ratio = m_leak / mu_t_eta
        params = params.with_(
            eta_im=min(ratio / (1.0 - ratio), 0.5),
            p_dark_data=point.dark_qber * pdq,
            p_dwdm_noise=point.dwdm_qber * pdq,
        )
    # split the visibility deficit like the error budget: the detector-share
    # of it comes from monitor background clicks (diluting the raw contrast
    # evenly on both ports), the rest is intrinsic interferometer contrast
    v_corrected = point.observables().visibility_corrected
    b = max(1.0 - point.visibility_raw / v_corrected, 0.0)
    sig_per_slot = 1.0 - math.exp(-point.mu * params.t_monitor_line * params.eta_det_mon)
    bkg_per_port = sig_per_slot * b / (1.0 - b) / 2.0
    params = params.with_(
        visibility_if=min(v_corrected, 1.0),
        dark_rate_mon_hz=max(bkg_per_port - params.p_noise_mon_port, 0.0) * params.f_gate,
    )
    if overrides:
        params = params.with_(**overrides)
    return params


def expected_observables(params, code_rate, n_sift: int = N_SIFT_BLOCK) -> Observables:
    """The observables a batch of `n_sift` sifted bits on this channel should
    measure at `code_rate`.

    The expected QBER, with the blocks `fer_estimate` predicts dropped
    charged at 1/2; the calibrated dark-count and noise shares removed for
    the corrected QBER; the monitor contrast diluted by both ports'
    background as the raw visibility, and the interferometer's contrast
    `visibility_if` as the corrected one, which each batch's proxy-corrected
    visibility estimates. On `channel_params(km)` this returns the measured
    point's QBER and visibilities.
    """
    stats = params.expected_stats()
    q = stats["qber_expected"]
    fer = fer_estimate(code_rate, q)
    sig = 1.0 - math.exp(-params.mu * params.t_monitor_line * params.eta_det_mon)
    bkg = params.p_dark_mon + params.p_noise_mon_port  # per port and slot
    return Observables(
        qber_raw=q, qber_effective=(1 - fer) * q + 0.5 * fer,
        qber_corrected=max(q - stats["qber_dark"] - stats["qber_noise"], 0.0),
        visibility_raw=params.visibility_if * sig / (sig + 2.0 * bkg),
        visibility_corrected=params.visibility_if,
        mu=params.mu, code_rate=float(as_rate(code_rate)),
        n_sift=n_sift, p_decoy=params.p_decoy, t_bob=params.t_bob,
    )


# mean photon numbers the optimum is searched over
MU_GRID = tuple(round(0.030 + 0.005 * i, 3) for i in range(54))  # 0.030 to 0.295


def optimum(params) -> OptimizationResult:
    """The paper's parameter optimization on this channel: the (mu, code
    rate, compression) of the highest secret rate per second of link time,
    over `MU_GRID` and the four code rates, each point's observables those
    of `expected_observables` and its detection rate the channel's expected
    raw click rate.

    A channel from `channel_params` is calibrated at the measured point's
    mu, so the optimum found near that mu is a consistency check of the
    calibration and the finite-key analysis, not an independent one.
    """
    def model(mu: float, code_rate: float):
        at_mu = params.with_(mu=mu)
        return at_mu.expected_stats()["raw_rate_bps"], expected_observables(at_mu, code_rate)

    return optimize(model, FiniteKeyBudget.reference(), MU_GRID)
