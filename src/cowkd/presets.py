"""Reference configurations for the three measured fibre lengths.

The observable presets carry the published operating points (mean photon
number, code rate, raw/verified QBER with its detector-intrinsic
contributions, raw visibility and rates). Channel presets are desk-scale
calibrations of the stochastic link model that reproduce those operating
points; the extinction-ratio leakage absorbs error sources the simulator
does not model individually (detector jitter, afterpulsing).
"""

from __future__ import annotations

from dataclasses import dataclass

from .finitekey import Observables, corrected_observables


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
    length overridden.
    """
    import math

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
