"""Finite-key secret-fraction calculus for the coherent one-way protocol.

Implements the full accounting that turns measured observables (QBER,
visibility, mean photon number, counts) into a secure compression ratio and
secret key rate under a restricted collective attack: state-overlap bound,
statistical deviations for QBER and visibility, min-entropy smoothing and
protocol failure penalties, and the additive failure-probability budget.

Conventions, fixed here and mirrored by the Decimal reference in the test
suite: the QBER/visibility deviation bounds use natural logarithms, the
smoothing/EC/PA penalties use base-2 logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

N_SIFT_BLOCK = 995_328  # distillation input length (512 x 1944 bits)
LEAK_VER = 48.0 / 2048.0  # verification tag leakage per block
COMPRESSION_STEP = 0.0005  # compression ratio granularity

TOTAL_EPSILON = 4e-9
EPS_VER_REF = 8e-11
EPS_MAC_REF = 1e-33

SUBSAMPLING_EST_FRACTION = 0.875  # key fraction kept when subsampling
SUBSAMPLING_ETA = 0.125


class PEMode:
    KEY_COMPARISON = "key_comparison"
    SUBSAMPLING = "subsampling"


@dataclass(frozen=True)
class FiniteKeyBudget:
    """Additive failure-probability allocation.

    The total counts the verification component twice: once for the QBER
    measurement it underwrites and once for verification itself.
    """

    eps_pe_v: float
    eps_smooth: float
    eps_pa: float
    eps_ver: float
    eps_mac: float

    @property
    def eps_qkd(self) -> float:
        return self.eps_pe_v + self.eps_smooth + self.eps_pa + 2 * self.eps_ver + self.eps_mac

    @property
    def eps_ec(self) -> float:
        # error correction confidence is bounded by the verification step
        return self.eps_ver

    @classmethod
    def reference(cls) -> "FiniteKeyBudget":
        """Default split of the 4e-9 total.

        Verification and authentication components are pinned; the remainder
        goes in equal parts to visibility estimation, smoothing and privacy
        amplification. The last share absorbs float rounding so the sum is
        exactly the total.
        """
        remainder = TOTAL_EPSILON - 2 * EPS_VER_REF - EPS_MAC_REF
        part = remainder / 3
        last = remainder - 2 * part
        return cls(eps_pe_v=part, eps_smooth=part, eps_pa=last, eps_ver=EPS_VER_REF, eps_mac=EPS_MAC_REF)


@dataclass(frozen=True)
class Observables:
    """Measured (or modelled) quantities feeding the secret fraction."""

    qber_raw: float
    qber_effective: float
    qber_corrected: float
    visibility_raw: float
    visibility_corrected: float
    mu: float
    code_rate: float
    n_sift: int = N_SIFT_BLOCK
    p_decoy: float = 0.155
    t_bob: float = 0.8
    pe_mode: str = PEMode.KEY_COMPARISON
    eta_pe: float = SUBSAMPLING_ETA

    def __post_init__(self):
        for name in ("qber_raw", "qber_effective", "qber_corrected",
                     "visibility_raw", "visibility_corrected"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def overlap(v_eff: float, mu: float) -> float:
    """State overlap bound from effective visibility and photon number."""
    v = min(max(v_eff, 0.0), 1.0)
    d = (2.0 * v - 1.0) * math.exp(-mu)
    d -= 2.0 * math.sqrt(1.0 - math.exp(-2.0 * mu)) * math.sqrt(v * (1.0 - v))
    return min(max(d, -1.0), 1.0)


def delta_q(eps_pe: float, eta_pe: float, n_pe: float, pe_mode: str) -> float:
    """QBER deviation bound; exactly zero when estimating by key comparison."""
    if pe_mode == PEMode.KEY_COMPARISON:
        return 0.0
    if n_pe < 1:
        raise ValueError("n_pe must be >= 1")
    if eta_pe <= 0.0:
        raise ValueError("eta_pe must be positive in subsampling mode")
    return math.sqrt((1.0 + eta_pe * (n_pe - 1.0)) / (eta_pe * n_pe) ** 2 * math.log(1.0 / eps_pe))


def delta_v(eps_pe_v: float, n_v: float) -> float:
    """Visibility deviation bound from the monitor detection count."""
    if n_v < 1:
        raise ValueError("n_v must be >= 1")
    return math.sqrt(0.5 * (math.log(1.0 / eps_pe_v) + 2.0 * math.log(n_v + 1.0)) / n_v)


def monitor_count(n_sift: float, p_decoy: float, t_bob: float) -> float:
    """Useful monitor detections implied by the sifted-key size.

    Counts clicks from decoy sequences and from pulse pairs straddling bit
    boundaries, on both interferometer ports, scaled by the splitting ratio.
    """
    if not 0.0 < t_bob < 1.0:
        raise ValueError("t_bob must be in (0, 1)")
    useful = p_decoy + (1.0 + p_decoy) ** 2 / 4.0
    return n_sift * useful / (1.0 - p_decoy) * (1.0 - t_bob) / t_bob


def finite_penalties(budget: FiniteKeyBudget, n_pe: float) -> dict:
    """Min-entropy smoothing, error-correction and PA failure penalties."""
    if n_pe < 1:
        raise ValueError("n_pe must be >= 1")
    return {
        "f_smooth": 7.0 * math.sqrt(math.log2(2.0 / budget.eps_smooth) / n_pe),
        "f_ec": math.log2(2.0 / budget.eps_ec) / n_pe,
        "f_pa": 2.0 * math.log2(1.0 / budget.eps_pa) / n_pe,
    }


def secret_fraction(obs: Observables, budget: FiniteKeyBudget,
                    asymptotic: bool = False) -> float:
    """Secure fraction of the reconciled key, clamped to [0, 1].

    Trusted-detector values (corrected QBER / visibility) bound the
    eavesdropper's information; the effective QBER, which charges failed
    verification blocks at rate 1/2, enters the leakage-side term.
    """
    return secret_fraction_terms(obs, budget, asymptotic)["f_sec"]


def secret_fraction_terms(obs: Observables, budget: FiniteKeyBudget,
                          asymptotic: bool = False) -> dict:
    """Secret fraction together with every term of its decomposition."""
    n_pe = obs.n_sift
    if obs.pe_mode == PEMode.SUBSAMPLING:
        n_pe = SUBSAMPLING_EST_FRACTION * obs.n_sift
    if asymptotic:
        dq = dv = 0.0
        pen = {"f_smooth": 0.0, "f_ec": 0.0, "f_pa": 0.0}
        n_v = float("inf")
    else:
        dq = delta_q(budget.eps_pe_v, obs.eta_pe, n_pe, obs.pe_mode)
        n_v = monitor_count(obs.n_sift, obs.p_decoy, obs.t_bob)
        dv = delta_v(budget.eps_pe_v, n_v)
        pen = finite_penalties(budget, n_pe)
    leak_ec = 1.0 - obs.code_rate
    q_eff = obs.qber_effective
    q_corr = obs.qber_corrected
    dlt = overlap(obs.visibility_corrected - dv, obs.mu)
    eve_term = (1.0 - q_corr - dq) * binary_entropy((1.0 + dlt) / 2.0)
    f_sec = (1.0 - leak_ec - LEAK_VER - (q_eff + dq) - eve_term
             - pen["f_smooth"] - pen["f_ec"] - pen["f_pa"])
    return {
        "f_sec": min(max(f_sec, 0.0), 1.0),
        "leak_ec": leak_ec,
        "leak_ver": LEAK_VER,
        "delta_q": dq,
        "delta_v": dv,
        "n_v": n_v,
        "overlap": dlt,
        "eve_term": eve_term,
        **pen,
    }


def sift_ratio(p_decoy: float) -> float:
    """Fraction of raw data-detector clicks surviving decoy sift-out."""
    return (1.0 - p_decoy) / (1.0 + p_decoy)


def secret_rate(r_det: float, p_decoy: float, pe_mode: str, f_sec: float,
                auth_fraction: float = 0.0) -> float:
    """Secret rate per prepared qubit (or per second when r_det is in Hz)."""
    beta_est = 1.0 if pe_mode == PEMode.KEY_COMPARISON else SUBSAMPLING_EST_FRACTION
    return r_det * sift_ratio(p_decoy) * beta_est * f_sec * (1.0 - auth_fraction)


def quantize_compression(ratio: float) -> tuple[float, int]:
    """Floor a requested ratio to the 0.05 % grid; return (ratio, n_out bits).

    The bit count rounds the quantized fraction of the block length to the
    nearest integer (e.g. 11.5 % of 995,328 -> 114,463 bits).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio outside [0, 1]")
    steps = int(math.floor(ratio / COMPRESSION_STEP + 1e-9))
    q = steps * COMPRESSION_STEP
    n_out = int(round(q * N_SIFT_BLOCK))
    return q, n_out


@dataclass(frozen=True)
class OptimizationResult:
    mu: float
    code_rate: float
    compression: float
    n_out: int
    r_sec: float
    f_sec: float


def optimize(model: Callable[[float, float], tuple[float, Observables]],
             budget: FiniteKeyBudget,
             mu_grid: Sequence[float],
             code_rates: Iterable[float] = (1 / 2, 2 / 3, 3 / 4, 5 / 6),
             auth_fraction: float = 0.0) -> OptimizationResult:
    """Exhaustive grid search for the best (mu, code rate, compression).

    `model` maps a candidate (mu, code_rate) to the expected detection rate
    and observables. Ties break deterministically toward the lowest mu, then
    the highest code rate. An empty feasible region reports the zero-rate
    configuration at the first grid point.
    """
    best: OptimizationResult | None = None
    for mu in mu_grid:
        for rate in sorted(code_rates, reverse=True):
            r_det, obs = model(mu, rate)
            f_sec = secret_fraction(obs, budget)
            comp, n_out = quantize_compression(f_sec)
            r_sec = secret_rate(r_det, obs.p_decoy, obs.pe_mode, comp, auth_fraction)
            cand = OptimizationResult(mu, rate, comp, n_out, r_sec, f_sec)
            if best is None or cand.r_sec > best.r_sec + 1e-15:
                best = cand
            elif abs(cand.r_sec - best.r_sec) <= 1e-15:
                if (cand.mu, -cand.code_rate) < (best.mu, -best.code_rate):
                    best = cand
    assert best is not None
    if best.r_sec <= 0.0:
        mu0 = mu_grid[0]
        rate0 = max(code_rates)
        best = OptimizationResult(mu0, rate0, 0.0, 0, 0.0, 0.0)
    return best


def corrected_observables(qber_raw: float, qber_effective: float,
                          visibility_raw: float, dark_qber: float,
                          noise_qber: float, mu: float, code_rate: float,
                          **kwargs) -> Observables:
    """Build observables with the trusted-detector corrections applied.

    `dark_qber` and `noise_qber` are calibrated trusted-detector shares of
    the QBER (a session takes them from `ChannelParams.expected_stats`),
    not counts of which clicks were dark or noise, which no party observes.
    The corrected QBER removes them outright. The corrected visibility removes the same
    detector-intrinsic share from the visibility deficit, using the error
    composition as the calibration proxy for the monitor channel.
    """
    if qber_raw <= 0.0:
        share = 0.0
    else:
        share = min((dark_qber + noise_qber) / qber_raw, 1.0)
    q_corr = max(qber_raw - dark_qber - noise_qber, 0.0)
    v_corr = 1.0 - (1.0 - visibility_raw) * (1.0 - share)
    return Observables(
        qber_raw=qber_raw,
        qber_effective=qber_effective,
        qber_corrected=q_corr,
        visibility_raw=visibility_raw,
        visibility_corrected=v_corr,
        mu=mu,
        code_rate=code_rate,
        **kwargs,
    )
