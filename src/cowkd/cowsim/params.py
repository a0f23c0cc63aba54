"""Channel and detector parameters for the simulated optical link.

Loss bookkeeping: the spectral filter and both multiplexers sit in front of
the splitter and attenuate both lines; the interferometer only sits in the
monitoring line. The splitter itself is modelled exactly by the
data-fraction `t_bob`. Expected-rate helpers duplicate the stochastic
model's arithmetic in closed form so simulations can be checked against an
independent calculation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

DEFAULT_INSERTION_LOSSES_DB = {
    "fbg_filter": 1.4,
    "interferometer": 1.3,
    "dwdm_mux_a": 1.8,
    "dwdm_mux_b": 1.8,
}
MONITOR_ONLY_COMPONENTS = ("interferometer",)


@dataclass(frozen=True)
class ChannelParams:
    mu: float = 0.089
    p_decoy: float = 0.155
    eta_im: float = 10 ** -2.5  # intensity-modulator extinction leakage
    fibre_km: float = 1.0
    atten_db_per_km: float = 0.2
    insertion_losses_db: dict = field(default_factory=lambda: dict(DEFAULT_INSERTION_LOSSES_DB))
    t_bob: float = 0.8
    eta_det_data: float = 0.096
    p_dark_data: float = 1e-6
    eta_det_mon: float = 0.20
    dark_rate_mon_hz: float = 800.0
    deadtime_mon_s: float = 0.0
    visibility_if: float = 0.998
    p_dwdm_noise: float = 0.0
    f_qubit: float = 625e6
    f_gate: float = 1.25e9

    def __post_init__(self):
        if not 0.0 <= self.p_decoy < 1.0:
            raise ValueError("p_decoy must be in [0, 1)")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must be in (0, 1)")
        if not 0.0 < self.t_bob < 1.0:
            raise ValueError("t_bob must be in (0, 1)")
        if abs(self.f_gate - 2.0 * self.f_qubit) > 1e-6 * self.f_gate:
            raise ValueError("two gates per qubit required: f_gate = 2 f_qubit")
        for name in ("eta_im", "eta_det_data", "p_dark_data", "eta_det_mon",
                     "visibility_if", "p_dwdm_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        # a negative loss would bring Bob more light than Alice sends
        losses = {"fibre_km": self.fibre_km, "atten_db_per_km": self.atten_db_per_km,
                  **self.insertion_losses_db}
        for name, v in losses.items():
            if not v >= 0.0:  # NaN too
                raise ValueError(f"{name}={v} must be at least 0")

    # -- transmission arithmetic ----------------------------------------------

    @property
    def fibre_db(self) -> float:
        return self.fibre_km * self.atten_db_per_km

    def _line_db(self, monitor: bool) -> float:
        db = self.fibre_db
        for name, loss in self.insertion_losses_db.items():
            if name in MONITOR_ONLY_COMPONENTS and not monitor:
                continue
            db += loss
        return db

    @property
    def t_data_line(self) -> float:
        """Linear transmission source -> data detector input, incl. splitter."""
        return 10 ** (-self._line_db(monitor=False) / 10) * self.t_bob

    @property
    def t_monitor_line(self) -> float:
        return 10 ** (-self._line_db(monitor=True) / 10) * (1.0 - self.t_bob)

    # -- pulse means -----------------------------------------------------------

    @property
    def mu_full(self) -> float:
        """Mean photons in a data qubit's occupied time-bin."""
        return self.mu / (1.0 + self.eta_im)

    @property
    def mu_leak(self) -> float:
        """Residual photons in the nominally empty bin (finite extinction)."""
        return self.eta_im * self.mu / (1.0 + self.eta_im)

    @property
    def p_dark_mon(self) -> float:
        return self.dark_rate_mon_hz / self.f_gate

    @property
    def p_noise_mon_port(self) -> float:
        """Background click probability per monitor port per gate.

        Scales the data-line calibration value by the line split and the
        detector-efficiency ratio, halved over the two interferometer ports.
        """
        if self.p_dwdm_noise == 0.0 or self.eta_det_data == 0.0:
            return 0.0
        scale = (1.0 - self.t_bob) / self.t_bob * self.eta_det_mon / self.eta_det_data
        return self.p_dwdm_noise * scale / 2.0

    @property
    def deadtime_mon_gates(self) -> int:
        return int(round(self.deadtime_mon_s * self.f_gate))

    # -- closed-form expectations ---------------------------------------------

    def click_prob_data(self, mean_photons: float) -> float:
        return 1.0 - math.exp(-mean_photons * self.t_data_line * self.eta_det_data)

    def expected_stats(self) -> dict:
        """Analytic per-qubit detection rates and error composition."""
        p = self.p_decoy
        p_full = self.click_prob_data(self.mu_full)
        p_leak = self.click_prob_data(self.mu_leak)
        p_decoy_bin = self.click_prob_data(self.mu)
        p_bg_gate = 1.0 - (1.0 - self.p_dark_data) * (1.0 - self.p_dwdm_noise)
        # per-qubit click probability on the data detector (any gate)
        per_data_qubit = 1.0 - (1.0 - p_full) * (1.0 - p_leak) * (1.0 - p_bg_gate) ** 2
        per_decoy_qubit = 1.0 - (1.0 - p_decoy_bin) ** 2 * (1.0 - p_bg_gate) ** 2
        raw_per_qubit = (1.0 - p) * per_data_qubit + p * per_decoy_qubit
        # error composition on sifted detections, to first order: wrong-bin
        # leakage clicks, plus background clicks (two gates, half of which
        # fall in the wrong bin and read out as errors)
        qber = (p_leak + p_bg_gate) / per_data_qubit if per_data_qubit else 0.0
        q_dark_share = self.p_dark_data / per_data_qubit if per_data_qubit else 0.0
        q_noise_share = self.p_dwdm_noise / per_data_qubit if per_data_qubit else 0.0
        return {
            "p_click_per_data_qubit": per_data_qubit,
            "p_click_per_qubit": raw_per_qubit,
            "raw_rate_bps": raw_per_qubit * self.f_qubit,
            "sifted_rate_bps": (1.0 - p) * per_data_qubit * self.f_qubit,
            "qber_expected": qber,
            "qber_dark": q_dark_share,
            "qber_noise": q_noise_share,
        }

    # -- config file -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChannelParams":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("channel parameters are one JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown channel parameters {unknown}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "ChannelParams":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def with_(self, **kwargs) -> "ChannelParams":
        return replace(self, **kwargs)
