"""Quasi-cyclic parity-check matrices for the 1944-bit code family.

The prototype tables (24 block columns, circulant size 81) are shipped as a
JSON data file whose SHA-256 is pinned here; each entry is either -1 (zero
block) or the cyclic shift of an 81x81 identity block. Expanded matrices and
the tap indices used by the syndrome and the decoder are derived on first
use and cached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

BLOCK_LENGTH = 1944
Z = 81
N_BLOCK_COLS = 24

RATES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))
_DATA_SHA256 = "ad953092275d214e2496655f5725976c334ad924586f1ee7d4cc7b2aaee87752"


def syndrome_length(rate: Fraction) -> int:
    return int(BLOCK_LENGTH * (1 - rate))


def as_rate(value) -> Fraction:
    """Normalize '3/4', 0.75 or Fraction(3, 4) to a supported code rate."""
    if isinstance(value, str):
        num, den = value.split("/")
        rate = Fraction(int(num), int(den))
    else:
        rate = Fraction(value).limit_denominator(6)
    if rate not in RATES:
        raise ValueError(f"unsupported code rate {value!r}; have {[str(r) for r in RATES]}")
    return rate


def _load_raw() -> dict:
    blob = resources.files("cowkd.ldpc").joinpath("data/qc_ldpc_1944.json").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _DATA_SHA256:
        raise RuntimeError(f"parity-check data file corrupted (sha256 {digest})")
    return json.loads(blob)


@dataclass(frozen=True)
class ParityMatrix:
    rate: Fraction
    prototype: np.ndarray  # (block rows, 24) of shifts, -1 for zero blocks
    # per block row: (degree, 81) flat bit indices into the 1944-bit block;
    # taps[i][t, r] is the t-th bit checked by parity check i*81 + r
    taps: tuple


_cache: dict = {}


def parity_matrix(rate) -> ParityMatrix:
    rate = as_rate(rate)
    if rate not in _cache:
        raw = _load_raw()
        proto = np.array(raw["prototypes"][f"{rate.numerator}/{rate.denominator}"], dtype=int)
        if proto.shape != (24 - 24 * rate.numerator // rate.denominator, N_BLOCK_COLS):
            raise RuntimeError("prototype table has unexpected shape")
        taps = []
        r = np.arange(Z)
        for row in proto:
            nz = np.flatnonzero(row >= 0)
            taps.append(nz[:, None] * Z + (r + row[nz][:, None]) % Z)
        _cache[rate] = ParityMatrix(rate, proto, tuple(taps))
    return _cache[rate]
