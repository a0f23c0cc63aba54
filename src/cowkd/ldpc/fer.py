"""Measured frame-failure rates of the shipped decoder, with interpolation.

The table below was produced by `python -m cowkd.ldpc.fer` on this
implementation (15/16 min-sum, ten iterations) over a binary symmetric
channel; `presets.expected_observables` reads it to predict the blocks
verification drops, for auto compression and the parameter optimum.
Regenerate after any decoder change.
"""

from __future__ import annotations

import math

import numpy as np

from ..randomness import EntropySeed, new_stream
from .codec import decode_batch, syndrome_batch
from .matrices import BLOCK_LENGTH, as_rate

# crossover probability -> measured frame failure rate, per code rate
# (4096 blocks per point, seed 2024)
FER_TABLE = {
    "1/2": [[0.02, 0.00024], [0.04, 0.00049], [0.06, 0.02319], [0.07, 0.22681],
            [0.08, 0.74023], [0.09, 0.98218], [0.1, 1.0]],
    "2/3": [[0.01, 0.0], [0.02, 0.0], [0.03, 0.01367], [0.04, 0.50122],
            [0.05, 0.9707], [0.06, 1.0]],
    "3/4": [[0.005, 0.0], [0.01, 0.0], [0.015, 0.00024], [0.0191, 0.02637],
            [0.025, 0.36938], [0.03, 0.81567], [0.04, 0.99854]],
    "5/6": [[0.002, 0.0], [0.005, 0.00073], [0.0075, 0.00635], [0.01, 0.06787],
            [0.015, 0.57886], [0.02, 0.94946]],
}


def fer_estimate(rate, qber: float) -> float:
    """Interpolated frame failure probability at a given error rate."""
    key = f"{as_rate(rate).numerator}/{as_rate(rate).denominator}"
    pts = FER_TABLE[key]
    xs = [p for p, _ in pts]
    ys = [f for _, f in pts]
    if qber <= xs[0]:
        return ys[0]
    if qber >= xs[-1]:
        return ys[-1]
    # linear in log(fer) where both endpoints are nonzero, else linear
    i = int(np.searchsorted(xs, qber)) - 1
    x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
    w = (qber - x0) / (x1 - x0)
    if y0 > 0.0 and y1 > 0.0:
        return math.exp((1 - w) * math.log(y0) + w * math.log(y1))
    return (1 - w) * y0 + w * y1


def measure_point(rate, crossover: float, n_blocks: int, seed: int = 2024,
                  batch: int = 512) -> float:
    """Monte-Carlo frame failure rate on a BSC at the given crossover."""
    rng = new_stream(EntropySeed.from_int(seed))
    failures = 0
    done = 0
    while done < n_blocks:
        b = min(batch, n_blocks - done)
        true = rng.draw_bits(b * BLOCK_LENGTH).reshape(b, BLOCK_LENGTH)
        synd = syndrome_batch(true, rate)
        flips = (rng.draw_uniform(b * BLOCK_LENGTH).reshape(b, BLOCK_LENGTH)
                 < crossover).astype(np.uint8)
        _, ok, _ = decode_batch(true ^ flips, synd, rate, channel_p=crossover)
        failures += int(b - ok.sum())
        done += b
    return failures / n_blocks


def measure_table(n_blocks: int = 4096) -> dict:
    table = {}
    for key, pts in FER_TABLE.items():
        table[key] = [[p, round(measure_point(key, p, n_blocks), 5)] for p, _ in pts]
    return table


def format_table(table: dict) -> str:
    """`table` as the FER_TABLE literal of this module, ready to paste."""
    lines = ["FER_TABLE = {"]
    for key, pts in table.items():
        items = [f"[{p!r}, {f!r}]" for p, f in pts]
        line = f'    "{key}": ['
        for j, item in enumerate(items):
            item += "]," if j == len(items) - 1 else ","
            if j and len(line) + 1 + len(item) > 79:
                lines.append(line)
                line = " " * 12 + item
            else:
                line += (" " if j else "") + item
        lines.append(line)
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(format_table(measure_table()))
