"""Benchmark workloads, seeds and the session configuration they run.

All workloads are closed loop: Bob drives and each party waits for its
peer's reply, so a slower engine simply completes fewer batches per run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Session seed used when `--seed` is omitted: the ROADMAP baseline point.
DEFAULT_SEED = "5e" * 32
# Kept out of tuning: a later claim is confirmed on this seed as well.
HELD_OUT_SEED = "c3" * 32
# Wall-clock limit of one session; both parties abort and are killed after it.
SESSION_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Workload:
    fibre_km: float
    transport: str  # "loopback": both parties as threads in one process; "tcp": two processes
    batches: int  # batches per session; a run repeats the session with the same seed


# Why each was chosen is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "lan-1km-loopback": Workload(1.0, "loopback", 3),
    "metro-25km-loopback": Workload(25.0, "loopback", 1),
    "lan-1km-tcp": Workload(1.0, "tcp", 3),
}

# Per-batch counts the ROADMAP baseline reports for lan-1km-loopback at the
# default seed; a run at that seed must reproduce them.
BASELINE = {
    "workload": "lan-1km-loopback",
    "first_batch_chunks": 34,
    "first_batch_qubits": 34 << 24,
    "secret_bits_per_batch": 99035,
}


def session_seed(text: str | None) -> str:
    """64 hex digits used as is; a decimal integer n is hashed to a seed."""
    if text is None:
        return DEFAULT_SEED
    if len(text) == 64:
        try:
            return bytes.fromhex(text).hex()
        except ValueError:
            pass
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"--seed takes 64 hex digits or an integer, not {text!r}")
    return hashlib.sha256(b"perfbench seed %d" % n).hexdigest()


def session_config(workload: Workload, seed_hex: str):
    """The `SessionConfig` both parties of one session run (imports cowkd)."""
    from cowkd.engine import SessionConfig
    from cowkd.presets import channel_params

    psk = hashlib.shake_256(b"perfbench psk" + bytes.fromhex(seed_hex)).digest(16384)
    return SessionConfig(params=channel_params(workload.fibre_km),
                         n_batches=workload.batches, seed_hex=seed_hex, psk=psk)
