"""Per-layer metrics of a traced run, per party and per batch.

Batch k of a party spans (end of its append k-1, end of its append k], where
append -1 stands for the first `sample_detections` call of the session. A
layer's time in a batch is the part of its spans that falls inside that
window, so a wait that straddles a batch boundary is split between the two.
Counts are attributed to the batch in which the span ends. Spans before the
first window (set-up) and after the last append (closing tags) are left out.

Times are medians over the run's batches; counts are means per batch (they
repeat exactly for a fixed seed); ratios are ratios of run totals.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

BOTH = ("alice", "bob")
RECV = "transport.recv_exact"

# layer -> parties that call it
TIMED = {
    "cowsim.sample_detections": ("bob",),
    "sifting.resolve_collisions": ("bob",),
    "sifting.encode": ("bob",),
    "sifting.decode_and_sift": ("alice",),
    "ldpc.syndrome_batch": ("bob",),
    "ldpc.decode_batch": ("alice",),
    "verification.make_tags": ("bob",),
    "verification.verify_batch": ("alice",),
    "privamp.amplify_batch": BOTH,
    "privamp.lfsr_expand": BOTH,
    "privamp.toeplitz_hash": BOTH,
    "auth.tag": BOTH,
    "auth.verify": BOTH,
    "keypool.append": BOTH,
    "keypool.take_pad": BOTH,
    "finitekey.secret_fraction": BOTH,
}
CHANNELS = ("sifting", "syndrome", "verify", "pa_seed", "auth_tag", "control", "admin")


def _party_batches(spans, party, t0, n_batches):
    """Per-batch (wall, {layer: seconds}, {layer: [calls, work, miss]}, top-level seconds)."""
    mine = [s for s in spans if s[0] == party]
    edges = [t0] + sorted(s[4] for s in mine if s[2] == "keypool.append")  # n_batches appends
    secs = [defaultdict(float) for _ in range(n_batches)]
    counts = [defaultdict(lambda: [0, 0, 0]) for _ in range(n_batches)]
    top = [0.0] * n_batches
    for _, _, layer, start, end, depth, work, miss in mine:
        first = max(bisect.bisect_right(edges, start) - 1, 0)
        last = min(bisect.bisect_left(edges, end) - 1, n_batches - 1)
        for k in range(first, last + 1):
            overlap = min(end, edges[k + 1]) - max(start, edges[k])
            if overlap > 0:
                secs[k][layer] += overlap
                if depth == 0:
                    top[k] += overlap
        k = bisect.bisect_left(edges, end) - 1
        if 0 <= k < n_batches:
            c = counts[k][layer]
            c[0] += 1
            c[1] += work
            c[2] += miss
    walls = [edges[k + 1] - edges[k] for k in range(n_batches)]
    return walls, secs, counts, top


def layer_metrics(traced: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from traced sessions (see `measure_session`)."""
    series = defaultdict(list)  # per-batch values, pooled over sessions
    totals = defaultdict(float)  # run totals
    n_batches = 0
    for s in traced:
        nb = s["batches"]
        n_batches += nb
        for party in BOTH:
            p = party + "."
            walls, secs, counts, top = _party_batches(s["spans"], party, s["t0"], nb)
            for k in range(nb):
                for layer, who in TIMED.items():
                    if party in who:
                        series[p + layer + ".s"].append(secs[k][layer])
                wait = secs[k][RECV]
                series[p + "transport.wait_s"].append(wait)
                series[p + "session.busy_s"].append(walls[k] - wait)
                series[p + "session.self_s"].append(walls[k] - top[k])
                totals[p + "wait"] += wait
                totals[p + "wall"] += walls[k]
                for layer, (calls, work, miss) in counts[k].items():
                    totals[f"{p}{layer}.calls"] += calls
                    totals[f"{p}{layer}.work"] += work
                    totals[f"{p}{layer}.miss"] += miss
                totals[p + "secs.sample"] += secs[k]["cowsim.sample_detections"]
                totals[p + "secs.decode"] += secs[k]["ldpc.decode_batch"]
            for key, value in s["counters"][party].items():
                if key.startswith("bytes."):
                    totals[p + "transport." + key] += value
        for row in s["reports"]["alice"]["per_batch"]:
            totals["attempted"] += row["attempted_blocks"]
            totals["dropped"] += row["dropped_blocks"]

    def per_batch(key):
        return totals[key] / n_batches

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    m = {name: statistics.median(values) for name, values in series.items()}
    for party in BOTH:
        p = party + "."
        m[p + "auth.units"] = per_batch(p + "auth.tag.calls") + per_batch(p + "auth.verify.calls")
        m[p + "transport.wait_share"] = ratio(p + "wait", p + "wall")
        m[p + "transport.frames"] = per_batch(p + RECV + ".work")
        for ch in CHANNELS:
            for d in ("out", "in"):
                key = f"{p}transport.bytes.{ch}.{d}"
                m[key] = per_batch(key)
    m["bob.cowsim.qubits_per_s"] = ratio("bob.cowsim.sample_detections.work", "bob.secs.sample")
    m["bob.sifting.chunks"] = per_batch("bob.cowsim.sample_detections.calls")
    m["bob.verification.calls"] = per_batch("bob.verification.make_tags.calls")
    m["alice.sifting.chunks"] = per_batch("alice.sifting.decode_and_sift.calls")
    m["alice.ldpc.decode_batch.calls"] = per_batch("alice.ldpc.decode_batch.calls")
    m["alice.ldpc.blocks_per_call"] = ratio("alice.ldpc.decode_batch.work",
                                            "alice.ldpc.decode_batch.calls")
    m["alice.ldpc.ms_per_block"] = 1e3 * ratio("alice.secs.decode", "alice.ldpc.decode_batch.work")
    m["alice.ldpc.failed_blocks"] = per_batch("alice.ldpc.decode_batch.miss")
    m["alice.ldpc.success_ratio"] = 1.0 - ratio("dropped", "attempted")
    m["alice.verification.calls"] = per_batch("alice.verification.verify_batch.calls")
    m["alice.verification.rejected_blocks"] = per_batch("alice.verification.verify_batch.miss")
    m["trace.overhead_s"] = overhead_s
    return m
