"""cowkd benchmark: end-to-end distillation sessions, checked and timed.

    python3 perfbench/run.py --workload NAME [--seed N|HEX] [--seconds S] [--trace 0|1]

Runs sessions of the workload back to back, each in fresh processes started
from this checkout's `src/` (see `party.py`), until `--seconds` have passed.
Every session of a run uses the same session seed, so they must agree on
pool and transcript digests and on every exact count; each is checked (exit
code, equal pools, secret bits = batches x n_out, no alarms, matching
per-direction transcripts). The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}` where attempted/failed count
sessions. `--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` alternates untraced reference sessions with traced ones and
reports the per-layer metrics. Details (and, traced, every span) are written
under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import layer_metrics
from workloads import (BASELINE, DEFAULT_SEED, HELD_OUT_SEED, SESSION_TIMEOUT_S, WORKLOADS,
                       session_seed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST = "cowsim.sample_detections"


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_all(procs, timeout: float) -> str | None:
    """Wait for every child; on a failure or timeout kill the rest. Never leaves one running."""
    deadline = time.monotonic() + timeout
    try:
        while any(p.poll() is None for p in procs):
            if any(p.returncode not in (None, 0) for p in procs):
                break
            if time.monotonic() > deadline:
                return f"timed out after {timeout:.0f} s"
            time.sleep(0.02)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
        for p in procs:
            p.wait()
    codes = [p.returncode for p in procs]
    return None if all(c == 0 for c in codes) else f"exit codes {codes}"


def run_session(name: str, seed_hex: str, traced: bool, out_dir: Path, index: int) -> dict:
    """Start the session's processes, wait for them and load what they wrote."""
    workload = WORKLOADS[name]
    roles = ["loopback"] if workload.transport == "loopback" else ["bob", "alice"]
    port = _free_port() if workload.transport == "tcp" else 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    files = {r: out_dir / f"session{index}-{r}.json" for r in roles}
    procs, logs = [], []
    try:
        launch = time.perf_counter()
        for role in roles:
            log = open(out_dir / f"session{index}-{role}.log", "w")
            logs.append(log)
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "party.py"), "--workload", name,
                 "--seed", seed_hex, "--role", role, "--out", str(files[role]),
                 "--port", str(port), "--trace", str(int(traced))],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log))
        error = _wait_all(procs, SESSION_TIMEOUT_S + 10)
    finally:
        for p in procs:  # only reached with live children if Popen itself failed
            if p.poll() is None:
                p.kill()
                p.wait()
        for log in logs:
            log.close()
    session = {"index": index, "traced": traced, "launch": launch, "error": error,
               "spans": [], "reports": {}, "counters": {}, "rss_kb": []}
    for role in roles if error is None else ():
        try:
            child = json.loads(files[role].read_text())
        except (OSError, ValueError) as exc:
            session["error"] = f"{role}: unreadable result: {exc}"
            break
        session["spans"] += [tuple(s) for s in child["spans"]]
        session["reports"].update(child["reports"])
        session["counters"].update(child["counters"])
        session["rss_kb"].append(child["peak_rss_kb"])
        session["versions"] = child["versions"]
    return session


def measure_session(s: dict, batches: int) -> list[str]:
    """Check one session and add its timings and exact counts to `s`; return the problems."""
    if s["error"]:
        return [s["error"]]
    problems = []
    reports, counters = s["reports"], s["counters"]
    a, b = reports["alice"], reports["bob"]
    if a["pool_digest"] != b["pool_digest"]:
        problems.append("pool digests differ")
    if a["transcript"]["out"] != b["transcript"]["in"] or a["transcript"]["in"] != b["transcript"]["out"]:
        problems.append("per-direction transcripts differ between the parties")
    for role, r in reports.items():
        n_out = counters[role]["n_out"]
        if r["batches"] != batches or r["secret_bits"] != batches * n_out:
            problems.append(f"{role}: {r['batches']} batches, {r['secret_bits']} secret bits, "
                            f"expected {batches} x {n_out}")
        if r["alarms"] or r["exit_code"] != 0:
            problems.append(f"{role}: alarms {r['alarms']}, exit code {r['exit_code']}")
    starts = sorted(sp[3] for sp in s["spans"] if sp[2] == FIRST)
    appends = {role: sorted(sp[4] for sp in s["spans"] if sp[0] == role and sp[2] == "keypool.append")
               for role in ("alice", "bob")}
    if not starts or any(len(v) != batches for v in appends.values()):
        return problems + ["missing sampling or pool-append milestones"]
    t0 = starts[0]
    ends = [max(pair) for pair in zip(appends["alice"], appends["bob"])]
    first_batch = [sp for sp in s["spans"] if sp[2] == FIRST and sp[4] <= appends["bob"][0]]
    s.update(
        batches=batches, t0=t0,
        setup_s=t0 - s["launch"],
        batch_s=[e - p for p, e in zip([t0] + ends[:-1], ends)],
        span_s=ends[-1] - t0,
        secret_bits=b["secret_bits"],
        classical_bits=b["classical_bits_total"],
        peak_rss_mb=max(s["rss_kb"]) / 1024,
    )
    s["digests"] = {"pool": b["pool_digest"], "alice_to_bob": a["transcript"]["out"],
                    "bob_to_alice": b["transcript"]["out"]}
    counts = {
        "qubits": b["qubits"],
        "chunks": len(starts),
        "ec_windows": counters["bob"]["ec_windows"],
        "blocks_attempted": sum(r["attempted_blocks"] for r in b["per_batch"]),
        "blocks_dropped": sum(r["dropped_blocks"] for r in b["per_batch"]),
        "auth_units": b["auth_units"],
        "secret_bits_per_batch": counters["bob"]["n_out"],
        "first_batch_chunks": len(first_batch),
        "first_batch_qubits": sum(sp[6] for sp in first_batch),
    }
    counts.update({f"transport.{k}": v for k, v in counters["bob"].items() if k.startswith("bytes.")})
    s["counts"] = counts
    return problems


def _stamp(sessions) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = next((s["versions"] for s in sessions if "versions" in s), {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions}


def _spec_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", default=None,
                    help=f"integer or 64 hex digits (default {DEFAULT_SEED[:8]}...; "
                         f"held out for confirming claims: {HELD_OUT_SEED[:8]}...)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cowkd" / "__init__.py").is_file():
        print(f"perfbench: no cowkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        seed_hex = session_seed(args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = _spec_metrics("per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload]
    # the build step: byte-compile before anything is timed
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed or 'default'}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    print(f"workload {args.workload}: {workload.fibre_km:g} km, {workload.transport}, "
          f"{workload.batches} batches per session, session seed {seed_hex}, trace {args.trace}")
    sessions, failures = [], {}
    deadline = time.monotonic() + args.seconds
    while True:
        # traced runs alternate untraced reference sessions with traced ones
        s = run_session(args.workload, seed_hex, bool(args.trace) and len(sessions) % 2 == 1,
                        out_dir, len(sessions))
        sessions.append(s)
        problems = measure_session(s, workload.batches)
        ref = sessions[0]  # every earlier session passed, or the loop would have ended
        if not problems and ref is not s and (s["digests"], s["counts"]) != (ref["digests"], ref["counts"]):
            problems.append("digests or exact counts differ from session 0")
        if problems:
            failures[s["index"]] = problems
            print(f"session {s['index']}: FAILED: {'; '.join(problems)}")
            break  # a failed session may have taken its whole timeout
        print(f"session {s['index']}{' (traced)' if s['traced'] else ''}: setup "
              f"{s['setup_s']:.3f} s, batches " + " ".join(f"{d:.3f}" for d in s["batch_s"])
              + f" s, peak RSS {s['peak_rss_mb']:.1f} MB")
        if args.trace and len(sessions) < 2:
            continue
        if time.monotonic() + s["span_s"] / 2 >= deadline:
            break

    good = [s for s in sessions if s["index"] not in failures]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    checks = []
    if good:
        ref = good[0]
        print("digests " + " ".join(f"{k}={v}" for k, v in ref["digests"].items()))
        print("exact counts per session " + " ".join(f"{k}={v}" for k, v in ref["counts"].items()))
        if seed_hex == DEFAULT_SEED and args.workload == BASELINE["workload"]:
            for key, want in BASELINE.items():
                if key != "workload" and ref["counts"][key] != want:
                    checks.append(f"baseline {key}: {ref['counts'][key]} != ROADMAP {want}")
            print("baseline counts " + ("MISMATCH" if checks else "reproduced"))

    metrics: dict[str, float] = {}
    if args.trace and traced and untraced:
        traced_batch_s = statistics.median(d for s in traced for d in s["batch_s"])
        untraced_batch_s = statistics.median(d for s in untraced for d in s["batch_s"])
        print(f"batch_s traced {traced_batch_s:.4f} s, untraced {untraced_batch_s:.4f} s")
        metrics = layer_metrics(traced, traced_batch_s - untraced_batch_s)
    elif not args.trace and untraced:
        all_batches = [d for s in untraced for d in s["batch_s"]]
        print(f"{len(untraced)} sessions, {len(all_batches)} batches")
        metrics = {
            "batch_s": statistics.median(all_batches),
            "secret_bps": statistics.median(s["secret_bits"] / s["span_s"] for s in untraced),
            "setup_s": statistics.median(s["setup_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
            "wire_bits_per_secret_bit": (sum(s["classical_bits"] for s in untraced)
                                         / sum(s["secret_bits"] for s in untraced)),
        }
    attempted, failed = len(sessions), len(failures)
    if set(metrics) != set(wanted) and not failures:
        checks.append("computed metrics do not match BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(wanted))}")
    correct = not failures and not checks
    for problem in checks:
        print(f"CHECK FAILED: {problem}")

    for name, unit in wanted.items():
        if name in metrics:
            print(f"{name:<44} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_sessions':<44} {failed / attempted:>16.6g} share ({failed} of {attempted})")

    stamp = _stamp(sessions)
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    detail = {"workload": args.workload, "seed": args.seed, "session_seed": seed_hex,
              "trace": args.trace, "stamp": stamp, "metrics": metrics, "checks": checks,
              "failures": failures,
              "sessions": [{k: v for k, v in s.items() if k not in ("spans", "reports")}
                           for s in sessions]}
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1))
    if traced:
        (out_dir / "spans.json").write_text(json.dumps(
            {s["index"]: s["spans"] for s in traced}))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
