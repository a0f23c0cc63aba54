"""Child process of the benchmark: one cowkd session, or one party of it.

    python3 perfbench/party.py --workload NAME --seed HEX --role ROLE
        --out FILE [--port N] [--trace 0|1]

ROLE `loopback` runs both parties through `run_session`; `bob` listens and
`alice` connects on 127.0.0.1:PORT through `TcpTransport`. The wrappers of
`tracer.Recorder` are installed before the session starts and removed after
it. On success the process writes FILE (reports, end-of-run counters, spans,
peak RSS, versions) and exits 0; on a protocol abort it exits with the
session's exit code, on any other error with 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Recorder  # noqa: E402
from workloads import SESSION_TIMEOUT_S, WORKLOADS, session_config  # noqa: E402

HOST = "127.0.0.1"


def _run(role: str, config, port: int) -> dict:
    from cowkd.engine import AliceParty, BobParty, TcpTransport, run_session

    if role == "loopback":
        alice, bob = run_session(config, timeout=SESSION_TIMEOUT_S)
        return {"alice": alice, "bob": bob}
    if role == "bob":
        transport = TcpTransport.listen_accept(HOST, port, SESSION_TIMEOUT_S)
        return {"bob": BobParty(config, transport).run()}
    transport = TcpTransport.connect(HOST, port, SESSION_TIMEOUT_S,
                                     retries=int(SESSION_TIMEOUT_S / 0.005), retry_delay=0.005)
    return {"alice": AliceParty(config, transport).run()}


def _counters(party) -> dict:
    """End-of-run counters the reports do not carry."""
    from cowkd.engine import CHANNEL_NAMES

    ep = party.ep
    out = {"n_out": party.n_out, "ec_windows": getattr(party, "window", None)}
    for cid, name in CHANNEL_NAMES.items():
        out[f"bytes.{name}.out"] = ep.bytes_out[cid]
        out[f"bytes.{name}.in"] = ep.bytes_in[cid]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--role", required=True, choices=["loopback", "alice", "bob"])
    ap.add_argument("--out", required=True)
    ap.add_argument("--port", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    from cowkd.engine import SessionAborted

    with Recorder(traced=bool(args.trace)) as rec:
        config = session_config(WORKLOADS[args.workload], args.seed)
        try:
            reports = _run(args.role, config, args.port)
        except SessionAborted as exc:
            print(f"session aborted: {exc}", file=sys.stderr)
            return exc.exit_code

    import cryptography
    import numpy

    result = {
        "role": args.role,
        "reports": reports,
        "counters": {role: _counters(party) for role, party in rec.parties.items()},
        "spans": rec.spans,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "cryptography": cryptography.__version__},
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
