"""Command-line front end: simulate sessions, sweep curves, evaluate rates.

Machine-first output: session reports as JSON, per-batch metrics and sweep
curves as CSV. Exit codes: 0 success, 2 configuration error, 3 protocol
abort, 4 authentication alarm.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import ldpc
from .auth import parse_psk
from .cowsim import ChannelParams
from .engine import (
    EXIT_CONFIG,
    EXIT_OK,
    AliceParty,
    BobParty,
    SessionAborted,
    SessionConfig,
    TcpTransport,
    parse_endpoint,
    run_session,
)
from .finitekey import (
    FiniteKeyBudget,
    PEMode,
    corrected_observables,
    secret_fraction_terms,
    secret_rate,
    sift_ratio,
)
from .presets import channel_params, measured_point, optimum
from .sifting import SiftingMode, shannon_limit, sifting_cost

PE_MODES = {"compare": PEMode.KEY_COMPARISON, "subsample": PEMode.SUBSAMPLING}
# `finite-key` options a measured point (`--fibre-km`) fixes itself
POINT_OPTIONS = ("mu", "qber_raw", "qber_effective", "visibility_raw", "dark_qber",
                 "noise_qber", "rate", "detection_rate")
TCP_TIMEOUT_S = 120.0  # `run --timeout` over tcp, unless given


def _psk_from_seed(seed_hex: str, n_bytes: int = 16384) -> bytes:
    """Deterministic simulation PSK so loopback parties agree without a file.

    For simulation only, never a deployment key: the session seed travels
    in the clear in the hello record, so anyone who reads it can derive
    this key, and two sessions from one seed reuse its pads. A deployment
    passes a `gen-psk` file on both sides.
    """
    out = bytearray()
    counter = 0
    while len(out) < n_bytes:
        out.extend(hashlib.sha256(bytes.fromhex(seed_hex) + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(out[:n_bytes])


def _read_config_file(path, parser) -> dict:
    """The JSON settings file at `path`, keyed by the argument names of the
    subcommand `parser`. A switch takes a JSON boolean; an option a string,
    converted as its flag's value would be, or a number for a typed flag."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("a config file holds one JSON object")
    actions = {action.dest: action for action in parser._actions if action.dest != "help"}
    settings = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"unknown config key {key!r}")
        kind = actions[attr].type
        if actions[attr].nargs == 0:  # a switch
            valid = isinstance(value, bool)
        elif isinstance(value, str) and kind is not None:
            try:
                value, valid = kind(value), True
            except ValueError:
                valid = False
        else:
            valid = isinstance(value, str) or (kind is not None and type(value) in (int, float))
        if not valid:
            raise ValueError(f"config key {key!r}: invalid value {value!r}")
        settings[attr] = value
    return settings


def _flags(dests) -> str:
    return ", ".join("--" + dest.replace("_", "-") for dest in sorted(dests))


def _refuse(args, dests, reason: str):
    """Refuse the options among `dests` that are set, by flag or by config
    file; an option is set when its value is not None."""
    given = [dest for dest in dests if getattr(args, dest) is not None]
    if given:
        raise SessionAborted(f"{reason} {_flags(given)}", EXIT_CONFIG)


def _build_config(args, fibre_km: float | None) -> SessionConfig:
    """The session the parsed options describe, `fibre_km` (if given) replacing
    the channel's fibre length; an option left unset keeps `SessionConfig`'s
    default, and any bad value is a configuration error."""
    try:
        if args.channel_config is not None:
            params = ChannelParams.load(args.channel_config)
            if fibre_km is not None:
                params = params.with_(fibre_km=fibre_km)
        else:
            params = channel_params(1.0 if fibre_km is None else fibre_km)
        fields = dict(code_rate=args.rate, sift_bits=args.sift_bits, n_batches=args.batches,
                      blocks_per_batch=args.blocks_per_batch, chunk_qubits=args.chunk_qubits)
        if args.compression not in (None, "auto"):
            fields["compression"] = float(args.compression) / 100
        if args.no_security_check:
            fields["enforce_compression_bound"] = False
        seed_hex = os.urandom(32).hex() if args.seed is None else args.seed
        psk = _psk_from_seed(seed_hex) if args.psk is None else Path(args.psk).read_bytes()
        fields = {name: value for name, value in fields.items() if value is not None}
        return SessionConfig(params=params, seed_hex=seed_hex, psk=psk, **fields)
    except (TypeError, ValueError, OSError) as exc:  # OSError: unreadable file
        raise SessionAborted(str(exc), EXIT_CONFIG) from exc


BATCH_COLUMNS = ("batch", "qber_raw", "qber_effective", "visibility_raw",
                 "visibility_corrected", "f_sec_measured", "compression",
                 "n_out_bits", "attempted_blocks", "dropped_blocks", "monitor_clicks")
FIBRE_SWEEP_COLUMNS = ("fibre_km", "sifted_rate_bps", "secret_rate_bps",
                       "authenticated_rate_bps", "qber_raw", "qber_effective",
                       "visibility_raw", "compression", "classical_bits_per_secret_bit")


def _write_report(out_dir: Path, report: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    role = report["role"]
    with open(out_dir / f"report_{role}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    with open(out_dir / f"batches_{role}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BATCH_COLUMNS)
        w.writerows([row[c] for c in BATCH_COLUMNS] for row in report["per_batch"])


def _print_summary(report: dict):
    print(f"--- session summary ({report['role']}) ---")
    print(f"batches               {report['batches']}")
    print(f"sifted rate     [bps] {report['sifted_rate_bps']:.3e}")
    print(f"secret rate     [bps] {report['secret_rate_bps']:.3e}")
    print(f"authenticated   [bps] {report['authenticated_rate_bps']:.3e}")
    print(f"QBER raw/effective    {100 * report['qber_raw']:.2f} % / "
          f"{100 * report['qber_effective']:.2f} %")
    print(f"raw visibility        {100 * report['visibility_raw']:.2f} %")
    print(f"compression           {100 * report['compression']:.2f} %")
    print(f"classical bits/secret {report['classical_bits_per_secret_bit']:.1f}")
    shares = report["traffic_breakdown"]["shares"]
    if shares:
        print("traffic shares        "
              + "  ".join(f"{k}={100 * v:.2f}%" for k, v in shares.items()))
    if report["alarms"]:
        print("ALARMS:", "; ".join(report["alarms"]))


def _run_loopback(config: SessionConfig, out_dir: Path) -> dict:
    """Run both parties in this process, write both reports; Bob's report."""
    report_a, report_b = run_session(config)
    _write_report(out_dir, report_a)
    _write_report(out_dir, report_b)
    if report_a["pool_digest"] != report_b["pool_digest"]:
        raise SessionAborted("pool mismatch between the parties")
    return report_b


def _run_tcp(args) -> dict:
    """Run this process's party of a `tcp:host:port` session; its report."""
    config = _build_config(args, args.fibre_km)
    if args.role not in ("alice", "bob"):
        raise SessionAborted(f"tcp transport requires --role alice or bob, not {args.role}",
                             EXIT_CONFIG)
    try:
        host, port = parse_endpoint(args.transport.removeprefix("tcp:"))
    except ValueError as exc:
        raise SessionAborted(str(exc), EXIT_CONFIG) from exc
    timeout = TCP_TIMEOUT_S if args.timeout is None else args.timeout
    try:
        if args.role == "bob":
            transport = TcpTransport.listen_accept(host, port, timeout=timeout)
        else:  # retry until Bob listens, for up to the timeout
            transport = TcpTransport.connect(host, port, timeout=timeout,
                                             retries=max(1, int(timeout / 0.1)))
    except OSError as exc:  # refused, unreachable or timed out
        raise SessionAborted(f"no connection to {host}:{port}: {exc}") from exc
    report = (BobParty if args.role == "bob" else AliceParty)(config, transport).run()
    _write_report(Path(args.out), report)
    return report


def cmd_run(args) -> int:
    if args.transport == "loopback":
        _refuse(args, ("role", "timeout"), "only a tcp run reads")
        report = _run_loopback(_build_config(args, args.fibre_km), Path(args.out))
    else:
        report = _run_tcp(args)
    _print_summary(report)
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    if not text.strip():
        return []
    if ":" in text:  # geometric grid lo:hi:n
        lo, hi, n = text.split(":")
        return list(np.geomspace(float(lo), float(hi), int(n)))
    return [float(v) for v in text.split(",")]


def _sift_cost_row(p: float) -> list:
    c6 = sifting_cost(p, SiftingMode(6))
    c14 = sifting_cost(p, SiftingMode(14))
    sh = shannon_limit(p)
    best = min(c6, c14)
    return [p, c6, c14, best, sh, best / sh if sh else ""]


def cmd_sweep(args) -> int:
    if args.param == "sift-p":
        _refuse(args, args.session_options,
                "sweep --param sift-p reads only --values, --out and --config, not")
    try:
        values = _parse_values(args.values)
        sift_rows = [_sift_cost_row(p) for p in values] if args.param == "sift-p" else []
    except ValueError as exc:  # a detection probability outside (0, 1] too
        print(f"bad sweep range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # every distance's session is checked before anything is written
    configs = [_build_config(args, km) for km in values] if args.param == "fibre-km" else []
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.param == "sift-p":
        path = out_dir / "sift_cost.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p_detect", "cost_6bit", "cost_14bit", "best_cost",
                        "shannon_limit", "best_over_shannon"])
            w.writerows(sift_rows)
        print(f"wrote {path}")
        return EXIT_OK

    # --param is fibre-km, the only other choice
    rows = [{**_run_loopback(config, out_dir / f"run_{km:g}km"), "fibre_km": km}
            for km, config in zip(values, configs)]
    path = out_dir / "fibre_sweep.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, FIBRE_SWEEP_COLUMNS, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_finite_key(args) -> int:
    budget = FiniteKeyBudget.reference()
    if not 0 <= args.auth_fraction <= 1:
        raise SessionAborted(f"--auth-fraction {args.auth_fraction:g} outside [0, 1]", EXIT_CONFIG)
    try:
        if args.fibre_km is not None:
            _refuse(args, POINT_OPTIONS, "a measured point fixes its own")
            point = measured_point(args.fibre_km)
            obs = point.observables(pe_mode=PE_MODES[args.pe_mode])
            r_det = point.sifted_rate / sift_ratio(obs.p_decoy)
        else:
            required = ("mu", "qber_raw", "qber_effective", "visibility_raw")
            missing = [dest for dest in required if getattr(args, dest) is None]
            if missing:
                raise SessionAborted(f"missing observables: {_flags(missing)}", EXIT_CONFIG)
            if not 0 < args.mu < 1:
                raise SessionAborted(f"--mu {args.mu:g} outside (0, 1)", EXIT_CONFIG)
            r_det = 1.0 if args.detection_rate is None else args.detection_rate
            if not r_det >= 0:
                raise SessionAborted(f"--detection-rate {r_det:g} below 0", EXIT_CONFIG)
            obs = corrected_observables(
                qber_raw=args.qber_raw, qber_effective=args.qber_effective,
                visibility_raw=args.visibility_raw, dark_qber=args.dark_qber or 0.0,
                noise_qber=args.noise_qber or 0.0, mu=args.mu,
                code_rate=float(ldpc.as_rate(args.rate or SessionConfig.code_rate)),
                pe_mode=PE_MODES[args.pe_mode],
            )
    except ValueError as exc:  # no measured point there, or an observable out of range
        raise SessionAborted(str(exc), EXIT_CONFIG) from exc
    terms = secret_fraction_terms(obs, budget, asymptotic=args.asymptotic)
    r_sec = secret_rate(r_det, obs.p_decoy, obs.pe_mode, terms["f_sec"],
                        args.auth_fraction)
    out = {
        "f_sec": terms["f_sec"],
        "r_sec_bps": r_sec,
        "terms": {k: (None if v == float("inf") else v) for k, v in terms.items()},
        "budget": {
            "eps_pe_v": budget.eps_pe_v, "eps_smooth": budget.eps_smooth,
            "eps_pa": budget.eps_pa, "eps_ver": budget.eps_ver,
            "eps_mac": budget.eps_mac, "eps_qkd": budget.eps_qkd,
        },
        "observables": {
            "qber_raw": obs.qber_raw, "qber_effective": obs.qber_effective,
            "qber_corrected": obs.qber_corrected,
            "visibility_raw": obs.visibility_raw,
            "visibility_corrected": obs.visibility_corrected,
            "mu": obs.mu, "code_rate": obs.code_rate, "pe_mode": obs.pe_mode,
        },
        "asymptotic": args.asymptotic,
    }
    if args.fibre_km is not None:
        best = optimum(channel_params(args.fibre_km))
        out["optimum"] = {"mu": best.mu, "code_rate": best.code_rate,
                          "compression": best.compression, "r_sec_bps": best.r_sec}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_gen_psk(args) -> int:
    data = os.urandom(max(args.bytes, 0))
    try:
        parse_psk(data)  # a key too short for `run` is refused here
    except ValueError as exc:
        raise SessionAborted(str(exc), EXIT_CONFIG) from exc
    Path(args.path).write_bytes(data)
    print(f"wrote {args.bytes} bytes to {args.path}")
    return EXIT_OK


def _add_session_args(p) -> list[str]:
    """Options of a loopback session, shared by `run` and `sweep`; the
    destinations of those that describe the session. These carry no default:
    `SessionConfig`'s are the only ones."""
    session = [
        p.add_argument("--rate", help=f"LDPC code rate, one of {', '.join(map(str, ldpc.RATES))}"),
        p.add_argument("--sift-bits", type=int, help="sifting time-field width"),
        p.add_argument("--compression", help="percent (e.g. 11.5) or 'auto'"),
        p.add_argument("--batches", type=int),
        p.add_argument("--blocks-per-batch", type=int),
        p.add_argument("--chunk-qubits", type=int),
        p.add_argument("--seed", help="hex256 for deterministic runs"),
        p.add_argument("--psk", help="pre-shared key file"),
        p.add_argument("--no-security-check", action="store_true", default=None,
                       help="skip the per-batch compression bound (test runs)"),
        p.add_argument("--channel-config",
                       help="JSON channel parameter file overriding the preset"),
    ]
    p.add_argument("--out", default="out")
    p.add_argument("--config", help="JSON file with run settings (explicit flags win)")
    return [action.dest for action in session]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cowkd",
        description="coherent one-way QKD distillation engine and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a distillation session")
    p_run.add_argument("--fibre-km", type=float, default=None,
                       help="fibre length (default: --channel-config's, or 1 km)")
    p_run.add_argument("--transport", default="loopback",
                       help="'loopback' or 'tcp:host:port'")
    p_run.add_argument("--role", default=None, help="alice or bob, over tcp only")
    p_run.add_argument("--timeout", type=float, default=None,
                       help=f"seconds, over tcp only (default {TCP_TIMEOUT_S:g})")
    _add_session_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter and emit a CSV curve")
    p_sweep.add_argument("--param", required=True, choices=["fibre-km", "sift-p"])
    p_sweep.add_argument("--values", required=True,
                         help="comma list or lo:hi:n geometric grid")
    p_sweep.set_defaults(func=cmd_sweep, session_options=_add_session_args(p_sweep))

    p_fk = sub.add_parser("finite-key", help="evaluate the finite-key secret fraction")
    p_fk.add_argument("--fibre-km", type=float, default=None,
                      help="use a measured preset's observables")
    p_fk.add_argument("--mu", type=float, default=None)
    p_fk.add_argument("--qber-raw", dest="qber_raw", type=float, default=None)
    p_fk.add_argument("--qber-effective", dest="qber_effective", type=float, default=None)
    p_fk.add_argument("--visibility-raw", dest="visibility_raw", type=float, default=None)
    p_fk.add_argument("--dark-qber", dest="dark_qber", type=float, help="default 0")
    p_fk.add_argument("--noise-qber", dest="noise_qber", type=float, help="default 0")
    p_fk.add_argument("--rate", help=f"default {SessionConfig.code_rate}")
    p_fk.add_argument("--pe-mode", default="compare", choices=list(PE_MODES))
    p_fk.add_argument("--detection-rate", type=float,
                      help="detections per second feeding the rate output (default 1)")
    p_fk.add_argument("--auth-fraction", type=float, default=0.0)
    p_fk.add_argument("--asymptotic", action="store_true")
    p_fk.set_defaults(func=cmd_finite_key)

    p_psk = sub.add_parser("gen-psk", help="write a random pre-shared key file")
    p_psk.add_argument("path")
    p_psk.add_argument("--bytes", type=int, default=16384)
    p_psk.set_defaults(func=cmd_gen_psk)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            command = sub.choices[args.command]
            try:
                # the file's values become the defaults, so every flag
                # argparse parses from argv wins, however it is spelled
                command.set_defaults(**_read_config_file(args.config, command))
            except (OSError, ValueError) as exc:
                raise SessionAborted(str(exc), EXIT_CONFIG) from exc
            args = parser.parse_args(argv)
        return args.func(args)
    except SessionAborted as exc:  # one line for a session that ends early
        kind = "configuration error" if exc.exit_code == EXIT_CONFIG else "session aborted"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
