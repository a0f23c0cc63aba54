import csv
import json
import re
import socket
import subprocess
import sys

import pytest

from cowkd.auth import PSK_MIN_BYTES
from cowkd.cli import main

SEED = "cd" * 32


def run_args(tmp_path, *extra):
    return ["run", "--fibre-km", "1", "--batches", "1",
            "--blocks-per-batch", "4", "--chunk-qubits", str(1 << 21),
            "--seed", SEED, "--compression", "11.5", "--no-security-check",
            "--out", str(tmp_path), *extra]


def test_run_loopback_writes_reports(tmp_path, capsys):
    assert main(run_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "session summary" in out
    for role in ("alice", "bob"):
        report = json.loads((tmp_path / f"report_{role}.json").read_text())
        assert report["secret_bits"] > 0
        rows = list(csv.DictReader(open(tmp_path / f"batches_{role}.csv")))
        assert len(rows) == report["batches"]
        assert float(rows[0]["qber_raw"]) < 0.05
    ra = json.loads((tmp_path / "report_alice.json").read_text())
    rb = json.loads((tmp_path / "report_bob.json").read_text())
    assert ra["pool_digest"] == rb["pool_digest"]


def test_run_is_deterministic_under_fixed_seed(tmp_path, capsys):
    assert main(run_args(tmp_path / "a")) == 0
    assert main(run_args(tmp_path / "b")) == 0
    capsys.readouterr()
    ra = json.loads((tmp_path / "a/report_bob.json").read_text())
    rb = json.loads((tmp_path / "b/report_bob.json").read_text())
    assert ra["transcript"] == rb["transcript"]
    assert ra["pool_digest"] == rb["pool_digest"]


def test_run_rejects_bad_config(tmp_path, capsys):
    code = main(["run", "--compression", "banana", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    # session sizes below one end before any qubit, each in one line: a zero
    # chunk used to hang, the others to end in a traceback or in exit 0
    for flags in (["--blocks-per-batch", "0"],
                  ["--compression", "11.5", "--blocks-per-batch", "-3"],
                  ["--compression", "11.5", "--blocks-per-batch", "4", "--batches", "0"],
                  ["--compression", "11.5", "--blocks-per-batch", "4", "--chunk-qubits", "-5"],
                  ["--compression", "11.5", "--blocks-per-batch", "4", "--chunk-qubits", "0"]):
        code = main(["run", *flags, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, flags
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err


def test_finite_key_preset_outputs_budget(capsys):
    assert main(["finite-key", "--fibre-km", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["budget"]["eps_qkd"] == pytest.approx(4e-9, rel=1e-12)
    assert abs(out["f_sec"] - 0.115) < 0.03


def test_finite_key_asymptotic_dominates(capsys):
    assert main(["finite-key", "--fibre-km", "1"]) == 0
    finite = json.loads(capsys.readouterr().out)
    assert main(["finite-key", "--fibre-km", "1", "--asymptotic"]) == 0
    asym = json.loads(capsys.readouterr().out)
    assert asym["f_sec"] > finite["f_sec"]


def test_finite_key_explicit_observables(capsys):
    args = ["finite-key", "--mu", "0.105", "--qber-raw", "0.0191",
            "--qber-effective", "0.0342", "--visibility-raw", "0.9781",
            "--dark-qber", "0.0085", "--noise-qber", "0.0019"]
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["f_sec"] - 0.065) < 0.03


@pytest.mark.parametrize("km, mu", [("1", 0.075), ("12.5", 0.085), ("25", 0.1)])
def test_finite_key_preset_prints_the_optimum(km, mu, capsys):
    assert main(["finite-key", "--fibre-km", km]) == 0
    best = json.loads(capsys.readouterr().out)["optimum"]
    assert (best["code_rate"], best["mu"]) == (0.75, mu)
    assert 0 < best["compression"] and 0 < best["r_sec_bps"]


def test_finite_key_explicit_observables_print_no_optimum(capsys):
    assert main(["finite-key", "--mu", "0.105", "--qber-raw", "0.0191",
                 "--qber-effective", "0.0342", "--visibility-raw", "0.9781"]) == 0
    assert "optimum" not in json.loads(capsys.readouterr().out)


def test_finite_key_missing_observables_is_config_error(capsys):
    assert main(["finite-key", "--mu", "0.1"]) == 2


def test_sweep_sift_cost_round_trips(tmp_path, capsys):
    assert main(["sweep", "--param", "sift-p", "--values", "1e-4:1e-1:10",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(tmp_path / "sift_cost.csv")))
    assert len(rows) == 10
    for row in rows:
        assert float(row["best_cost"]) <= 2 * float(row["shannon_limit"])


def test_sweep_empty_range_header_only(tmp_path, capsys):
    code = main(["sweep", "--param", "sift-p", "--values", "", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "sift_cost.csv").read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("p_detect")
    code = main(["sweep", "--param", "sift-p", "--values", "not-a-number",
                 "--out", str(tmp_path)])
    assert code == 2


def test_gen_psk(tmp_path, capsys):
    path = tmp_path / "psk.bin"
    assert main(["gen-psk", str(path), "--bytes", "2048"]) == 0
    assert path.stat().st_size == 2048


def test_run_with_a_psk_too_short_for_the_first_batch_exits_3(tmp_path, capsys):
    # the shortest valid key holds 64 pads, enough for a full-size first
    # batch; a 1,024-block batch at 1 km needs more before its pool holds key
    path = tmp_path / "psk.bin"
    assert main(["gen-psk", str(path), "--bytes", str(PSK_MIN_BYTES)]) == 0
    capsys.readouterr()
    code = main(["run", "--psk", str(path), "--batches", "1", "--blocks-per-batch", "1024",
                 "--seed", SEED, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("session aborted: "), err


@pytest.mark.slow
def test_console_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cowkd.cli", "finite-key", "--fibre-km", "25"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert abs(out["f_sec"] - 0.065) < 0.03


@pytest.mark.slow
def test_sweep_fibre_authenticated_rate_decreasing(tmp_path, capsys):
    args = ["sweep", "--param", "fibre-km", "--values", "1,5,12.5,20,25",
            "--batches", "1", "--blocks-per-batch", "16",
            "--chunk-qubits", str(1 << 19), "--seed", SEED,
            "--compression", "8", "--no-security-check",
            "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(tmp_path / "fibre_sweep.csv")))
    assert len(rows) == 5
    rates = [float(r["authenticated_rate_bps"]) for r in rows]
    assert all(a > b for a, b in zip(rates, rates[1:])), rates


def test_run_with_config_files(tmp_path, capsys):
    from cowkd.presets import channel_params

    chan = tmp_path / "channel.json"
    chan.write_text(channel_params(1.0).to_json())
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"batches": 1, "blocks-per-batch": 4,
                               "chunk-qubits": 1 << 21,
                               "compression": "11.5",
                               "no_security_check": True}))
    code = main(["run", "--seed", SEED, "--config", str(cfg),
                 "--channel-config", str(chan), "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o/report_bob.json").read_text())
    assert report["batches"] == 1
    capsys.readouterr()


def test_run_flags_win_over_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"batches": 7}))
    args = run_args(tmp_path / "o")
    args[args.index("--batches") + 1] = "2"
    assert main([*args, "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "o/report_bob.json").read_text())
    assert report["batches"] == 2


@pytest.mark.parametrize("spelling", [["--batches", "2"], ["--batches=2"], ["--batch", "2"]],
                         ids=["separate value", "equals sign", "unique prefix"])
def test_run_flag_wins_over_config_file_however_spelled(spelling, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"batches": 7}))
    args = run_args(tmp_path / "o")
    at = args.index("--batches")
    del args[at : at + 2]
    assert main([*args, *spelling, "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "o/report_bob.json").read_text())
    assert report["batches"] == 2


def _channel_json_with_unknown_key(tmp_path):
    from cowkd.presets import channel_params

    data = json.loads(channel_params(1.0).to_json())
    data["no_such_parameter"] = 1
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(data))
    return path


def _channel_json_list(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text("[1]")
    return path


def _psk_one_byte_short(tmp_path):
    path = tmp_path / "short.psk"
    path.write_bytes(bytes(PSK_MIN_BYTES - 1))
    return path


def _run_config(tmp_path, settings):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings))
    return path


@pytest.mark.parametrize("flag, make_file", [
    ("--psk", lambda tmp_path: tmp_path / "missing.psk"),
    ("--channel-config", lambda tmp_path: tmp_path / "missing.json"),
    ("--channel-config", _channel_json_with_unknown_key),
    ("--channel-config", _channel_json_list),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"func": 1})),
    ("--psk", _psk_one_byte_short),
    ("--compression", lambda tmp_path: "150"),  # percent, so a ratio of 1.5
    # a flag and a config value meet one check, in SessionConfig; the config
    # values, the short seed and the negative fibre used to get past it
    ("--rate", lambda tmp_path: "7/8"),
    ("--sift-bits", lambda tmp_path: "7"),
    ("--seed", lambda tmp_path: "abcd"),  # the last --seed wins
    ("--config", lambda tmp_path: _run_config(tmp_path, {"rate": "7/8"})),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"sift_bits": 7})),
    ("--fibre-km", lambda tmp_path: "-5"),
    # a config value argparse cannot convert used to end in its usage text
    ("--config", lambda tmp_path: _run_config(tmp_path, {"batches": "x"})),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"fibre_km": "far"})),
    # a switch read any non-empty string as on, "no" too; a number for the
    # output directory ended in a traceback
    ("--config", lambda tmp_path: _run_config(tmp_path, {"no_security_check": "no"})),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"out": 5})),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"out": None})),
    # options that mean something only over tcp used to pass unread
    ("--role", lambda tmp_path: "carol"),
    ("--timeout", lambda tmp_path: "0.001"),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"role": "alice"})),
    ("--config", lambda tmp_path: _run_config(tmp_path, {"timeout": 5})),
], ids=["missing psk file", "missing channel file", "unknown channel key", "channel list",
        "non-flag config key", "psk too short", "compression over 100 percent", "rate flag",
        "sift-bits flag", "short seed", "rate in config", "sift bits in config",
        "negative fibre", "batches not a number in config", "fibre not a number in config",
        "switch not a boolean in config", "directory not a string in config",
        "directory null in config",
        "role on loopback", "timeout on loopback", "role in config on loopback",
        "timeout in config on loopback"])
def test_bad_input_file_is_one_line_config_error(flag, make_file, tmp_path, capsys):
    code = main(run_args(tmp_path / "o", flag, str(make_file(tmp_path))))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("role", ["alice", "bob"])
def test_tcp_run_without_peer_exits_3_with_one_line(role, tmp_path, capsys):
    # alice finds no listener; bob's accept times out
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    code = main(run_args(tmp_path, "--transport", f"tcp:127.0.0.1:{port}",
                         "--role", role, "--timeout", "0.3"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("session aborted: no connection to") and err.count("\n") == 1


# CLI-only values end before any connection: a malformed endpoint used to be
# a traceback, a config file's unknown role ran as Alice
@pytest.mark.parametrize("extra", [
    lambda tmp_path, port: ["--transport", "bogus"],
    lambda tmp_path, port: ["--transport", "tcp:127.0.0.1:notaport"],
    lambda tmp_path, port: ["--transport", "tcp:127.0.0.1:65536", "--role", "bob"],
    lambda tmp_path, port: ["--transport", f"tcp:127.0.0.1:{port}"],
    lambda tmp_path, port: ["--transport", f"tcp:127.0.0.1:{port}",
                            "--config", str(_run_config(tmp_path, {"role": "carol"}))],
], ids=["bogus transport", "port not a number", "port out of range", "no role",
        "role from config file"])
def test_bad_tcp_option_is_one_line_config_error(extra, tmp_path, capsys):
    with socket.socket() as listener:  # a peer that must never be contacted
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(0)
        port = listener.getsockname()[1]
        code = main(run_args(tmp_path / "o", "--timeout", "0.3", *extra(tmp_path, port)))
        with pytest.raises(BlockingIOError):
            listener.accept()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("role", ["alice", "bob"])
def test_tcp_timeout_defaults_to_120_seconds(role, tmp_path, capsys, monkeypatch):
    from cowkd import cli

    waits = []

    def no_peer(*args, timeout, **kwargs):
        waits.append(timeout)
        raise OSError("no peer")

    monkeypatch.setattr(cli.TcpTransport, "connect", no_peer)
    monkeypatch.setattr(cli.TcpTransport, "listen_accept", no_peer)
    code = main(run_args(tmp_path, "--transport", "tcp:127.0.0.1:9", "--role", role))
    capsys.readouterr()
    assert code == 3 and waits == [120.0]


@pytest.mark.parametrize("values", ["2", "0.5,-1", "0"])
def test_sift_sweep_outside_unit_interval_is_one_line(values, tmp_path, capsys):
    code = main(["sweep", "--param", "sift-p", "--values", values, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("bad sweep range: ") and err.count("\n") == 1, err
    assert not (tmp_path / "sift_cost.csv").exists()


# the sift-cost sweep runs no session: every session option used to pass
# unread, by flag or by config file, and the CSV was written
@pytest.mark.parametrize("extra", [
    lambda tmp_path: ["--rate", "9/9"],
    lambda tmp_path: ["--rate", "3/4"],  # the default, given explicitly
    lambda tmp_path: ["--sift-bits", "6"],
    lambda tmp_path: ["--compression", "auto"],
    lambda tmp_path: ["--batches", "7"],
    lambda tmp_path: ["--blocks-per-batch", "4"],
    lambda tmp_path: ["--chunk-qubits", "1024"],
    lambda tmp_path: ["--seed", "zz"],
    lambda tmp_path: ["--psk", "/nonexistent"],
    lambda tmp_path: ["--no-security-check"],
    lambda tmp_path: ["--channel-config", "/nonexistent.json"],
    lambda tmp_path: ["--config", str(_run_config(tmp_path, {"batches": 2}))],
    lambda tmp_path: ["--config", str(_run_config(tmp_path, {"no_security_check": False}))],
], ids=["rate", "default rate", "sift-bits", "compression", "batches", "blocks-per-batch",
        "chunk-qubits", "seed", "psk", "no-security-check", "channel-config",
        "batches in config", "switch in config"])
def test_sift_sweep_refuses_the_session_options_it_never_reads(extra, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sweep", "--param", "sift-p", "--values", "0.01", "--out", str(out),
                 *extra(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert not (out / "sift_cost.csv").exists()


def test_sift_sweep_reads_out_from_its_config_file(tmp_path, capsys):
    config = _run_config(tmp_path, {"out": str(tmp_path / "o")})
    assert main(["sweep", "--param", "sift-p", "--values", "0.01", "--config", str(config)]) == 0
    capsys.readouterr()
    assert (tmp_path / "o" / "sift_cost.csv").exists()


OBSERVED = ["--mu", "0.105", "--qber-raw", "0.0191", "--qber-effective", "0.0342",
            "--visibility-raw", "0.9781"]


# a measured point used to ignore explicit observables, a rate or detection
# rate, and every value outside its range passed into the output
@pytest.mark.parametrize("args", [
    ["--fibre-km", "1", "--mu", "0.5"],
    ["--fibre-km", "1", "--qber-raw", "0.3"],
    ["--fibre-km", "1", "--qber-effective", "0.3"],
    ["--fibre-km", "1", "--visibility-raw", "0.5"],
    ["--fibre-km", "1", "--dark-qber", "0.01"],
    ["--fibre-km", "1", "--noise-qber", "0.01"],
    ["--fibre-km", "1", "--rate", "1/2"],
    ["--fibre-km", "1", "--detection-rate", "5"],
    ["--fibre-km", "1", "--mu", "0.5", "--rate", "1/2", "--detection-rate", "5",
     "--qber-raw", "0.3"],
    ["--fibre-km", "1", "--auth-fraction", "2"],
    ["--fibre-km", "1", "--auth-fraction", "-0.1"],
    [*OBSERVED, "--auth-fraction", "1.5"],
    [*OBSERVED, "--detection-rate", "-1"],
    [*OBSERVED[2:], "--mu", "1.5"],
    [*OBSERVED[2:], "--mu", "1"],
], ids=["mu at a point", "qber-raw at a point", "qber-effective at a point",
        "visibility-raw at a point", "dark-qber at a point", "noise-qber at a point",
        "rate at a point", "detection-rate at a point", "four at a point",
        "auth-fraction over 1", "auth-fraction below 0", "explicit auth-fraction over 1",
        "negative detection rate", "mu over 1", "mu of 1"])
def test_finite_key_refuses_a_value_it_would_not_read(args, capsys):
    code = main(["finite-key", *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("n_bytes", [PSK_MIN_BYTES - 1, 10, 0, -3])
def test_gen_psk_refuses_a_key_run_would_refuse(n_bytes, tmp_path, capsys):
    path = tmp_path / "psk.bin"
    code = main(["gen-psk", str(path), "--bytes", str(n_bytes)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert not path.exists()


def _options(capsys, command) -> set[str]:
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return set(re.findall(r"^\s+(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)) - {"--help"}


def test_sweep_registers_only_the_options_it_reads(capsys):
    run, sweep = _options(capsys, "run"), _options(capsys, "sweep")
    assert len(run) == 16 and len(sweep) == 14
    assert len(_options(capsys, "finite-key")) == 12
    assert run - sweep == {"--fibre-km", "--transport", "--role", "--timeout"}
    for flag, value in [("--fibre-km", "5"), ("--transport", "loopback"),
                        ("--role", "alice"), ("--timeout", "1")]:
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "fibre-km", "--values", "1", flag, value])
        assert exc.value.code == 2
    capsys.readouterr()


def test_sweep_config_file_naming_a_run_only_option_is_refused(tmp_path, capsys):
    code = main(["sweep", "--param", "fibre-km", "--values", "1", "--out", str(tmp_path),
                 "--config", str(_run_config(tmp_path, {"transport": "loopback"}))])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("configuration error: unknown config key"), err


def test_fibre_sweep_over_a_channel_file_varies_the_distance(tmp_path, capsys):
    # the file's 1 km channel used to be run at every distance: equal rows
    from cowkd.presets import channel_params

    chan = tmp_path / "channel.json"
    chan.write_text(channel_params(1.0).to_json())
    code = main(["sweep", "--param", "fibre-km", "--values", "1,25",
                 "--channel-config", str(chan), "--batches", "1", "--blocks-per-batch", "4",
                 "--chunk-qubits", str(1 << 20), "--seed", "5e" * 32,
                 "--compression", "11.5", "--no-security-check", "--out", str(tmp_path / "o")])
    assert code == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(tmp_path / "o/fibre_sweep.csv")))
    assert [float(r["fibre_km"]) for r in rows] == [1.0, 25.0]
    near, far = (float(r["sifted_rate_bps"]) for r in rows)
    assert (round(near), round(far)) == (1085281, 364368)
    for km in ("1", "25"):  # each distance is a loopback run with both reports
        for role in ("alice", "bob"):
            report = json.loads((tmp_path / f"o/run_{km}km/report_{role}.json").read_text())
            assert report["sifted_rate_bps"] == float(rows[km == "25"]["sifted_rate_bps"])


def test_run_fibre_km_replaces_a_channel_files_length(tmp_path, capsys):
    from cowkd.presets import channel_params

    chan = tmp_path / "channel.json"
    chan.write_text(channel_params(1.0).to_json())
    rates = []
    for extra in ([], ["--fibre-km", "1"], ["--fibre-km", "25"]):
        out = tmp_path / str(len(rates))
        args = run_args(out, "--channel-config", str(chan), *extra)
        del args[1:3]  # run_args' own --fibre-km
        assert main(args) == 0
        rates.append(json.loads((out / "report_bob.json").read_text())["sifted_rate_bps"])
    capsys.readouterr()
    assert rates[0] == rates[1] > 2 * rates[2]


def test_finite_key_without_a_measured_point_there_is_one_config_line(capsys):
    # the preset lookup's KeyError used to print in quotes after "bad observables:"
    code = main(["finite-key", "--fibre-km", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("configuration error: no measured preset at 2.0 km; "
                            "have [1.0, 12.5, 25.0]\n")


SMALL_SESSION = ["--batches", "1", "--blocks-per-batch", "4", "--chunk-qubits", str(1 << 21),
                 "--seed", SEED, "--compression", "11.5", "--no-security-check"]


# each used to leave --out behind: an empty directory, or the whole 1 km
# session's reports before the -5 km one was refused
@pytest.mark.parametrize("args", [
    ["--param", "sift-p", "--values", "2"],
    ["--param", "fibre-km", "--values", "1", "--rate", "9/9"],
    ["--param", "fibre-km", "--values", "1,-5", *SMALL_SESSION],
], ids=["sift-p outside (0, 1]", "bad rate", "bad distance after a good one"])
def test_a_refused_sweep_writes_nothing(args, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sweep", *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1, err
    assert not out.exists()


def test_run_without_session_options_takes_the_config_defaults(tmp_path, capsys, monkeypatch):
    from cowkd import cli
    from cowkd.engine import SessionAborted, SessionConfig
    from cowkd.presets import channel_params

    seen = []

    def capture(config):
        seen.append(config)
        raise SessionAborted("captured")

    monkeypatch.setattr(cli, "run_session", capture)
    assert main(["run", "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()
    (config,) = seen
    assert config == SessionConfig(params=channel_params(1.0), seed_hex=config.seed_hex,
                                   psk=config.psk)


# an empty value is a value: each of these used to be read as not given and
# ran a session on a random seed, the derived key, the preset channel or no file
@pytest.mark.parametrize("flag", ["--seed=", "--psk=", "--channel-config=", "--config="])
def test_an_empty_option_value_is_refused_not_ignored(flag, tmp_path, capsys):
    code = main(run_args(tmp_path / "o", flag))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()
