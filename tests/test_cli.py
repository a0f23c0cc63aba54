import csv
import json
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
    channel_params(1.0).save(chan)
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


def _run_config_naming_the_handler(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"func": 1}))
    return path


@pytest.mark.parametrize("flag, make_file", [
    ("--psk", lambda tmp_path: tmp_path / "missing.psk"),
    ("--channel-config", lambda tmp_path: tmp_path / "missing.json"),
    ("--channel-config", _channel_json_with_unknown_key),
    ("--channel-config", _channel_json_list),
    ("--config", _run_config_naming_the_handler),
    ("--psk", _psk_one_byte_short),
    ("--compression", lambda tmp_path: "150"),  # percent, so a ratio of 1.5
], ids=["missing psk file", "missing channel file", "unknown channel key", "channel list",
        "non-flag config key", "psk too short", "compression over 100 percent"])
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
