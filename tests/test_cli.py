import json
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from epicsim.cli import EXIT_FAILED, EXIT_KPI, EXIT_OK, EXIT_VALIDATION, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_MINI_PATH = {"one_way_latency": 2_000, "bandwidth": 700_000_000}
_MASTER = json.loads((SCENARIOS / "master-server.json").read_text())
_RUNG = {"level_index": 0, "width": 640, "height": 360, "fps": 30, "bpp": 0.8}


@pytest.fixture()
def mini_scenario(tmp_path):
    doc = json.loads((SCENARIOS / "edge-nominal.json").read_text())
    doc["duration"] = 1_000_000
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_report(mini_scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--scenario", str(mini_scenario), "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["pass_rtt"] is True
    assert report["rtt_p95"] == 4_002


def test_run_seed_override_changes_nothing_on_clean_path(mini_scenario, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--scenario", str(mini_scenario), "--seed", "1", "--out", str(a)]) == EXIT_OK
    assert main(["run", "--scenario", str(mini_scenario), "--seed", "1", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_enforce_kpi_fails_single_client_bandwidth(mini_scenario):
    # one client cannot clear the 0.7 Gb/s aggregate target
    code = main(["run", "--scenario", str(mini_scenario), "--enforce-kpi"])
    assert code == EXIT_KPI


def test_validate_ok_and_errors(tmp_path, mini_scenario, capsys):
    assert main(["validate", "--scenario", str(mini_scenario)]) == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"duration": 1_000_000, "clients": []}))
    assert main(["validate", "--scenario", str(bad)]) == EXIT_VALIDATION
    assert main(["validate", "--scenario", str(tmp_path / "missing.json")]) == EXIT_VALIDATION


@pytest.mark.parametrize("patch, key", [
    ({"duration": 10}, "duration"),
    ({"events": [{"time": 0, "bandwidth": 0}]}, "events[0]"),
    ({"clients": 5}, "clients"),
    ({"nodes": 3}, "nodes"),
    ({"topology": "edge"}, "topology"),
    ({"controller": [1]}, "controller"),
    ({"duration": "ten"}, "duration"),
    ({"seed": "x"}, "seed"),
    ({"ladder": [{"level_index": 0, "width": 640, "height": 360, "fps": 30, "bpp": "abc"}]}, "ladder[0].bpp"),
    ({"state_sync_bytes": -1}, "scenario.state_sync_bytes"),
    ({"state_sync_bytes": 5000}, "scenario.state_sync_bytes"),
    ({"scene_complexity": float("nan")}, "scenario.scene_complexity"),
    ({"scene_complexity": float("inf")}, "scenario.scene_complexity"),
    ({"clients": [{"id": -1, "paths": _MINI_PATH}]}, "clients[0].id"),
    ({"clients": [{"id": 2**32, "paths": _MINI_PATH}]}, "clients[0].id"),
    ({"clients": [{"id": 0, "paths": _MINI_PATH, "decode_throughput": 0}]}, "clients[0].decode_throughput"),
    ({"clients": [{"id": 0, "paths": _MINI_PATH, "decode_throughput": 0.5}]}, "clients[0].decode_throughput"),
    ({"nodes": [{"node_id": 1, "pixel_throughput": 1, "encode_throughput": 4_000_000_000, "max_sessions": 16}]},
     "no feasible node"),
    ({"nodes": [{"node_id": 1, "pixel_throughput": 5_000_000_000, "encode_throughput": 4_000_000_000,
                 "max_sessions": 1}],
      "clients": [{"id": 0, "paths": {"1": _MINI_PATH}}, {"id": 1, "paths": {"1": _MINI_PATH}}]},
     "no feasible node"),
    ({"nodes": [{"node_id": 1, "pixel_throughput": 0, "encode_throughput": 4_000_000_000}]}, "nodes[0]"),
    ({"controller": {"k_down": 0}}, "controller:"),
    ({"ladder": [dict(_RUNG, fps=0)]}, "ladder[0]"),
    ({"clients": [{"id": 0, "paths": _MINI_PATH, "power": {"p_idle": -1}}]}, "clients[0].power"),
    ({"topology": {"mode": "edge_hosted", "device_node": {"node_id": -1, "pixel_throughput": 0,
                                                          "encode_throughput": 1}}}, "topology.device_node"),
    # master-server selects no node, which would refuse the rung's render demand first
    ({"clients": _MASTER["clients"], "topology": _MASTER["topology"], "ladder": [dict(_RUNG, fps=2**32)]},
     "ladder[0]"),
    ({"power_model": {"device_pixel_throughput": 0}}, "power_model.device_pixel_throughput"),
    ({"power_model": {"device_decode_throughput": -1}}, "power_model.device_decode_throughput"),
    ({"ladder": [dict(_RUNG, bpp=2**32)]}, "ladder[0]"),
    ({"tick": 0}, "scenario: tick_us must be positive"),
    ({"ping_interval": 0}, "scenario: ping_interval_us must be positive"),
    ({"sync_interval": -5}, "scenario: sync_interval_us must be positive"),
    ({"controller": {"cooldown": -1}}, "controller: cooldown must be non-negative"),
    ({"controller": {"enabled": "false"}}, "controller.enabled must be true or false"),
    ({"tick": 8333.9}, "scenario.tick must be an integer"),
    ({"clients": [{"id": 0.5, "paths": _MINI_PATH}]}, "clients[0].id must be an integer"),
    ({"clients": [{"id": 0, "paths": dict(_MINI_PATH, bandwidth=True)}]},
     "clients[0].paths.bandwidth must be an integer"),
    # a number is a JSON number, so a string is none; a paths key spells a node id
    ({"seed": "7"}, "scenario.seed must be an integer"),
    ({"duration": " 2_000_000 "}, "scenario.duration must be an integer"),
    ({"ladder": [dict(_RUNG, bpp="4/5")]}, "ladder[0].bpp must be a number"),
    ({"events": [{"time": 0, "bandwidth": 100_000_000, "clients": ["0"]}]},
     "events[0].clients[0] must be an integer"),
    ({"clients": [{"id": 0, "paths": {" 1": _MINI_PATH}}]}, "clients[0].paths key must be a node id"),
    # every interval is at least 100 us
    ({"tick": 99}, "scenario: tick_us must be at least 100 us"),
    ({"ping_interval": 1}, "scenario: ping_interval_us must be at least 100 us"),
    ({"sync_interval": 1}, "scenario: sync_interval_us must be at least 100 us"),
    ({"controller": {"window": 1}}, "controller: window_us must be at least 100 us"),
    # a client-hosted scenario needs a receiver besides its master
    ({"clients": _MASTER["clients"][:1], "topology": _MASTER["topology"]},
     "clients: a client_hosted scenario needs a receiver"),
])
def test_validate_rejects_what_run_rejects(tmp_path, mini_scenario, capsys, patch, key):
    doc = dict(json.loads(mini_scenario.read_text()), **patch)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert main(["run", "--scenario", str(bad)]) == EXIT_VALIDATION


def test_sweep_prints_table(mini_scenario, capsys):
    code = main(["sweep", "--scenario", str(mini_scenario),
                 "--param", "clients.paths.1.bandwidth", "--values", "700000000,100000000"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "rtt_p95" in out and "700000000" in out and "100000000" in out


def test_sweep_values_are_json(mini_scenario, capsys):
    assert main(["sweep", "--scenario", str(mini_scenario),
                 "--param", "controller.enabled", "--values", "true,false"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["True", "False"]
    assert main(["sweep", "--scenario", str(mini_scenario),
                 "--param", "controller.enabled", "--values", "yes"]) == EXIT_VALIDATION
    assert "--values must be comma-separated JSON values" in capsys.readouterr().err


def test_loadtest_and_stresstest(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "shared-egress.json").read_text())
    doc["shared_egress"]["bandwidth"] = 250_000_000
    path = tmp_path / "egress.json"
    path.write_text(json.dumps(doc))
    assert main(["loadtest", "--scenario", str(path), "--max-users", "4"]) == EXIT_OK
    assert "load_search: 2 users" in capsys.readouterr().out
    assert main(["stresstest", "--scenario", str(path), "--max-users", "4"]) == EXIT_OK
    assert "congestion first appears at 3" in capsys.readouterr().out


def test_loadtest_defaults_to_the_scenario_budgets(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "shared-egress.json").read_text())
    doc["shared_egress"]["bandwidth"] = 250_000_000
    doc["budgets"] = {"rtt_p95": 100}
    path = tmp_path / "egress.json"
    path.write_text(json.dumps(doc))
    assert main(["loadtest", "--scenario", str(path), "--max-users", "4"]) == EXIT_OK
    assert "load_search: 0 users meet rtt_p95 <= 0.1 ms and loss <= 0.02" in capsys.readouterr().out
    assert main(["loadtest", "--scenario", str(path), "--max-users", "4", "--rtt-budget-ms", "7"]) == EXIT_OK
    assert "load_search: 2 users meet rtt_p95 <= 7 ms and loss <= 0.02" in capsys.readouterr().out


def test_console_entry_point_exists(mini_scenario):
    exe = shutil.which("epicsim")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "validate", "--scenario", str(mini_scenario)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "scenario OK" in proc.stdout


def test_env_var_verbosity_validation(monkeypatch, mini_scenario, capsys):
    monkeypatch.setenv("EPICSIM_LOG", "nonsense")
    assert main(["validate", "--scenario", str(mini_scenario)]) == EXIT_VALIDATION
    monkeypatch.setenv("EPICSIM_LOG", "events")
    assert main(["validate", "--scenario", str(mini_scenario)]) == EXIT_OK
    monkeypatch.delenv("EPICSIM_LOG")


def test_client_hosted_searches_count_receivers(capsys):
    # one receiver already loses half its frames on the 50 Mb/s master uplink
    scenario = str(SCENARIOS / "master-server.json")
    assert main(["loadtest", "--scenario", scenario, "--max-users", "2"]) == EXIT_OK
    assert "load_search: 0 users meet" in capsys.readouterr().out
    assert main(["stresstest", "--scenario", scenario, "--max-users", "2"]) == EXIT_OK
    assert "congestion first appears at 1 users" in capsys.readouterr().out


@pytest.mark.parametrize("addr", ["localhost", "127.0.0.1:99999", "127.0.0.1:0", "127.0.0.1:x", "127.0.0.1:"])
def test_live_probe_rejects_a_malformed_addr(capsys, addr):
    assert main(["live-probe", "--addr", addr, "--count", "1"]) == EXIT_VALIDATION
    assert "--addr must be host:port" in capsys.readouterr().err


def test_live_probe_reports_an_unreachable_server_in_one_line(capsys):
    # nothing listens on this socket's port once it is closed
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    code = main(["live-probe", "--addr", f"127.0.0.1:{port}", "--count", "2", "--interval-us", "100"])
    assert code == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("live probe failed: ") and err.count("\n") == 1
