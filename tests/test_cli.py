import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from epicsim.cli import EXIT_KPI, EXIT_OK, EXIT_VALIDATION, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


def test_loadtest_and_stresstest(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "shared-egress.json").read_text())
    doc["shared_egress"]["bandwidth"] = 250_000_000
    path = tmp_path / "egress.json"
    path.write_text(json.dumps(doc))
    assert main(["loadtest", "--scenario", str(path), "--max-users", "4"]) == EXIT_OK
    assert "load_search: 2 users" in capsys.readouterr().out
    assert main(["stresstest", "--scenario", str(path), "--max-users", "4"]) == EXIT_OK
    assert "congestion first appears at 3" in capsys.readouterr().out


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
