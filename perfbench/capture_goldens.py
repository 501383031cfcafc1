"""Capture goldens.json: expected outputs per workload and seed, and fixed work counts.

    python3 perfbench/capture_goldens.py

Run only at the commit that defines the benchmark, or when a change is meant
to alter reports.  For every workload it records the fingerprint of the
output (report SHA-256, or the [load, stress] answers) at the scenario's own
seed and at a held-out seed set, and, from one traced iteration at the
scenario's own seed, the work counts that packets_per_s divides by.  Those
counts stay fixed afterwards, so packets_per_s stays defined when a later
change carries fragments differently.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from run import git_sha  # noqa: E402
from tracer import Tracer  # noqa: E402

HELD_OUT = {"edge-1080p": range(32), "master-fanout": range(32), "capacity-scan": range(16)}


def fingerprint_at(workload, seed) -> tuple[int, object]:
    cfg = workloads.load_config(workload, seed)
    output, trace = workloads.run_once(workload, cfg)
    if trace is not None and workloads.conservation_problems(output, trace):
        raise SystemExit(f"{workload.name} seed {seed}: conservation fails")
    return cfg.seed, workloads.fingerprint(output)


def work_counts(workload) -> dict:
    cfg = workloads.load_config(workload, None)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_once(workload, cfg)
    finally:
        tracer.restore()
    return {
        "sim_seconds": sum(t.duration_us for t in tracer.traces) / 1e6,
        "packets": tracer.calls("netem.submit"),
        "frames": sum(t.frames.sent for t in tracer.traces),
        "heap_events": tracer.calls("session.heap_push"),
        "scenario_runs": tracer.calls("orchestrator.run_scenario"),
    }


def main() -> int:
    out = {"captured_at": git_sha(), "expected": {}, "work": {}}
    for name, workload in workloads.WORKLOADS.items():
        expected = {}
        for seed in (None, *HELD_OUT[name]):
            used, got = fingerprint_at(workload, seed)
            expected[str(used)] = got
            print(name, used, got, flush=True)
        out["expected"][name] = expected
        out["work"][name] = work_counts(workload)
        print(name, out["work"][name], flush=True)
    workloads.GOLDENS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
