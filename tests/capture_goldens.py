"""Capture the goldens in tests/golden/: one report and one trace hash per case.

    PYTHONPATH=src python tests/capture_goldens.py

Goldens are regenerated only at a parent commit, before a change is made,
never to make a change pass.  A refactor is proven by reproducing every one
of them byte for byte; a change that is meant to alter reports says so and
recaptures them at its own parent first.

The cases are every file in scenarios/ at seeds 0, 7 and 99 (the seed is
overridden as `epicsim run --seed` does), and scale_clients(shared-egress, N)
for N = 1..16.  For each case, golden/<case>.json holds report_to_json, and
golden/traces.json maps the case to the SHA-256 of the canonical RunTrace
dump: dataclasses.asdict restricted to the TRACE_FIELDS a run measures, then
json.dumps with sorted keys.  The hash pins the path names and registration
order, the frame path ids, the drop reasons and the level changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

from epicsim import orchestrator

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SEEDS = (0, 7, 99)
SCALED = range(1, 17)

CASES: dict[str, tuple[str, int | None, int | None]] = {
    **{f"{path.stem}.seed{seed}": (path.name, seed, None)
       for path in sorted((ROOT / "scenarios").glob("*.json")) for seed in SEEDS},
    **{f"shared-egress.n{n}": ("shared-egress.json", None, n) for n in SCALED},
}


def case_config(name: str) -> orchestrator.ScenarioConfig:
    scenario, seed, n = CASES[name]
    cfg = orchestrator.load_scenario(str(ROOT / "scenarios" / scenario))
    if seed is not None:
        cfg = orchestrator.parse_scenario(dict(cfg.raw, seed=seed))
    if n is not None:
        cfg = orchestrator.scale_clients(cfg, n)
    return cfg


TRACE_FIELDS = (
    "duration_us", "session_start", "rtt_samples", "motion_to_photon", "per_second_bits",
    "frames", "per_client_frames", "level_changes", "final_levels", "frame_path_ids",
    "path_counters", "queue_drop_timeline", "drop_reasons",
)


def trace_sha256(trace) -> str:
    fields = dataclasses.asdict(trace)
    dump = json.dumps({name: fields[name] for name in TRACE_FIELDS}, sort_keys=True)
    return hashlib.sha256(dump.encode()).hexdigest()


def run_case(name: str) -> tuple[str, str]:
    """The case's report text and trace hash."""
    result = orchestrator.run_scenario(case_config(name))
    return orchestrator.report_to_json(result.report), trace_sha256(result.trace)


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    traces = {}
    for name in CASES:
        report, traces[name] = run_case(name)
        (GOLDEN / f"{name}.json").write_text(report)
        print(name, traces[name], flush=True)
    (GOLDEN / "traces.json").write_text(json.dumps(traces, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
