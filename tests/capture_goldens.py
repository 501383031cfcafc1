"""Capture the goldens in tests/golden/: one report and one trace hash per case.

    PYTHONPATH=src python tests/capture_goldens.py

Goldens are regenerated only at a parent commit, before a change is made,
never to make a change pass.  A refactor is proven by reproducing every one
of them byte for byte; a change that is meant to alter reports says so and
recaptures them at its own parent first.

The cases are every file in scenarios/ at seeds 0, 7 and 99 (the seed is
overridden as `epicsim run --seed` does), scale_clients(shared-egress, N)
for N = 1..16, and the impaired variants in IMPAIRED.  The shipped scenarios
are loss- and jitter-free; the variants override fields of a scenario's raw
JSON so that every drop reason, clamped equal arrivals and a reassembly
timeout found by a window sweep all occur.  For each case,
golden/<case>.json holds report_to_json, and
golden/traces.json maps the case to the SHA-256 of the canonical RunTrace
dump: dataclasses.asdict restricted to the TRACE_FIELDS a run measures, then
json.dumps with sorted keys.  The hash pins the path names and registration
order, the frame path ids, the drop reasons and the level changes.
"""

from __future__ import annotations

import copy
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

LOSS_JITTER = {"loss_rate": 0.002, "jitter": 3_000}
# Single-fragment frames: with jitter, a whole frame often arrives at the
# clamped arrival of an earlier packet on its path.
TINY_LADDER = [
    {"level_index": 0, "width": 96, "height": 64, "fps": 60, "bpp": 0.8},
    {"level_index": 1, "width": 64, "height": 48, "fps": 60, "bpp": 0.8},
]


def _slow_link(bandwidth: int, mtu: int, window: int) -> dict:
    """Fragments spread over more than the reassembly timeout; short windows."""
    return {"doc": {"duration": 3_000_000,
                    "controller": {"enabled": True, "start_level": 0, "window": window}},
            "paths": {"bandwidth": bandwidth, "mtu": mtu, "queue_capacity": 2_000_000}}


# Overrides replace fields of the raw scenario: "doc" at the top level,
# "client" in every client entry, "paths" in every client path profile, and
# "link" in the shared egress or master uplink profile.
IMPAIRED: dict[str, tuple[str, int | None, int | None, dict]] = {
    "edge-nominal.loss-jitter.seed1": (
        "edge-nominal.json", 1, None, {"paths": {"loss_rate": 0.001, "jitter": 3_000}}),
    "edge-nominal.loss-jitter.seed5": (
        "edge-nominal.json", 5, None, {"paths": {"loss_rate": 0.001, "jitter": 3_000}}),
    "edge-nominal.6mbps": (
        "edge-nominal.json", None, None,
        {"doc": {"duration": 3_000_000}, "paths": {"bandwidth": 6_000_000, "queue_capacity": 2_000_000}}),
    "edge-nominal.slow-decode.seed7": (
        "edge-nominal.json", 7, None,
        {"paths": {"loss_rate": 0.002}, "client": {"decode_throughput": 20_000_000}}),
    "edge-nominal.window-sweep.a": ("edge-nominal.json", None, None, _slow_link(5_000_000, 32_000, 100_000)),
    "edge-nominal.window-sweep.b": ("edge-nominal.json", None, None, _slow_link(4_000_000, 16_000, 150_000)),
    "bandwidth-step.loss": ("bandwidth-step.json", None, None, {"paths": {"loss_rate": 0.002}}),
    "shared-egress.n4.loss-jitter": ("shared-egress.json", None, 4, {"link": LOSS_JITTER}),
    "shared-egress.n4.tiny-frames": (
        "shared-egress.json", None, 4, {"doc": {"ladder": TINY_LADDER}, "link": LOSS_JITTER}),
    "master-server.loss-jitter": ("master-server.json", None, None, {"link": LOSS_JITTER}),
}

CASES: dict[str, tuple[str, int | None, int | None, dict]] = {
    **{f"{path.stem}.seed{seed}": (path.name, seed, None, {})
       for path in sorted((ROOT / "scenarios").glob("*.json")) for seed in SEEDS},
    **{f"shared-egress.n{n}": ("shared-egress.json", None, n, {}) for n in SCALED},
    **IMPAIRED,
}


def apply_overrides(doc: dict, overrides: dict) -> dict:
    """A copy of a raw scenario with one case's overrides applied."""
    doc = copy.deepcopy(doc)
    doc.update(overrides.get("doc", {}))
    for entry in doc["clients"]:
        entry.update(overrides.get("client", {}))
        paths = entry["paths"]
        for profile in [paths] if "bandwidth" in paths else paths.values():
            profile.update(overrides.get("paths", {}))
    if "link" in overrides:
        link = doc["shared_egress"] if "shared_egress" in doc else doc["topology"]["master_uplink"]
        link.update(overrides["link"])
    return doc


def case_config(name: str) -> orchestrator.ScenarioConfig:
    scenario, seed, n, overrides = CASES[name]
    cfg = orchestrator.load_scenario(str(ROOT / "scenarios" / scenario))
    if seed is not None or overrides:
        doc = apply_overrides(cfg.raw, overrides)
        if seed is not None:
            doc["seed"] = seed
        cfg = orchestrator.parse_scenario(doc)
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
