"""The benchmark's workloads and the checks on their outputs.

Every workload is batch work in a closed loop: one process, one thread, and
each iteration starts when the previous one ends.  Why each workload was
chosen is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass

from epicsim import orchestrator

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDENS = pathlib.Path(__file__).with_name("goldens.json")

# load_search and stress_search arguments, as criterion 8 and the
# `epicsim loadtest` / `epicsim stresstest` commands run them.
LOAD_ARGS = (7_000, 0.02, 16)
STRESS_N_MAX = 16


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # relative to the checkout root
    search: bool   # True: load_search plus stress_search; False: one run_scenario


WORKLOADS = {w.name: w for w in (
    Workload("edge-1080p", "scenarios/edge-nominal.json", search=False),
    Workload("master-fanout", "scenarios/master-server.json", search=False),
    Workload("capacity-scan", "scenarios/shared-egress.json", search=True),
)}


def load_config(workload: Workload, seed: int | None) -> orchestrator.ScenarioConfig:
    """Load the workload's scenario; a seed overrides it as `epicsim run --seed` does."""
    cfg = orchestrator.load_scenario(str(ROOT / workload.scenario))
    if seed is not None:
        doc = dict(cfg.raw)
        doc["seed"] = seed
        cfg = orchestrator.parse_scenario(doc)
    return cfg


def run_once(workload: Workload, cfg) -> tuple[object, object]:
    """One iteration: returns (output, trace); trace is None for the searches."""
    if workload.search:
        answers = [orchestrator.load_search(cfg, *LOAD_ARGS),
                   orchestrator.stress_search(cfg, STRESS_N_MAX)]
        return answers, None
    result = orchestrator.run_scenario(cfg)
    return orchestrator.report_to_json(result.report), result.trace


def fingerprint(output) -> object:
    """What the goldens store: the report's SHA-256, or the [load, stress] answers."""
    if isinstance(output, str):
        return hashlib.sha256(output.encode()).hexdigest()
    return list(output)


def conservation_problems(report_text: str, trace) -> list[str]:
    """Frame and packet conservation, checked from outside the run."""
    problems = []
    report = json.loads(report_text)
    frames = trace.frames
    for key, value in (("frames_sent", frames.sent), ("frames_delivered", frames.delivered),
                       ("frames_dropped", frames.dropped), ("frames_in_flight", frames.in_flight)):
        if report[key] != value:
            problems.append(f"report {key}={report[key]} but trace has {value}")
    per_client = trace.per_client_frames.values()
    if (sum(c.sent for c in per_client), sum(c.delivered for c in per_client),
            sum(c.dropped for c in per_client)) != (frames.sent, frames.delivered, frames.dropped):
        problems.append("per-client frame counts do not sum to the totals")
    if any(c.in_flight < 0 for c in per_client) or sum(trace.drop_reasons.values()) != frames.dropped:
        problems.append("frames resolved more than once or drops without a reason")
    for name, (submitted, delivered, lost, queued) in trace.path_counters.items():
        if delivered + lost + queued > submitted:
            problems.append(f"path {name} resolved more packets than were submitted")
    return problems


class Checker:
    """Counts operations and failures; compares each output with its golden.

    Seeds with a golden must reproduce it.  Every other seed must give the
    same output on every iteration in the process, which also catches a
    process-wide memo, and must conserve frames.
    """

    def __init__(self, workload: Workload, seed: int):
        goldens = json.loads(GOLDENS.read_text())
        self.expected = goldens["expected"][workload.name].get(str(seed))
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, output, trace) -> None:
        problems = conservation_problems(output, trace) if trace is not None else []
        got = fingerprint(output)
        if self.first is None:
            self.first = got
        if self.expected is not None and got != self.expected:
            problems.append(f"output {got} differs from golden {self.expected}")
        if got != self.first:
            problems.append(f"output {got} differs from the first iteration's {self.first}")
        self._count(problems)

    def raised(self, message: str) -> None:
        self._count([f"raised {message}"])

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
