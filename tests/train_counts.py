"""Count what frame trains settle on the benchmark's three scenarios.

    python tests/train_counts.py

Runs `scenarios/edge-nominal.json` and `scenarios/master-server.json` once,
and `scenarios/shared-egress.json` through `load_search(7000, 0.02, 16)` and
`stress_search(16)`, as the benchmark's workloads do, and prints for each:

- the frames that trains settled, of the frames that the event loop's
  clients started;
- the instants that trains counted by arithmetic, and those they admitted
  to netem for real (`_settle` takes an int for a counted run, a list of
  fates for an admitted one);
- the trains that did both, of the trains that settled any frame;
- the events popped, by handler.

A change that moves frame settlement reports these before and after.  CI
appends the output to the job summary.  It runs this tree's `src`;
`tests/test_session.py` imports `count` and `run_benchmark_scenario` from it.
"""

from __future__ import annotations

import heapq
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from epicsim import orchestrator, session  # noqa: E402

SCENARIOS = ("edge-nominal", "master-server", "shared-egress")


def count(name: str) -> tuple[Counter, Counter]:
    """Run the scenario as its benchmark workload does; returns its train counts and its events popped by handler."""
    counts, popped, segments = Counter(), Counter(), set()  # segments: (start, instants, counted) of one train
    Simulation = session._Simulation
    train, settle, run = Simulation._train, Simulation._settle, Simulation.run

    def training(sim, t, st):
        segments.clear()
        settled = train(sim, t, st)
        for _, k, counted in segments:
            counts["counted" if counted else "admitted"] += k
        counts["trains"] += settled
        counts["mixed"] += len({counted for _, _, counted in segments}) == 2
        return settled

    def settling(sim, st, t, k, interval, present):
        counts["settled"] += k
        segments.add((t, k, present.__class__ is int))
        return settle(sim, st, t, k, interval, present)

    def running(sim):
        trace = run(sim)
        counts["started"] += sum(st.frames.sent for st in sim.clients.values())
        return trace

    def popping(heap):
        event = heapq.heappop(heap)
        popped[event[2].__name__.removeprefix("_on_")] += 1
        return event

    Simulation._train, Simulation._settle, Simulation.run = training, settling, running
    session.heapq = types.SimpleNamespace(heappush=heapq.heappush, heappop=popping)
    try:
        run_benchmark_scenario(name)
    finally:
        Simulation._train, Simulation._settle, Simulation.run = train, settle, run
        session.heapq = heapq
    return counts, popped


def run_benchmark_scenario(name: str):
    """Run a shipped scenario as its benchmark workload does: the shared egress through its load and stress
    searches, the others once."""
    cfg = orchestrator.load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
    if name == "shared-egress":
        orchestrator.load_search(cfg, 7_000, 0.02, 16)
        orchestrator.stress_search(cfg, 16)
    else:
        orchestrator.run_scenario(cfg)


def main() -> int:
    for name in SCENARIOS:
        c, popped = count(name)
        print(f"{name}: settled {c['settled']:,} of {c['started']:,} frames; instants counted {c['counted']:,}, "
              f"admitted {c['admitted']:,}; mixed trains {c['mixed']:,} of {c['trains']:,}")
        print(f"  events popped {sum(popped.values()):,}: "
              + ", ".join(f"{kind} {n:,}" for kind, n in sorted(popped.items(), key=lambda item: -item[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
