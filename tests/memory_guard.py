"""Check the peak memory of four long `edge-nominal` runs against their bounds.

    python tests/memory_guard.py CASE

Each case is a 60 s run of `scenarios/edge-nominal.json`.  The script runs
one case, so that each case has a fresh process of its own, since
`ru_maxrss` is the peak of the whole process:

- clean: a PING every 100 us, on clean paths, at most 100 MB;
- impaired: the same with jitter and loss on every path, at most 100 MB;
- one-window: jitter and loss and one 60 s controller window, at most 50 MB;
- inputs: jitter and loss, two clients and an input every 100 us, at most 40 MB.

It prints the case's peak and its bound, and exits 0 when the peak is
within the bound, and 1 when it is not.  CI runs every case with a shell
loop under `bash -e` and `pipefail`, which fails the step at the first case
that exits non-zero, a signal's kill included, and appends each printed
line to the job summary:

    for case in clean impaired one-window inputs; do
        python tests/memory_guard.py "$case" | tee -a "$GITHUB_STEP_SUMMARY"
    done

It runs this tree's `src` and is not part of tier-1.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SCENARIO = ROOT / "scenarios" / "edge-nominal.json"
BOUNDS_MB = {"clean": 100, "impaired": 100, "one-window": 50, "inputs": 40}


def _document(case: str) -> dict:
    doc = json.loads(SCENARIO.read_text())
    doc.update(duration=60_000_000)
    if case in ("clean", "impaired"):
        doc.update(ping_interval=100)
    if case != "clean":  # every datagram takes the drawing branch of the admission
        for client in doc["clients"]:
            for path in client["paths"].values():
                path.update(jitter=300, loss_rate=0.005)
    if case == "one-window":  # no window forgets a frame path's arrivals; each frame must
        doc["controller"]["window"] = 60_000_000
    if case == "inputs":  # each client keeps the inputs of about one window and a block more, not the run's
        doc.update(tick=100, clients=[dict(doc["clients"][0], id=i) for i in range(2)])
    return doc


def main(case: str) -> int:
    """Run `case` in this process; 0 if its peak RSS is within its bound, else 1."""
    from epicsim import orchestrator

    orchestrator.run_scenario(orchestrator.parse_scenario(_document(case)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    print(f"{case}: peak RSS {peak_mb:.1f} MB, bound {BOUNDS_MB[case]} MB")
    if peak_mb > BOUNDS_MB[case]:
        print(f"{case}: peak RSS {peak_mb:.1f} MB exceeds {BOUNDS_MB[case]} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in BOUNDS_MB:
        sys.exit(f"usage: {sys.argv[0]} CASE, where CASE is one of {', '.join(BOUNDS_MB)}")
    sys.exit(main(sys.argv[1]))
