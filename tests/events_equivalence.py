"""Production against the all-events reference on generated documents past the suite's own seeds.

Draws `_document(s)`, `_tie_document(s)` and `_train_document(s)` of
`tests/test_random_scenarios.py` for s = first .. first + count - 1 (by
default 1000..1049, outside the suite's seeds 0..39), runs each in
production and in `_Events`, and compares their traces, logged events,
frame starts, presents and window reads, or the `NoPong` each raised.
Prints each document that differs and, per generator, how many documents
frame trains reached and how many of their frames they settled; exits 1 if
any document differs, 0 otherwise.

    python tests/events_equivalence.py [--first 1000] [--count 50]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from epicsim import orchestrator  # noqa: E402
from test_per_packet_reference import _Events, _Logged  # noqa: E402
from test_random_scenarios import _document, _outcome, _tie_document, _train_document  # noqa: E402


class _Counted(_Logged):
    """Production, keeping its last run (NoPong is raised after the run)."""
    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Counted.last = self


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=1000)
    parser.add_argument("--count", type=int, default=50)
    args = parser.parse_args(argv)
    differing = []
    for make in (_document, _tie_document, _train_document):
        reached = settled = started = 0
        for seed in range(args.first, args.first + args.count):
            cfg = orchestrator.parse_scenario(make(seed))
            with pytest.MonkeyPatch.context() as monkeypatch:
                if _outcome(cfg, _Counted, monkeypatch) != _outcome(cfg, _Events, monkeypatch):
                    differing.append(f"{make.__name__}({seed})")
                    print(f"differs: {differing[-1]}", flush=True)
            run = _Counted.last
            reached += run.settled > 0
            settled += run.settled
            started += len(run.starts)
        print(f"{make.__name__}: trains reached {reached} of {args.count} documents and settled "
              f"{settled:,} of the {started:,} frames started")
    total = 3 * args.count
    print(f"{total - len(differing)} of {total} documents match the all-events reference")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
