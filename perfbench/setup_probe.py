"""Time set-up in a fresh interpreter: epicsim's, or the reference set's.

    python3 perfbench/setup_probe.py WORKLOAD [SEED]
    python3 perfbench/setup_probe.py --reference

The first form times `import epicsim` plus loading the workload's scenario.
The second times importing a fixed set of modules that are not in this
repository, numpy and the standard-library modules epicsim uses, then
defining 48 frozen dataclasses.  run.py alternates the two and reports
set-up at reference speed (see reference.py).  Each form prints the
seconds, measured from this script's first line, as its only line.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

if sys.argv[1] == "--reference":
    import argparse, collections, dataclasses, enum, heapq, json, logging, struct, zlib  # noqa: E401,E402,F401
    import numpy  # noqa: E402,F401

    # epicsim's own modules mostly define frozen, slotted dataclasses.
    for i in range(48):
        dataclasses.make_dataclass(f"Record{i}", [("a", int), ("b", float), ("c", str), ("d", tuple)],
                                   frozen=True, slots=True)
else:
    import pathlib  # noqa: E402

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

    import epicsim  # noqa: E402,F401
    import workloads  # noqa: E402

    workloads.load_config(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]) if len(sys.argv) > 2 else None)
print(time.perf_counter() - _START)
