"""epicsim benchmark: measure one workload end to end, or layer by layer.

    python3 perfbench/run.py --workload edge-1080p --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json: set-up time from fresh interpreters, then wall
time per iteration, packets/s and peak RSS from an untraced measuring
process.  Gated times are at reference speed (see reference.py); host times
are printed above them.  With --trace 1 it prints the per-layer metrics from
a traced process instead.
Every output is checked against goldens.json.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only when every operation succeeded and matched its golden.

See README.md next to this file for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import reference

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7     # timed fresh interpreters per run; one more runs first, untimed
DEADLINE_S = 170.0   # every child is killed by then, so a run ends within 180 s
NOTE = ("Shared, noisy host: other tenants' load moves wall times; "
        "compare medians over many runs, never single runs.")


class BenchError(RuntimeError):
    """A measuring process failed; the run has no result."""


def _child(argv: list[str], deadline: float) -> str:
    """Run a child to completion before the deadline; its stdout."""
    try:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish before the deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"{argv[0]} exited with code {done.returncode}")
    return done.stdout


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: list[str], deadline: float) -> list[tuple[float, float]]:
    """(host seconds, seconds at reference speed) from SETUP_PROBES fresh interpreters.

    A reference probe runs before the first probe and after each one, and
    each probe is scaled by the mean of the two around it.
    """
    probe = [str(HERE / "setup_probe.py"), workload, *seed]
    ref_probe = [str(HERE / "setup_probe.py"), "--reference"]
    _child(probe, deadline)  # fills the bytecode and file caches
    before = float(_child(ref_probe, deadline))
    runs = []
    for _ in range(SETUP_PROBES):
        host = float(_child(probe, deadline))
        after = float(_child(ref_probe, deadline))
        runs.append((host, reference.imports_at_reference_speed(host, (before + after) / 2)))
        before = after
    return runs


def git_sha() -> str:
    """HEAD's sha read from .git without running git; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; overrides the scenario's own, as `epicsim run --seed` does")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epicsim" / "__init__.py").is_file():
        print(f"error: no epicsim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    goldens = json.loads((HERE / "goldens.json").read_text())
    work = goldens["work"][args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    seed = [] if args.seed is None else [str(args.seed)]
    measure = [str(HERE / "worker.py"), "traced" if args.trace else "timed",
               "--workload", args.workload, "--seconds", str(args.seconds)]
    measure += [] if args.seed is None else ["--seed", str(args.seed)]
    try:
        setup = [] if args.trace else setup_seconds(args.workload, seed, deadline)
        result = _last_json(_child(measure, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": result["seed"], "git_sha": git_sha(),
        "python": result["python"], "numpy": result["numpy"], "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "note": NOTE, "work_per_iteration": work,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        values = result["metrics"]
        wanted = spec["per_layer"]
        print(f"per-layer figures per iteration, from {result['traced_iterations']} traced iterations")
    else:
        walls = result["walls"] or [float("nan")]
        scaled = result["walls_at_reference"] or [float("nan")]
        wall, wall_ref = statistics.median(walls), statistics.median(scaled)
        values = {
            "wall_s_ref": wall_ref,
            "packets_per_s_ref": work["packets"] / wall_ref,
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
        }
        wanted = spec["end_to_end"]
        q1, q3 = quartiles(walls)
        print(f"host times, not gated (see perfbench/README.md): {len(walls)} timed iterations, "
              f"{len(setup)} set-up probes")
        print(f"{'wall_s':<44} {wall:>16.6g} s (quartiles {q1:.4f} .. {q3:.4f})")
        print(f"{'packets_per_s':<44} {work['packets'] / wall:>16.6g} 1/s")
        print(f"{'setup_host_s':<44} {statistics.median(host for host, _ in setup):>16.6g} s")
        print("gated, at reference speed:")
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<44} {failed / max(attempted, 1):>16.6g} fraction "
          f"({failed} of {attempted} operations)")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
