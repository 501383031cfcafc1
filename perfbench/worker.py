"""One measuring process, started by run.py; prints one JSON object as its last line.

    python3 perfbench/worker.py timed  --workload NAME --seed N --seconds S
    python3 perfbench/worker.py traced --workload NAME --seed N --seconds S

`timed` runs one checked warm-up iteration, records the process's peak RSS
(a fresh process that has run one iteration), then times iterations until S
seconds have passed while SpeedProbe samples host speed.  `traced`
alternates untraced and traced iterations for S seconds, then runs the
microbenchmarks, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy  # noqa: E402
from epicsim import adapt, orchestrator  # noqa: E402

import micro  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Rebinder, Tracer  # noqa: E402

DROP_REASONS = ("fragment_queue_full", "fragment_loss", "reassembly_abandoned", "stale")


def step(workload, cfg, checker) -> float | None:
    """Run and check one iteration; its wall seconds, or None if it raised."""
    start = time.perf_counter()
    try:
        output, trace = workloads.run_once(workload, cfg)
    except Exception:  # the loop must go on and report the failure
        traceback.print_exc()
        checker.raised(traceback.format_exc().strip().splitlines()[-1])
        return None
    wall = time.perf_counter() - start
    checker.check(output, trace)
    return wall


def peak_rss_bytes() -> int:
    """Peak RSS of this process plus the largest child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024


class SpeedProbe:
    """Samples host speed with the reference loop during timed iterations.

    Host speed drifts within a second, so samples are taken not only between
    iterations but also when a scenario run starts and when the controller
    evaluates a window (``orchestrator.run_scenario`` and
    ``adapt.detect_bottleneck`` are rebound for the iteration), at most once
    per MIN_SEGMENT_S.  Each segment of an iteration is scaled by the mean of
    the two samples around it.  The loop's own time is left out of both the
    host and the reference-speed figure.
    """

    MIN_SEGMENT_S = 0.25

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (loop start, loop end)
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference.reference_seconds()
        self.marks.append((start, time.perf_counter()))

    def _sampled(self, fn):
        def sampled(*args, **kwargs):
            if time.perf_counter() - self.marks[-1][1] > self.MIN_SEGMENT_S:
                self.sample()
            return fn(*args, **kwargs)
        return sampled

    def iteration(self, workload, cfg, checker) -> tuple[float, float] | None:
        """Run one checked iteration; (host seconds, seconds at reference speed)."""
        first = len(self.marks) - 1
        rebinder = Rebinder()
        for fn in (orchestrator.run_scenario, adapt.detect_bottleneck):
            rebinder.rebind_everywhere(fn, self._sampled(fn))
        try:
            ok = step(workload, cfg, checker) is not None
        finally:
            rebinder.restore()
        self.sample()
        if not ok:
            return None
        marks = self.marks[first:]
        host = scaled = 0.0
        for (start0, end0), (start1, end1) in zip(marks, marks[1:]):
            segment = start1 - end0
            host += segment
            scaled += reference.at_reference_speed(segment, (end0 - start0 + end1 - start1) / 2)
        return host, scaled


def timed(workload, cfg, checker, seconds: float) -> dict:
    step(workload, cfg, checker)
    rss = peak_rss_bytes()
    walls, scaled = [], []
    probe = SpeedProbe()
    start = time.perf_counter()
    attempts = 0
    while attempts == 0 or time.perf_counter() - start < seconds:
        attempts += 1
        measured = probe.iteration(workload, cfg, checker)
        if measured is not None:
            walls.append(measured[0])
            scaled.append(measured[1])
    return {"walls": walls, "walls_at_reference": scaled, "peak_rss_bytes": rss}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n: int, ref: float) -> dict[str, float]:
    """Per-iteration figures from n traced iterations; ref is the reference loop's time."""
    paths = [c for t in tr.traces for c in t.path_counters.values()]
    submitted, delivered, lost, queued = (sum(c[i] for c in paths) for i in range(4))
    sent = sum(t.frames.sent for t in tr.traces)
    presented = sum(t.frames.delivered for t in tr.traces)
    drops = collections.Counter()
    for t in tr.traces:
        for reason, count in t.drop_reasons.items():
            drops[reason if reason in DROP_REASONS else "other"] += count
    hits = sum(r.cache_hits for r in tr.renderers)
    misses = sum(r.cache_misses for r in tr.renderers)
    per = {
        "netem.submit.calls": tr.calls("netem.submit"),
        "netem.dropped_queue": queued,
        "netem.dropped_loss": lost,
        "transport.encode_fragment.calls": tr.calls("transport.encode_fragment"),
        "transport.decode_message.calls": tr.calls("transport.decode_message"),
        "transport.reassembler_offer.calls": tr.calls("transport.reassembler_offer"),
        "transport.reassembly_completed": sum(r.completed_count for r in tr.reassemblers),
        "transport.reassembly_abandoned": sum(r.abandoned_count for r in tr.reassemblers),
        "render.render.calls": tr.calls("render.render"),
        "render.payload_bytes": tr.payload_bytes,
        "session.heap_events": tr.calls("session.heap_push"),
        "adapt.windows": tr.calls("adapt.detect_bottleneck"),
        "adapt.level_changes": sum(len(t.level_changes) for t in tr.traces),
        "kpi.search_runs": tr.search_runs,
        "orchestrator.scenario_runs": tr.calls("orchestrator.run_scenario"),
        "session.frames_sent": sent,
        **{f"session.drops.{reason}": drops[reason] for reason in (*DROP_REASONS, "other")},
    }
    self_times = {
        "netem.submit.self_s": ("netem.submit",),
        "netem.advance_to.self_s": ("netem.advance_to",),
        "transport.fragment.self_s": ("transport.fragment",),
        "transport.encode_fragment.self_s": ("transport.encode_fragment",),
        "transport.decode_message.self_s": ("transport.decode_message",),
        "transport.decode_fragment.self_s": ("transport.decode_fragment",),
        "transport.reassembler_offer.self_s": ("transport.reassembler_offer",),
        "render.render.self_s": ("render.render",),
        "render.frame_payload.self_s": ("render.frame_payload",),
        "render.decode_check.self_s": ("render.decode_check",),
        "rng.fill_bytes.self_s": ("rng.fill_bytes",),
        "session.run_session.self_s": ("session.run_session",),
        "session.heap.self_s": ("session.heap_push", "session.heap_pop"),
        "adapt.self_s": ("adapt.controller_step", "adapt.detect_bottleneck", "adapt.bottleneck_causes"),
        "kpi.build_report.self_s": ("kpi.build_report",),
        "orchestrator.parse_scenario.self_s": ("orchestrator.parse_scenario",),
        "orchestrator.scale_clients.self_s": ("orchestrator.scale_clients",),
        "orchestrator.deploy_handshake.self_s": ("orchestrator.deploy_handshake",),
        "orchestrator.run_scenario.self_s": ("orchestrator.run_scenario",),
    }
    metrics = {name: value / n for name, value in per.items()}
    metrics.update({name: reference.at_reference_speed(tr.self_s(*spans) / n, ref)
                    for name, spans in self_times.items()})
    metrics["netem.delivered_ratio"] = _ratio(delivered, submitted)
    metrics["render.cache_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["session.frame_delivery_ratio"] = _ratio(presented, sent)
    return metrics


def traced(workload, cfg, checker, seconds: float) -> dict:
    """Per-layer figures; self times and microbenchmarks are at reference speed."""
    tracer = Tracer()
    plain, with_trace, refs = [], [], []
    start = time.perf_counter()
    while not with_trace or time.perf_counter() - start < seconds:
        wall = step(workload, cfg, checker)
        refs.append(reference.reference_seconds())
        tracer.install()
        try:
            traced_wall = step(workload, cfg, checker)
        finally:
            tracer.restore()
        refs.append(reference.reference_seconds())
        if wall is None or traced_wall is None:
            break
        plain.append(wall)
        with_trace.append(traced_wall)
    metrics = layer_metrics(tracer, max(len(with_trace), 1), statistics.median(refs))
    metrics["trace.overhead_frac"] = (
        statistics.median(with_trace) / statistics.median(plain) - 1 if plain else -1.0)
    for name, case in micro.CASES.items():
        before = reference.reference_seconds()
        try:
            ns = case()
        except Exception:  # an API change must not hide the end-to-end result
            traceback.print_exc()
            metrics[name] = -1.0
            continue
        metrics[name] = reference.at_reference_speed(ns, (before + reference.reference_seconds()) / 2)
    return {"metrics": metrics, "traced_iterations": len(with_trace)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    cfg = workloads.load_config(workload, args.seed)
    checker = workloads.Checker(workload, cfg.seed)
    measure = timed if args.mode == "timed" else traced
    out = measure(workload, cfg, checker, args.seconds)
    out.update(attempted=checker.attempted, failed=checker.failed, problems=checker.problems,
               seed=cfg.seed, python=sys.version.split()[0], numpy=numpy.__version__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
