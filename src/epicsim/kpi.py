"""Metrics aggregation, nearest-rank percentiles, KPI verdicts, capacity searches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .model import (
    BANDWIDTH_TARGET_BPS,
    BATTERY_GAIN_TARGET_PCT,
    RTT_TARGET_US,
    KpiReport,
    ValidationError,
)


CONGESTION_LOSS = 0.05  # frame loss above which the stress search counts a run as congested


def percentile(samples: list[int], p: float) -> int:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not samples:
        raise ValidationError("percentile of an empty sample set")
    if not 0 < p <= 100:
        raise ValidationError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True, slots=True)
class LevelChange:
    client_id: int
    window_index: int
    time: int
    old_level: int
    new_level: int
    causes: tuple[str, ...]


@dataclass(slots=True)
class FrameCounts:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.dropped


@dataclass(slots=True)
class RunTrace:
    """Everything a run measured, before verdicts are applied.

    rtt and motion-to-photon samples are per client; delivered bits are
    bucketed per simulated second per client.  queue_drop_timeline holds the
    cumulative queue-drop counter over all frame-carrying paths, sampled per
    controller window, which is what the stress search's congestion test
    inspects.  drop_reasons counts the dropped frames by reason, its keys in
    sorted order.
    """

    duration_us: int
    rtt_samples: dict[int, list[int]] = field(default_factory=dict)
    motion_to_photon: dict[int, list[int]] = field(default_factory=dict)
    per_second_bits: dict[int, list[int]] = field(default_factory=dict)
    frames: FrameCounts = field(default_factory=FrameCounts)
    per_client_frames: dict[int, FrameCounts] = field(default_factory=dict)
    level_changes: list[LevelChange] = field(default_factory=list)
    final_levels: dict[int, int] = field(default_factory=dict)
    frame_path_ids: dict[int, int] = field(default_factory=dict)
    path_counters: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    queue_drop_timeline: list[int] = field(default_factory=list)
    drop_reasons: dict[str, int] = field(default_factory=dict)
    session_start: int = 0

    def all_rtt(self) -> list[int]:
        return [s for samples in self.rtt_samples.values() for s in samples]

    def all_m2p(self) -> list[int]:
        return [s for samples in self.motion_to_photon.values() for s in samples]

    def delivered_bits(self) -> int:
        return sum(sum(buckets) for buckets in self.per_second_bits.values())


def build_report(trace: RunTrace, battery_gain: float) -> KpiReport:
    """Fold a trace and a battery gain into the verdict report.

    aggregate_throughput is total delivered frame bits over the run duration,
    summed across clients; loss_rate counts resolved frames only (in-flight
    frames at the end are neither delivered nor dropped).
    """
    rtt = trace.all_rtt()
    if not rtt:
        raise ValidationError("trace has no RTT samples")
    m2p = trace.all_m2p()
    rtt_p95 = percentile(rtt, 95)
    aggregate = trace.delivered_bits() * 1_000_000 // trace.duration_us
    resolved = trace.frames.delivered + trace.frames.dropped
    loss_rate = trace.frames.dropped / resolved if resolved else 0.0
    return KpiReport(
        rtt_p50=percentile(rtt, 50),
        rtt_p95=rtt_p95,
        rtt_p99=percentile(rtt, 99),
        motion_to_photon_p95=percentile(m2p, 95) if m2p else 0,
        aggregate_throughput=aggregate,
        loss_rate=loss_rate,
        battery_gain=battery_gain,
        pass_rtt=rtt_p95 < RTT_TARGET_US,
        pass_bandwidth=aggregate > BANDWIDTH_TARGET_BPS,
        pass_battery=battery_gain > BATTERY_GAIN_TARGET_PCT,
        frames_sent=trace.frames.sent,
        frames_delivered=trace.frames.delivered,
        frames_dropped=trace.frames.dropped,
        frames_in_flight=trace.frames.in_flight,
    )


RunFn = Callable[[int], tuple[KpiReport, RunTrace]]


def _first_failing(run: RunFn, n_max: int, fails: Callable[[KpiReport, RunTrace], bool]) -> int | None:
    """The first N of 1..n_max whose run `fails`, or None; the scan stops there,
    since congestion under adaptive control need not be monotone in N."""
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    return next((n for n in range(1, n_max + 1) if fails(*run(n))), None)


def load_search(run: RunFn, rtt_budget_us: int, loss_budget: float, n_max: int) -> int:
    """Largest user count meeting the latency and loss budgets: one less than
    the first failing N (0 if a single user already fails), or n_max."""
    first = _first_failing(run, n_max, lambda r, _: not (r.rtt_p95 <= rtt_budget_us and r.loss_rate <= loss_budget))
    return n_max if first is None else first - 1


def queue_drops_growing(trace: RunTrace) -> bool:
    """True when the cumulative queue-drop counter grows in the final quarter."""
    timeline = trace.queue_drop_timeline
    if len(timeline) < 2:
        return False
    mark = timeline[(len(timeline) * 3) // 4 - 1]
    return timeline[-1] > mark


def stress_search(run: RunFn, n_max: int) -> int | None:
    """Smallest user count that congests the network, or None if n_max stays clean.

    Congestion means frame loss above CONGESTION_LOSS or a queue-drop counter
    still growing in the final quarter of the run.
    """
    return _first_failing(run, n_max, lambda r, trace: r.loss_rate > CONGESTION_LOSS or queue_drops_growing(trace))
