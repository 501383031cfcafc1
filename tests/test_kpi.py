import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from epicsim.kpi import (
    FrameCounts,
    RunTrace,
    build_report,
    load_search,
    percentile,
    queue_drops_growing,
    stress_search,
)
from epicsim.model import ValidationError


def test_percentile_examples():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([7], 1) == 7
    assert percentile([7], 99) == 7
    assert percentile(list(range(1, 101)), 99) == 99


def test_percentile_rejects_empty_and_bad_p():
    with pytest.raises(ValidationError):
        percentile([], 50)
    with pytest.raises(ValidationError):
        percentile([1], 0)
    with pytest.raises(ValidationError):
        percentile([1], 101)


@given(st.lists(st.integers(0, 10**7), min_size=1, max_size=500),
       st.integers(1, 100))
@settings(max_examples=200)
def test_percentile_matches_sort_reference(samples, p):
    ordered = sorted(samples)
    expected = ordered[math.ceil(p / 100 * len(ordered)) - 1]
    assert percentile(samples, p) == expected
    assert percentile(samples, p) in samples


def _trace(**kw):
    trace = RunTrace(duration_us=kw.pop("duration_us", 10_000_000))
    trace.rtt_samples = kw.pop("rtt", {0: [4_000] * 100})
    trace.motion_to_photon = kw.pop("m2p", {0: [9_000] * 100})
    trace.per_second_bits = kw.pop("bits", {0: [99_532_800] * 10})
    trace.frames = kw.pop("frames", FrameCounts(sent=600, delivered=598, dropped=1))
    for key, value in kw.items():
        setattr(trace, key, value)
    return trace


def test_build_report_throughput_and_verdicts():
    bits = {c: [99_532_800] * 10 for c in range(8)}
    rtt = {c: [4_000] * 100 for c in range(8)}
    trace = _trace(bits=bits, rtt=rtt, m2p={0: [9_000]})
    report = build_report(trace, battery_gain=50.0)
    assert report.aggregate_throughput == 8 * 99_532_800
    assert report.pass_bandwidth is True
    assert report.pass_rtt is True
    assert report.pass_battery is True
    assert report.rtt_p95 == 4_000


def test_build_report_boundary_is_strict():
    trace = _trace(rtt={0: [7_000] * 100})
    report = build_report(trace, battery_gain=30.0)
    assert report.pass_rtt is False
    assert report.pass_battery is False


def test_build_report_five_client_bandwidth_fails():
    bits = {c: [99_532_800] * 10 for c in range(5)}
    trace = _trace(bits=bits)
    report = build_report(trace, battery_gain=50.0)
    assert report.aggregate_throughput == 5 * 99_532_800
    assert report.pass_bandwidth is False


def test_build_report_loss_rate_counts_resolved_frames():
    trace = _trace(frames=FrameCounts(sent=100, delivered=80, dropped=20))
    report = build_report(trace, 0.0)
    assert report.loss_rate == pytest.approx(0.2)
    assert report.frames_in_flight == 0


def test_build_report_requires_rtt_samples():
    with pytest.raises(ValidationError):
        build_report(_trace(rtt={0: []}), 0.0)


def _mk_run(pass_up_to, loss_at=None):
    """Synthetic run function: reports clean up to a user count, then lossy."""
    calls = []

    def run(n):
        calls.append(n)
        dropped = 30 * n if n > pass_up_to else 0
        frames = FrameCounts(sent=100 * n, delivered=100 * n - dropped, dropped=dropped)
        trace = _trace(frames=frames)
        report = build_report(trace, 50.0)
        return report, trace

    return run, calls


def test_load_search_scans_to_first_failure():
    run, calls = _mk_run(pass_up_to=10)
    assert load_search(run, rtt_budget_us=7_000, loss_budget=0.02, n_max=16) == 10
    assert calls == list(range(1, 12))  # stops at the first failing N


def test_load_search_degenerate_zero():
    run, _ = _mk_run(pass_up_to=0)
    assert load_search(run, 7_000, 0.02, n_max=16) == 0


def test_load_search_all_clean_returns_n_max():
    run, _ = _mk_run(pass_up_to=100)
    assert load_search(run, 7_000, 0.02, n_max=8) == 8


def test_stress_search_finds_first_congested():
    run, _ = _mk_run(pass_up_to=10)
    assert stress_search(run, n_max=16) == 11


def test_stress_search_clean_returns_none():
    run, _ = _mk_run(pass_up_to=100)
    assert stress_search(run, n_max=8) is None


def test_stress_search_sees_queue_growth():
    def run(n):
        trace = _trace()
        trace.queue_drop_timeline = [0] * 30 + ([0] * 10 if n < 3 else list(range(10)))
        report = build_report(trace, 50.0)
        return report, trace

    assert stress_search(run, n_max=5) == 3


def test_queue_growth_detector():
    t = _trace()
    t.queue_drop_timeline = [0, 0, 5, 5, 5, 5, 5, 5]
    assert not queue_drops_growing(t)
    t.queue_drop_timeline = [0, 0, 5, 5, 5, 5, 5, 9]
    assert queue_drops_growing(t)


def test_each_search_runs_up_to_its_own_first_failure():
    # over the latency budget from 4 users, congested from 7
    calls = []

    def run(n):
        calls.append(n)
        dropped = 30 * n if n >= 7 else 0
        trace = _trace(rtt={0: [8_000 if n >= 4 else 4_000] * 100},
                       frames=FrameCounts(sent=100 * n, delivered=100 * n - dropped, dropped=dropped))
        return build_report(trace, 50.0), trace

    assert load_search(run, 7_000, 0.02, n_max=16) == 3
    assert calls == [1, 2, 3, 4]
    calls.clear()
    assert stress_search(run, n_max=16) == 7
    assert calls == list(range(1, 8))
    for search, clean in ((lambda: load_search(run, 7_000, 0.02, n_max=3), 3),
                          (lambda: stress_search(run, n_max=3), None)):
        calls.clear()
        assert search() == clean
        assert calls == [1, 2, 3]  # nothing fails, so every N up to n_max runs
    for search in (lambda: load_search(run, 7_000, 0.02, n_max=0), lambda: stress_search(run, n_max=0)):
        calls.clear()
        with pytest.raises(ValidationError, match="n_max must be at least 1"):
            search()
        assert calls == []


def test_searches_reproducible():
    run, _ = _mk_run(pass_up_to=6)
    first = (load_search(run, 7_000, 0.02, 16), stress_search(run, 16))
    run2, _ = _mk_run(pass_up_to=6)
    second = (load_search(run2, 7_000, 0.02, 16), stress_search(run2, 16))
    assert first == second == (6, 7)
