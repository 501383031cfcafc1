import math
import random
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from epicsim.model import NetworkProfile, ValidationError
from epicsim.netem import Drop, Path
from epicsim.transport import fragment_runs
from reference_netem import path_state, reference_simulate


def _profile(**kw):
    base = dict(one_way_latency=2_000, jitter=0, loss_rate=0.0,
                bandwidth=10_000_000, mtu=1500, queue_capacity=1_000_000)
    base.update(kw)
    return NetworkProfile(**base)


def test_fresh_path_has_zero_counters():
    path = Path(_profile(), seed=42)
    assert (path.submitted, path.delivered, path.dropped_loss, path.dropped_queue) == (0, 0, 0, 0)
    assert path.in_flight == 0


def test_identical_construction_compares_equal():
    assert path_state(Path(_profile(), 42)) == path_state(Path(_profile(), 42))
    assert path_state(Path(_profile(), 42)) != path_state(Path(_profile(), 43))


def test_small_mtu_rejected():
    with pytest.raises(ValidationError):
        NetworkProfile(one_way_latency=0, bandwidth=10_000_000, mtu=64)


def test_a_path_needs_a_profile():
    with pytest.raises(ValidationError, match="profile must be a NetworkProfile"):
        Path({"one_way_latency": 2_000, "bandwidth": 10_000_000}, seed=1)


def test_serialization_plus_latency():
    path = Path(_profile(), seed=1)
    arrival = path.submit(bytes(1250), 0)
    assert arrival == 3_000  # 1000 us serialization + 2000 us latency


def test_near_zero_impairments():
    path = Path(_profile(one_way_latency=0, bandwidth=10**12), seed=1)
    arrival = path.submit(bytes(1250), 0)
    assert arrival <= 1  # at most the 1 us serialization round-up


def test_fifo_serializer_backlog():
    path = Path(_profile(), seed=1)
    first = path.submit(bytes(1250), 0)
    second = path.submit(bytes(1250), 0)
    assert (first, second) == (3_000, 4_000)


def test_advance_boundaries():
    path = Path(_profile(), seed=1)
    pkt = bytes(1250)
    path.submit(pkt, 0)
    assert path.advance_to(2_999) == []
    assert path.advance_to(3_000) == [(pkt, 3_000)]
    assert path.advance_to(10_000) == []


def test_oversized_packet_rejected():
    path = Path(_profile(mtu=1400), seed=1)
    with pytest.raises(ValidationError):
        path.submit(bytes(1401), 0)


def test_time_regression_rejected():
    path = Path(_profile(), seed=1)
    path.submit(b"x", 100)
    with pytest.raises(ValidationError):
        path.submit(b"x", 50)
    path.advance_to(5_000)
    with pytest.raises(ValidationError):
        path.advance_to(4_000)


def test_queue_drop_tail():
    path = Path(_profile(queue_capacity=2_500), seed=1)
    assert isinstance(path.submit(bytes(1250), 0), int)
    assert isinstance(path.submit(bytes(1250), 0), int)
    assert path.submit(bytes(1250), 0) is Drop.QUEUE
    # after the backlog serializes, space frees up again
    assert isinstance(path.submit(bytes(1250), 2_000), int)


def test_minimum_latency_invariant():
    path = Path(_profile(jitter=700), seed=9)
    ser = math.ceil(1250 * 8 * 1e6 / 10_000_000)
    for k in range(50):
        result = path.submit(bytes(1250), k * 10)
        if isinstance(result, int):
            assert result - k * 10 >= 2_000 + ser


def test_fifo_order_preserved_under_jitter():
    path = Path(_profile(jitter=5_000), seed=77)
    order = []
    for k in range(200):
        result = path.submit(k.to_bytes(4, "big"), k * 50)
        if isinstance(result, int):
            order.append(result)
    assert order == sorted(order)
    delivered = path.advance_to(10**9)
    indexes = [int.from_bytes(data, "big") for data, _ in delivered]
    assert indexes == sorted(indexes)


def test_conservation_counters():
    path = Path(_profile(loss_rate=0.2, queue_capacity=3_000), seed=5)
    for k in range(500):
        path.submit(bytes(1000), k * 17)
    assert path.submitted == 500
    assert path.submitted == path.delivered + path.dropped_loss + path.dropped_queue + path.in_flight
    path.advance_to(10**9)
    assert path.in_flight == 0
    assert path.submitted == path.delivered + path.dropped_loss + path.dropped_queue


def test_throughput_cap_during_busy_period():
    profile = _profile(one_way_latency=0, queue_capacity=10**9)
    path = Path(profile, seed=1)
    for _ in range(100):
        path.submit(bytes(1250), 0)
    deliveries = path.advance_to(10**9)
    a, b = 1_000, 50_000
    inside = sum(len(data) for data, at in deliveries if a < at <= b)
    assert inside * 8 <= profile.bandwidth * (b - a) / 1e6 + profile.mtu * 8


def test_determinism_identical_traces():
    def run():
        path = Path(_profile(jitter=900, loss_rate=0.1, queue_capacity=4_000), seed=123)
        log = []
        for k in range(300):
            log.append(path.submit(bytes(800), k * 33))
        log.append(path.advance_to(10**9))
        return log

    assert run() == run()


def test_loss_rate_convergence():
    p = 0.1
    n = 100_000
    path = Path(_profile(loss_rate=p, bandwidth=10**12, queue_capacity=10**9), seed=2024)
    for k in range(n):
        path.submit(b"x", k)
    observed = path.dropped_loss / n
    assert abs(observed - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_bandwidth_step_changes_future_serialization():
    path = Path(_profile(one_way_latency=0), seed=1)
    before = path.submit(bytes(1250), 0)
    assert before == 1_000
    path.set_bandwidth(1_000_000)
    after = path.submit(bytes(1250), 10_000)
    assert after == 20_000  # 10 ms serialization at 1 Mb/s


def test_event_driven_path_matches_stepper_reference():
    """1000 random packets across random small profiles: identical outcomes."""
    gen = random.Random(0xBEEF)
    total = 0
    for trial in range(25):
        profile = NetworkProfile(
            one_way_latency=gen.randrange(0, 5_000),
            jitter=gen.choice([0, gen.randrange(1, 1_000)]),
            loss_rate=gen.choice([0.0, 0.05, 0.2]),
            bandwidth=gen.randrange(20_000_000, 1_000_000_000),
            mtu=1400,
            queue_capacity=gen.randrange(1400, 8 * 1400),
        )
        seed = gen.getrandbits(64)
        times = sorted(gen.randrange(0, 20_000) for _ in range(40))
        submissions = [(t, gen.randrange(1, 1400)) for t in times]
        total += len(submissions)

        path = Path(profile, seed)
        got = []
        for t, size in submissions:
            result = path.submit(bytes(size), t)
            if isinstance(result, int):
                got.append(("delivered", result))
            else:
                got.append(("loss",) if result is Drop.LOSS else ("queue",))

        expected = reference_simulate(profile, seed, submissions)
        assert got == expected, f"trial {trial} diverged"
    assert total == 1_000


def _expanded(outcome_runs):
    """Arrival and drop runs expanded into one outcome per datagram, checking the runs' form."""
    out = []
    for first, step, count in outcome_runs:
        assert count >= 1
        if isinstance(first, Drop):
            assert step == 0
            out += [first] * count
        else:
            out += [first + i * step for i in range(count)]
    return out


def _burst(path, runs, now):
    """`path.submit_burst(runs, now)` expanded into one outcome per datagram."""
    out = _expanded(path.submit_burst(runs, now))
    assert len(out) == sum(count for _, count in runs)
    return out


def _outcome(result):
    if isinstance(result, int):
        return ("delivered", result)
    return ("loss",) if result is Drop.LOSS else ("queue",)


def _timing_state(path):
    """path_state(path) with each pending datagram's bytes replaced by its size."""
    state = list(path_state(path))
    pending = 9  # tuple(path._pending)
    state[pending] = tuple((at, len(d) if isinstance(d, bytes) else d) for at, d in state[pending])
    return tuple(state)


_profiles = st.builds(
    NetworkProfile,
    one_way_latency=st.integers(0, 5_000),
    jitter=st.sampled_from([0, 0, 1, 300, 3_000]),
    loss_rate=st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]),
    bandwidth=st.integers(1_000_000, 1_000_000_000),
    mtu=st.just(1_400),
    queue_capacity=st.integers(1_400, 40_000),
)
# no loss and no jitter, so netem admits equal sizes as runs; slow links and
# deep queues make runs long enough for an advance or a submit to land inside
_draw_free = st.builds(
    NetworkProfile,
    one_way_latency=st.integers(0, 2_000),
    bandwidth=st.integers(1_000_000, 100_000_000),
    mtu=st.just(1_400),
    queue_capacity=st.integers(20_000, 40_000),
)


def _runs_of(sizes):
    """The `(size, count)` runs of a list of sizes."""
    return [(size, len(list(group))) for size, group in groupby(sizes)]


def _sizes_of(runs):
    return [size for size, count in runs for _ in range(count)]


# bursts as runs: arbitrary sizes; a frame's fragments (full MTU then a last
# one, which may be full too, so equal sizes may sit in two runs); or a few
# long repeats, so that an advance, a submit or the queue cut can land inside
# a run
_sizes = st.lists(st.integers(1, 1_400), min_size=1, max_size=40).map(_runs_of)
_runs = st.one_of(
    st.builds(lambda k, last: [(1_400, k), (last, 1)], st.integers(1, 60), st.integers(1, 1_400)),
    st.lists(st.tuples(st.integers(1, 1_400), st.integers(1, 80)), min_size=1, max_size=3),
)
_ops = st.lists(st.one_of(
    st.tuples(st.just("burst"), st.integers(0, 3_000), _sizes),
    st.tuples(st.just("burst"), st.integers(0, 3_000), _runs),
    st.tuples(st.just("single"), st.integers(0, 3_000), st.integers(1, 1_400)),
    st.tuples(st.just("bandwidth"), st.just(0), st.integers(1_000_000, 1_000_000_000)),
    st.tuples(st.just("advance"), st.integers(0, 20_000), st.none()),
    st.tuples(st.just("advance"), st.integers(0, 3_000), st.none()),
), max_size=25)


@settings(max_examples=200, deadline=None)
@given(profile=_profiles | _draw_free, seed=st.integers(0, 2**64 - 1), ops=_ops)
def test_burst_equals_a_per_packet_submit_loop(profile, seed, ops):
    burst, loop = Path(profile, seed), Path(profile, seed)
    now = 0
    for op, dt, arg in ops:
        now += dt
        if op == "burst":
            got = _burst(burst, arg, now)
            assert got == [loop.submit(bytes(size), now) for size in _sizes_of(arg)]
        elif op == "single":
            assert burst.submit(bytes(arg), now) == loop.submit(bytes(arg), now)
        elif op == "bandwidth":
            burst.set_bandwidth(arg)
            loop.set_bandwidth(arg)
        else:
            delivered = [(len(d) if isinstance(d, bytes) else d, at) for d, at in burst.advance_to(now)]
            assert delivered == [(len(d), at) for d, at in loop.advance_to(now)]
        assert _timing_state(burst) == _timing_state(loop)
        assert burst.rng.state == loop.rng.state
        assert burst.in_flight == loop.in_flight



@settings(max_examples=200, deadline=None)
@given(profile=_profiles | _draw_free, seed=st.integers(0, 2**64 - 1), ops=_ops)
def test_forget_to_leaves_what_advance_to_leaves(profile, seed, ops):
    advanced, forgot = Path(profile, seed), Path(profile, seed)
    now = 0
    for op, dt, arg in ops:
        now += dt
        if op == "advance":
            advanced.advance_to(now)
            forgot.forget_to(now)
        for path in (advanced, forgot):
            if op == "burst":
                path.submit_burst(arg, now)
            elif op == "single":
                path.submit(bytes(arg), now)
            elif op == "bandwidth":
                path.set_bandwidth(arg)
        assert path_state(advanced) == path_state(forgot)
        assert (advanced.delivered, advanced.in_flight) == (forgot.delivered, forgot.in_flight)
    if now:
        advanced.advance_to(now)
        forgot.forget_to(now)
        with pytest.raises(ValidationError) as listed:
            advanced.advance_to(now - 1)
        with pytest.raises(ValidationError) as counted:
            forgot.forget_to(now - 1)
        assert str(listed.value) == str(counted.value)
        assert path_state(advanced) == path_state(forgot)

@settings(max_examples=60, deadline=None)
@given(profile=(_profiles | _draw_free).filter(lambda p: p.bandwidth >= 20_000_000),
       seed=st.integers(0, 2**64 - 1),
       bursts=st.lists(st.tuples(st.integers(0, 3_000), _sizes | _runs), min_size=1, max_size=6))
def test_bursts_match_stepper_reference(profile, seed, bursts):
    """The stepper walks every microsecond, so the backlog is kept short."""
    path = Path(profile, seed)
    submissions, got, now = [], [], 0
    for dt, runs in bursts:
        now += dt
        submissions += [(now, size) for size in _sizes_of(runs)]
        got += [_outcome(r) for r in _burst(path, runs, now)]
    assert got == reference_simulate(profile, seed, submissions)


@settings(max_examples=200, deadline=None)
@given(profile=_profiles | _draw_free, seed=st.integers(0, 2**64 - 1),
       ops=st.lists(st.tuples(st.integers(0, 3_000), st.one_of(st.integers(1, 1_400), st.none())), max_size=30))
def test_submitting_an_item_with_its_size_equals_submitting_that_many_bytes(profile, seed, ops):
    """A record ("msg", i, size) submitted with `size` against `size` bytes; None advances."""
    items, loop = Path(profile, seed), Path(profile, seed)
    in_flight, now = [], 0
    for i, (dt, size) in enumerate(ops):
        now += dt
        if size is None:
            got = items.advance_to(now)
            assert got == [(in_flight.pop(0), at) for _, at in loop.advance_to(now)]
        else:
            record = ("msg", i, size)
            result = items.submit(record, now, size)
            assert result == loop.submit(bytes(size), now)
            if isinstance(result, int):
                in_flight.append(record)
        state = list(path_state(items))
        state[9] = tuple((at, item[2]) for at, item in state[9])  # pending records by their sizes
        assert tuple(state) == _timing_state(loop)
        assert items.rng.state == loop.rng.state


def test_lossless_jitterless_burst_skips_its_draws_in_one_step():
    path = Path(_profile(), seed=9)
    path.submit_burst([(1_500, 100)], 0)
    assert path.rng.state == Path(_profile(), seed=9).rng.state + 100 * 0x9E3779B97F4A7C15 & (2**64 - 1)


def test_burst_rejects_oversize_and_time_regression_before_any_change():
    path = Path(_profile(), seed=1)
    path.submit_burst([(100, 1)], 500)
    before = _timing_state(path)
    with pytest.raises(ValidationError):
        path.submit_burst([(100, 1), (1_501, 1)], 600)
    with pytest.raises(ValidationError):
        path.submit_burst([(100, 1)], 400)
    with pytest.raises(ValidationError, match="submission time regressed"):
        path.submit_burst([(100, 0), (0, 0)], 400)
    # a datagram has at least one byte, whichever way it is submitted
    with pytest.raises(ValidationError):
        path.submit(b"", 600)
    with pytest.raises(ValidationError):
        path.submit(("msg", 0, 0), 600, 0)
    with pytest.raises(ValidationError):
        path.submit_burst([(100, 1), (0, 1)], 600)
    with pytest.raises(ValidationError):
        path.submit_series(0, 600, 100, 3)
    with pytest.raises(ValidationError, match="count must be non-negative"):
        path.submit_burst(((100, -2),), 600)
    with pytest.raises(ValidationError, match="count must be non-negative"):
        path.submit_series(100, 600, 100, -3)
    with pytest.raises(ValidationError, match="submission time regressed"):
        path.submit_series(100, 600, -1, 3)
    assert _timing_state(path) == before



def test_a_run_of_no_datagrams_submits_nothing():
    for loss_rate in (0.0, 0.5):
        burst, loop = Path(_profile(loss_rate=loss_rate), seed=3), Path(_profile(loss_rate=loss_rate), seed=3)
        assert _burst(burst, [(100, 2), (0, 0), (1_501, 0)], 0) == [loop.submit(bytes(100), 0) for _ in range(2)]
        assert _timing_state(burst) == _timing_state(loop)


def test_a_draw_free_frame_comes_back_as_at_most_two_runs():
    """A 207,360 B frame at MTU 1400 is 152 fragments, of two sizes: one arrival run each."""
    runs = fragment_runs(207_360, 1_400)
    profile = _profile(mtu=1_400)
    assert len(Path(profile, seed=4).submit_burst(runs, 0)) <= 2
    loop = Path(profile, seed=4)
    assert _burst(Path(profile, seed=4), runs, 0) == [loop.submit(bytes(size), 0) for size in _sizes_of(runs)]


def test_skipping_delivered_datagrams_then_admitting_the_last_instant_leaves_every_admissions_state():
    """Two clients' 1080p frames at four instants, 16,667 us apart, and a two-datagram sync between
    instants: each arrives before the next instant.  Counting all but the last instant's frames and the
    syncs, then one `forget_to` and the last instant's bursts, leaves what admitting each one leaves."""
    profile = _profile(mtu=1_400, bandwidth=700_000_000)
    runs, sync = fragment_runs(207_360, 1_400), ((280, 2),)
    instants, syncs = [0, 16_667, 33_334, 50_001], [10_000, 40_000]
    admitted = Path(profile, seed=6)
    for t in sorted(instants + syncs):
        if t in syncs:
            admitted.submit_burst(sync, t)
        else:
            admitted.forget_to(t)
            for _ in range(2):
                admitted.submit_burst(runs, t)
    counted, fragments = Path(profile, seed=6), sum(count for _, count in runs)
    counted.skip_delivered(2 * fragments * (len(instants) - 1) + 2 * len(syncs))
    counted.forget_to(instants[-1])
    for _ in range(2):
        counted.submit_burst(runs, instants[-1])
    assert path_state(counted) == path_state(admitted)
    assert counted.rng.state == admitted.rng.state


# draw-free with a queue of one or two MTUs, so a busy serializer drops series datagrams
_tiny_queue = st.builds(
    NetworkProfile,
    one_way_latency=st.integers(0, 2_000),
    bandwidth=st.integers(1_000_000, 100_000_000),
    mtu=st.just(1_400),
    queue_capacity=st.integers(1_400, 2_800),
)
# (op, gap before it, argument): a series of (size, step, count) starting up to
# 300 us before the last submission, so that it must raise; bursts that keep
# the serializer busy
_series_ops = st.lists(st.one_of(
    st.tuples(st.just("series"), st.integers(-300, 3_000),
              st.tuples(st.sampled_from([24, 56]) | st.integers(1, 1_400), st.integers(0, 20_000),
                        st.integers(0, 30))),
    st.tuples(st.just("burst"), st.integers(0, 3_000), _runs),
    st.tuples(st.just("bandwidth"), st.just(0), st.integers(1_000_000, 1_000_000_000)),
    st.tuples(st.just("advance"), st.integers(0, 20_000), st.none()),
), max_size=20)


@settings(max_examples=200, deadline=None)
@given(profile=_profiles | _draw_free | _tiny_queue, seed=st.integers(0, 2**64 - 1), ops=_series_ops)
def test_series_equals_a_per_datagram_submit_loop(profile, seed, ops):
    series, loop = Path(profile, seed), Path(profile, seed)
    now = 0
    for op, dt, arg in ops:
        if op == "series":
            size, step, count = arg
            first = now + dt
            if first < loop.last_submit and count:
                with pytest.raises(ValidationError):
                    series.submit_series(size, first, step, count)
                with pytest.raises(ValidationError):
                    loop.submit(bytes(size), first)
            else:
                got = series.submit_series(size, first, step, count)
                assert _expanded(got) == [loop.submit(bytes(size), first + i * step) for i in range(count)]
                if count:
                    now = max(now, first + (count - 1) * step)
        elif op == "burst":
            now += dt
            assert series.submit_burst(arg, now) == loop.submit_burst(arg, now)
        elif op == "bandwidth":
            series.set_bandwidth(arg)
            loop.set_bandwidth(arg)
        else:
            now += dt
            delivered = series.advance_to(now)
            assert delivered == [(len(d) if isinstance(d, bytes) else d, at) for d, at in loop.advance_to(now)]
        assert _timing_state(series) == _timing_state(loop)
        assert series.rng.state == loop.rng.state


def test_draw_free_series_on_an_idle_path_is_one_pending_run():
    path = Path(_profile(), seed=9)
    path.submit_burst([(1_500, 4)], 0)  # serialized by 4_800 us
    arrivals = path.submit_series(56, 5_000, 8_333, 1_000)
    assert arrivals == [(7_045, 8_333, 1_000)]
    assert len(path._pending) == 2 and path._pending[-1] == (7_045, 8_333, 1_000, 56)
    assert list(path._serializing) == [(5_000 + 999 * 8_333 + 45, 45, 1, 56)]
    assert path.rng.state == Path(_profile(), seed=9).rng.state + 1_004 * 0x9E3779B97F4A7C15 & (2**64 - 1)


@pytest.mark.parametrize("profile, busy, size, step", [
    (_profile(jitter=300), False, 56, 8_333),     # a drawing path
    (_profile(loss_rate=0.3), False, 56, 8_333),
    (_profile(), True, 56, 8_333),                # a draw-free path still serializing at the first send
    (_profile(), False, 1_500, 1_000),            # a draw-free path with tx = 1,200 us > step
])
def test_a_series_without_the_closed_form_returns_runs_of_one(profile, busy, size, step):
    path = Path(profile, seed=9)
    if busy:
        path.submit_burst([(1_500, 4)], 4_000)  # serialized by 8_800 us
    runs = path.submit_series(size, 5_000, step, 20)
    assert len(runs) == 20 and all(count == 1 for _, _, count in runs)


@pytest.mark.parametrize("profile, first, closed", [
    (_profile(), 10_000, True),
    (_profile(), 5_000, False),               # the serializer is still busy with the burst
    (_profile(jitter=300), 10_000, False),    # a drawing path
])
def test_last_submit_is_the_time_of_the_latest_submitted_datagram(profile, first, closed):
    path = Path(profile, seed=9)
    assert path.last_submit == 0
    path.submit(bytes(100), 1_000)
    assert path.last_submit == 1_000
    path.submit_burst([(1_500, 4)], 4_000)  # serialized by 8_800 us
    assert path.last_submit == 4_000
    runs = path.submit_series(56, first, 8_333, 20)
    assert (len(runs) == 1) == closed
    last = first + 19 * 8_333
    assert path.last_submit == last
    path.submit_series(56, last + 1_000, 8_333, 0)
    path.forget_to(last + 10_000)
    path.skip_delivered(5)
    assert path.last_submit == last
