import copy
import logging
import math
import re
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from capture_goldens import apply_overrides
from epicsim import netem, orchestrator, session
from epicsim.kpi import FrameCounts, build_report
from epicsim.model import (
    DEFAULT_LADDER,
    CapacityError,
    NetworkProfile,
    NodeSpec,
    ValidationError,
)
from epicsim.netem import Drop
from epicsim.session import (
    BandwidthStep,
    ClientSpec,
    SessionSettings,
    SessionTopology,
    compare_topologies,
    run_session,
)
from epicsim.transport import fragment_runs
from reference_netem import path_state
from test_per_packet_reference import SCENARIOS, _train_case
from test_random_scenarios import _document, _tie_document, _train_document
from train_counts import count as count_trains, run_benchmark_scenario

EDGE_NODE = NodeSpec(node_id=1, pixel_throughput=5_000_000_000, encode_throughput=4_000_000_000)
CLEAN = NetworkProfile(one_way_latency=0, jitter=0, loss_rate=0.0, bandwidth=10**12, mtu=1400)
NOMINAL = NetworkProfile(one_way_latency=2_000, jitter=0, loss_rate=0.0,
                         bandwidth=700_000_000, mtu=1400)


def _edge(clients, **kw):
    return SessionTopology("edge_hosted", clients, host_node=kw.pop("node", EDGE_NODE), **kw)


def test_impairment_free_second_delivers_every_frame():
    topo = _edge((ClientSpec(0, CLEAN),))
    trace = run_session(topo, DEFAULT_LADDER, 1_000_000, SessionSettings(), seed=1)
    assert trace.frames.sent == 60
    assert trace.frames.delivered == 60
    assert trace.frames.dropped == 0


def test_probe_rtt_is_twice_latency_plus_probe_serialization():
    topo = _edge((ClientSpec(0, NOMINAL),))
    trace = run_session(topo, DEFAULT_LADDER, 2_000_000, SessionSettings(), seed=1)
    assert set(trace.all_rtt()) == {4_002}  # 2 * (2000 us + 1 us for 24 B at 700 Mb/s)


def test_trace_is_deterministic():
    topo = _edge((ClientSpec(0, NOMINAL), ClientSpec(1, NOMINAL)))
    kw = dict(ladder=DEFAULT_LADDER, duration_us=1_500_000, settings=SessionSettings(), seed=99)
    assert run_session(topo, **kw) == run_session(topo, **kw)


def test_different_seed_changes_payload_flow_but_not_structure():
    profile = NetworkProfile(one_way_latency=2_000, jitter=500, loss_rate=0.01,
                             bandwidth=700_000_000, mtu=1400)
    topo = _edge((ClientSpec(0, profile),))
    a = run_session(topo, DEFAULT_LADDER, 1_000_000, SessionSettings(), seed=1)
    b = run_session(topo, DEFAULT_LADDER, 1_000_000, SessionSettings(), seed=2)
    assert a.frames.sent == b.frames.sent
    assert a.all_rtt() != b.all_rtt()  # jitter draws differ


def test_duration_under_one_second_rejected():
    topo = _edge((ClientSpec(0, CLEAN),))
    with pytest.raises(ValidationError):
        run_session(topo, DEFAULT_LADDER, 999_999, SessionSettings(), seed=1)


def test_node_session_capacity_enforced():
    node = NodeSpec(node_id=1, pixel_throughput=10**10, encode_throughput=10**10, max_sessions=1)
    topo = _edge((ClientSpec(0, CLEAN), ClientSpec(1, CLEAN)), node=node)
    with pytest.raises(CapacityError):
        run_session(topo, DEFAULT_LADDER, 1_000_000, SessionSettings(), seed=1)


def test_topology_validation():
    with pytest.raises(ValidationError):
        SessionTopology("edge_hosted", (ClientSpec(0, CLEAN),))  # missing node
    with pytest.raises(ValidationError):
        SessionTopology("client_hosted", (ClientSpec(0, CLEAN),), master_id=5,
                        master_uplink=NOMINAL)  # master not among clients
    with pytest.raises(ValidationError, match="receiver besides the master"):
        SessionTopology("client_hosted", (ClientSpec(0, CLEAN),), master_id=0, master_uplink=NOMINAL)
    with pytest.raises(ValidationError):
        SessionTopology("mesh", (ClientSpec(0, CLEAN),))


def test_state_sync_reaches_every_streamed_client():
    topo = _edge((ClientSpec(0, CLEAN), ClientSpec(1, CLEAN)))
    trace = run_session(topo, DEFAULT_LADDER, 1_000_000, SessionSettings(), seed=1)
    assert trace.path_counters["down_frames[0]"][0] > 60  # frames plus sync messages


def test_presented_frames_strictly_increase():
    profile = NetworkProfile(one_way_latency=2_000, jitter=3_000, loss_rate=0.02,
                             bandwidth=700_000_000, mtu=1400)
    topo = _edge((ClientSpec(0, profile),))
    trace = run_session(topo, DEFAULT_LADDER, 2_000_000, SessionSettings(), seed=5)
    # conservation with real losses in play
    f = trace.frames
    assert f.sent == f.delivered + f.dropped + f.in_flight
    assert f.dropped > 0


def test_edge_paths_are_independent_and_master_uplink_is_shared():
    clients = tuple(ClientSpec(i, NOMINAL) for i in range(3))
    uplink = NetworkProfile(one_way_latency=2_000, bandwidth=50_000_000, mtu=1400)
    cmp = compare_topologies(clients, EDGE_NODE, uplink, DEFAULT_LADDER,
                             1_000_000, SessionSettings(adaptation=False), seed=3)
    edge_paths = set(cmp.edge.frame_path_ids.values())
    hosted_paths = set(cmp.client_hosted.frame_path_ids.values())
    assert len(edge_paths) == 3       # one downstream path per client
    assert len(hosted_paths) == 1     # every receiver shares the master uplink


def test_master_uplink_starves_receivers():
    clients = tuple(ClientSpec(i, NOMINAL) for i in range(4))
    uplink = NetworkProfile(one_way_latency=2_000, bandwidth=50_000_000, mtu=1400)
    cmp = compare_topologies(clients, EDGE_NODE, uplink, DEFAULT_LADDER,
                             2_000_000, SessionSettings(adaptation=False), seed=3)
    edge, hosted = cmp.edge.frames, cmp.client_hosted.frames
    assert edge.dropped == 0
    hosted_resolved = hosted.delivered + hosted.dropped
    assert hosted.dropped / hosted_resolved > 0.5
    # identical seeds; reports build cleanly from both traces
    build_report(cmp.edge, 50.0)
    build_report(cmp.client_hosted, -10.0)


def test_compare_topologies_zero_duration_guard():
    clients = (ClientSpec(0, NOMINAL),)
    with pytest.raises(ValidationError):
        compare_topologies(clients, EDGE_NODE, NOMINAL, DEFAULT_LADDER, 0,
                           SessionSettings(), seed=1)


def test_master_presents_locally_without_network():
    clients = (ClientSpec(0, NOMINAL), ClientSpec(1, NOMINAL))
    topo = SessionTopology("client_hosted", clients, master_id=0, master_uplink=NOMINAL)
    trace = run_session(topo, DEFAULT_LADDER, 1_000_000, SessionSettings(), seed=2)
    master = trace.per_client_frames[0]
    assert master.sent == master.delivered > 0
    assert sum(trace.per_second_bits[0]) == 0          # no network bits for the master
    assert sum(trace.per_second_bits[1]) > 0
    assert 0 not in trace.frame_path_ids               # master has no downstream path


def test_master_frames_end_one_render_time_before_the_run():
    clients = (ClientSpec(3, NOMINAL), ClientSpec(0, NOMINAL))
    topo = SessionTopology("client_hosted", clients, master_id=0, master_uplink=NOMINAL)
    # 1080p60 on the device renders in 10,368 us; the 61st frame starts at 1,000,020 us
    for duration, frames in ((1_010_387, 60), (1_010_388, 61)):
        trace = run_session(topo, DEFAULT_LADDER, duration, SessionSettings(), seed=2)
        assert trace.per_client_frames[0] == FrameCounts(frames, frames)
        assert trace.motion_to_photon[0] == [10_368] * frames
        assert list(trace.per_client_frames) == [3, 0]  # topology order


@pytest.mark.parametrize("step, match", [((-1, 30_000_000), "non-negative"), ((0, 0), "positive")])
def test_bandwidth_step_rejects_a_negative_time_and_a_dead_link(step, match):
    with pytest.raises(ValidationError, match=match):
        BandwidthStep(*step)


def test_bandwidth_step_forces_downgrade_and_settles():
    topo = _edge((ClientSpec(0, NOMINAL),))
    settings = SessionSettings(bandwidth_steps=(BandwidthStep(2_000_000, 30_000_000),))
    trace = run_session(topo, DEFAULT_LADDER, 7_000_000, settings, seed=3)
    assert trace.final_levels[0] == 3  # highest level with bitrate <= 0.9 * 30 Mb/s
    assert [c.new_level for c in trace.level_changes] == [1, 2, 3]
    assert all(c.time > 2_000_000 for c in trace.level_changes)


def test_targeted_bandwidth_step_throttles_only_its_clients():
    topo = _edge((ClientSpec(0, NOMINAL), ClientSpec(1, NOMINAL)))
    settings = SessionSettings(adaptation=False,
                               bandwidth_steps=(BandwidthStep(0, 30_000_000, client_ids=(1,)),))
    trace = run_session(topo, DEFAULT_LADDER, 1_000_000, settings, seed=3)
    assert trace.per_client_frames[0].dropped == 0
    assert trace.per_client_frames[1].dropped > 0


def test_adaptation_disabled_holds_the_level():
    topo = _edge((ClientSpec(0, NOMINAL),))
    settings = SessionSettings(adaptation=False,
                               bandwidth_steps=(BandwidthStep(1_000_000, 30_000_000),))
    trace = run_session(topo, DEFAULT_LADDER, 3_000_000, settings, seed=3)
    assert trace.level_changes == []
    assert trace.final_levels[0] == 0
    assert trace.frames.dropped > 0  # overload with no adaptation keeps dropping


def test_prerender_hides_render_time_in_motion_to_photon():
    topo = _edge((ClientSpec(0, NOMINAL),))
    base = run_session(topo, DEFAULT_LADDER, 2_000_000, SessionSettings(), seed=4)
    ahead = run_session(topo, DEFAULT_LADDER, 2_000_000, SessionSettings(prerender=1), seed=4)
    m2p_base = sorted(base.all_m2p())[len(base.all_m2p()) // 2]
    m2p_ahead = sorted(ahead.all_m2p())[len(ahead.all_m2p()) // 2]
    assert m2p_ahead == m2p_base - 415  # the modeled render time at L0 on this node


def test_input_drives_motion_to_photon():
    topo = _edge((ClientSpec(0, NOMINAL),))
    trace = run_session(topo, DEFAULT_LADDER, 2_000_000, SessionSettings(), seed=1)
    m2p = trace.all_m2p()
    assert m2p, "frames should carry input provenance"
    # photon latency >= uplink latency + render + encode + downlink latency
    assert min(m2p) >= 2_000 + 415 + 519 + 2_000


# clients on one shared egress, whose frames trains settle: 3 equal ones, two decode rates, three
# clients at 50 and 25 fps whose frame events at an instant run out of client order, and ten 1080p
# clients whose trains admit their instants to a path busy at nearly every ready
_SHARED_LOG_CASES = {
    "shared-egress": dict(decodes=(7_000_000_000,) * 3, shared=True),
    "decode-rates-on-a-shared-egress": dict(decodes=(7_000_000_000, 3_000_000), shared=True),
    "frame-event-order-on-a-shared-egress": dict(decodes=(7_000_000_000,) * 3, shared=True, fps=(50, 25),
                                                 wobbly=(0, 2), seed=18),
    "ten-clients-on-a-shared-egress": dict(decodes=(7_000_000_000,) * 10, shared=True, bandwidth=1_000_000_000,
                                           mtu=9_000, latency=2_000, encode=4_000_000_000, sizes=((1920, 1080),)),
}


@pytest.mark.parametrize("case", ["lossy", "clean", *_SHARED_LOG_CASES])
def test_packet_logging_is_one_line_per_frame(case, caplog, monkeypatch):
    """EPICSIM_LOG=packets: one line per frame sent, naming its client and outcome; a dropped
    frame's line names the reason the trace counts it under.  On the clean paths trains settle frames,
    and on a shared egress they log the lines that frame events log, in the same order."""
    caplog.set_level(logging.DEBUG, logger="epicsim.session")
    trained, train = [], session._Simulation._train

    def training(sim, t, st):
        trained.append(train(sim, t, st))
        return trained[-1]

    monkeypatch.setattr(session._Simulation, "_train", training)
    if case in _SHARED_LOG_CASES:
        args = _train_case(**_SHARED_LOG_CASES[case])
    else:
        impairments = dict(jitter=500, loss_rate=0.01, queue_capacity=100_000) if case == "lossy" else {}
        profile = NetworkProfile(one_way_latency=2_000, bandwidth=700_000_000, mtu=1400, **impairments)
        args = (_edge((ClientSpec(0, profile), ClientSpec(7, profile))), DEFAULT_LADDER, 1_000_000,
                SessionSettings(), 1)
    trace = run_session(*args)
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    lines = [re.fullmatch(r"t=\d+ client (\d+) frame (\d+): \d+ fragments, (\d+) dropped, (\w+) at \d+", message)
             for message in messages]
    frames = {cid: [int(line[2]) for line in lines if int(line[1]) == cid] for cid in trace.per_client_frames}
    assert frames == {cid: list(range(counts.sent)) for cid, counts in trace.per_client_frames.items()}
    outcomes = Counter(line[4] for line in lines)
    assert set(outcomes) <= {"completes", "reassembly_abandoned", "fragment_loss", "fragment_queue_full"}
    assert all((line[3] != "0") == line[4].startswith("fragment_") for line in lines)
    assert {reason: n for reason, n in outcomes.items() if reason.startswith("fragment_")} == {
        reason: n for reason, n in trace.drop_reasons.items() if reason.startswith("fragment_")}
    if case == "lossy":
        assert outcomes["fragment_loss"] and outcomes["fragment_queue_full"] and not any(trained)
    else:
        assert outcomes == {"completes": trace.frames.sent} and any(trained)
    if case in _SHARED_LOG_CASES:
        caplog.clear()
        monkeypatch.setattr(session._Simulation, "_train", lambda sim, t, st: False)
        assert run_session(*args) == trace
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG] == messages


# frames settled by trains, and frames started, by the event loop's clients of each scenario's runs: the
# benchmark's three workloads, the shared egress through its load and stress searches
_TRAIN_SETTLED = {"edge-nominal": (600, 600), "master-server": (39, 897), "shared-egress": (11_520, 11_880)}


@pytest.mark.parametrize("name", list(_TRAIN_SETTLED))
def test_trains_settle_the_benchmark_scenarios_frames(name):
    """The frames that trains settle, counted exactly: one that falls back to its events costs heap
    events, and no report shows it."""
    counts, _ = count_trains(name)
    assert (counts["settled"], counts["started"]) == _TRAIN_SETTLED[name]


# `Path.submit_series` calls on the input, PING and PONG paths, summed over each scenario's runs as
# `_TRAIN_SETTLED` sums its frames: an admission reaches `session._BLOCK` datagrams ahead, so a client's
# first one covers a run of 8.5 s of inputs at the default tick and its PINGs for 102 s
_ADMISSIONS = {"edge-nominal": (2, 1, 1), "master-server": (3, 3, 3), "shared-egress": (132, 132, 132)}


@pytest.mark.parametrize("name", list(_ADMISSIONS))
def test_inputs_and_probes_are_admitted_a_block_at_a_time(name, monkeypatch):
    """Counted exactly, by the name of the path each series goes to: another count, or a series on a frame
    path, is a change in the admission policy, which no report shows."""
    counts, kinds = Counter(), {}
    series, run = netem.Path.submit_series, session._Simulation.run

    def submitting(path, *args):
        counts[kinds[id(path)]] += 1
        return series(path, *args)

    def running(sim):
        kinds.update((id(r.path), r.name.partition("[")[0]) for r in sim.paths)
        try:
            return run(sim)
        finally:
            kinds.clear()

    monkeypatch.setattr(netem.Path, "submit_series", submitting)
    monkeypatch.setattr(session._Simulation, "run", running)
    run_benchmark_scenario(name)
    up_data, up_probe, down_probe = _ADMISSIONS[name]
    assert counts == Counter(up_data=up_data, up_probe=up_probe, down_probe=down_probe)


def _block_documents():
    """(id, scenario document) pairs on which to compare the admission policies: the shipped scenarios, edge-nominal
    with impaired paths, PINGs and inputs sparser than the windows or very dense, and a bandwidth step between
    windows that cuts each client's first block of inputs, then the generated documents of the all-events tests."""
    shipped = {path.stem: orchestrator.load_scenario(str(path)).raw for path in sorted(SCENARIOS.glob("*.json"))}
    nominal = shipped["edge-nominal"]
    variants = {
        "impaired": {"paths": {"jitter": 300, "loss_rate": 0.005}},
        "pings-sparser-than-windows": {"doc": {"ping_interval": 300_000}},
        "pings-every-100us": {"doc": {"ping_interval": 100}},
        "inputs-sparser-than-windows": {"doc": {"tick": 300_000}},
        "step-between-windows": {"doc": {"events": [{"time": 3_100_000, "bandwidth": 30_000_000}]}},
    }
    yield from shipped.items()
    for name, overrides in variants.items():
        yield f"edge-nominal-{name}", apply_overrides(nominal, overrides)
    for make in (_document, _tie_document, _train_document):
        for seed in range(40):
            yield f"{make.__name__.strip('_')}-{seed}", make(seed)


def _block_outcome(cfg, block, monkeypatch):
    """The run's trace and report bytes with `session._BLOCK` set to `block`, or the failure it raised."""
    monkeypatch.setattr(session, "_BLOCK", block)
    try:
        result = orchestrator.run_scenario(cfg)
    except orchestrator.NoPong as exc:
        return repr(exc)
    return result.trace, orchestrator.report_to_json(result.report)


_BLOCK_DOCUMENTS = dict(_block_documents())


@pytest.mark.parametrize("name", list(_BLOCK_DOCUMENTS))
def test_admitting_a_block_ahead_matches_admitting_window_by_window(name, monkeypatch):
    """A `_BLOCK` of 1 admits each client's PINGs and inputs window by window, as far as the window needs: the same
    trace and report bytes as admitting them a block ahead."""
    cfg = orchestrator.parse_scenario(_BLOCK_DOCUMENTS[name])
    ahead = _block_outcome(cfg, session._BLOCK, monkeypatch)
    assert _block_outcome(cfg, 1, monkeypatch) == ahead


@pytest.mark.parametrize("first", [Drop.LOSS, Drop.QUEUE])
def test_a_frame_with_a_loss_and_a_queue_cut_is_dropped_for_its_first_dropped_fragment(first):
    """A queue of two fragments behind a lossy link, so a frame both loses fragments and has them cut."""
    profile = NetworkProfile(one_way_latency=2_000, loss_rate=0.3, bandwidth=700_000_000, mtu=1400,
                             queue_capacity=2_800)
    for seed in range(100):
        sim = session._Simulation(_edge((ClientSpec(0, profile),)), DEFAULT_LADDER, 1_000_000,
                                  SessionSettings(), seed, 0)
        loop = copy.deepcopy(sim.clients[0].down_frames)
        # each fragment carried as its size, as a burst carries it
        outcomes = [loop.submit(size, 0, size) for size, count in fragment_runs(207_360, 1400) for _ in range(count)]
        drops = [outcome for outcome in outcomes if isinstance(outcome, Drop)]
        if set(drops) == set(Drop) and drops[0] is first:
            break
    else:
        raise AssertionError(f"no seed drops a {first.value} fragment first and the other kind later")
    sim._on_ready(0, sim.clients[0], 0, 0, None)
    assert sim.trace.drop_reasons == {"fragment_" + first.value: 1}
    assert path_state(sim.clients[0].down_frames) == path_state(loop)


def test_dropping_a_frame_that_is_not_pending_raises():
    """A frame is resolved once: dropping one resolved already, or never sent, is a fault, not a no-op."""
    sim = session._Simulation(_edge((ClientSpec(0, NOMINAL),)), DEFAULT_LADDER, 1_000_000, SessionSettings(), 0, 0)
    st = sim.clients[0]
    st.pending[0] = (0, 0, None, None)
    sim._drop_frame(st, 0, "stale")
    for fid in (0, 1):
        with pytest.raises(KeyError):
            sim._drop_frame(st, fid, "stale")
    assert sim.trace.drop_reasons == {"stale": 1} and st.frames.dropped == 1


def test_scene_complexity_floor_is_a_settings_check():
    with pytest.raises(ValidationError, match="scene_complexity"):
        SessionSettings(scene_complexity=0.05)


@pytest.mark.parametrize("field", [{"sync_payload_bytes": -1}, {"scene_complexity": math.nan},
                                   {"scene_complexity": math.inf}])
def test_settings_reject_a_negative_sync_and_a_non_finite_complexity(field):
    with pytest.raises(ValidationError, match=next(iter(field))):
        SessionSettings(**field)


_PROBE_PROFILES = [NOMINAL, NetworkProfile(one_way_latency=2_000, jitter=3_000, loss_rate=0.05,
                                          bandwidth=700_000_000, mtu=1400)]


@pytest.mark.parametrize("profile", _PROBE_PROFILES)
def test_probe_state_after_each_window_is_the_probes_in_flight(profile):
    """Each window submits the PINGs sent by then, and keeps only the PONGs it has not yet applied;
    it submits the inputs sent by the next window, and keeps only the inputs the host has not read."""
    interval, tick, window = 100, 100, 250_000
    one_way = profile.one_way_latency + profile.jitter + 1  # the longest, with 1 us for a 24 B probe or 56 B input
    frame_interval = max(level.frame_interval for level in DEFAULT_LADDER)  # since the last frame read its inputs
    checked = []

    class Checked(session._Simulation):
        def _on_window(self, t):
            super()._on_window(t)
            for st in self.clients.values():
                assert st.up_probe.submitted == (t - self.start) // interval + 1
                assert all(sent <= t <= at for at, sent, *_ in st.pongs)
                assert len(st.pongs) <= 2 * one_way // interval + 1
                assert st.up_probe.in_flight <= one_way // interval + 1
                assert st.down_probe.in_flight <= 2 * one_way // interval + 1
                assert sum(run[2] for run in st.inputs) <= (window + frame_interval + one_way) // tick + 1
                assert st.up_data.in_flight <= (window + one_way) // tick + 1
            checked.append(t)

    sim = Checked(_edge((ClientSpec(0, profile),)), DEFAULT_LADDER, 2_000_000,
                  SessionSettings(tick_us=tick, ping_interval_us=interval), 3, 0)
    trace = sim.run()
    assert len(checked) == 2_000_000 // window
    assert len(trace.rtt_samples[0]) > 0.8 * 2_000_000 // interval
    assert sim.clients[0].up_data.submitted == (sim.end - sim.start) // tick + 1


@pytest.mark.parametrize("profile", _PROBE_PROFILES)
def test_probe_state_after_each_window_is_at_most_a_block_ahead(profile):
    """With a PING and an input every 1 ms a block reaches past the window, unlike every 100 us above: each window
    has submitted the PINGs sent by then and the inputs sent by the next window, rounded up to whole blocks and cut
    at the end.  A client holds the PONGs and inputs that the test above bounds and those admitted ahead of the
    window; a path forgets its deliveries only when it admits, so it holds at most a block more in flight."""
    interval = tick = 1_000
    window, block, total = 250_000, session._BLOCK, 3_000_000 // interval + 1  # a whole second block, a cut third
    assert (block - 1) * interval > window
    one_way = profile.one_way_latency + profile.jitter + 1  # the longest, with 1 us for a 24 B probe or 56 B input
    frame_interval = max(level.frame_interval for level in DEFAULT_LADDER)  # since the last frame read its inputs
    checked = []

    def blocks(count):
        return min(-(-count // block) * block, total)

    class Checked(session._Simulation):
        def _on_window(self, t):
            super()._on_window(t)
            for st in self.clients.values():
                pings = (t - self.start) // interval + 1
                inputs = (min(self.next_window, self.end) - self.start) // tick + 1
                assert st.up_probe.submitted == blocks(pings)
                assert st.up_data.submitted == blocks(inputs)
                assert all(t <= at for at, *_ in st.pongs)
                assert len(st.pongs) <= 2 * one_way // interval + 1 + st.up_probe.submitted - pings
                assert sum(run[2] for run in st.inputs) <= ((window + frame_interval + one_way) // tick + 1
                                                           + st.up_data.submitted - inputs)
                assert st.up_probe.in_flight <= one_way // interval + block
                assert st.down_probe.in_flight <= 2 * one_way // interval + block
                assert st.up_data.in_flight <= (window + one_way) // tick + block
            checked.append(t)

    sim = Checked(_edge((ClientSpec(0, profile),)), DEFAULT_LADDER, 3_000_000,
                  SessionSettings(tick_us=tick, ping_interval_us=interval), 3, 0)
    trace = sim.run()
    assert len(checked) == 3_000_000 // window
    assert len(trace.rtt_samples[0]) > 0.8 * 3_000_000 // interval
    assert sim.clients[0].up_data.submitted == total


@st.composite
def _input_reads(draw):
    """A client's input state before k frame events at t, t + interval, ... and those frames.

    The admitted runs are in send order, each a run of one or arriving tick apart, with arrivals that never
    fall: a run of one may arrive with the input before it, as on a jittery path.  Most arrivals fall on a
    frame event's microsecond or next to it, with trip times below, at and above the interval."""
    tick = draw(st.integers(100, 130))
    interval = draw(st.one_of(st.just(tick), st.sampled_from([2 * tick, 3 * tick, 2 * tick + 1]),
                              st.integers(100, 400)))
    k, prev = draw(st.integers(1, 12)), draw(st.integers(0, 400))
    t = prev + draw(st.sampled_from([0, interval, tick, 1, 257]))
    trips = [interval - 1, interval, interval + 1, 2 * interval, tick, 1]
    runs, last_sent, floor = [], -10**6, -10**6
    for _ in range(draw(st.integers(0, 6))):
        arrival = t + draw(st.integers(-1, k)) * interval + draw(st.sampled_from([0, 0, -1, 1]))
        sent = max(arrival - draw(st.one_of(st.sampled_from(trips), st.integers(1, 3 * interval))),
                   last_sent + draw(st.sampled_from([1, tick, 2 * tick])))  # sends rise, losing some inputs
        arrival, count = max(arrival, sent + 1), draw(st.integers(1, 8))
        if arrival < floor:  # held back to the arrival before it: a run of one
            arrival, count = floor, 1
        runs.append((arrival, arrival - sent, count))
        last_sent, floor = sent + (count - 1) * tick, arrival + (count - 1) * tick
    origin = draw(st.one_of(st.none(), st.integers(1, 4 * tick).map(lambda back: runs[0][0] - runs[0][1] - back
                                                                     if runs else back)))
    return tick, interval, t, k, runs, origin, draw(st.booleans()), prev


@given(_input_reads())
@settings(max_examples=500, deadline=None)
def test_inputs_read_along_a_train_equal_a_read_per_frame(reads):
    """`_read_inputs_along` returns the origins of one `_read_inputs` per frame event, and leaves the
    same inputs, latest origin, tie bool and last frame event."""
    tick, interval, t, k, runs, origin, first, prev = reads
    sim = session._Simulation(_edge((ClientSpec(0, NOMINAL),)), DEFAULT_LADDER, 1_000_000,
                              SessionSettings(tick_us=tick), 0, 0)
    state = sim.clients[0]
    ends = []
    for along in (False, True):
        state.inputs, state.input_origin, state.input_first, state.last_frame = deque(runs), origin, first, prev
        if along:
            origins = sim._read_inputs_along(state, t, k, interval)
        else:
            origins = [sim._read_inputs(state, t + j * interval) for j in range(k)]
        ends.append((origins, list(state.inputs), state.input_origin, state.input_first, state.last_frame))
    assert ends[1] == ends[0]
