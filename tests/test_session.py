import copy
import logging
import math

import pytest

from epicsim import session
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


def test_packet_logging_is_one_line_per_frame(caplog):
    caplog.set_level(logging.DEBUG, logger="epicsim.session")
    profile = NetworkProfile(one_way_latency=2_000, jitter=500, loss_rate=0.01,
                             bandwidth=700_000_000, mtu=1400)
    trace = run_session(_edge((ClientSpec(0, profile),)), DEFAULT_LADDER, 1_000_000,
                        SessionSettings(), seed=1)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == trace.frames.sent
    assert all("fragments" in line for line in lines)
    assert any("fragment_loss" in line for line in lines)


@pytest.mark.parametrize("first", [Drop.LOSS, Drop.QUEUE])
def test_a_frame_with_a_loss_and_a_queue_cut_is_dropped_for_its_first_dropped_fragment(first):
    """A queue of two fragments behind a lossy link, so a frame both loses fragments and has them cut."""
    profile = NetworkProfile(one_way_latency=2_000, loss_rate=0.3, bandwidth=700_000_000, mtu=1400,
                             queue_capacity=2_800)
    for seed in range(100):
        sim = session._Simulation(_edge((ClientSpec(0, profile),)), DEFAULT_LADDER, 1_000_000,
                                  SessionSettings(), seed, 0)
        loop = copy.deepcopy(sim.down_frames[0])
        # each fragment carried as its size, as a burst carries it
        outcomes = [loop.submit(size, 0, size) for size, count in fragment_runs(207_360, 1400) for _ in range(count)]
        drops = [outcome for outcome in outcomes if isinstance(outcome, Drop)]
        if set(drops) == set(Drop) and drops[0] is first:
            break
    else:
        raise AssertionError(f"no seed drops a {first.value} fragment first and the other kind later")
    sim._on_ready(0, 0, 0, 0, None)
    assert sim.trace.drop_reasons == {"fragment_" + first.value: 1}
    assert sim.down_frames[0] == loop


def test_scene_complexity_floor_is_a_settings_check():
    with pytest.raises(ValidationError, match="scene_complexity"):
        SessionSettings(scene_complexity=0.05)


@pytest.mark.parametrize("field", [{"sync_payload_bytes": -1}, {"scene_complexity": math.nan},
                                   {"scene_complexity": math.inf}])
def test_settings_reject_a_negative_sync_and_a_non_finite_complexity(field):
    with pytest.raises(ValidationError, match=next(iter(field))):
        SessionSettings(**field)


@pytest.mark.parametrize("profile", [NOMINAL, NetworkProfile(one_way_latency=2_000, jitter=3_000, loss_rate=0.05,
                                                             bandwidth=700_000_000, mtu=1400)])
def test_probe_state_after_each_window_is_the_probes_in_flight(profile):
    """Each window submits the PINGs sent by then, and keeps only the PONGs it has not yet applied."""
    interval, window = 100, 250_000
    one_way = profile.one_way_latency + profile.jitter + 1  # the longest, with 1 us for a 24 B probe
    checked = []

    class Checked(session._Simulation):
        def _on_window(self, t):
            super()._on_window(t)
            for cid, st in self.clients.items():
                assert st.pings == (t - self.start) // interval + 1
                assert all(sent <= t <= at for at, sent, *_ in st.pongs)
                assert len(st.pongs) <= 2 * one_way // interval + 1
                assert self.up_probe[cid].in_flight <= one_way // interval + 1
                assert self.down_probe[cid].in_flight <= 2 * one_way // interval + 1
            checked.append(t)

    sim = Checked(_edge((ClientSpec(0, profile),)), DEFAULT_LADDER, 2_000_000,
                  SessionSettings(ping_interval_us=interval), 3, 0)
    trace = sim.run()
    assert len(checked) == 2_000_000 // window
    assert len(trace.rtt_samples[0]) > 0.8 * 2_000_000 // interval
