import copy
import dataclasses
import functools
import heapq
import json
import operator
import random
import re
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_handshake
from epicsim import netem, orchestrator
from epicsim.adapt import ControllerConfig
from epicsim.model import CapacityError, NetworkProfile, NodeSpec, PowerProfile, ValidationError, ceil_div
from epicsim.orchestrator import (
    CLIENT_HOSTED,
    EDGE_HOSTED,
    HANDSHAKE_RETRY_US,
    Budgets,
    HandshakeTimeout,
    NoPong,
    ScenarioConfig,
    deploy_handshake,
    load_scenario,
    load_search,
    parse_scenario,
    report_to_json,
    run_scenario,
    scale_clients,
    scenario_battery_gain,
    select_node,
    stress_search,
    sweep,
)
from epicsim.session import ClientSpec, SessionSettings
from test_random_scenarios import _document

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _nominal_doc(**overrides):
    doc = json.loads((SCENARIOS / "edge-nominal.json").read_text())
    doc.update(overrides)
    return doc


def _mini_doc(**overrides):
    doc = _nominal_doc(duration=1_000_000)
    doc.update(overrides)
    return doc


# -- parsing and validation ----------------------------------------------------

def test_parse_nominal_scenario():
    cfg = parse_scenario(_nominal_doc())
    assert cfg.name == "edge-nominal"
    assert cfg.duration == 10_000_000
    assert len(cfg.ladder) == 5
    assert cfg.clients[0].paths[1].bandwidth == 700_000_000


def test_missing_required_keys_rejected():
    doc = _nominal_doc()
    del doc["clients"]
    with pytest.raises(ValidationError, match="clients"):
        parse_scenario(doc)
    with pytest.raises(ValidationError, match="duration"):
        parse_scenario({"clients": []})


def test_absent_optional_keys_take_the_domain_defaults():
    cfg = parse_scenario({
        "duration": 1_000_000,
        "nodes": [{"node_id": 1, "pixel_throughput": 5_000_000_000, "encode_throughput": 4_000_000_000}],
        "clients": [{"id": 0, "paths": {"1": {"one_way_latency": 2_000, "bandwidth": 700_000_000}}}],
    })
    assert cfg.nodes[0] == NodeSpec(1, 5_000_000_000, 4_000_000_000)
    assert cfg.clients[0].paths[1] == NetworkProfile(one_way_latency=2_000, bandwidth=700_000_000)
    assert cfg.clients[0].power == PowerProfile()
    assert cfg.clients[0].decode_throughput == ClientSpec(0, cfg.clients[0].paths[1]).decode_throughput
    assert cfg.settings == SessionSettings()
    assert cfg.settings.controller == ControllerConfig()
    assert cfg.budgets == Budgets()


def test_unknown_node_reference_rejected():
    doc = _nominal_doc()
    doc["clients"][0]["paths"] = {"99": doc["clients"][0]["paths"]["1"]}
    with pytest.raises(ValidationError, match="unknown node"):
        parse_scenario(doc)


def test_unknown_topology_mode_rejected():
    with pytest.raises(ValidationError, match="mode"):
        parse_scenario(_nominal_doc(topology={"mode": "mesh"}))


def test_unknown_master_rejected():
    doc = json.loads((SCENARIOS / "master-server.json").read_text())
    doc["topology"]["master"] = 9
    with pytest.raises(ValidationError, match="topology.master 9"):
        parse_scenario(doc)


def test_duplicate_client_ids_rejected():
    doc = _nominal_doc()
    doc["clients"].append(copy.deepcopy(doc["clients"][0]))
    with pytest.raises(ValidationError, match="unique"):
        parse_scenario(doc)


def test_non_monotone_ladder_rejected():
    doc = _nominal_doc(ladder=[
        {"level_index": 0, "width": 640, "height": 360, "fps": 30, "bpp": 0.8},
        {"level_index": 1, "width": 1920, "height": 1080, "fps": 60, "bpp": 0.8},
    ])
    with pytest.raises(ValidationError):
        parse_scenario(doc)


def test_bandwidth_step_events_validated():
    step = {"time": 1_000, "bandwidth": 30_000_000}
    with pytest.raises(ValidationError, match=r"events\[1\].*unknown client"):
        parse_scenario(_nominal_doc(events=[step, dict(step, clients=[0, 99])]))
    with pytest.raises(ValidationError, match=r"events\[0\].*non-negative"):
        parse_scenario(_nominal_doc(events=[dict(step, time=-1)]))


def _with_optional(key, *value):
    """The nominal document with optional `key` set to `value`, or left out if no value is given."""
    entry = dict(zip((key,), value))
    if key == "clients":  # of a bandwidth step
        return _nominal_doc(events=[{"time": 0, "bandwidth": 30_000_000, **entry}])
    return _nominal_doc(**entry)


@pytest.mark.parametrize("falsy", [[], 0, "", False, {}])
@pytest.mark.parametrize("key, where", [("ladder", "ladder"), ("shared_egress", "shared_egress"),
                                        ("clients", "events[0].clients")])
def test_a_present_falsy_optional_key_is_read_and_null_is_absent(key, where, falsy):
    with pytest.raises(ValidationError, match=re.escape(where)):
        parse_scenario(_with_optional(key, falsy))
    null, absent = parse_scenario(_with_optional(key, None)), parse_scenario(_with_optional(key))
    assert dataclasses.replace(null, raw=None) == dataclasses.replace(absent, raw=None)


def test_targeted_bandwidth_step_spares_other_clients_and_shared_egress():
    cfg = scale_clients(load_scenario(str(SCENARIOS / "shared-egress.json")), 4)
    step = {"time": 0, "bandwidth": 30_000_000}
    targeted = run_scenario(parse_scenario(dict(cfg.raw, events=[dict(step, clients=[3])])))
    for cid in (0, 1, 2):
        frames = targeted.trace.per_client_frames[cid]
        assert (frames.sent, frames.delivered) == (90, 90)
    everyone = run_scenario(parse_scenario(dict(cfg.raw, events=[step])))
    assert everyone.trace.per_client_frames[0].delivered < 90  # the shared egress is stepped


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _key_paths(value, prefix=()):
    """Every key path inside a JSON document, lists indexed by position."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


_DEFAULTS = SessionSettings()


def _with_intervals(doc):
    """`doc` with every interval key present, at its default unless set, so that mutants reach it."""
    intervals = {"tick": _DEFAULTS.tick_us, "ping_interval": _DEFAULTS.ping_interval_us,
                 "sync_interval": _DEFAULTS.sync_interval_us}
    controller = {"window": _DEFAULTS.controller.window_us, **doc.get("controller", {})}
    return {**intervals, **doc, "controller": controller}


_SHIPPED = {p.name: _with_intervals(json.loads(p.read_text())) for p in sorted(SCENARIOS.glob("*.json"))}
_OPTIONAL = ("seed", "name", "ladder", "nodes", "topology", "controller", "events", "tick",
             "ping_interval", "sync_interval", "state_sync_bytes", "scene_complexity",
             "shared_egress", "prerender", "budgets", "power_model")
_SITES = sorted({(name, path) for name, doc in _SHIPPED.items()
                 for path in [(), *_key_paths(doc), *((key,) for key in _OPTIONAL)]}, key=repr)


@settings(max_examples=500, deadline=None)
@given(site=st.sampled_from(_SITES), value=_json)
def test_any_json_value_parses_or_raises_validation_error(site, value):
    """A shipped scenario with the whole document, or one key present or
    optional in it, replaced by any JSON value."""
    name, path = site
    doc = value
    if path:
        doc = copy.deepcopy(_SHIPPED[name])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        assert isinstance(parse_scenario(doc), ScenarioConfig)
    except ValidationError:
        pass


_MUTANTS = (0, -1, 0.5, 1, 3, 2**32, 10**12)


def _numeric_leaves(name):
    doc = _SHIPPED[name]
    for path in _key_paths(doc):
        value = doc
        for key in path:
            value = value[key]
        if path != ("duration",) and type(value) in (int, float):
            yield path


_LEAVES = [(name, path) for name in _SHIPPED for path in _numeric_leaves(name)]


def _validate_then_run(name, mutations):
    """Whatever `epicsim validate` accepts of a 1 s mutant of a shipped
    scenario, `run` accepts too; a handshake that times out and a run in
    which no PONG returns are run failures, not a malformed scenario."""
    doc = copy.deepcopy(_SHIPPED[name])
    doc["duration"] = 1_000_000
    for path, value in mutations:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        cfg = parse_scenario(doc)
        if cfg.mode == EDGE_HOSTED:
            select_node(cfg)  # as `epicsim validate` does
    except (ValidationError, CapacityError):
        return
    try:
        run_scenario(cfg)
    except (HandshakeTimeout, NoPong):
        pass
    except (ValidationError, CapacityError) as exc:
        pytest.fail(f"{name} with {mutations} validates but does not run: {exc}")


def test_every_single_leaf_mutant_that_validates_runs():
    for name, path in _LEAVES:
        for value in _MUTANTS:
            _validate_then_run(name, [(path, value)])


_CONTAINERS = [(name, path) for name, doc in _SHIPPED.items() for path in _key_paths(doc)
               if isinstance(functools.reduce(operator.getitem, path, doc), (dict, list))]


def test_every_emptied_container_mutant_that_validates_runs():
    """Each object or array of a shipped scenario replaced by {} and by []."""
    for name, path in _CONTAINERS:
        for empty in (dict, list):
            _validate_then_run(name, [(path, empty())])


@pytest.mark.parametrize("overrides, message", [
    ({"state_sync_bytes": -1}, "scenario: sync_payload_bytes must be non-negative, not -1 (scenario.state_sync_bytes)"),
    ({"duration": 5}, "scenario: duration_us must be at least 1000000 (1 s of simulated time), not 5 (scenario.duration)"),
    ({"controller": {"window": 99}}, "controller: window_us must be at least 100 us, not 99 (controller.window)"),
    ({"clients": [{"id": -1, "paths": {"one_way_latency": 2_000, "bandwidth": 700_000_000}}]},
     "clients[0]: client_id must fit in 32 bits, not -1 (clients[0].id)"),
    ({"nodes": [{"node_id": 1, "pixel_throughput": 0, "encode_throughput": 1}]},
     "nodes[0]: pixel_throughput must be positive, not 0 (nodes[0].pixel_throughput)"),
    # a message that starts with no field keeps its form
    ({"ladder": [{"level_index": 0, "width": 0, "height": 1, "fps": 60, "bpp": 0.8}]},
     "ladder[0]: resolution must be at least 1x1"),
])
def test_a_type_message_that_starts_with_a_field_ends_with_its_key_path(overrides, message):
    with pytest.raises(ValidationError) as info:
        parse_scenario(_nominal_doc(**overrides))
    assert str(info.value) == message


def test_a_mutant_that_loses_every_probe_is_a_run_failure():
    _validate_then_run("master-server.json", [(("clients", i, "paths", "loss_rate"), 1) for i in (1, 2, 3)])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_leaf_mutants_that_validate_run(data):
    name = data.draw(st.sampled_from(sorted(_SHIPPED)))
    paths = data.draw(st.lists(st.sampled_from([p for n, p in _LEAVES if n == name]),
                               min_size=2, max_size=4, unique=True))
    _validate_then_run(name, [(path, data.draw(st.sampled_from(_MUTANTS))) for path in paths])


# -- node selection --------------------------------------------------------------

def _two_node_doc(lat_a=2_000, lat_b=5_000, id_a=1, id_b=2):
    doc = _mini_doc()
    doc["nodes"] = [
        {"node_id": id_a, "pixel_throughput": 5_000_000_000, "encode_throughput": 4_000_000_000},
        {"node_id": id_b, "pixel_throughput": 5_000_000_000, "encode_throughput": 4_000_000_000},
    ]
    path = {"one_way_latency": lat_a, "bandwidth": 700_000_000, "mtu": 1400}
    path_b = dict(path, one_way_latency=lat_b)
    doc["clients"][0]["paths"] = {str(id_a): path, str(id_b): path_b}
    return doc


def test_select_lowest_latency_node():
    cfg = parse_scenario(_two_node_doc())
    assert select_node(cfg).node_id == 1


def test_select_tie_breaks_on_node_id():
    cfg = parse_scenario(_two_node_doc(lat_a=2_000, lat_b=2_000, id_a=7, id_b=3))
    assert select_node(cfg).node_id == 3


def test_select_skips_overloaded_nodes():
    doc = _two_node_doc()
    doc["nodes"][0]["max_sessions"] = 0  # rejected at NodeSpec level
    with pytest.raises(ValidationError):
        parse_scenario(doc)
    doc = _two_node_doc()
    doc["nodes"][0]["pixel_throughput"] = 1_000  # cannot meet render demand
    cfg = parse_scenario(doc)
    assert select_node(cfg).node_id == 2


def test_no_feasible_node_errors():
    doc = _mini_doc()
    doc["nodes"][0]["pixel_throughput"] = 1_000
    with pytest.raises(CapacityError, match="no feasible node"):
        select_node(parse_scenario(doc))
    # an edge scenario without nodes fails on its host node first, so only the API reaches this
    with pytest.raises(CapacityError, match="no nodes to select from"):
        select_node(dataclasses.replace(parse_scenario(doc), nodes=()))


def test_selection_invariant_under_latency_scaling():
    base = parse_scenario(_two_node_doc(lat_a=3_000, lat_b=4_000))
    scaled = parse_scenario(_two_node_doc(lat_a=9_000, lat_b=12_000))
    assert select_node(base).node_id == select_node(scaled).node_id


# -- deployment handshake ---------------------------------------------------------

def test_handshake_completes_in_four_trips():
    profile = NetworkProfile(one_way_latency=2_000, bandwidth=10**12, mtu=1400)
    trace = deploy_handshake(profile, seed=5)
    assert [s.name for s in trace.steps] == ["DISCOVER", "OFFER", "DEPLOY", "READY"]
    times = [s.received_at for s in trace.steps]
    assert times == sorted(times)
    assert trace.ready_time == 8_004  # 4 sequential trips of 2001 us each


def test_handshake_timeout_on_dead_path():
    profile = NetworkProfile(one_way_latency=2_000, loss_rate=1.0, bandwidth=10**9, mtu=1400)
    with pytest.raises(HandshakeTimeout):
        deploy_handshake(profile, seed=5)


def test_handshake_survives_moderate_loss_via_retries():
    profile = NetworkProfile(one_way_latency=2_000, loss_rate=0.4, bandwidth=10**9, mtu=1400)
    trace = deploy_handshake(profile, seed=11)
    assert trace.steps[-1].name == "READY"
    assert trace.ready_time <= 2_000_000


def _handshake_cases(n: int):
    """Seeded (profile, seed) cases: loss 0-1, jitter 0-300 ms, 2 kb/s to 1 Tb/s;
    half the latencies put deliveries on retry ticks, such as 124,999 us at 1 Tb/s."""
    rng = random.Random(12)
    for _ in range(n):
        bandwidth = int(10 ** rng.uniform(3.31, 12))
        tx = ceil_div(25 * 8 * 1_000_000, bandwidth)  # a CONTROL message is 25 B
        if rng.random() < 0.5:
            latency = max(0, HANDSHAKE_RETRY_US * rng.randint(1, 4) // rng.randint(1, 4) - tx * rng.randint(0, 2))
        else:
            latency = rng.randint(0, 600_000)
        profile = NetworkProfile(one_way_latency=latency, jitter=rng.choice((0, rng.randint(0, 300_000))),
                                 loss_rate=rng.choice((0.0, rng.random(), 1.0)), bandwidth=bandwidth)
        yield profile, rng.getrandbits(32)


def _handshake_outcome(handshake, profile, seed):
    try:
        trace = handshake(profile, seed)
    except HandshakeTimeout:
        return "timeout"
    return trace.steps, trace.ready_time


def test_handshake_matches_the_byte_level_reference(monkeypatch):
    """Records with one event per delivery give the steps and ready time of
    the byte-level handshake that polls each path, or both time out."""
    log = []

    class PolledPath(netem.Path):
        __slots__ = ()

        def advance_to(self, t):
            delivered = super().advance_to(t)
            log.append(("poll", t, len(delivered)))
            return delivered

    def popped(heap):
        event = heapq.heappop(heap)
        log.append(("pop", event[0], event[2]))
        return event

    # the reference's own event log: each event it pops, each poll and what it delivered
    monkeypatch.setattr(reference_handshake, "Path", PolledPath)
    monkeypatch.setattr(reference_handshake, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=popped))
    timeouts = retry_ties = two_delivery_polls = 0
    for profile, seed in _handshake_cases(2_000):
        log.clear()
        expected = _handshake_outcome(reference_handshake.reference_handshake, profile, seed)
        assert _handshake_outcome(deploy_handshake, profile, seed) == expected, (profile, seed)
        timeouts += expected == "timeout"
        retries = {t for kind, t, what in log if kind == "pop" and what == "retry"}
        retry_ties += any(kind == "pop" and what != "retry" and t in retries for kind, t, what in log)
        # every poll happens at the arrival of an event's message, so all it delivers arrived then
        two_delivery_polls += any(kind == "poll" and count > 1 for kind, _, count in log)
    # the sample holds both outcomes and both orders that one event per message could change
    assert 0 < timeouts < 2_000
    assert retry_ties >= 20 and two_delivery_polls >= 20


# -- scenario runs ---------------------------------------------------------------

def test_run_scenario_reports_are_byte_identical():
    cfg = parse_scenario(_mini_doc())
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert report_to_json(a.report) == report_to_json(b.report)
    assert a.trace == b.trace


def test_session_starts_only_after_ready():
    result = run_scenario(parse_scenario(_mini_doc()))
    assert result.handshake is not None
    assert result.trace.session_start == result.handshake.ready_time


def test_report_json_shape():
    result = run_scenario(parse_scenario(_mini_doc()))
    doc = json.loads(report_to_json(result.report))
    assert set(doc) == {
        "rtt_p50", "rtt_p95", "rtt_p99", "motion_to_photon_p95",
        "aggregate_throughput", "loss_rate", "battery_gain",
        "pass_rtt", "pass_bandwidth", "pass_battery",
        "frames_sent", "frames_delivered", "frames_dropped", "frames_in_flight",
    }
    assert isinstance(doc["rtt_p95"], int)
    assert isinstance(doc["aggregate_throughput"], int)
    assert isinstance(doc["loss_rate"], float) or doc["loss_rate"] == 0
    assert report_to_json(result.report).endswith("\n")


def test_battery_gain_edge_vs_master():
    edge = scenario_battery_gain(parse_scenario(_mini_doc()))
    assert edge == pytest.approx(50.0)
    hosted = scenario_battery_gain(load_scenario(str(SCENARIOS / "master-server.json")))
    assert hosted < 0  # rendering for everyone plus the radio can only hurt


def test_battery_gain_uses_the_master_profile():
    doc = json.loads((SCENARIOS / "master-server.json").read_text())
    doc["topology"]["master"] = 2
    doc["clients"][2]["power"] = {"p_idle": 2.0, "p_render_local": 6.0, "p_radio": 0.5}
    doc["power_model"] = {"device_pixel_throughput": 1_000_000_000}
    util = 1920 * 1080 / 1_000_000_000 * 60          # one 1080p60 viewport, unsaturated
    baseline = 2.0 + 6.0 * util
    master = 2.0 + 6.0 * 4 * util + 0.5               # four viewports plus the radio
    gain = scenario_battery_gain(parse_scenario(doc))
    assert gain == pytest.approx((baseline / master - 1.0) * 100.0)
    doc["topology"]["master"] = 0                      # default profile on client 0
    assert scenario_battery_gain(parse_scenario(doc)) != pytest.approx(gain)


def test_scale_clients_replicates_template():
    cfg = parse_scenario(_mini_doc())
    scaled = scale_clients(cfg, 3)
    assert [c.client_id for c in scaled.clients] == [0, 1, 2]
    assert scaled.seed == cfg.seed ^ 3
    assert all(c.paths[1].bandwidth == 700_000_000 for c in scaled.clients)


def _scale_documents():
    """(id, scenario document) pairs on which `scale_clients` meets the parser: the shipped scenarios, generated
    documents, and by hand bandwidth steps whose targets fall partly or wholly at or above N, a client-hosted
    master that is not client 0, and a `paths` map with several nodes."""
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.name, json.loads(path.read_text())
    for seed in range(30):
        yield f"generated-{seed}", _document(seed)
    steps = [{"time": 0, "bandwidth": 300_000_000, "clients": [0, 3]},
             {"time": 200_000, "bandwidth": 200_000_000, "clients": [5, 2, 4]},
             {"time": 400_000, "bandwidth": 100_000_000, "clients": None},
             {"time": 600_000, "bandwidth": 50_000_000, "clients": [4, 5]},
             {"time": 800_000, "bandwidth": 60_000_000, "clients": [3.0, 1]},
             {"time": 900_000, "bandwidth": 70_000_000}]
    nominal = _mini_doc(events=steps)
    nominal["clients"] = [dict(copy.deepcopy(nominal["clients"][0]), id=i) for i in range(6)]
    yield "targeted-steps", nominal
    master = json.loads((SCENARIOS / "master-server.json").read_text())
    master["topology"]["master"] = 2
    master["events"] = steps[:4]
    master["clients"] += [dict(master["clients"][0], id=i) for i in (4, 5)]
    yield "master-not-client-0", master
    nodes = _two_node_doc(id_a=3, id_b=1)
    nodes["nodes"].append(dict(nodes["nodes"][0], node_id=8))
    nodes["clients"][0]["paths"]["8"] = {"one_way_latency": 900, "bandwidth": 90_000_000, "mtu": 9_000}
    yield "several-paths", nodes


_SCALE_DOCUMENTS = dict(_scale_documents())


def _scaled_document(cfg, n):
    """The N-user document of `cfg`, built apart from `scale_clients`: `n` copies of the first client as ids
    0..n-1, the seed xor n, a client-hosted master on client 0, and each step's targets below n, or no step."""
    doc = copy.deepcopy(cfg.raw)
    doc["clients"] = [dict(copy.deepcopy(doc["clients"][0]), id=i) for i in range(n)]
    doc["seed"] = cfg.seed ^ n
    if doc["topology"]["mode"] == CLIENT_HOSTED:
        doc["topology"]["master"] = 0
    for step in doc.get("events", ()):
        if step.get("clients") is not None:
            step["clients"] = [cid for cid in step["clients"] if cid < n]
    if "events" in doc:
        doc["events"] = [step for step in doc["events"] if step.get("clients") != []]
    return doc


def _mutate(value):
    """Change every dict and list inside the JSON value `value`."""
    if isinstance(value, dict):
        for item in value.values():
            _mutate(item)
        value["mutated"] = True
    elif isinstance(value, list):
        for item in value:
            _mutate(item)
        value.append("mutated")


@pytest.mark.parametrize("name", list(_SCALE_DOCUMENTS))
def test_scale_clients_copies_nothing_it_shares(name):
    """For N = 0..16, `scale_clients` gives what `parse_scenario` makes of the N-user document, or raises its
    message, and `cfg.raw` stays as it was when every dict and list of the result's `raw` changes."""
    cfg = parse_scenario(_SCALE_DOCUMENTS[name])
    before = copy.deepcopy(cfg.raw)
    for n in range(17):
        try:
            expected = parse_scenario(_scaled_document(cfg, n))
        except ValidationError as exc:  # no client, or a client-hosted scenario with no receiver
            with pytest.raises(ValidationError) as raised:
                scale_clients(cfg, n)
            assert str(raised.value) == str(exc)
            continue
        scaled = scale_clients(cfg, n)
        assert scaled == expected
        assert len({id(c.paths) for c in (cfg.clients[0], *scaled.clients)}) == n + 1
        _mutate(scaled.raw)
        assert cfg.raw == before


# -- sweeps -----------------------------------------------------------------------

def test_sweep_bpp_raises_photon_latency():
    cfg = load_scenario(str(SCENARIOS / "compression-sweep.json"))
    results = sweep(cfg, "ladder.bpp", [0.4, 0.8, 1.6])
    m2p = [r.motion_to_photon_p95 for _, r in results]
    assert m2p == sorted(m2p) and len(set(m2p)) == 3


def test_single_value_sweep_equals_run():
    cfg = parse_scenario(_mini_doc())
    [(_, swept)] = sweep(cfg, "duration", [1_000_000])
    direct = run_scenario(cfg).report
    assert report_to_json(swept) == report_to_json(direct)


def test_sweep_empty_values_rejected():
    cfg = parse_scenario(_mini_doc())
    with pytest.raises(ValidationError):
        sweep(cfg, "ladder.bpp", [])


def test_sweep_unknown_path_rejected():
    cfg = parse_scenario(_mini_doc())
    with pytest.raises(ValidationError, match="matches nothing"):
        sweep(cfg, "nonexistent.knob", [1])


# -- capacity searches on a small shared bottleneck -------------------------------

def _tiny_egress_doc():
    doc = json.loads((SCENARIOS / "shared-egress.json").read_text())
    doc["shared_egress"]["bandwidth"] = 250_000_000  # fits 2 full-HD streams, not 3
    doc["duration"] = 1_500_000
    return doc


def test_load_and_stress_on_small_egress():
    cfg = parse_scenario(_tiny_egress_doc())
    assert load_search(cfg, 7_000, 0.02, n_max=4) == 2
    assert stress_search(cfg, n_max=4) == 3


def test_searches_parse_nothing(monkeypatch):
    """Each user count's scenario is derived from the parsed one: a search that parsed a document per N would
    spend most of its set-up there, which no answer shows."""
    cfg = load_scenario(str(SCENARIOS / "shared-egress.json"))
    parsed = []
    parse = orchestrator.parse_scenario
    monkeypatch.setattr(orchestrator, "parse_scenario", lambda doc: parsed.append(doc) or parse(doc))
    assert load_search(cfg, 7_000, 0.02, n_max=16) == 10
    assert stress_search(cfg, n_max=16) == 11
    assert len(parsed) == 0
