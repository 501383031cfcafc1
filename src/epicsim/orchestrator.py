"""Scenario configuration, edge-node selection, deployment handshake, experiment drivers.

Scenario files and reports are JSON documents with keys matching the domain
type field names.  Report times are integer microseconds, rates integer
bits/second; battery_gain and loss_rate carry four fractional digits.  The
same config and seed always serialize to byte-identical report files.
"""

from __future__ import annotations

import copy
import heapq
import json
import logging
import math
import os
from dataclasses import dataclass, replace

from . import kpi, power
from .adapt import ControllerConfig
from .kpi import RunTrace, build_report
from .model import (
    CapacityError,
    DEFAULT_LADDER,
    KpiReport,
    NetworkProfile,
    NodeSpec,
    PowerProfile,
    QualityLevel,
    ValidationError,
    as_bpp,
    validate_ladder,
)
from .netem import Path
from .rng import derive_seed
from .session import (
    BandwidthStep,
    CLIENT_HOSTED,
    ClientSpec,
    DEVICE_NODE,
    EDGE_HOSTED,
    SessionSettings,
    SessionTopology,
    run_session,
)
from .transport import HEADER_LEN, MsgType, WireHeader, decode_message, encode_message

logger = logging.getLogger("epicsim.orchestrator")

HANDSHAKE_TIMEOUT_US = 2_000_000
HANDSHAKE_RETRY_US = 250_000

CTRL_DISCOVER = 0x01
CTRL_OFFER = 0x02
CTRL_DEPLOY = 0x03
CTRL_READY = 0x04

_CTRL_NAMES = {CTRL_DISCOVER: "DISCOVER", CTRL_OFFER: "OFFER",
               CTRL_DEPLOY: "DEPLOY", CTRL_READY: "READY"}


class HandshakeTimeout(RuntimeError):
    """No READY arrived within the deployment handshake deadline."""


def configure_logging_from_env() -> None:
    """Map EPICSIM_LOG=off|events|packets onto logger levels."""
    mode = os.environ.get("EPICSIM_LOG", "off").lower()
    level = {"off": logging.WARNING, "events": logging.INFO, "packets": logging.DEBUG}.get(mode)
    if level is None:
        raise ValidationError(f"EPICSIM_LOG must be off, events or packets, not {mode!r}")
    logging.basicConfig(format="%(name)s %(message)s")
    logging.getLogger("epicsim").setLevel(level)


# -- scenario configuration ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScenarioClient:
    client_id: int
    paths: dict[int, NetworkProfile]
    power: PowerProfile
    decode_throughput: int


@dataclass(frozen=True, slots=True)
class Budgets:
    rtt_p95: int = 7_000
    loss: float = 0.02


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str
    seed: int
    duration: int
    ladder: tuple[QualityLevel, ...]
    nodes: tuple[NodeSpec, ...]
    clients: tuple[ScenarioClient, ...]
    mode: str
    master_id: int | None
    master_uplink: NetworkProfile | None
    settings: SessionSettings
    budgets: Budgets
    device_node: NodeSpec
    power_pixel_throughput: int
    power_decode_throughput: int
    raw: dict


_REQUIRED = object()


def _get(obj: dict, key: str, where: str, default=_REQUIRED):
    """obj[key], or `default`; `where` is obj's key path, so errors name the key."""
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return default


def _to(kind, value, where: str):
    """`value` converted by `kind` (int, float or as_bpp); `where` is its key path."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where} must be a number, not {value!r:.40}") from None


def _number(obj: dict, key: str, where: str, kind=int, default=_REQUIRED):
    return _to(kind, _get(obj, key, where, default), f"{where}.{key}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, not {value!r:.40}")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a JSON array, not {value!r:.40}")
    return value


def _profile_from(obj, where: str) -> NetworkProfile:
    obj = _object(obj, where)
    fields = dict(
        one_way_latency=_number(obj, "one_way_latency", where),
        jitter=_number(obj, "jitter", where, default=0),
        loss_rate=_number(obj, "loss_rate", where, float, 0.0),
        bandwidth=_number(obj, "bandwidth", where),
        mtu=_number(obj, "mtu", where, default=1400),
        queue_capacity=_number(obj, "queue_capacity", where) if "queue_capacity" in obj else None,
    )
    try:
        return NetworkProfile(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _node_from(obj, where: str) -> NodeSpec:
    obj = _object(obj, where)
    return NodeSpec(
        node_id=_number(obj, "node_id", where),
        pixel_throughput=_number(obj, "pixel_throughput", where),
        encode_throughput=_number(obj, "encode_throughput", where),
        max_sessions=_number(obj, "max_sessions", where, default=16),
    )


def _power_from(obj, where: str) -> PowerProfile:
    obj = _object(obj, where)
    return PowerProfile(
        p_idle=_number(obj, "p_idle", where, float, 3.0),
        p_render_local=_number(obj, "p_render_local", where, float, 4.5),
        p_radio=_number(obj, "p_radio", where, float, 1.2),
        p_decode=_number(obj, "p_decode", where, float, 0.8),
        battery_capacity=_number(obj, "battery_capacity", where, float, 7.6),
    )


def _ladder_from(entries, where: str) -> tuple[QualityLevel, ...]:
    levels = []
    for i, e in enumerate(_array(entries, where)):
        at = f"{where}[{i}]"
        e = _object(e, at)
        levels.append(QualityLevel(
            level_index=_number(e, "level_index", at),
            width=_number(e, "width", at),
            height=_number(e, "height", at),
            fps=_number(e, "fps", at),
            bpp=_number(e, "bpp", at, as_bpp),
        ))
    return validate_ladder(tuple(levels))


def _client_from(entry, where: str, node_ids: set[int]) -> ScenarioClient:
    entry = _object(entry, where)
    cid = _number(entry, "id", where)
    raw_paths = _object(_get(entry, "paths", where), f"{where}.paths")
    if "bandwidth" in raw_paths:
        # single-profile shorthand, applied to every candidate node
        profile = _profile_from(raw_paths, f"{where}.paths")
        paths = {nid: profile for nid in node_ids} or {0: profile}
    else:
        paths = {}
        for key, val in raw_paths.items():
            nid = _to(int, key, f"{where}.paths key")
            if node_ids and nid not in node_ids:
                raise ValidationError(f"client {cid}: path references unknown node {nid}")
            paths[nid] = _profile_from(val, f"{where}.paths.{key}")
    return ScenarioClient(
        client_id=cid,
        paths=paths,
        power=_power_from(entry.get("power", {}), f"{where}.power"),
        decode_throughput=_number(entry, "decode_throughput", where, default=7_000_000_000),
    )


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a scenario JSON document and bind it to domain types.

    Every malformed input raises `ValidationError` naming its key path, such
    as `clients[1].paths.bandwidth`.
    """
    if not isinstance(doc, dict):
        raise ValidationError("scenario must be a JSON object")
    name = str(doc.get("name", "scenario"))
    seed = _number(doc, "seed", "scenario", default=0)
    duration = _number(doc, "duration", "scenario")
    if duration < 1_000_000:
        raise ValidationError("duration must be at least 1000000 us (1 s of simulated time)")
    ladder = _ladder_from(doc["ladder"], "ladder") if doc.get("ladder") else DEFAULT_LADDER

    nodes = tuple(_node_from(n, f"nodes[{i}]") for i, n in enumerate(_array(doc.get("nodes", []), "nodes")))
    if len({n.node_id for n in nodes}) != len(nodes):
        raise ValidationError("node ids must be unique")
    node_ids = {n.node_id for n in nodes}

    clients = [_client_from(entry, f"clients[{i}]", node_ids)
               for i, entry in enumerate(_array(_get(doc, "clients", "scenario"), "clients"))]
    if not clients:
        raise ValidationError("scenario needs at least one client")
    if len({c.client_id for c in clients}) != len(clients):
        raise ValidationError("client ids must be unique")

    topo = _object(doc.get("topology", {"mode": EDGE_HOSTED}), "topology")
    mode = topo.get("mode", EDGE_HOSTED)
    if mode not in (EDGE_HOSTED, CLIENT_HOSTED):
        raise ValidationError(f"unknown topology mode {mode!r}")
    master_id = _number(topo, "master", "topology") if "master" in topo else None
    master_uplink = (_profile_from(topo["master_uplink"], "topology.master_uplink")
                     if "master_uplink" in topo else None)
    if mode == EDGE_HOSTED and not nodes:
        raise ValidationError("edge_hosted scenario needs at least one node")
    if mode == CLIENT_HOSTED and (master_id is None or master_uplink is None):
        raise ValidationError("client_hosted scenario needs topology.master and topology.master_uplink")
    if mode == CLIENT_HOSTED and master_id not in {c.client_id for c in clients}:
        raise ValidationError(f"topology.master {master_id} is not a client id")

    ctrl_doc = _object(doc.get("controller", {}), "controller")
    controller = ControllerConfig(
        rtt_budget=_number(ctrl_doc, "rtt_budget", "controller", default=7_000),
        loss_threshold=_number(ctrl_doc, "loss_threshold", "controller", float, 0.02),
        throughput_factor=_number(ctrl_doc, "throughput_factor", "controller", float, 0.9),
        k_down=_number(ctrl_doc, "k_down", "controller", default=2),
        k_up=_number(ctrl_doc, "k_up", "controller", default=12),
        cooldown=_number(ctrl_doc, "cooldown", "controller", default=4),
        window_us=_number(ctrl_doc, "window", "controller", default=250_000),
    )
    start_level = _number(ctrl_doc, "start_level", "controller", default=0)
    if not 0 <= start_level < len(ladder):
        raise ValidationError("controller.start_level outside the ladder")

    steps = []
    for i, e in enumerate(_array(doc.get("events", []), "events")):
        context = f"events[{i}]"
        e = _object(e, context)
        targets = _array(e["clients"], f"{context}.clients") if e.get("clients") else None
        step = BandwidthStep(
            time_us=_number(e, "time", context),
            bandwidth=_number(e, "bandwidth", context),
            client_ids=tuple(_to(int, x, f"{context}.clients[{j}]") for j, x in enumerate(targets))
            if targets else None,
        )
        if step.time_us < 0:
            raise ValidationError(f"{context}: time must be non-negative")
        if step.bandwidth <= 0:
            raise ValidationError(f"{context}: bandwidth must be positive")
        unknown = set(step.client_ids or ()) - {c.client_id for c in clients}
        if unknown:
            raise ValidationError(f"{context}: unknown client ids {sorted(unknown)}")
        steps.append(step)

    sync_bytes = _number(doc, "state_sync_bytes", "scenario", default=256)
    if sync_bytes < 0:
        raise ValidationError(f"scenario.state_sync_bytes must be non-negative, not {sync_bytes}")
    complexity = _number(doc, "scene_complexity", "scenario", float, 1.0)
    if not 0.1 <= complexity < math.inf:
        raise ValidationError(f"scenario.scene_complexity must be finite and at least 0.1, not {complexity}")
    settings = SessionSettings(
        tick_us=_number(doc, "tick", "scenario", default=8_333),
        ping_interval_us=_number(doc, "ping_interval", "scenario", default=100_000),
        sync_interval_us=_number(doc, "sync_interval", "scenario", default=50_000),
        sync_payload_bytes=sync_bytes,
        scene_complexity=complexity,
        start_level=start_level,
        adaptation=bool(ctrl_doc.get("enabled", True)),
        controller=controller,
        shared_egress=_profile_from(doc["shared_egress"], "shared_egress")
        if doc.get("shared_egress") else None,
        bandwidth_steps=tuple(steps),
        prerender=_number(doc, "prerender", "scenario", default=0),
    )

    # the state sync rides every path that can carry frames
    if mode == CLIENT_HOSTED:
        frame_paths = [("topology.master_uplink", master_uplink)]
    elif settings.shared_egress is not None:
        frame_paths = [("shared_egress", settings.shared_egress)]
    else:
        frame_paths = [(f"clients[{i}].paths", p) for i, c in enumerate(clients) for p in c.paths.values()]
    for where, profile in frame_paths:
        if HEADER_LEN + sync_bytes > profile.mtu:
            raise ValidationError(f"scenario.state_sync_bytes: a {HEADER_LEN + sync_bytes} B state sync "
                                  f"does not fit the {profile.mtu} B mtu of {where}")

    budget_doc = _object(doc.get("budgets", {}), "budgets")
    budgets = Budgets(
        rtt_p95=_number(budget_doc, "rtt_p95", "budgets", default=7_000),
        loss=_number(budget_doc, "loss", "budgets", float, 0.02),
    )

    power_doc = _object(doc.get("power_model", {}), "power_model")
    return ScenarioConfig(
        name=name, seed=seed, duration=duration, ladder=ladder, nodes=nodes,
        clients=tuple(clients), mode=mode, master_id=master_id,
        master_uplink=master_uplink, settings=settings, budgets=budgets,
        device_node=_node_from(topo["device_node"], "topology.device_node")
        if "device_node" in topo else DEVICE_NODE,
        power_pixel_throughput=_number(power_doc, "device_pixel_throughput", "power_model",
                                       default=power.DEVICE_PIXEL_THROUGHPUT),
        power_decode_throughput=_number(power_doc, "device_decode_throughput", "power_model",
                                        default=power.DEVICE_DECODE_THROUGHPUT),
        raw=copy.deepcopy(doc),
    )


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


# -- node selection and deployment handshake ----------------------------------


def render_demand(cfg: ScenarioConfig) -> int:
    """Total pixels/second the host must render at the starting level."""
    level = cfg.ladder[cfg.settings.start_level]
    per_client = math.ceil(cfg.settings.scene_complexity * level.pixels * level.fps)
    return per_client * len(cfg.clients)


def select_node(cfg: ScenarioConfig) -> NodeSpec:
    """Pick the feasible node with the lowest mean latency to the clients.

    Feasible means enough session slots for every client and enough render
    throughput for the total demand at the starting level; ties break toward
    the lowest node id.
    """
    if not cfg.nodes:
        raise CapacityError("no nodes to select from")
    demand = render_demand(cfg)
    best: tuple[float, int] | None = None
    chosen: NodeSpec | None = None
    for node in cfg.nodes:
        if node.max_sessions < len(cfg.clients) or node.pixel_throughput < demand:
            continue
        if any(node.node_id not in c.paths for c in cfg.clients):
            continue
        mean_latency = sum(c.paths[node.node_id].one_way_latency for c in cfg.clients) / len(cfg.clients)
        key = (mean_latency, node.node_id)
        if best is None or key < best:
            best = key
            chosen = node
    if chosen is None:
        raise CapacityError("no feasible node: capacity or render demand unsatisfied")
    return chosen


@dataclass(frozen=True, slots=True)
class HandshakeStep:
    name: str
    sent_at: int
    received_at: int


@dataclass(frozen=True, slots=True)
class HandshakeTrace:
    steps: tuple[HandshakeStep, ...]
    ready_time: int


def deploy_handshake(profile: NetworkProfile, seed: int, session_id: int = 0,
                     timeout_us: int = HANDSHAKE_TIMEOUT_US,
                     retry_us: int = HANDSHAKE_RETRY_US) -> HandshakeTrace:
    """Run the DISCOVER/OFFER/DEPLOY/READY exchange over an emulated path pair.

    The client retransmits its outstanding request every retry interval; if
    READY has not arrived by the timeout the deployment fails.  The node side
    is a stateless responder (DISCOVER begets OFFER, DEPLOY begets READY), so
    duplicated requests are harmless.  Session traffic may only start after
    the returned ready_time.
    """
    up = Path(profile, derive_seed(seed, session_id, 0x41))
    down = Path(profile, derive_seed(seed, session_id, 0x42))
    heap: list[tuple[int, int, str]] = []
    order = 0
    seq = 0
    send_times: dict[int, int] = {}
    steps_seen: dict[int, HandshakeStep] = {}
    pending = CTRL_DISCOVER

    def sched(t: int, kind: str):
        nonlocal order
        order += 1
        heapq.heappush(heap, (t, order, kind))

    def send(subtype: int, t: int, path: Path, kind: str):
        nonlocal seq
        header = WireHeader(MsgType.CONTROL, session_id, seq, t)
        seq += 1
        send_times.setdefault(subtype, t)
        result = path.submit(encode_message(header, bytes([subtype])), t)
        if isinstance(result, int):
            sched(result, kind)

    def record(subtype: int, at: int):
        if subtype not in steps_seen:
            steps_seen[subtype] = HandshakeStep(_CTRL_NAMES[subtype], send_times[subtype], at)

    send(CTRL_DISCOVER, 0, up, "up")
    sched(retry_us, "retry")

    while heap:
        t, _, kind = heapq.heappop(heap)
        if t > timeout_us:
            break
        if kind == "retry":
            send(pending, t, up, "up")
            sched(t + retry_us, "retry")
        elif kind == "up":
            for data, at in up.advance_to(t):
                subtype = decode_message(data)[1][0]
                record(subtype, at)
                reply = CTRL_OFFER if subtype == CTRL_DISCOVER else CTRL_READY
                send(reply, at, down, "down")
        else:
            for data, at in down.advance_to(t):
                subtype = decode_message(data)[1][0]
                record(subtype, at)
                if subtype == CTRL_OFFER and pending == CTRL_DISCOVER:
                    pending = CTRL_DEPLOY
                    send(CTRL_DEPLOY, at, up, "up")
                elif subtype == CTRL_READY:
                    ordered = tuple(sorted(steps_seen.values(), key=lambda s: s.received_at))
                    return HandshakeTrace(ordered, at)
    raise HandshakeTimeout(f"no READY within {timeout_us} us")


# -- scenario runner -----------------------------------------------------------


def scenario_topology(cfg: ScenarioConfig, node: NodeSpec | None) -> SessionTopology:
    if cfg.mode == EDGE_HOSTED:
        clients = tuple(
            ClientSpec(c.client_id, c.paths[node.node_id], c.decode_throughput)
            for c in cfg.clients)
        return SessionTopology(EDGE_HOSTED, clients, host_node=node)
    clients = tuple(
        ClientSpec(c.client_id, next(iter(c.paths.values())), c.decode_throughput)
        for c in cfg.clients)
    return SessionTopology(CLIENT_HOSTED, clients, master_id=cfg.master_id,
                           master_uplink=cfg.master_uplink, device_node=cfg.device_node)


def scenario_battery_gain(cfg: ScenarioConfig) -> float:
    """Offload-vs-local battery gain at the starting level.

    Edge hosting makes every client a thin client, with the first client's
    power profile.  The master-server baseline keeps rendering on the
    master's device, with the master's profile: it renders one viewport per
    client (a level that many times as wide) and adds its streaming radio, so
    its gain over the classic single-user local setup is never positive.
    """
    level = cfg.ladder[cfg.settings.start_level]
    throughputs = (cfg.power_pixel_throughput, cfg.power_decode_throughput)
    if cfg.mode == EDGE_HOSTED:
        return power.default_gain(cfg.clients[0].power, level, *throughputs)
    local = power.EnergyMode.LOCAL_RENDER
    profile = next(c.power for c in cfg.clients if c.client_id == cfg.master_id)
    views = replace(level, width=level.width * len(cfg.clients))
    baseline = power.average_power(power.EnergyConfig(local, profile, level, *throughputs))
    master = power.average_power(power.EnergyConfig(local, profile, views, *throughputs)) + profile.p_radio
    return (baseline / master - 1.0) * 100.0


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    report: KpiReport
    trace: RunTrace
    handshake: HandshakeTrace | None
    node: NodeSpec | None


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Select a node, handshake, run the session with adaptation, build the report."""
    node = None
    handshake = None
    start = 0
    if cfg.mode == EDGE_HOSTED:
        node = select_node(cfg)
        handshake = deploy_handshake(cfg.clients[0].paths[node.node_id],
                                     derive_seed(cfg.seed, 0x4853))
        start = handshake.ready_time
        logger.info("scenario %s: node %d ready at %d us", cfg.name, node.node_id, start)
    topology = scenario_topology(cfg, node)
    trace = run_session(topology, cfg.ladder, cfg.duration, cfg.settings,
                        seed=cfg.seed, start_time=start)
    report = build_report(trace, scenario_battery_gain(cfg))
    return ScenarioResult(report, trace, handshake, node)


def report_to_json(report: KpiReport) -> str:
    """Canonical report serialization: sorted keys, two-space indent, newline."""
    doc = {
        "rtt_p50": report.rtt_p50,
        "rtt_p95": report.rtt_p95,
        "rtt_p99": report.rtt_p99,
        "motion_to_photon_p95": report.motion_to_photon_p95,
        "aggregate_throughput": report.aggregate_throughput,
        "loss_rate": round(report.loss_rate, 4),
        "battery_gain": round(report.battery_gain, 4),
        "pass_rtt": report.pass_rtt,
        "pass_bandwidth": report.pass_bandwidth,
        "pass_battery": report.pass_battery,
        "frames_sent": report.frames_sent,
        "frames_delivered": report.frames_delivered,
        "frames_dropped": report.frames_dropped,
        "frames_in_flight": report.frames_in_flight,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- parameter sweeps and capacity searches ------------------------------------


def _apply_param(node, dotted: list[str], value):
    """Set a (possibly broadcast) dotted path inside a raw scenario document."""
    key = dotted[0]
    rest = dotted[1:]
    if isinstance(node, list):
        hit = False
        for item in node:
            hit = _apply_param(item, dotted, value) or hit
        return hit
    if not isinstance(node, dict) or key not in node:
        return False
    if not rest:
        node[key] = value
        return True
    return _apply_param(node[key], rest, value)


def sweep(cfg: ScenarioConfig, param: str, values: list) -> list[tuple[object, KpiReport]]:
    """Re-run the scenario once per value of a numeric config field.

    The dotted parameter path broadcasts across lists, so "ladder.bpp"
    rewrites every rung and "clients.paths.bandwidth" every client path.
    Seeds are identical across runs.
    """
    if not values:
        raise ValidationError("sweep needs at least one value")
    out = []
    for value in values:
        doc = copy.deepcopy(cfg.raw)
        if not _apply_param(doc, param.split("."), value):
            raise ValidationError(f"parameter path {param!r} matches nothing in the scenario")
        result = run_scenario(parse_scenario(doc))
        out.append((value, result.report))
    return out


def scale_clients(cfg: ScenarioConfig, n: int) -> ScenarioConfig:
    """N-user variant: replicate the first client, derive the seed from (seed, N)."""
    doc = copy.deepcopy(cfg.raw)
    template = copy.deepcopy(doc["clients"][0])
    doc["clients"] = []
    for i in range(n):
        entry = copy.deepcopy(template)
        entry["id"] = i
        doc["clients"].append(entry)
    doc["seed"] = cfg.seed ^ n
    return parse_scenario(doc)


def _search_runner(cfg: ScenarioConfig):
    def run(n: int) -> tuple[KpiReport, RunTrace]:
        result = run_scenario(scale_clients(cfg, n))
        return result.report, result.trace
    return run


def load_search(cfg: ScenarioConfig, rtt_budget_us: int | None = None,
                loss_budget: float | None = None, n_max: int = 16) -> int:
    """Largest user count keeping rtt_p95 and frame loss within budget."""
    budgets = cfg.budgets
    return kpi.load_search(
        _search_runner(cfg),
        rtt_budget_us if rtt_budget_us is not None else budgets.rtt_p95,
        loss_budget if loss_budget is not None else budgets.loss,
        n_max,
    )


def stress_search(cfg: ScenarioConfig, n_max: int = 16) -> int | None:
    """Smallest user count that congests the network, or None if none up to n_max."""
    return kpi.stress_search(_search_runner(cfg), n_max)
