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
from dataclasses import asdict, dataclass, replace

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
    frame_bytes,
    validate_ladder,
)
from .netem import Path
from .rng import derive_seed
from .session import (
    BandwidthStep,
    CLIENT_HOSTED,
    ClientSpec,
    DECODE_THROUGHPUT,
    DEVICE_NODE,
    EDGE_HOSTED,
    SessionSettings,
    SessionTopology,
    run_session,
)
from .transport import HEADER_LEN, MsgType, WireHeader, decode_message, encode_message, fragment_runs

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
    """`value` converted by `kind` (int, float or as_bpp); `where` is its key path.

    A number is a JSON number: a string or a boolean is not one, and an int
    key takes no fractional part.
    """
    if isinstance(value, (bool, str)) or kind is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{where} must be {'an integer' if kind is int else 'a number'}, "
                              f"not {value!r:.40}")
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


# The JSON keys of each domain type, mapped to a converter (int, float or
# as_bpp), or to (field, converter) where the field has another name; then
# the keys that must be present.  Every other default is the type's own.
_KEYS = {
    NetworkProfile: ({"one_way_latency": int, "jitter": int, "loss_rate": float, "bandwidth": int,
                      "mtu": int, "queue_capacity": int}, ("one_way_latency", "bandwidth")),
    NodeSpec: ({"node_id": int, "pixel_throughput": int, "encode_throughput": int, "max_sessions": int},
               ("node_id", "pixel_throughput", "encode_throughput")),
    PowerProfile: (dict.fromkeys(("p_idle", "p_render_local", "p_radio", "p_decode", "battery_capacity"),
                                 float), ()),
    QualityLevel: ({"level_index": int, "width": int, "height": int, "fps": int, "bpp": as_bpp},
                   ("level_index", "width", "height", "fps", "bpp")),
    ControllerConfig: ({"rtt_budget": int, "loss_threshold": float, "throughput_factor": float,
                        "k_down": int, "k_up": int, "cooldown": int, "window": ("window_us", int)}, ()),
    Budgets: ({"rtt_p95": int, "loss": float}, ()),
    SessionSettings: ({"tick": ("tick_us", int), "ping_interval": ("ping_interval_us", int),
                       "sync_interval": ("sync_interval_us", int),
                       "state_sync_bytes": ("sync_payload_bytes", int),
                       "scene_complexity": float, "prerender": int}, ()),
    BandwidthStep: ({"time": ("time_us", int), "bandwidth": int}, ("time", "bandwidth")),
}


def _named(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with `where` in front of the ValidationError it raises."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _read(cls, obj, where: str, **given):
    """A `cls` from the JSON object `obj` at key path `where`, by `_KEYS[cls]`.

    An absent optional key is left out, so the type's default applies;
    `given` holds the fields read elsewhere.
    """
    obj = _object(obj, where)
    keys, required = _KEYS[cls]
    for key, kind in keys.items():
        if key in obj or key in required:
            field, kind = kind if isinstance(kind, tuple) else (key, kind)
            given[field] = _number(obj, key, where, kind)
    return _named(where, cls, **given)


def _ladder_from(entries, where: str) -> tuple[QualityLevel, ...]:
    levels = tuple(_read(QualityLevel, e, f"{where}[{i}]") for i, e in enumerate(_array(entries, where)))
    return _named(where, validate_ladder, levels)


def _client_from(entry, where: str, node_ids: set[int]) -> ScenarioClient:
    entry = _object(entry, where)
    cid = _number(entry, "id", where)
    if not 0 <= cid < 2**32:
        raise ValidationError(f"{where}.id must fit in 32 bits, not {cid}")
    raw_paths = _object(_get(entry, "paths", where), f"{where}.paths")
    if "bandwidth" in raw_paths:
        # single-profile shorthand, applied to every candidate node
        profile = _read(NetworkProfile, raw_paths, f"{where}.paths")
        paths = {nid: profile for nid in node_ids} or {0: profile}
    else:
        paths = {}
        for key, val in raw_paths.items():
            if not key.removeprefix("-").isdecimal():  # a JSON object key is a string
                raise ValidationError(f"{where}.paths key must be a node id, not {key!r:.40}")
            nid = int(key)
            if node_ids and nid not in node_ids:
                raise ValidationError(f"client {cid}: path references unknown node {nid}")
            paths[nid] = _read(NetworkProfile, val, f"{where}.paths.{key}")
    # ScenarioClient holds the rate until the run builds its ClientSpec
    decode_throughput = _number(entry, "decode_throughput", where, default=DECODE_THROUGHPUT)
    if decode_throughput <= 0:
        raise ValidationError(f"{where}.decode_throughput must be a positive integer, "
                              f"not {entry['decode_throughput']!r:.40}")
    return ScenarioClient(
        client_id=cid,
        paths=paths,
        power=_read(PowerProfile, entry.get("power", {}), f"{where}.power"),
        decode_throughput=decode_throughput,
    )


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a scenario JSON document and bind it to domain types.

    Every malformed input raises `ValidationError` naming its key path, such
    as `clients[1].paths.bandwidth`.  The domain types hold every default.
    """
    if not isinstance(doc, dict):
        raise ValidationError("scenario must be a JSON object")
    name = str(doc.get("name", "scenario"))
    seed = _number(doc, "seed", "scenario", default=0)
    duration = _number(doc, "duration", "scenario")
    if duration < 1_000_000:
        raise ValidationError("duration must be at least 1000000 us (1 s of simulated time)")
    ladder = _ladder_from(doc["ladder"], "ladder") if doc.get("ladder") else DEFAULT_LADDER

    nodes = tuple(_read(NodeSpec, n, f"nodes[{i}]")
                  for i, n in enumerate(_array(doc.get("nodes", []), "nodes")))
    node_ids = {n.node_id for n in nodes}
    if len(node_ids) != len(nodes):
        raise ValidationError("node ids must be unique")

    clients = [_client_from(entry, f"clients[{i}]", node_ids)
               for i, entry in enumerate(_array(_get(doc, "clients", "scenario"), "clients"))]
    if not clients:
        raise ValidationError("scenario needs at least one client")
    client_ids = {c.client_id for c in clients}
    if len(client_ids) != len(clients):
        raise ValidationError("client ids must be unique")

    topo = _object(doc.get("topology", {"mode": EDGE_HOSTED}), "topology")
    mode = topo.get("mode", EDGE_HOSTED)
    if mode not in (EDGE_HOSTED, CLIENT_HOSTED):
        raise ValidationError(f"unknown topology mode {mode!r}")
    master_id = _number(topo, "master", "topology") if "master" in topo else None
    master_uplink = (_read(NetworkProfile, topo["master_uplink"], "topology.master_uplink")
                     if "master_uplink" in topo else None)
    if mode == EDGE_HOSTED and not nodes:
        raise ValidationError("edge_hosted scenario needs at least one node")
    if mode == CLIENT_HOSTED and (master_id is None or master_uplink is None):
        raise ValidationError("client_hosted scenario needs topology.master and topology.master_uplink")
    if mode == CLIENT_HOSTED and master_id not in client_ids:
        raise ValidationError(f"topology.master {master_id} is not a client id")
    if mode == CLIENT_HOSTED and len(clients) == 1:
        raise ValidationError("clients: a client_hosted scenario needs a receiver besides topology.master")

    ctrl_doc = _object(doc.get("controller", {}), "controller")
    fields = {"controller": _read(ControllerConfig, ctrl_doc, "controller")}  # of SessionSettings
    if "start_level" in ctrl_doc:
        fields["start_level"] = _number(ctrl_doc, "start_level", "controller")
        if not 0 <= fields["start_level"] < len(ladder):
            raise ValidationError("controller.start_level outside the ladder")
    if "enabled" in ctrl_doc:
        enabled = fields["adaptation"] = ctrl_doc["enabled"]
        if not isinstance(enabled, bool):
            raise ValidationError(f"controller.enabled must be true or false, not {enabled!r:.40}")
    if doc.get("shared_egress"):
        fields["shared_egress"] = _read(NetworkProfile, doc["shared_egress"], "shared_egress")

    steps = []
    for i, e in enumerate(_array(doc.get("events", []), "events")):
        at = f"events[{i}]"
        e = _object(e, at)
        targets = _array(e["clients"], f"{at}.clients") if e.get("clients") else ()
        ids = tuple(_to(int, x, f"{at}.clients[{j}]") for j, x in enumerate(targets))
        step = _read(BandwidthStep, e, at, client_ids=ids or None)  # None steps every client
        unknown = set(step.client_ids or ()) - client_ids
        if unknown:
            raise ValidationError(f"{at}: unknown client ids {sorted(unknown)}")
        steps.append(step)

    if "state_sync_bytes" in doc and (sync_bytes := _number(doc, "state_sync_bytes", "scenario")) < 0:
        raise ValidationError(f"scenario.state_sync_bytes must be non-negative, not {sync_bytes}")
    if "scene_complexity" in doc and not 0.1 <= (
            complexity := _number(doc, "scene_complexity", "scenario", float)) < math.inf:
        raise ValidationError(f"scenario.scene_complexity must be finite and at least 0.1, not {complexity}")
    settings = _read(SessionSettings, doc, "scenario", bandwidth_steps=tuple(steps), **fields)

    # the state sync and every rung's fragments ride every path that can carry frames
    if mode == CLIENT_HOSTED:
        frame_paths = [("topology.master_uplink", master_uplink)]
    elif settings.shared_egress is not None:
        frame_paths = [("shared_egress", settings.shared_egress)]
    else:
        frame_paths = [(f"clients[{i}].paths", p) for i, c in enumerate(clients) for p in c.paths.values()]
    sync_size = HEADER_LEN + settings.sync_payload_bytes
    for where, profile in frame_paths:
        if sync_size > profile.mtu:
            raise ValidationError(f"scenario.state_sync_bytes: a {sync_size} B state sync "
                                  f"does not fit the {profile.mtu} B mtu of {where}")
        for i, level in enumerate(ladder):
            rung = "ladder" if ladder is DEFAULT_LADDER else f"ladder[{i}]"
            _named(f"{rung} at the {profile.mtu} B mtu of {where}",
                   fragment_runs, frame_bytes(level), profile.mtu)

    power_doc = _object(doc.get("power_model", {}), "power_model")
    device = {key: _number(power_doc, key, "power_model", default=default)
              for key, default in (("device_pixel_throughput", power.DEVICE_PIXEL_THROUGHPUT),
                                   ("device_decode_throughput", power.DEVICE_DECODE_THROUGHPUT))}
    for key, value in device.items():
        if value <= 0:
            raise ValidationError(f"power_model.{key} must be positive, not {value}")
    return ScenarioConfig(
        name=name, seed=seed, duration=duration, ladder=ladder, nodes=nodes,
        clients=tuple(clients), mode=mode, master_id=master_id,
        master_uplink=master_uplink, settings=settings,
        budgets=_read(Budgets, doc.get("budgets", {}), "budgets"),
        device_node=_read(NodeSpec, topo["device_node"], "topology.device_node")
        if "device_node" in topo else DEVICE_NODE,
        power_pixel_throughput=device["device_pixel_throughput"],
        power_decode_throughput=device["device_decode_throughput"],
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


def deploy_handshake(profile: NetworkProfile, seed: int) -> HandshakeTrace:
    """Run the DISCOVER/OFFER/DEPLOY/READY exchange over an emulated path pair.

    The client retransmits its outstanding request every retry interval; if
    READY has not arrived by the timeout the deployment fails.  The node side
    is a stateless responder (DISCOVER begets OFFER, DEPLOY begets READY), so
    duplicated requests are harmless.  Session traffic may only start after
    the returned ready_time.
    """
    up = Path(profile, derive_seed(seed, 0, 0x41))
    down = Path(profile, derive_seed(seed, 0, 0x42))
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
        header = WireHeader(MsgType.CONTROL, 0, seq, t)
        seq += 1
        send_times.setdefault(subtype, t)
        result = path.submit(encode_message(header, bytes([subtype])), t)
        if isinstance(result, int):
            sched(result, kind)

    def record(subtype: int, at: int):
        if subtype not in steps_seen:
            steps_seen[subtype] = HandshakeStep(_CTRL_NAMES[subtype], send_times[subtype], at)

    send(CTRL_DISCOVER, 0, up, "up")
    sched(HANDSHAKE_RETRY_US, "retry")

    while heap:
        t, _, kind = heapq.heappop(heap)
        if t > HANDSHAKE_TIMEOUT_US:
            break
        if kind == "retry":
            send(pending, t, up, "up")
            sched(t + HANDSHAKE_RETRY_US, "retry")
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
    raise HandshakeTimeout(f"no READY within {HANDSHAKE_TIMEOUT_US} us")


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
    doc = asdict(report)
    doc["loss_rate"] = round(report.loss_rate, 4)
    doc["battery_gain"] = round(report.battery_gain, 4)
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
    """Run N users; on a client-hosted scenario N counts receivers, since the
    master hosts the session as an edge node does."""
    hosts = 1 if cfg.mode == CLIENT_HOSTED else 0

    def run(n: int) -> tuple[KpiReport, RunTrace]:
        result = run_scenario(scale_clients(cfg, n + hosts))
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
