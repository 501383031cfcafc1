"""Deterministic multi-client streaming session simulation.

One logical event loop drives every emulated path from a single integer
microsecond clock.  Clients emit pose input upstream at the input tick rate
and probe RTT with PING/PONG pairs; the host renders each client's stream at
the current quality level's frame rate, encodes, fragments, and streams the
frames downstream, broadcasting a small state-sync message periodically.

Two topologies are supported.  In edge_hosted mode the render host is an
edge node and every client gets an independent emulated path.  In
client_hosted mode (the classic master-server baseline) the first user's
device renders the shared scene and every receiver's downstream frames
serialize on the one master uplink path, which is exactly the mechanism that
starves receivers when the uplink is thin.

Probe traffic (PING/PONG) runs on its own path instances built from the same
profile as the data paths, modeling a measurement slice with guaranteed
bandwidth: RTT probes observe propagation and their own serialization, not
head-of-line blocking behind frame bursts.

Frame accounting is done by the harness, which sees both ends: a frame is
dropped the moment any of its fragments is lost or cut from a queue, when it
arrives complete but stale (an out-of-order completion under latest-wins
presentation), or when reassembly abandons it; otherwise it is delivered at
presentation time.  Frames still unresolved when the run ends count as
in-flight.
"""

from __future__ import annotations

import heapq
import logging
import math
import struct
from dataclasses import dataclass

from .adapt import (
    ControllerConfig,
    ControllerState,
    WindowStats,
    bottleneck_causes,
    controller_step,
    detect_bottleneck,
)
from .kpi import FrameCounts, LevelChange, RunTrace
from .model import (
    CapacityError,
    InputEvent,
    NetworkProfile,
    NodeSpec,
    QualityLevel,
    ValidationError,
    validate_ladder,
)
from .netem import Drop, Path
from .render import RenderRequest, Renderer, decode_check, encode_time_us, render_time_us
from .rng import derive_seed
from .transport import (
    MsgType,
    Reassembler,
    RttEstimator,
    WireHeader,
    decode_fragment,
    decode_message,
    encode_fragment,
    encode_input_payload,
    encode_message,
    fragment,
)

logger = logging.getLogger("epicsim.session")

EDGE_HOSTED = "edge_hosted"
CLIENT_HOSTED = "client_hosted"

DEVICE_NODE = NodeSpec(node_id=-1, pixel_throughput=200_000_000,
                       encode_throughput=250_000_000, max_sessions=16)

_F32 = struct.Struct(">f")


@dataclass(frozen=True, slots=True)
class ClientSpec:
    client_id: int
    profile: NetworkProfile
    decode_throughput: int = 7_000_000_000

    def __post_init__(self):
        if not 0 <= self.client_id < 2**32:
            raise ValidationError("client_id must fit in 32 bits")
        if self.decode_throughput <= 0:
            raise ValidationError("decode_throughput must be positive")


@dataclass(frozen=True, slots=True)
class SessionTopology:
    mode: str
    clients: tuple[ClientSpec, ...]
    host_node: NodeSpec | None = None
    master_id: int | None = None
    master_uplink: NetworkProfile | None = None
    device_node: NodeSpec = DEVICE_NODE

    def __post_init__(self):
        if self.mode not in (EDGE_HOSTED, CLIENT_HOSTED):
            raise ValidationError(f"unknown topology mode {self.mode!r}")
        if not self.clients:
            raise ValidationError("topology needs at least one client")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValidationError("client ids must be unique")
        if self.mode == EDGE_HOSTED and self.host_node is None:
            raise ValidationError("edge_hosted topology requires a host node")
        if self.mode == CLIENT_HOSTED:
            if self.master_id is None or self.master_id not in ids:
                raise ValidationError("client_hosted topology requires the master among the clients")
            if self.master_uplink is None:
                raise ValidationError("client_hosted topology requires a master uplink profile")


@dataclass(frozen=True, slots=True)
class BandwidthStep:
    """Change the link rate of every non-probe path mid-run, or with client_ids
    set, of only those clients' own non-probe paths (never a shared one)."""

    time_us: int
    bandwidth: int
    client_ids: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class SessionSettings:
    tick_us: int = 8_333                  # ~120 Hz input
    ping_interval_us: int = 100_000
    sync_interval_us: int = 50_000
    sync_payload_bytes: int = 256
    scene_complexity: float = 1.0
    start_level: int = 0
    adaptation: bool = True
    controller: ControllerConfig = ControllerConfig()
    shared_egress: NetworkProfile | None = None
    bandwidth_steps: tuple[BandwidthStep, ...] = ()
    prerender: int = 0                    # 1 hides render time via render-ahead

    def __post_init__(self):
        if self.tick_us <= 0 or self.ping_interval_us <= 0 or self.sync_interval_us <= 0:
            raise ValidationError("intervals must be positive")
        if self.prerender not in (0, 1):
            raise ValidationError("prerender depth is 0 or 1")


def _f32(x: float) -> float:
    return _F32.unpack(_F32.pack(x))[0]


def synthetic_input(t: int, k: int) -> InputEvent:
    """Deterministic pose: a slow walk around a 4-second circle."""
    theta = (t % 4_000_000) / 4_000_000 * 2.0 * math.pi
    half = theta / 2.0
    return InputEvent(
        timestamp=t,
        position=(_f32(math.cos(theta)), _f32(1.6), _f32(math.sin(theta))),
        orientation=(0.0, _f32(math.sin(half)), 0.0, _f32(math.cos(half))),
        buttons=1 if (k % 30) < 15 else 0,
    )


class _FrameState:
    __slots__ = ("meta", "input_origin", "status", "bits")

    def __init__(self, meta, input_origin, bits):
        self.meta = meta
        self.input_origin = input_origin
        self.status = "pending"
        self.bits = bits


class _ClientState:
    __slots__ = (
        "spec", "is_master", "estimator", "reassembler", "controller",
        "last_presented", "next_frame_id", "input_seq",
        "frames", "window_delivered", "window_dropped", "window_bits",
        "m2p", "rtt",
    )

    def __init__(self, spec: ClientSpec, start_level: int, is_master: bool):
        self.spec = spec
        self.is_master = is_master
        self.estimator = RttEstimator()
        self.reassembler = Reassembler()
        self.controller = ControllerState(level=start_level)
        self.last_presented = -1
        self.next_frame_id = 0
        self.input_seq = 0
        self.frames = FrameCounts()
        self.window_delivered = 0
        self.window_dropped = 0
        self.window_bits = 0
        self.m2p: list[int] = []
        self.rtt: list[int] = []


@dataclass(frozen=True, slots=True)
class _PathRecord:
    name: str
    path: Path
    kind: str               # "input", "frames" or "probe"
    owner: int | None       # None for a path shared by every client


class _Simulation:
    """One run of the event loop; construct, call run(), read the trace."""

    def __init__(self, topology: SessionTopology, ladder: tuple[QualityLevel, ...],
                 duration_us: int, settings: SessionSettings, seed: int, start_time: int):
        if duration_us < 1_000_000:
            raise ValidationError("session duration must be at least 1 s of simulated time")
        validate_ladder(ladder)
        if not 0 <= settings.start_level < len(ladder):
            raise ValidationError("start_level outside ladder")
        self.topology = topology
        self.ladder = ladder
        self.settings = settings
        self.seed = seed
        self.start = start_time
        self.end = start_time + duration_us
        self.duration = duration_us

        self.heap: list[tuple[int, int, str, tuple]] = []
        self._seq = 0
        self.log_packets = logger.isEnabledFor(logging.DEBUG)

        self.master_id = topology.master_id if topology.mode == CLIENT_HOSTED else None
        self.clients: dict[int, _ClientState] = {}
        for spec in topology.clients:
            self.clients[spec.client_id] = _ClientState(
                spec, settings.start_level, spec.client_id == self.master_id)

        if topology.mode == EDGE_HOSTED:
            node = topology.host_node
            if len(topology.clients) > node.max_sessions:
                raise CapacityError(
                    f"node {node.node_id} supports {node.max_sessions} sessions, "
                    f"got {len(topology.clients)} clients")
            self.render_node = node
        else:
            self.render_node = topology.device_node
        self.renderer = Renderer(self.render_node, derive_seed(seed, 0x5245))

        self.paths: list[_PathRecord] = []
        self.up_data: dict[int, Path] = {}
        self.down_frames: dict[int, Path] = {}
        self.up_probe: dict[int, Path] = {}
        self.down_probe: dict[int, Path] = {}
        self._build_paths()
        for path in self.down_frames.values():
            if settings.sync_payload_bytes + 24 > path.profile.mtu:
                raise ValidationError("sync payload does not fit the downstream MTU")

        self.host_input_origin: dict[int, int | None] = {c: None for c in self.clients}
        self.frame_states: dict[tuple[int, int], _FrameState] = {}
        self.wire_seq: dict[tuple[str, int, int], int] = {}
        self.level_changes: list[LevelChange] = []
        self.window_index = 0
        self.queue_drop_timeline: list[int] = []
        self.drop_reasons: dict[str, int] = {}
        nsec = -(-duration_us // 1_000_000)
        self.per_second_bits = {c: [0] * nsec for c in self.clients}

    # -- wiring ---------------------------------------------------------

    def _add_path(self, name: str, profile: NetworkProfile, tag: tuple[int, int],
                  kind: str, owner: int | None) -> Path:
        path = Path(profile, derive_seed(self.seed, *tag))
        self.paths.append(_PathRecord(name, path, kind, owner))
        return path

    def _build_paths(self):
        """Register every path once; its index in self.paths is its identity in traces.

        Frames ride the master uplink (client_hosted), the shared egress, or
        each client's own downstream path; the master itself has no paths.
        """
        t, s = self.topology, self.settings
        shared = None
        if t.mode == CLIENT_HOSTED:
            shared = self._add_path("master_uplink", t.master_uplink, (0xAB, 6), "frames", None)
        elif s.shared_egress is not None:
            shared = self._add_path("shared_egress", s.shared_egress, (0xE6, 5), "frames", None)
        for spec in t.clients:
            cid, profile = spec.client_id, spec.profile
            if cid == self.master_id:
                continue
            self.up_data[cid] = self._add_path(f"up_data[{cid}]", profile, (cid, 1), "input", cid)
            self.down_frames[cid] = shared or self._add_path(
                f"down_frames[{cid}]", profile, (cid, 2), "frames", cid)
            self.up_probe[cid] = self._add_path(f"up_probe[{cid}]", profile, (cid, 3), "probe", cid)
            self.down_probe[cid] = self._add_path(f"down_probe[{cid}]", profile, (cid, 4), "probe", cid)

    # -- event plumbing --------------------------------------------------

    def push(self, t: int, kind: str, *args) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, kind, args))

    def _next_seq(self, side: str, session_id: int, msg_type: int) -> int:
        key = (side, session_id, msg_type)
        nxt = self.wire_seq.get(key, 0)
        self.wire_seq[key] = nxt + 1
        return nxt

    def _submit(self, path: Path, data: bytes, t: int) -> int | Drop:
        result = path.submit(data, t)
        if isinstance(result, int):
            self.push(result, "arrive", path)
        if self.log_packets:
            logger.debug("t=%d submit %dB -> %s", t, len(data), result)
        return result

    # -- periodic client-side events --------------------------------------

    def _on_input(self, t: int, cid: int):
        st = self.clients[cid]
        event = synthetic_input(t, st.input_seq)
        header = WireHeader(MsgType.INPUT, cid, self._next_seq("c", cid, MsgType.INPUT), t)
        self._submit(self.up_data[cid], encode_message(header, encode_input_payload(event)), t)
        st.input_seq += 1
        nxt = t + self.settings.tick_us
        if nxt <= self.end:
            self.push(nxt, "input", cid)

    def _on_ping(self, t: int, cid: int):
        header = WireHeader(MsgType.PING, cid, self._next_seq("c", cid, MsgType.PING), t)
        self._submit(self.up_probe[cid], encode_message(header), t)
        nxt = t + self.settings.ping_interval_us
        if nxt <= self.end:
            self.push(nxt, "ping", cid)

    # -- host-side frame pipeline ------------------------------------------

    def _on_frame(self, t: int, cid: int):
        st = self.clients[cid]
        level_idx = st.controller.level
        level = self.ladder[level_idx]
        fid = st.next_frame_id
        st.next_frame_id += 1
        rt = render_time_us(level, self.settings.scene_complexity, self.render_node.pixel_throughput)
        if st.is_master:
            self.push(t + rt, "present_local", cid, fid, level_idx, t)
        else:
            et = encode_time_us(level, self.render_node.encode_throughput)
            ready = t + (0 if self.settings.prerender else rt) + et
            self.push(ready, "ready", cid, fid, level_idx, self.host_input_origin[cid])
        nxt = t + round(1_000_000 / level.fps)
        if nxt <= self.end:
            self.push(nxt, "frame", cid)

    def _on_ready(self, t: int, cid: int, fid: int, level_idx: int, input_origin: int | None):
        st = self.clients[cid]
        level = self.ladder[level_idx]
        # client_hosted streams one shared scene rendered by the master
        scene = self.master_id if self.master_id is not None else cid
        meta, payload = self.renderer.render(RenderRequest(fid, level, self.settings.scene_complexity, scene))
        path = self.down_frames[cid]
        frags = fragment(fid, payload, path.profile.mtu)
        state = _FrameState(meta, input_origin, meta.payload_size * 8)
        self.frame_states[(cid, fid)] = state
        st.frames.sent += 1
        for frag in frags:
            wire = encode_fragment(cid, self._next_seq("h", cid, MsgType.FRAME_FRAG), t, frag)
            result = self._submit(path, wire, t)
            if isinstance(result, Drop) and state.status == "pending":
                self._drop_frame(cid, fid, "fragment_" + result.value)

    def _on_present_local(self, t: int, cid: int, fid: int, level_idx: int, started: int):
        st = self.clients[cid]
        state = _FrameState(None, started, 0)
        state.status = "delivered"
        self.frame_states[(cid, fid)] = state
        st.frames.sent += 1
        st.frames.delivered += 1
        st.window_delivered += 1
        st.last_presented = fid
        st.m2p.append(t - started)

    def _on_sync(self, t: int):
        payload = bytes(self.settings.sync_payload_bytes)
        for cid in self.down_frames:
            header = WireHeader(MsgType.STATE_SYNC, cid,
                                self._next_seq("h", cid, MsgType.STATE_SYNC), t)
            self._submit(self.down_frames[cid], encode_message(header, payload), t)
        nxt = t + self.settings.sync_interval_us
        if nxt <= self.end:
            self.push(nxt, "sync")

    # -- arrivals ------------------------------------------------------------

    def _on_arrive(self, t: int, path: Path):
        for data, at in path.advance_to(t):
            header, payload = decode_message(data)
            cid = header.session_id
            if header.msg_type == MsgType.INPUT:
                self.host_input_origin[cid] = header.timestamp
            elif header.msg_type == MsgType.PING:
                pong = WireHeader(MsgType.PONG, cid, header.sequence, header.timestamp)
                self._submit(self.down_probe[cid], encode_message(pong), at)
            elif header.msg_type == MsgType.PONG:
                st = self.clients[cid]
                sample = at - header.timestamp
                st.estimator.update(sample)
                st.rtt.append(sample)
            elif header.msg_type == MsgType.FRAME_FRAG:
                self._on_fragment(at, cid, payload)

    def _on_fragment(self, t: int, cid: int, payload: bytes):
        st = self.clients[cid]
        event = st.reassembler.offer(decode_fragment(payload), t)
        for fid in event.abandoned:
            self._drop_frame(cid, fid, "reassembly_abandoned")
        if event.completed is None:
            return
        fid, data = event.completed
        state = self.frame_states[(cid, fid)]
        if state.status != "pending":
            return
        decode_us = decode_check(state.meta, data, self.ladder[state.meta.level_index],
                                 st.spec.decode_throughput)
        self.push(t + decode_us, "present", cid, fid)

    def _on_present(self, t: int, cid: int, fid: int):
        st = self.clients[cid]
        state = self.frame_states[(cid, fid)]
        if state.status != "pending":
            return
        if fid <= st.last_presented:
            self._drop_frame(cid, fid, "stale")
            return
        state.status = "delivered"
        st.last_presented = fid
        st.frames.delivered += 1
        st.window_delivered += 1
        st.window_bits += state.bits
        sec = min((t - self.start) // 1_000_000, len(self.per_second_bits[cid]) - 1)
        self.per_second_bits[cid][sec] += state.bits
        if state.input_origin is not None:
            st.m2p.append(t - state.input_origin)

    def _drop_frame(self, cid: int, fid: int, reason: str):
        state = self.frame_states.get((cid, fid))
        if state is None or state.status != "pending":
            return
        state.status = "dropped"
        st = self.clients[cid]
        st.frames.dropped += 1
        st.window_dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    # -- adaptation window ------------------------------------------------

    def _on_window(self, t: int):
        cfg = self.settings.controller
        for cid, st in self.clients.items():
            if st.is_master:
                continue
            resolved = st.window_delivered + st.window_dropped
            stats = WindowStats(
                window_index=self.window_index,
                srtt=st.estimator.srtt or 0,
                frame_loss_rate=st.window_dropped / resolved if resolved else 0.0,
                delivered_throughput=st.window_bits * 1_000_000 // cfg.window_us,
                current_level=st.controller.level,
            )
            bottleneck = detect_bottleneck(stats, self.ladder, cfg)
            if self.settings.adaptation:
                old = st.controller.level
                new = controller_step(st.controller, bottleneck, len(self.ladder), cfg)
                if new is not None:
                    causes = bottleneck_causes(stats, self.ladder, cfg) if new > old else ("recovered",)
                    self.level_changes.append(LevelChange(cid, self.window_index, t, old, new, causes))
                    logger.info("t=%d client %d level %d -> %d (%s)", t, cid, old, new, ",".join(causes))
            st.window_delivered = 0
            st.window_dropped = 0
            st.window_bits = 0
            abandoned = st.reassembler.sweep(t)
            for fid in abandoned:
                self._drop_frame(cid, fid, "reassembly_abandoned")
        drops = sum(r.path.dropped_queue for r in self.paths if r.kind == "frames")
        self.queue_drop_timeline.append(drops)
        self.window_index += 1
        nxt = t + cfg.window_us
        if nxt <= self.end:
            self.push(nxt, "window", )

    def _on_bwstep(self, t: int, step: BandwidthStep):
        targets = step.client_ids
        for r in self.paths:
            if r.kind != "probe" and (targets is None or r.owner in targets):
                r.path.set_bandwidth(step.bandwidth)
        logger.info("t=%d bandwidth step to %d b/s", t, step.bandwidth)

    # -- main loop ----------------------------------------------------------

    _HANDLERS = {
        "input": "_on_input", "ping": "_on_ping", "frame": "_on_frame",
        "ready": "_on_ready", "arrive": "_on_arrive", "present": "_on_present",
        "present_local": "_on_present_local", "sync": "_on_sync",
        "window": "_on_window", "bwstep": "_on_bwstep",
    }

    def run(self) -> RunTrace:
        for cid, st in self.clients.items():
            if not st.is_master:
                self.push(self.start, "input", cid)
                self.push(self.start, "ping", cid)
            self.push(self.start, "frame", cid)
        self.push(self.start, "sync")
        self.push(self.start + self.settings.controller.window_us, "window")
        for step in self.settings.bandwidth_steps:
            self.push(self.start + step.time_us, "bwstep", step)

        heap = self.heap
        while heap and heap[0][0] <= self.end:
            t, _, kind, args = heapq.heappop(heap)
            getattr(self, self._HANDLERS[kind])(t, *args)

        return self._build_trace()

    def _build_trace(self) -> RunTrace:
        trace = RunTrace(duration_us=self.duration, session_start=self.start)
        totals = FrameCounts()
        path_ids = {id(r.path): i for i, r in enumerate(self.paths)}
        for cid, st in self.clients.items():
            trace.rtt_samples[cid] = st.rtt
            trace.motion_to_photon[cid] = st.m2p
            trace.per_second_bits[cid] = self.per_second_bits[cid]
            trace.per_client_frames[cid] = st.frames
            trace.final_levels[cid] = st.controller.level
            totals.sent += st.frames.sent
            totals.delivered += st.frames.delivered
            totals.dropped += st.frames.dropped
            if not st.is_master:
                trace.frame_path_ids[cid] = path_ids[id(self.down_frames[cid])]
        trace.frames = totals
        trace.level_changes = self.level_changes
        trace.queue_drop_timeline = self.queue_drop_timeline
        trace.drop_reasons = dict(self.drop_reasons)
        for r in self.paths:
            p = r.path
            trace.path_counters[r.name] = (p.submitted, p.delivered, p.dropped_loss, p.dropped_queue)
        pending = sum(1 for s in self.frame_states.values() if s.status == "pending")
        assert trace.frames.in_flight == pending, "frame conservation violated"
        return trace


def run_session(topology: SessionTopology, ladder: tuple[QualityLevel, ...],
                duration_us: int, settings: SessionSettings = SessionSettings(),
                seed: int = 0, start_time: int = 0) -> RunTrace:
    """Simulate one session and return its measured trace."""
    sim = _Simulation(topology, ladder, duration_us, settings, seed, start_time)
    return sim.run()


@dataclass(frozen=True, slots=True)
class TopologyComparison:
    edge: RunTrace
    client_hosted: RunTrace


def compare_topologies(clients: tuple[ClientSpec, ...], host_node: NodeSpec,
                       master_uplink: NetworkProfile, ladder: tuple[QualityLevel, ...],
                       duration_us: int, settings: SessionSettings = SessionSettings(),
                       seed: int = 0, master_id: int | None = None,
                       device_node: NodeSpec = DEVICE_NODE) -> TopologyComparison:
    """Run the edge-hosted and master-server topologies on the same client set.

    Both runs use the same seed and client profiles, so differences in the
    paired traces isolate the hosting decision.
    """
    if master_id is None:
        master_id = clients[0].client_id
    edge = run_session(
        SessionTopology(EDGE_HOSTED, clients, host_node=host_node),
        ladder, duration_us, settings, seed)
    hosted = run_session(
        SessionTopology(CLIENT_HOSTED, clients, master_id=master_id,
                        master_uplink=master_uplink, device_node=device_node),
        ladder, duration_us, settings, seed)
    return TopologyComparison(edge, hosted)
