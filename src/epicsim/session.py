"""Deterministic multi-client streaming session simulation.

One logical event loop drives every emulated path from a single integer
microsecond clock.  Clients emit pose input upstream at the input tick rate
and probe RTT with PING/PONG pairs; the host renders each client's stream at
the current quality level's frame rate, encodes, fragments, and streams the
frames downstream, broadcasting a small state-sync message periodically.

No message is encoded.  A small message is a `(MsgType, client_id, timestamp)`
record submitted with its wire size, and each delivery is an event.  A frame
is carried as its fragments' wire sizes, submitted to its path as one burst,
and resolved by one event: the frame's completion or abandonment, computed
from the fragments' arrival times.  No frame bytes are generated.

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

The receiver keeps the rules of `transport.Reassembler`: a frame pending more
than the reassembly timeout after its first fragment is abandoned by its own
late fragment (`frame_outcome`) or by the next controller window's sweep,
whichever comes first, and a frame older than the last completed one never
completes.  Events at one microsecond run in push order.  A frame's outcome
event takes the place in that order of the submission that first reached
the path's arrival at that microsecond, the packet with which a receiver
polling the path would have seen it.
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
    frame_bytes,
    validate_ladder,
)
from .netem import Drop, Path
from .render import decode_time_us, encode_time_us, render_time_us
from .rng import derive_seed
from .transport import (
    HEADER_LEN,
    INPUT_PAYLOAD_LEN,
    REASSEMBLY_TIMEOUT_US,
    MsgType,
    RttEstimator,
    fragment_sizes,
    frame_outcome,
)
from .transport import decode_message, encode_fragment  # noqa: F401  read by perfbench/tracer.py::_pristine

logger = logging.getLogger("epicsim.session")

EDGE_HOSTED = "edge_hosted"
CLIENT_HOSTED = "client_hosted"

DEVICE_NODE = NodeSpec(node_id=-1, pixel_throughput=200_000_000,
                       encode_throughput=250_000_000, max_sessions=16)

_F32 = struct.Struct(">f")
_INPUT_BYTES = HEADER_LEN + INPUT_PAYLOAD_LEN  # wire size of an INPUT message


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
        if self.sync_payload_bytes < 0:
            raise ValidationError("sync_payload_bytes must be non-negative")
        if not 0.1 <= self.scene_complexity < math.inf:
            raise ValidationError("scene_complexity must be finite and at least 0.1")


def _f32(x: float) -> float:
    return _F32.unpack(_F32.pack(x))[0]


def synthetic_input(t: int, k: int) -> InputEvent:
    """Deterministic pose: a slow walk around a 4-second circle (a run sends records, not poses)."""
    theta = (t % 4_000_000) / 4_000_000 * 2.0 * math.pi
    half = theta / 2.0
    return InputEvent(
        timestamp=t,
        position=(_f32(math.cos(theta)), _f32(1.6), _f32(math.sin(theta))),
        orientation=(0.0, _f32(math.sin(half)), 0.0, _f32(math.cos(half))),
        buttons=1 if (k % 30) < 15 else 0,
    )


class _FrameState:
    __slots__ = ("input_origin", "status", "bits")

    def __init__(self, input_origin, bits):
        self.input_origin = input_origin
        self.status = "pending"
        self.bits = bits


class _ClientState:
    __slots__ = (
        "spec", "is_master", "estimator", "controller",
        "last_completed", "awaiting", "last_presented", "next_frame_id",
        "frames", "window_delivered", "window_dropped", "window_bits",
        "m2p", "rtt",
    )

    def __init__(self, spec: ClientSpec, start_level: int, is_master: bool):
        self.spec = spec
        self.is_master = is_master
        self.estimator = RttEstimator()
        self.controller = ControllerState(level=start_level)
        self.last_completed = -1
        # first fragment arrival of each whole frame whose outcome event is pending
        self.awaiting: dict[int, int] = {}
        self.last_presented = -1
        self.next_frame_id = 0
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
        self.log_frames = logger.isEnabledFor(logging.DEBUG)

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
        node, complexity = self.render_node, settings.scene_complexity
        # per level: frame bytes, render us, encode us, frame interval us
        self.level_costs = [
            (frame_bytes(level), render_time_us(level, complexity, node.pixel_throughput),
             encode_time_us(level, node.encode_throughput), round(1_000_000 / level.fps))
            for level in ladder]
        # fragment sizes by (frame bytes, mtu), filled as frames are first streamed
        self.fragments: dict[tuple[int, int], list[int]] = {}

        self.paths: list[_PathRecord] = []
        self.up_data: dict[int, Path] = {}
        self.down_frames: dict[int, Path] = {}
        self.up_probe: dict[int, Path] = {}
        self.down_probe: dict[int, Path] = {}
        self._build_paths()
        # push order of the submission that first reached each frame path's last_arrival
        self.arrival_seq = {id(r.path): 0 for r in self.paths if r.kind == "frames"}
        self.sync_bytes = HEADER_LEN + settings.sync_payload_bytes
        for path in self.down_frames.values():
            if self.sync_bytes > path.profile.mtu:
                raise ValidationError("sync payload does not fit the downstream MTU")

        self.host_input_origin: dict[int, int | None] = {c: None for c in self.clients}
        self.frame_states: dict[tuple[int, int], _FrameState] = {}
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

    def _submit(self, path: Path, record, t: int, size: int | None = None) -> None:
        """Submit a small message of `size` wire bytes; its delivery is an "arrive" event."""
        result = path.submit(record, t, size)
        if isinstance(result, int):
            self.push(result, "arrive", path)

    # -- periodic client-side events --------------------------------------

    def _on_input(self, t: int, cid: int):
        self._submit(self.up_data[cid], (MsgType.INPUT, cid, t), t, _INPUT_BYTES)
        nxt = t + self.settings.tick_us
        if nxt <= self.end:
            self.push(nxt, "input", cid)

    def _on_ping(self, t: int, cid: int):
        self._submit(self.up_probe[cid], (MsgType.PING, cid, t), t, HEADER_LEN)
        nxt = t + self.settings.ping_interval_us
        if nxt <= self.end:
            self.push(nxt, "ping", cid)

    # -- host-side frame pipeline ------------------------------------------

    def _on_frame(self, t: int, cid: int):
        st = self.clients[cid]
        level_idx = st.controller.level
        _, rt, et, interval = self.level_costs[level_idx]
        fid = st.next_frame_id
        st.next_frame_id += 1
        if st.is_master:
            self.push(t + rt, "present_local", cid, fid, level_idx, t)
        else:
            ready = t + (0 if self.settings.prerender else rt) + et
            self.push(ready, "ready", cid, fid, level_idx, self.host_input_origin[cid])
        nxt = t + interval
        if nxt <= self.end:
            self.push(nxt, "frame", cid)

    def _on_ready(self, t: int, cid: int, fid: int, level_idx: int, input_origin: int | None):
        st = self.clients[cid]
        size = self.level_costs[level_idx][0]
        path = self.down_frames[cid]
        key = (size, path.profile.mtu)
        sizes = self.fragments.get(key)
        if sizes is None:
            sizes = self.fragments[key] = fragment_sizes(*key)
        path.advance_to(t)  # forget packets that have arrived; nothing reads them
        before = path.last_arrival
        arrivals = path.submit_burst(sizes, t)
        self._seq += 1
        seq = self._seq
        self.frame_states[(cid, fid)] = _FrameState(input_origin, size * 8)
        st.frames.sent += 1
        dropped = [d for d in Drop if d in arrivals]
        if dropped:
            outcome, end = "fragment_" + min(dropped, key=arrivals.index).value, t
            self._drop_frame(cid, fid, outcome)
        else:
            end, completed = frame_outcome(arrivals)
            outcome = "completes" if completed else "reassembly_abandoned"
            # a whole frame arriving at the instant of an earlier packet is
            # seen with that packet; the tie-break keeps path order
            order = self.arrival_seq[id(path)] if end == before else seq
            st.awaiting[fid] = arrivals[0]
            heapq.heappush(self.heap, (end, order, "outcome", (seq, cid, fid, level_idx, completed)))
        if path.last_arrival != before:
            self.arrival_seq[id(path)] = seq
        if self.log_frames:
            logger.debug("t=%d client %d frame %d: %d fragments, %d dropped, %s at %d", t, cid, fid,
                         len(arrivals), sum(map(arrivals.count, Drop)), outcome, end)

    def _on_present_local(self, t: int, cid: int, fid: int, level_idx: int, started: int):
        st = self.clients[cid]
        state = _FrameState(started, 0)
        state.status = "delivered"
        self.frame_states[(cid, fid)] = state
        st.frames.sent += 1
        st.frames.delivered += 1
        st.window_delivered += 1
        st.last_presented = fid
        st.m2p.append(t - started)

    def _on_sync(self, t: int):
        for cid, path in self.down_frames.items():
            before = path.last_arrival
            path.submit((MsgType.STATE_SYNC, cid, t), t, self.sync_bytes)  # nothing reads its arrival
            if path.last_arrival != before:
                self._seq += 1
                self.arrival_seq[id(path)] = self._seq
        nxt = t + self.settings.sync_interval_us
        if nxt <= self.end:
            self.push(nxt, "sync")

    # -- arrivals ------------------------------------------------------------

    def _on_arrive(self, t: int, path: Path):
        for (msg_type, cid, stamp), at in path.advance_to(t):
            if msg_type is MsgType.INPUT:
                self.host_input_origin[cid] = stamp
            elif msg_type is MsgType.PING:  # the PONG echoes the PING's timestamp
                self._submit(self.down_probe[cid], (MsgType.PONG, cid, stamp), at, HEADER_LEN)
            elif msg_type is MsgType.PONG:
                st = self.clients[cid]
                sample = at - stamp
                st.estimator.update(sample)
                st.rtt.append(sample)

    def _on_outcome(self, t: int, _seq: int, cid: int, fid: int, level_idx: int, completed: bool):
        st = self.clients[cid]
        del st.awaiting[fid]
        if self.frame_states[(cid, fid)].status != "pending" or fid <= st.last_completed:
            return  # swept by a window, or older than a completed frame: never completes
        if completed:
            st.last_completed = fid
            decode_us = decode_time_us(self.ladder[level_idx], st.spec.decode_throughput)
            self.push(t + decode_us, "present", cid, fid)
        else:
            self._drop_frame(cid, fid, "reassembly_abandoned")

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
            for fid, first in st.awaiting.items():
                if t - first > REASSEMBLY_TIMEOUT_US and fid > st.last_completed:
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
        "ready": "_on_ready", "arrive": "_on_arrive", "outcome": "_on_outcome", "present": "_on_present",
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
        for r in self.paths:
            if r.kind == "frames":
                r.path.advance_to(self.end)  # count the deliveries no event polled
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
