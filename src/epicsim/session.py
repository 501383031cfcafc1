"""Deterministic multi-client streaming session simulation.

One logical event loop drives every emulated path from a single integer
microsecond clock.  Clients emit pose input upstream at the input tick rate
and probe RTT with PING/PONG pairs; the host renders each client's stream at
the current quality level's frame rate, encodes, fragments, and streams the
frames downstream, broadcasting a small state-sync message periodically.

No message is encoded.  A PING, PONG or state sync is a `(MsgType, client_id,
timestamp)` record submitted with its wire size, and each delivery is an
event.  A frame is carried as runs of its fragments' wire sizes, submitted to
its path as one burst, and resolved by one event: the frame's completion or
abandonment, computed from the fragments' arrival times.  No frame bytes are
generated.

Inputs are neither records nor events.  The host reads an input for one thing:
when a frame starts, the send time of the latest input it holds becomes the
frame's motion-to-photon origin.  A client's inputs are sent at
`start + k * tick` on its own `up_data` path, which carries nothing else, so
the session submits them as one netem series (`Path.submit_series`) at the
start of the run, and again after each bandwidth step that reaches that path,
up to the next such step or the end of the run.  The input at `start` is sent
before a step at `start`; an input at any later time T after a step at T.
Each frame event reads the arrivals with a cursor.

The tie rule makes that read equal to an event loop in which each input is an
event that pushes its own arrive event, and the arrive event sets the host's
latest input.  A frame event at `t` sees every input arriving before `t`.
The inputs arriving at `t` are seen if the arrive event of the first of them
was pushed before this frame event.  That input was sent at `s`, and this
frame event was pushed by the client's previous one, at `prev`: the inputs
are seen when `s < prev`, or when `s == prev` and the input event at `prev`
ran before the frame event at `prev`.  That order is one bool per client.  It
is true at `start`, where the run pushes the input first.  At a later frame
event at T, the input event at T was pushed at `T - tick` and the frame event
at `prev`: the bool is true if `T - tick < prev`, false if `T - tick > prev`,
and keeps its value at `prev` if they are equal.

Two topologies are supported.  In edge_hosted mode the render host is an
edge node and every client gets an independent emulated path.  In
client_hosted mode (the classic master-server baseline) the first user's
device renders the shared scene and every receiver's downstream frames
serialize on the one master uplink path, which is exactly the mechanism that
starves receivers when the uplink is thin.  The master never adapts and shows
each frame it renders one render time after the frame starts, so its frames
are counted in closed form, outside the event loop.

Probe traffic (PING/PONG) runs on its own path instances built from the same
profile as the data paths, modeling a measurement slice with guaranteed
bandwidth: RTT probes observe propagation and their own serialization, not
head-of-line blocking behind frame bursts.

Frame accounting is done by the harness, which sees both ends.  Each client
keeps one map of the frames it was sent that are neither delivered nor
dropped; only `_drop_frame` and `_on_present` remove one.  A frame is dropped
the moment any of its fragments is lost or cut from a queue, when it arrives
complete but stale (an out-of-order completion under latest-wins
presentation), or when reassembly abandons it; otherwise it is delivered at
presentation time.  Frames left in the map at the end count as in-flight.

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
    MIN_INTERVAL_US,
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
    fragment_runs,
    frame_outcome,
)
from .transport import decode_message, encode_fragment  # noqa: F401  read by perfbench/tracer.py::_pristine

logger = logging.getLogger("epicsim.session")

EDGE_HOSTED = "edge_hosted"
CLIENT_HOSTED = "client_hosted"

DEVICE_NODE = NodeSpec(node_id=-1, pixel_throughput=200_000_000,
                       encode_throughput=250_000_000, max_sessions=16)
DECODE_THROUGHPUT = 7_000_000_000  # a client's decode rate in pixels/second, unless set

_F32 = struct.Struct(">f")
_INPUT_BYTES = HEADER_LEN + INPUT_PAYLOAD_LEN  # wire size of an INPUT message


@dataclass(frozen=True, slots=True)
class ClientSpec:
    client_id: int
    profile: NetworkProfile
    decode_throughput: int = DECODE_THROUGHPUT

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
            if len(ids) == 1:
                raise ValidationError("client_hosted topology requires a receiver besides the master")
            if self.master_uplink is None:
                raise ValidationError("client_hosted topology requires a master uplink profile")


@dataclass(frozen=True, slots=True)
class BandwidthStep:
    """Change the link rate of every non-probe path mid-run, or with client_ids
    set, of only those clients' own non-probe paths (never a shared one)."""

    time_us: int
    bandwidth: int
    client_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.time_us < 0:
            raise ValidationError("time must be non-negative")
        if self.bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")


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
        for name in ("tick_us", "ping_interval_us", "sync_interval_us"):
            value = getattr(self, name)
            if value <= 0:
                raise ValidationError(f"{name} must be positive, not {value}")
            if value < MIN_INTERVAL_US:
                raise ValidationError(f"{name} must be at least {MIN_INTERVAL_US} us, not {value}")
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


class _ClientState:
    __slots__ = (
        "spec", "estimator", "controller",
        "last_completed", "pending", "last_presented", "next_frame_id",
        "frames", "window_delivered", "window_dropped", "window_bits",
        "m2p", "rtt",
        "inputs", "input_bounds", "input_cursor", "input_origin", "input_first", "last_frame", "decode_us",
    )

    def __init__(self, spec: ClientSpec, ladder, start_level: int, start: int):
        self.spec = spec
        self.decode_us = [decode_time_us(level, spec.decode_throughput) for level in ladder]
        self.estimator = RttEstimator()
        self.controller = ControllerState(level=start_level)
        self.last_completed = -1
        # each frame sent and not yet delivered or dropped:
        # fid -> (first fragment arrival, level index, motion-to-photon origin)
        self.pending: dict[int, tuple[int, int, int | None]] = {}
        self.last_presented = -1
        self.next_frame_id = 0
        self.frames = FrameCounts()
        self.window_delivered = 0
        self.window_dropped = 0
        self.window_bits = 0
        self.m2p: list[int] = []
        self.rtt: list[int] = []
        # the input stream (module docstring): the arrival or drop of each
        # admitted input, indexed by k for the input sent at start + k * tick
        self.inputs: list[int | Drop] = []
        self.input_bounds: list[int] = []     # admission boundaries, the next one last
        self.input_cursor = 0                 # first input the host has not yet seen
        self.input_origin: int | None = None  # send time of the latest input seen
        self.input_first = True               # the input event at last_frame ran first
        self.last_frame = start               # time of the latest frame event


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

        self.heap: list[tuple[int, int, str, tuple]] = []
        self._seq = 0
        self.log_frames = logger.isEnabledFor(logging.DEBUG)

        self.master_id = topology.master_id if topology.mode == CLIENT_HOSTED else None
        # the master renders for itself outside the event loop (_build_trace)
        self.clients = {spec.client_id: _ClientState(spec, ladder, settings.start_level, start_time)
                        for spec in topology.clients if spec.client_id != self.master_id}

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
             encode_time_us(level, node.encode_throughput), level.frame_interval)
            for level in ladder]
        # fragment size runs by (frame bytes, mtu), filled as frames are first streamed
        self.fragments: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

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

        for cid in self.up_data:
            bounds = []
            for step in settings.bandwidth_steps:
                at = self.start + step.time_us
                if at <= self.end and (step.client_ids is None or cid in step.client_ids):
                    bounds.append(at + 1 if at == self.start else at)  # the input at start goes first
            self.clients[cid].input_bounds = [self.end + 1, *sorted(bounds, reverse=True)]
        nsec = -(-duration_us // 1_000_000)
        self.trace = RunTrace(duration_us=duration_us, session_start=start_time,
                              per_second_bits={spec.client_id: [0] * nsec for spec in topology.clients})

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

    # -- client-side streams ----------------------------------------------

    def _admit_inputs(self, cid: int):
        """Submit the client's inputs sent before its next admission boundary."""
        st, tick = self.clients[cid], self.settings.tick_us
        k = len(st.inputs)
        count = (st.input_bounds.pop() - 1 - self.start) // tick + 1 - k
        st.inputs += self.up_data[cid].submit_series(_INPUT_BYTES, self.start + k * tick, tick, count)

    def _read_inputs(self, st: _ClientState, t: int) -> int | None:
        """Send time of the latest input the host holds when the frame at `t` starts.

        Reads the admitted arrivals from the cursor under the tie rule of the
        module docstring, then records this frame event's place in push order.
        """
        inputs, k, n = st.inputs, st.input_cursor, len(st.inputs)
        start, tick, prev = self.start, self.settings.tick_us, st.last_frame
        seen = t - 1  # the latest arrival seen
        while k < n:
            at = inputs[k]
            if at.__class__ is int:
                sent = start + k * tick
                if at > seen:  # the first input arriving at t decides for all of them
                    if at != t or not (sent < prev or sent == prev and st.input_first):
                        break
                    seen = t
                st.input_origin = sent
            k += 1
        st.input_cursor = k
        pushed = t - tick  # the input event at t was pushed then, this frame event at prev
        if pushed != prev:
            st.input_first = pushed < prev
        st.last_frame = t
        return st.input_origin

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
        ready = t + (0 if self.settings.prerender else rt) + et
        self.push(ready, "ready", cid, fid, level_idx, self._read_inputs(st, t))
        nxt = t + interval
        if nxt <= self.end:
            self.push(nxt, "frame", cid)

    def _on_ready(self, t: int, cid: int, fid: int, level_idx: int, input_origin: int | None):
        st = self.clients[cid]
        size = self.level_costs[level_idx][0]
        path = self.down_frames[cid]
        key = (size, path.profile.mtu)
        runs = self.fragments.get(key)
        if runs is None:
            runs = self.fragments[key] = fragment_runs(*key)
        path.forget_to(t)  # packets that have arrived; nothing reads them
        before, lost, cut = path.last_arrival, path.dropped_loss, path.dropped_queue
        arrivals = path.submit_burst(runs, t)
        lost, cut = path.dropped_loss - lost, path.dropped_queue - cut
        self._seq += 1
        seq = self._seq
        st.pending[fid] = (arrivals[0], level_idx, input_origin)
        st.frames.sent += 1
        if lost or cut:  # the first dropped fragment names the reason
            drop = min(Drop, key=arrivals.index) if lost and cut else Drop.LOSS if lost else Drop.QUEUE
            outcome, end = "fragment_" + drop.value, t
            self._drop_frame(cid, fid, outcome)
        else:
            end, completed = frame_outcome(arrivals)
            outcome = "completes" if completed else "reassembly_abandoned"
            # a whole frame arriving at the instant of an earlier packet is
            # seen with that packet; the tie-break keeps path order
            order = self.arrival_seq[id(path)] if end == before else seq
            heapq.heappush(self.heap, (end, order, "outcome", (seq, cid, fid, level_idx, completed)))
        if path.last_arrival != before:
            self.arrival_seq[id(path)] = seq
        if self.log_frames:
            logger.debug("t=%d client %d frame %d: %d fragments, %d dropped, %s at %d", t, cid, fid,
                         len(arrivals), lost + cut, outcome, end)

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
            if msg_type is MsgType.PING:  # the PONG echoes the PING's timestamp
                self._submit(self.down_probe[cid], (MsgType.PONG, cid, stamp), at, HEADER_LEN)
            elif msg_type is MsgType.PONG:
                st = self.clients[cid]
                sample = at - stamp
                st.estimator.update(sample)
                st.rtt.append(sample)

    def _on_outcome(self, t: int, _seq: int, cid: int, fid: int, level_idx: int, completed: bool):
        st = self.clients[cid]
        if fid not in st.pending or fid <= st.last_completed:
            return  # swept by a window, or older than a completed frame: never completes
        if completed:
            st.last_completed = fid
            self.push(t + st.decode_us[level_idx], "present", cid, fid)
        else:
            self._drop_frame(cid, fid, "reassembly_abandoned")

    def _on_present(self, t: int, cid: int, fid: int):
        st = self.clients[cid]
        if fid <= st.last_presented:
            self._drop_frame(cid, fid, "stale")
            return
        _, level_idx, input_origin = st.pending.pop(fid)
        bits = self.level_costs[level_idx][0] * 8
        st.last_presented = fid
        st.frames.delivered += 1
        st.window_delivered += 1
        st.window_bits += bits
        buckets = self.trace.per_second_bits[cid]
        buckets[min((t - self.start) // 1_000_000, len(buckets) - 1)] += bits
        if input_origin is not None:
            st.m2p.append(t - input_origin)

    def _drop_frame(self, cid: int, fid: int, reason: str):
        st = self.clients[cid]
        if st.pending.pop(fid, None) is None:
            return  # resolved already: a receiver may report a frame once per lost fragment
        st.frames.dropped += 1
        st.window_dropped += 1
        reasons = self.trace.drop_reasons
        reasons[reason] = reasons.get(reason, 0) + 1

    # -- adaptation window ------------------------------------------------

    def _on_window(self, t: int):
        cfg, trace = self.settings.controller, self.trace
        window_index = len(trace.queue_drop_timeline)
        for cid, st in self.clients.items():
            resolved = st.window_delivered + st.window_dropped
            stats = WindowStats(
                window_index=window_index,
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
                    trace.level_changes.append(LevelChange(cid, window_index, t, old, new, causes))
                    logger.info("t=%d client %d level %d -> %d (%s)", t, cid, old, new, ",".join(causes))
            st.window_delivered = 0
            st.window_dropped = 0
            st.window_bits = 0
            # a frame at or below last_completed awaits its present event or never resolves
            swept = [fid for fid, (first, _, _) in st.pending.items()
                     if fid > st.last_completed and t - first > REASSEMBLY_TIMEOUT_US]
            for fid in swept:
                self._drop_frame(cid, fid, "reassembly_abandoned")
        trace.queue_drop_timeline.append(sum(r.path.dropped_queue for r in self.paths if r.kind == "frames"))
        nxt = t + cfg.window_us
        if nxt <= self.end:
            self.push(nxt, "window", )

    def _on_bwstep(self, t: int, step: BandwidthStep):
        targets = step.client_ids
        for r in self.paths:
            if r.kind != "probe" and (targets is None or r.owner in targets):
                r.path.set_bandwidth(step.bandwidth)
                if r.kind == "input":
                    self._admit_inputs(r.owner)
        logger.info("t=%d bandwidth step to %d b/s", t, step.bandwidth)

    # -- main loop ----------------------------------------------------------

    _HANDLERS = {
        "ping": "_on_ping", "frame": "_on_frame",
        "ready": "_on_ready", "arrive": "_on_arrive", "outcome": "_on_outcome", "present": "_on_present",
        "sync": "_on_sync", "window": "_on_window", "bwstep": "_on_bwstep",
    }

    def run(self) -> RunTrace:
        for cid in self.clients:
            self._admit_inputs(cid)
            self.push(self.start, "ping", cid)
            self.push(self.start, "frame", cid)
        self.push(self.start, "sync")
        self.push(self.start + self.settings.controller.window_us, "window")
        for step in self.settings.bandwidth_steps:
            self.push(self.start + step.time_us, "bwstep", step)

        heap, end = self.heap, self.end
        handlers = {kind: getattr(self, name) for kind, name in self._HANDLERS.items()}
        while heap and heap[0][0] <= end:
            t, _, kind, args = heapq.heappop(heap)
            handlers[kind](t, *args)
        for r in self.paths:
            if r.kind != "probe":
                r.path.forget_to(self.end)  # count the deliveries no event polled
        return self._build_trace()

    def _build_trace(self) -> RunTrace:
        """The run's trace, completed with what is known only at the end."""
        trace, totals = self.trace, FrameCounts()
        path_ids = {id(r.path): i for i, r in enumerate(self.paths)}
        for spec in self.topology.clients:
            cid = spec.client_id
            if cid == self.master_id:
                # never adapts, and presents each frame one render time after it starts
                level = self.settings.start_level
                _, rt, _, interval = self.level_costs[level]
                n = max(0, (self.end - rt - self.start) // interval + 1)
                rtt, m2p, frames = [], [rt] * n, FrameCounts(n, n)
            else:
                st = self.clients[cid]
                rtt, m2p, frames, level = st.rtt, st.m2p, st.frames, st.controller.level
                trace.frame_path_ids[cid] = path_ids[id(self.down_frames[cid])]
            trace.rtt_samples[cid] = rtt
            trace.motion_to_photon[cid] = m2p
            trace.per_client_frames[cid] = frames
            trace.final_levels[cid] = level
            totals.sent += frames.sent
            totals.delivered += frames.delivered
            totals.dropped += frames.dropped
        trace.frames = totals
        for r in self.paths:
            p = r.path
            trace.path_counters[r.name] = (p.submitted, p.delivered, p.dropped_loss, p.dropped_queue)
        pending = sum(len(st.pending) for st in self.clients.values())
        assert totals.in_flight == pending, "frame conservation violated"
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
