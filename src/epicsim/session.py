"""Deterministic multi-client streaming session simulation.

One logical event loop drives every emulated path from a single integer
microsecond clock.  Clients emit pose input upstream at the input tick rate
and probe RTT with PING/PONG pairs; the host renders each client's stream at
the current quality level's frame rate, encodes, fragments, and streams the
frames downstream, broadcasting a small state-sync message periodically.

No message is encoded, and none is an event.  A state sync is a datagram of
its wire size, sent to each frame path as one burst with one datagram per
client on it; nothing reads its arrival.  A frame is carried as runs of its
fragments' wire sizes, submitted to its path as one burst, and resolved by
one event: the frame's completion or abandonment, computed from the
fragments' arrival times.  No frame bytes are generated.

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

Probes are not events either.  A client sends its PINGs at `start + k *
ping_interval` on its `up_probe` path, and each is echoed at its arrival as
a PONG on its `down_probe` path.  These paths, built from the client's
profile, carry nothing else and never take a bandwidth step: a measurement
slice on which probes meet propagation and their own serialization, not the
frame bursts.  So each controller window at W, one every w us, submits the
PINGs sent by W as a series (the end of the run, those sent by the end);
their PONGs follow as a series when the arrivals step by the interval, one
by one otherwise.  The window applies the samples of the PONGs arriving
before W and keeps the rest.  The PONGs arriving at W are applied as in an
event loop in which each PING and each delivery is an event: if the first
one's arrive event, pushed by its PING's arrive event at P, was pushed
before this window, pushed by the one at `W - w`.  With S the send time of
the first PING arriving at P, that is when `P < W - w`, or
`P == W - w != start + w` and (`S < P - w`, or `S == P - w` and
`ping_interval > w`): the run pushes the window at `start + w` first, a
PING arrives after `start`, the arrive event at P is pushed at S, the PING
event at S at `S - ping_interval` and the window at S at `S - w`, and at
equal intervals the window leads from `start + w` on.

Two topologies are supported.  In edge_hosted mode the render host is an
edge node and every client gets an independent emulated path.  In
client_hosted mode (the classic master-server baseline) the first user's
device renders the shared scene and every receiver's downstream frames
serialize on the one master uplink path, which is exactly the mechanism that
starves receivers when the uplink is thin.  The master never adapts and shows
each frame it renders one render time after the frame starts, so its frames
are counted in closed form, outside the event loop.

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

_INPUT_BYTES = HEADER_LEN + INPUT_PAYLOAD_LEN  # wire size of an INPUT message


@dataclass(frozen=True, slots=True)
class ClientSpec:
    client_id: int
    profile: NetworkProfile
    decode_throughput: int = DECODE_THROUGHPUT

    def __post_init__(self):
        if not 0 <= self.client_id < 2**32:
            raise ValidationError(f"client_id must fit in 32 bits, not {self.client_id}")
        if self.decode_throughput <= 0:
            raise ValidationError(f"decode_throughput must be positive, not {self.decode_throughput}")


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
            raise ValidationError(f"mode must be {EDGE_HOSTED} or {CLIENT_HOSTED}, not {self.mode!r:.40}")
        if not self.clients:
            raise ValidationError("clients must hold at least one client")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValidationError("clients must have unique ids")
        if self.mode == EDGE_HOSTED and self.host_node is None:
            raise ValidationError(f"host_node must be set: an {EDGE_HOSTED} topology renders on a node")
        if self.mode == CLIENT_HOSTED:
            if self.master_id not in ids:
                raise ValidationError(f"topology master {self.master_id} is not a client id")
            if len(ids) == 1:
                raise ValidationError(f"clients: a {CLIENT_HOSTED} scenario needs a receiver besides the master")
            if self.master_uplink is None:
                raise ValidationError(f"master_uplink must be set: the {CLIENT_HOSTED} master streams on it")


@dataclass(frozen=True, slots=True)
class BandwidthStep:
    """Change the link rate of every non-probe path mid-run, or with client_ids
    set, of only those clients' own non-probe paths (never a shared one)."""

    time_us: int
    bandwidth: int
    client_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.time_us < 0:
            raise ValidationError(f"time_us must be non-negative, not {self.time_us}")
        if self.bandwidth <= 0:
            raise ValidationError(f"bandwidth must be positive, not {self.bandwidth}")


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
            raise ValidationError(f"sync_payload_bytes must be non-negative, not {self.sync_payload_bytes}")
        if not 0.1 <= self.scene_complexity < math.inf:
            raise ValidationError(f"scene_complexity must be finite and at least 0.1, not {self.scene_complexity}")


def check_run(ladder: tuple[QualityLevel, ...], duration_us: int, settings: SessionSettings) -> None:
    """Raise ValidationError unless a run of `duration_us` on the valid `ladder`
    can start: at least 1 s of simulated time and `settings.start_level` on it.
    A message starts with the name it is about, so a caller can add its key."""
    if duration_us < 1_000_000:
        raise ValidationError(f"duration_us must be at least 1000000 (1 s of simulated time), not {duration_us}")
    if not 0 <= settings.start_level < len(ladder):
        raise ValidationError(f"start_level {settings.start_level} is outside the {len(ladder)}-rung ladder")


class _ClientState:
    __slots__ = (
        "spec", "estimator", "controller",
        "last_completed", "pending", "last_presented", "next_frame_id",
        "frames", "window_delivered", "window_dropped", "window_bits",
        "m2p", "rtt",
        "inputs", "input_bounds", "input_cursor", "input_origin", "input_first", "last_frame", "decode_us",
        "pings", "pongs", "ping_group",
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
        # the probe stream (module docstring), with S and P as the tie rule names them
        self.pings = 0                        # PINGs submitted
        self.pongs: list[tuple[int, int, int, int]] = []  # each PONG not yet read: arrival, sent, P, S
        self.ping_group = (-1, -1)            # the latest P, and its S


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
        validate_ladder(ladder)
        check_run(ladder, duration_us, settings)
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
        sync_bytes = HEADER_LEN + settings.sync_payload_bytes
        self.syncs = [(r.path, ((sync_bytes, len(self.clients) if r.owner is None else 1),))
                      for r in self.paths if r.kind == "frames"]  # one datagram per client on the path

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

    def _admit_probes(self, cid: int, t: int):
        """Submit the client's PINGs sent by `t`, and the PONG of each that arrives by the end."""
        st, interval, end = self.clients[cid], self.settings.ping_interval_us, self.end
        up, down = self.up_probe[cid], self.down_probe[cid]
        k, st.pings = st.pings, (t - self.start) // interval + 1
        first = self.start + k * interval
        pinged, (group_at, group_sent) = [], st.ping_group
        for i, at in enumerate(up.submit_series(HEADER_LEN, first, interval, st.pings - k)):
            if at.__class__ is int and at <= end:
                if at != group_at:
                    group_at, group_sent = at, first + i * interval
                pinged.append((first + i * interval, at, group_sent))
        st.ping_group = (group_at, group_sent)
        n, arrival = len(pinged), pinged[0][1] if pinged else 0
        if n and [at for _, at, _ in pinged] == list(range(arrival, arrival + n * interval, interval)):
            pongs = down.submit_series(HEADER_LEN, arrival, interval, n)
        else:
            pongs = [down.submit((MsgType.PONG, cid, sent), at, HEADER_LEN) for sent, at, _ in pinged]
        st.pongs += [(pong, *ping) for pong, ping in zip(pongs, pinged) if pong.__class__ is int and pong <= end]
        up.forget_to(t)  # nothing reads a delivery
        down.forget_to(t)

    def _read_pongs(self, st: _ClientState, t: int):
        """Apply the RTT samples of the PONGs that the window at `t` sees, by the module docstring's tie rule."""
        pongs, k, n, seen = st.pongs, 0, len(st.pongs), t - 1  # the latest arrival seen
        w, interval = self.settings.controller.window_us, self.settings.ping_interval_us
        while k < n:
            at, sent, pinged, group_sent = pongs[k]
            if at > seen:  # the first PONG arriving at t decides for all of them
                if at != t or not (pinged < t - w or pinged == t - w != self.start + w and (
                        group_sent < pinged - w or group_sent == pinged - w and interval > w)):
                    break
                seen = t
            st.estimator.update(at - sent)
            st.rtt.append(at - sent)
            k += 1
        del pongs[:k]

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
        st.pending[fid] = (arrivals[0][0], level_idx, input_origin)
        st.frames.sent += 1
        if lost or cut:  # the first dropped fragment names the reason
            outcome, end = "fragment_" + next(at.value for at, _, _ in arrivals if isinstance(at, Drop)), t
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
                         sum(run[2] for run in arrivals), lost + cut, outcome, end)

    def _on_sync(self, t: int):
        for path, runs in self.syncs:
            before = path.last_arrival
            path.submit_burst(runs, t)  # nothing reads its arrival
            if path.last_arrival != before:
                self._seq += 1
                self.arrival_seq[id(path)] = self._seq
        nxt = t + self.settings.sync_interval_us
        if nxt <= self.end:
            self.push(nxt, "sync")

    # -- arrivals ------------------------------------------------------------

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
            self._admit_probes(cid, t)
            self._read_pongs(st, t)
            resolved = st.window_delivered + st.window_dropped
            stats = WindowStats(
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
        "frame": "_on_frame", "ready": "_on_ready", "outcome": "_on_outcome", "present": "_on_present",
        "sync": "_on_sync", "window": "_on_window", "bwstep": "_on_bwstep",
    }

    def run(self) -> RunTrace:
        for cid in self.clients:
            self._admit_inputs(cid)
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
        for cid, st in self.clients.items():
            self._admit_probes(cid, end)
            self._read_pongs(st, end + 1)  # every PONG kept arrives by the end
        for r in self.paths:
            r.path.forget_to(end)  # count the deliveries no event polled
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
