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
one outcome event: the frame's completion or abandonment, computed from the
fragments' arrival times.  A completed frame's outcome pushes its present
event, one decode time later.  No frame bytes are generated.

Only trains resolve frames ahead of their events.  At the frame event at T
of the first client on a path without loss or jitter, when each client on
it starts a frame at T, at one level, with every frame it started ready,
`_train` settles the path's instants T, T + I, ... in one pass: it sends
each client's frames and the syncs between them, and settles the frames
(below), taking over the frames the clients have pending.  A frame may be
presented after its client's next frame starts: on a shared path the last
burst of an instant can arrive after the next instant begins.

Each instant's ready is before the next step and at no sync, and the next
instant is not a sync time.  The syncs due before the ready are stepped in
closed form, the queue bounded by every byte admitted since the path was
last idle.  An instant is counted by arithmetic when each fits the queue and
they leave the path idle by the ready, and its frames complete, presented before
the next window not yet handled and by the end: one instant's bursts are
admitted once on a fresh idle `Path` and cached (`_instant`).  Otherwise it
is admitted for real, by its events' calls in their order (each sync's
`submit_burst` at its time, and at the ready a `forget_to` and the group's
`submit_burst`s), and each frame's fate is read off its arrivals: a cut
burst drops its frame at its ready (`fragment_queue_full`), an abandoned one
at its late fragment (`reassembly_abandoned`), and a completed one is
presented one decode time after its last arrival.  No admission is undone,
so an instant is admitted only while this bound, never below the counted
presents, puts its frames before the next window and by the end: its bursts
start serializing by the later of its ready and the busy time its syncs
leave, end within n bursts' serialization time, or a full queue's of their
fragments, which caps a cut one, arrive a latency later, and take the
largest decode time.  Before it, and at the end, the train flushes the run
of counted instants: netem counts them and their syncs as delivered at once
(`Path.skip_delivered`) up to the last one that the last sync skipped has
reached by its ready, which is admitted, as are the run's later instants.  A
skipped burst may arrive after that ready, but at least one interval before
the next window, so in the events a ready of the path forgets it before
then.  No other event touches the path between the train's first ready and
its last, since bandwidth steps come after them, so its state at each window
is the events'.  The train ends at a ready, so each sync it sent or skipped
is earlier than `Path.last_submit`, and `_on_sync` skips it.

The frames a client has pending at T are taken over when, taken in the order
they were submitted, each is newer than the last presented frame and older
than the next one (its outcome finds no newer frame completed), and is
presented, at the time `_on_ready` kept for it, before the next one and
before the larger of two bounds below the client's first present here (it is
not stale): its counted present where `_instant` gives one, and the later of
its ready and the path's busy time, its burst's serialization time (a full
queue's if less: a burst that completes fits the queue), a latency and its
decode time, so that it is before the next window too.  A pending frame
whose outcome has not run never completes if a newer one has; that one was
submitted before it, so it is pending ahead of it out of frame order, or
presented, and the rule refuses both.  The train presents the frames it
takes over by `_on_present`, and their outcome events, or the present events
of those whose outcomes have run, find them gone from `pending` and return.
Otherwise no train runs.  A train takes the clients in the push order of
their frame events at T (`frame_seq`), which need not be client order once
they have run at different frame rates: each instant's bursts and their next
frame events go in the order those events would run.  Each client's frame
event for the first instant not settled, pushed at T, keeps its place there:
a window or step there was pushed by T, the path's clients have no other
event but outcomes and presents that return at once, other clients' events
touch none of their state, and the sync-time rule keeps out a sync pushed
after T.  That order is read: with syncs sparser than frames the sync runs
first, and if a window set a level whose ready time is the sync interval,
the next sync meets the frame's ready and runs first too.  The group's frame
events at T return at once; a train that settles nothing waits for the next
window.  Only the first client's frame events try a train (`train_from`).

Presenting a frame after its client's next frame starts is exact because
only three things read `pending`, `last_completed` and `last_presented`
between a frame's start and its present, and each gives the train's answer:

- `_on_outcome`'s older-frame rule: a draw-free path delivers in submission
  order, and the train's frames, like the pending ones it takes over, were
  submitted in frame order, so none finds a newer frame completed.
- `_on_present`'s stale check: a train's frames of one client share a level,
  so a decode time, and each arrives after the one before it, so their
  presents rise with their ids, and the pending frames taken over are
  presented before them, in frame order.
- The window sweep: every frame resolves before the next window.

A train settles each client's frames in closed form (`_settle`), once per
run of instants of one form, as their frame, ready, outcome and present
events would with nothing pending: no frame enters `pending`.  The frame ids
and the sent count move by the run's k.  Of a counted run every frame is
presented: `last_completed`, `last_presented` and the delivered count move
by k, the delivered bits by k frames' bits, and the presents fall at
`T + P + j * I`, so one division per second boundary splits their bits among
the per-second counts, the last one taking the rest.  Of an admitted run each
frame is presented or dropped at its own time, and the counts move frame by
frame.  `_read_inputs_along` reads their inputs in one pass, below.

Inputs are neither records nor events.  The host reads an input for one thing:
when a frame starts, the send time of the latest input it holds becomes the
frame's motion-to-photon origin.  A client's inputs are sent at
`start + k * tick` on its own `up_data` path, which carries nothing else, so
the next k is the path's `submitted`.  Like PINGs, they go a block at a
time: at the start of the run, at each controller window and at each
bandwidth step, unless a client's inputs sent by the next window are
submitted, one netem series submits those sent by the later of the next
window and `_BLOCK` inputs on, and before the run's next step.  However the
series are cut, the path takes its draws in submission order, and no series
crosses a step: the input at `start` is sent before a step at `start`; an
input at any later time T after a step at T.  Each frame reads only the
inputs arrived by its time, so how far ahead they are admitted changes
nothing it reads.  The client keeps the arrival runs, each with its trip
time, arrival minus send: a run's arrivals step by `tick` as its sends do.
Each frame event reads them in order, a run with one division, and drops
what it has read.  A train reads its frames' inputs at x = T, T + I, ...
without trimming a run per frame: with `seen` the latest arrival the frame
at x sees, x or x - 1 by the tie rule below, a run `(a, trip, count)` read
in part gives the origin `seen - trip - (seen - a) % tick`, one modulo per
frame, and only the run still read in part after the last frame is trimmed.

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
and keeps its value at `prev` if they are equal.  Within a train `prev` is
`x - I`, so the inputs of a run arriving at x are seen when its trip is above
I, or equal to I with the bool true, and the bool stays fixed from the third
frame on.  On a jittery input path several runs of one can arrive at one
microsecond; the first of them decides for all, so the train carries a seen
arrival at x on to the runs after it.

Probes are not events either.  A client sends its PINGs at `start + k *
ping_interval` on its `up_probe` path, and each is echoed at its arrival as
a PONG on its `down_probe` path.  These paths, built from the client's
profile, carry nothing else and never take a bandwidth step: a measurement
slice on which probes meet propagation and their own serialization, not the
frame bursts.  So each controller window at W, one every w us, unless the
PINGs sent by W are submitted, submits as a series those sent by the later
of W and `_BLOCK` PINGs on, and by the end (the end of the run, those sent
by the end); each PING arrival run is echoed as one PONG series.  A client
so holds the PONGs and inputs in flight or due by the next window, and at
most a block more.  The window applies the samples of the PONGs arriving
before W and keeps the rest, whatever was admitted after them.  The PONGs
arriving at W are applied as in an event loop in which each PING and each
delivery is an event: if the first one's arrive event, pushed by its PING's
arrive event at P, was pushed before this window, pushed by the one at
`W - w`.  With S the send time of the first PING arriving at P, that is
when `P < W - w`, or `P == W - w != start + w` and (`S < P - w`, or
`S == P - w` and `ping_interval > w`): the run pushes the window at
`start + w` first, a PING arrives after `start`, the arrive event at P is
pushed at S, the PING event at S at `S - ping_interval` and the window at S
at `S - w`, and at equal intervals the window leads from `start + w` on.

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
dropped; only `_drop_frame`, `_on_present` and `_on_outcome` remove one.  A
frame is dropped the moment any of its fragments is lost or cut from a
queue, when its present comes after a newer frame's (stale under
latest-wins presentation), or when reassembly abandons it; otherwise it is
delivered at presentation time.  A frame whose outcome comes after a newer
frame has completed never completes: its outcome moves it to the client's
count of frames that never resolve.  That count and the frames left in the
map at the end are in flight.  A window reads these counts since the last
one against the marks it set there.

The receiver keeps the rules of `transport.Reassembler`: a frame pending more
than the reassembly timeout after its first fragment is abandoned by its own
late fragment (`frame_outcome`) or by the next controller window's sweep,
whichever comes first, and a frame older than the last completed one never
completes.  Events at one microsecond run in push order.  A frame's outcome
event takes the place in that order of the submission that first reached
the path's arrival at that microsecond, the packet with which a receiver
polling the path would have seen it.  Outcomes that take the same place run
in their own push order.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter

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
    ceil_div,
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
    RttEstimator,
    fragment_runs,
    frame_outcome,
)
from .transport import decode_message, encode_fragment  # noqa: F401  read by perfbench/tracer.py::_pristine

logger = logging.getLogger("epicsim.session")
FRAME_LINE = "t=%d client %d frame %d: %d fragments, %d dropped, %s at %d"  # a frame's EPICSIM_LOG=packets line

EDGE_HOSTED = "edge_hosted"
CLIENT_HOSTED = "client_hosted"

DEVICE_NODE = NodeSpec(node_id=-1, pixel_throughput=200_000_000,
                       encode_throughput=250_000_000, max_sessions=16)
DECODE_THROUGHPUT = 7_000_000_000  # a client's decode rate in pixels/second, unless set

_INPUT_BYTES = HEADER_LEN + INPUT_PAYLOAD_LEN  # wire size of an INPUT message
_BLOCK = 1024  # each admission of a client's inputs or PINGs reaches at least this many datagrams ahead
_FRAGMENT_DROPS = {Drop.LOSS: "fragment_loss", Drop.QUEUE: "fragment_queue_full"}  # by a frame's first dropped fragment


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

    @property
    def sync_bytes(self) -> int:
        """The wire size of a state-sync message."""
        return HEADER_LEN + self.sync_payload_bytes

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
    can start: from 1 s to one day of simulated time, and `settings.start_level` on it.
    A message starts with the name it is about, so a caller can add its key."""
    if duration_us < 1_000_000:
        raise ValidationError(f"duration_us must be at least 1000000 (1 s of simulated time), not {duration_us}")
    if duration_us > 86_400_000_000:
        raise ValidationError(f"duration_us must be at most 86400000000 (one day of simulated time), not {duration_us}")
    if not 0 <= settings.start_level < len(ladder):
        raise ValidationError(f"start_level {settings.start_level} is outside the {len(ladder)}-rung ladder")


@functools.lru_cache(maxsize=64)
def _instant(profile: NetworkProfile, runs: tuple[tuple[int, int], ...], n: int, sync_bytes: int):
    """On the path idle at 0: when each of `n` clients' bursts of `runs` completes its frame (None if one is cut
    or abandoned), the bytes they take, how long they and a sync of n datagrams take to serialize, and by when
    after they can start the first burst, and all n, have arrived or been cut (within a full queue's drain)."""
    idle = Path(profile, 0)
    arrivals = [idle.submit_burst(runs, 0) for _ in range(n)]
    outcomes = () if idle.dropped_queue else map(frame_outcome, arrivals)
    ends = tuple(end for end, completed in outcomes if completed)
    txs = [(size, count, ceil_div(size * 8_000_000, profile.bandwidth)) for size, count in runs]
    burst_tx = sum(count * tx for _, count, tx in txs)
    drain = max(ceil_div(profile.queue_capacity * tx, size) for size, _, tx in txs)
    reach = tuple(min(burst_tx * k, drain) + profile.one_way_latency for k in (1, n))
    sync_tx = n * ceil_div(sync_bytes * 8_000_000, profile.bandwidth)
    return ends if len(ends) == n else None, n * sum(size * count for size, count in runs), n * burst_tx, sync_tx, reach


class _ClientState:
    __slots__ = (
        "spec", "estimator", "controller",
        "last_completed", "pending", "last_presented", "next_frame_id",
        "frames", "delivered_bits", "window_mark",
        "m2p", "rtt",
        "inputs", "input_origin", "input_first", "last_frame", "next_frame",
        "decode_us", "pongs", "ping_group", "never_resolved",
        "up_data", "down_frames", "up_probe", "down_probe", "per_second_bits", "train_from", "frame_seq",
    )

    def __init__(self, spec: ClientSpec, ladder, start_level: int, start: int, per_second_bits: list[int]):
        self.spec = spec
        self.per_second_bits = per_second_bits  # the trace's own list for this client
        self.decode_us = [decode_time_us(level, spec.decode_throughput) for level in ladder]
        self.estimator = RttEstimator()
        self.controller = ControllerState(level=start_level)
        self.last_completed = -1
        # each frame sent and not yet delivered or dropped: fid -> (first fragment arrival,
        # level index, motion-to-photon origin, present time, or math.inf if it never completes)
        self.pending: dict[int, tuple[int, int, int | None, float]] = {}
        self.never_resolved = 0  # frames out of pending that never resolve: in flight
        self.last_presented = -1
        self.next_frame_id = 0
        self.frames = FrameCounts()
        self.delivered_bits = 0               # the bits of the frames delivered
        self.window_mark = (0, 0, 0)          # frames delivered and dropped, and bits, at the last window
        self.m2p: list[int] = []
        self.rtt: list[int] = []
        # the input stream (module docstring): runs (arrival, trip, count) of the admitted
        # inputs the host has not read, in the order they were sent, arriving tick apart
        self.inputs: deque[tuple[int, int, int]] = deque()
        self.input_origin: int | None = None  # send time of the latest input seen
        self.input_first = True               # the input event at last_frame ran first
        self.last_frame = start               # time of the latest frame event
        self.next_frame = start               # time of the next frame event
        self.frame_seq = 0                    # its push order (_push_frame)
        # the probe stream (module docstring), with S and P as the tie rule names them
        self.pongs: list[tuple[int, int, int, int]] = []  # each PONG not yet read: arrival, sent, P, S
        self.ping_group = (-1, -1)            # the latest P, and its S
        # set by _build_paths: its four paths, and train_from, the earliest frame event that may start a train


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

        self.heap: list[tuple[int, int, Callable, tuple]] = []  # (time, push order, handler, its args)
        self._seq = 0
        self.next_window = start_time + settings.controller.window_us  # the next window event not yet handled
        self.next_sync = start_time                                     # the next state sync not yet handled
        self.log_frames = logger.isEnabledFor(logging.DEBUG)

        nsec = ceil_div(duration_us, 1_000_000)
        self.trace = RunTrace(duration_us=duration_us, session_start=start_time,
                              per_second_bits={spec.client_id: [0] * nsec for spec in topology.clients})
        self.master_id = topology.master_id if topology.mode == CLIENT_HOSTED else None
        # the master renders for itself outside the event loop (_build_trace)
        self.clients = {spec.client_id: _ClientState(spec, ladder, settings.start_level, start_time,
                                                     self.trace.per_second_bits[spec.client_id])
                        for spec in topology.clients if spec.client_id != self.master_id}

        if topology.mode == EDGE_HOSTED:
            node = topology.host_node
            if len(topology.clients) > node.max_sessions:
                raise CapacityError(
                    f"node {node.node_id} supports {node.max_sessions} sessions, "
                    f"got {len(topology.clients)} clients")
        else:
            node = topology.device_node
        self.level_costs = []  # per level: frame bytes, render us, us from a frame's start to its ready, interval us
        for level in ladder:
            rt = render_time_us(level, settings.scene_complexity, node.pixel_throughput)
            ready = (0 if settings.prerender else rt) + encode_time_us(level, node.encode_throughput)
            self.level_costs.append((frame_bytes(level), rt, ready, level.frame_interval))
        self.paths: list[_PathRecord] = []
        self._build_paths()
        # push order of the submission that first reached each frame path's last_arrival
        self.arrival_seq = {r.path: 0 for r in self.paths if r.kind == "frames"}
        self.syncs = [(r.path, ((settings.sync_bytes, len(self.clients) if r.owner is None else 1),))
                      for r in self.paths if r.kind == "frames"]  # one datagram per client on the path
        # the run's input admission bounds (module docstring), the next one last: each step by the end, and the end
        steps = sorted((self.start + step.time_us for step in settings.bandwidth_steps), reverse=True)
        self.input_bounds = [self.end + 1, *(at + 1 if at == self.start else at  # the input at start goes first
                                             for at in steps if at <= self.end)]

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
        for cid, st in self.clients.items():
            profile = st.spec.profile
            st.up_data = self._add_path(f"up_data[{cid}]", profile, (cid, 1), "input", cid)
            st.down_frames = frames = shared or self._add_path(
                f"down_frames[{cid}]", profile, (cid, 2), "frames", cid)
            leads = shared is None or st is next(iter(self.clients.values()))  # the first client on its frame path
            drawing = frames.profile.loss_rate or frames.profile.jitter
            st.train_from = self.start if leads and not drawing else math.inf
            st.up_probe = self._add_path(f"up_probe[{cid}]", profile, (cid, 3), "probe", cid)
            st.down_probe = self._add_path(f"down_probe[{cid}]", profile, (cid, 4), "probe", cid)

    # -- event plumbing --------------------------------------------------

    def push(self, t: int, handler: Callable, *args) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, handler, args))

    # -- client-side streams ----------------------------------------------

    def _admit_inputs(self, st: _ClientState, t: int):
        """Unless the inputs sent by the next window are admitted, submit those sent by the later of the next window
        and `_BLOCK` inputs on, and before the run's next admission bound."""
        tick, up, bound = self.settings.tick_us, st.up_data, self.input_bounds[-1] - 1
        sent = self.start + up.submitted * tick
        if sent > min(self.next_window, bound):
            return
        up.forget_to(t)  # nothing reads a delivery
        count = (min(max(self.next_window, sent + (_BLOCK - 1) * tick), bound) - sent) // tick + 1
        for at, _, n in up.submit_series(_INPUT_BYTES, sent, tick, count):
            if at.__class__ is int:  # a run's arrivals step by tick, as its sends do: one trip time
                st.inputs.append((at, at - sent, n))
            sent += n * tick

    def _read_inputs(self, st: _ClientState, t: int) -> int | None:
        """Send time of the latest input the host holds when the frame at `t` starts.

        Reads and drops the admitted arrivals under the tie rule of the module
        docstring, then records this frame event's place in push order.
        """
        inputs, tick, prev = st.inputs, self.settings.tick_us, st.last_frame
        seen = t - 1  # the latest arrival seen
        while inputs:
            at, trip, count = inputs[0]
            if at > seen:  # the first input arriving at t decides for all of them
                sent = at - trip
                if at != t or not (sent < prev or sent == prev and st.input_first):
                    break
                seen = t
            done = min(count, (seen - at) // tick + 1)
            st.input_origin = at - trip + (done - 1) * tick
            inputs.popleft()
            if done < count:
                inputs.appendleft((at + done * tick, trip, count - done))
        pushed = t - tick  # the input event at t was pushed then, this frame event at prev
        if pushed != prev:
            st.input_first = pushed < prev
        st.last_frame = t
        return st.input_origin

    def _admit_probes(self, st: _ClientState, t: int):
        """Unless the PINGs sent by `t` are admitted, submit those sent by the later of `t` and `_BLOCK` PINGs on,
        and by the end, and echo each arrival run, cut at the end, as one PONG series."""
        interval, end = self.settings.ping_interval_us, self.end
        sent = self.start + st.up_probe.submitted * interval
        if sent > t:
            return
        count = (min(end, max(t, sent + (_BLOCK - 1) * interval)) - sent) // interval + 1
        for at, _, n in st.up_probe.submit_series(HEADER_LEN, sent, interval, count):
            if at.__class__ is int and at <= end:
                # PING k of the run is sent at sent + k * interval and arrives at at + k * interval, after
                # the one before it but for k = 0, which may arrive with the previous run's last PING
                first_s = st.ping_group[1] if at == st.ping_group[0] else sent  # S of PING 0
                echoed, i = min(n, (end - at) // interval + 1), 0
                for pong, step, count in st.down_probe.submit_series(HEADER_LEN, at, interval, echoed):
                    st.pongs += [(pong + (k - i) * step, sent + k * interval, at + k * interval,
                                  sent + k * interval if k else first_s)
                                 for k in range(i, i + count) if pong.__class__ is int and pong + (k - i) * step <= end]
                    i += count
                last = echoed - 1
                st.ping_group = (at + last * interval, sent + last * interval if last else first_s)
            sent += n * interval
        st.up_probe.forget_to(t)  # nothing reads a delivery
        st.down_probe.forget_to(t)

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

    def _on_frame(self, t: int, st: _ClientState):
        if st.next_frame != t or st.train_from <= t and self._train(t, st):
            return  # settled by a train
        level_idx = st.controller.level
        _, _, ready, interval = self.level_costs[level_idx]
        fid = st.next_frame_id
        st.next_frame_id += 1
        self.push(t + ready, self._on_ready, st, fid, level_idx, self._read_inputs(st, t))
        self._push_frame(t + interval, st)

    def _push_frame(self, t: int, st: _ClientState):
        """Make `t` the client's next frame event, and push it if the run reaches it, keeping its push order."""
        st.next_frame = t
        if t <= self.end:
            self.push(t, self._on_frame, st)
            st.frame_seq = self._seq

    def _train(self, t: int, st: _ClientState) -> bool:
        """Settle the frames of the path of `st`, its first client, at t, t + I, ... as the module docstring
        says; returns whether it settled any, and if not, tries again at the next window."""
        path, level, settings = st.down_frames, st.controller.level, self.settings
        # in the order of their frame events at t (module docstring), `st` first if all are at t
        group = sorted((c for c in self.clients.values() if c.down_frames is path), key=attrgetter("frame_seq"))
        size, _, ready, interval = self.level_costs[level]
        st.train_from = self.next_window
        if not all(c.next_frame == t and c.controller.level == level and c.frames.sent == c.next_frame_id
                   for c in group):
            return False
        profile, n, every, sync_bytes = path.profile, len(group), settings.sync_interval_us, settings.sync_bytes
        runs = fragment_runs(size, profile.mtu)
        ends, burst_bytes, bursts_tx, sync_tx, (reach_one, reach_all) = _instant(profile, runs, n, sync_bytes)
        limit = min(self.next_window - 1, self.end)
        # each counted frame's present after its start; past `stop` an instant's ready is at or after the next step
        # (its input bound, or the start + 1 for one at the start), or its presents, counted or bound, past the limit
        offsets = ends and [ready + end + c.decode_us[level] for end, c in zip(ends, group)]
        stop = min(self.input_bounds[-1] - 2 - ready, limit - (max(offsets) if ends else ready))
        firsts = offsets or [0] * n  # each client's first present here if counted, or a bound below it
        if not ends or path.busy_until > t + ready:  # admitted, or behind what the path holds: the larger bound
            begin = max(t + ready, path.busy_until) - t + reach_one
            firsts = [max(first, begin + c.decode_us[level]) for first, c in zip(firsts, group)]
        crossing = []  # pending frames, to present ahead of the train's
        for c, first in zip(group, firsts):
            newer, before = c.next_frame_id, t + first  # the client's first frame here, and its present
            for fid, (_, _, _, shown) in reversed(c.pending.items()):  # in submission order, the latest first
                if not c.last_presented < fid < newer or shown >= before:
                    return False
                crossing.append((shown, c, fid))
                newer, before = fid, shown
        fragments, start, latency = sum(count for _, count in runs), self.start, profile.one_way_latency
        sync = skip = self.next_sync  # the next sync to step, and the next one neither sent nor skipped
        busy, queued, arrived, capacity = path.busy_until, path.queued_bytes, -1, profile.queue_capacity
        # the counted run's first instant, and its last that the last sync skipped before it has reached
        at, run, reached, segments, fates, bound = t, t, t - interval, [], None, 0
        while True:  # each instant counted, or admitted after the counted run before it is flushed
            ready_at, go, full = at + ready, at <= stop and (at + interval - start) % every, False
            if go:
                while sync < ready_at:  # the syncs due before this ready, in closed form, whether any overflows
                    busy, queued = (busy, queued) if busy > sync else (sync, 0)
                    busy, queued, sync = busy + sync_tx, queued + n * sync_bytes, sync + every
                    arrived, full = busy + latency, full or queued > capacity
                if sync != ready_at and ends and not full and busy <= ready_at:  # counted
                    if arrived <= ready_at:
                        reached = at
                    busy, queued, at = ready_at + bursts_tx, burst_bytes, at + interval
                    continue
                bound = bound or reach_all + max(c.decode_us[level] for c in group)  # after its bursts can start
                go = sync != ready_at and max(busy, ready_at) + bound <= limit
            if reached >= run:  # the run's instants to `reached` are counted, the ones before it skipped
                last = reached + ready
                skipped = ceil_div(last - skip, every)
                path.skip_delivered(n * ((reached - run) // interval * fragments + skipped))
                skip += skipped * every
                path.forget_to(last)
                for _ in group:
                    path.submit_burst(runs, last)
                segments.append(((reached - run) // interval + 1, offsets))
                fates = None
                if self.log_frames:  # one line per frame, in the order of their readies
                    for x in range(run + ready, last + 1, interval):
                        for c, end in zip(group, ends):
                            logger.debug(FRAME_LINE, x, c.spec.client_id, c.next_frame_id + (x - ready - t) // interval,
                                         fragments, 0, "completes", x + end)
            # the run's later instants, and this one if admitted, go to the path as their sync and ready events would
            for x in range(reached + interval + ready, ready_at + interval if go else ready_at, interval):
                while skip < x:
                    path.submit_burst(((sync_bytes, n),), skip)
                    skip += every
                path.forget_to(x)
                if not fates:  # the first of a run of admitted instants
                    fates = [[] for _ in group]
                    segments.append((None, fates))
                for c, fate in zip(group, fates):
                    cut = path.dropped_queue
                    arrivals = path.submit_burst(runs, x)
                    cut = path.dropped_queue - cut  # the path is draw-free: only the queue drops
                    end, completed = (x, False) if cut else frame_outcome(arrivals)
                    reason = None if completed else _FRAGMENT_DROPS[Drop.QUEUE] if cut else "reassembly_abandoned"
                    fate.append((end + c.decode_us[level] if completed else end, reason))
                    if self.log_frames:
                        logger.debug(FRAME_LINE, x, c.spec.client_id, c.next_frame_id + (x - ready - t) // interval,
                                     fragments, cut, reason or "completes", end)
            if not go:
                break
            busy, queued, arrived, reached = path.busy_until, path.queued_bytes, -1, at
            run = at = at + interval
        if not segments:
            return False
        st.train_from = t
        for shown, c, fid in reversed(crossing):  # their outcome or present events then find them presented
            self._on_present(shown, c, fid)
        for k, presents in segments:  # a counted run's k and presents, or None and the fates of an admitted one
            k = k or len(presents[0])
            for c, present in zip(group, presents):
                self._settle(c, t, k, interval, present)
            t += k * interval
        for c in group:
            self._push_frame(t, c)
        return True

    def _settle(self, st: _ClientState, t: int, k: int, interval: int, present) -> list[int | None]:
        """Start the client's k frames at t, t + interval, ... and resolve them as their frame, ready, outcome and
        present events would with nothing pending; returns their input origins.  `present` is how long after its
        start each frame is presented, or each frame's fate: (its present time, None), or (when it is dropped,
        the reason)."""
        fid, bits, buckets = st.next_frame_id, self.level_costs[st.controller.level][0] * 8, st.per_second_bits
        origins = self._read_inputs_along(st, t, k, interval)
        if present.__class__ is int:
            delivered = k
            st.last_completed = st.last_presented = fid + k - 1
            first, j = t + present, 0
            while j < k:  # the presents in each second, the last one counting every present after it
                second = (first + j * interval - self.start) // 1_000_000
                if second >= len(buckets) - 1:
                    second, after = len(buckets) - 1, k
                else:
                    after = min(k, ceil_div(self.start + (second + 1) * 1_000_000 - first, interval))
                buckets[second] += (after - j) * bits
                j = after
            st.m2p += [at - origin for at, origin in zip(range(first, first + k * interval, interval), origins)
                       if origin is not None]
        else:
            delivered, reasons = 0, self.trace.drop_reasons
            for j, ((at, reason), origin) in enumerate(zip(present, origins)):
                if reason:
                    reasons[reason] = reasons.get(reason, 0) + 1
                    continue
                delivered += 1
                st.last_completed = st.last_presented = fid + j
                buckets[min((at - self.start) // 1_000_000, len(buckets) - 1)] += bits
                if origin is not None:
                    st.m2p.append(at - origin)
        st.next_frame_id = fid + k
        st.frames.sent += k
        st.frames.delivered += delivered
        st.frames.dropped += k - delivered
        st.delivered_bits += delivered * bits
        return origins

    def _read_inputs_along(self, st: _ClientState, t: int, k: int, interval: int) -> list[int | None]:
        """What `_read_inputs` returns at t, t + interval, ... (k frames), leaving the same state.

        It steps through each run by arithmetic, and trims only the run left partly read at the end.  Frame
        events keep `_read_inputs`: this reader costs more per call, which for one frame outweighs the trims
        it saves."""
        inputs, tick = st.inputs, self.settings.tick_us
        origin, first, prev = st.input_origin, st.input_first, st.last_frame
        origins = []
        for x in range(t, t + k * interval, interval):
            tied = False  # an input arriving at x is seen: so are the ones after it arriving at x
            while inputs:
                at, trip, count = inputs[0]
                sent = x - trip  # of an input of this run arriving at x
                seen = x if tied or sent < prev or sent == prev and first else x - 1  # the latest arrival seen
                if seen < at:
                    break
                last = at + (count - 1) * tick
                if seen < last:
                    origin = seen - trip - (seen - at) % tick
                    break
                origin, tied = last - trip, last == x
                inputs.popleft()
            origins.append(origin)
            if x - tick != prev:
                first = x - tick < prev
            prev = x
        if inputs and origin is not None and origin >= inputs[0][0] - inputs[0][1]:  # the front run is partly read
            at, trip, count = inputs[0]
            done = (origin + trip - at) // tick + 1
            inputs[0] = (at + done * tick, trip, count - done)
        st.input_origin, st.input_first, st.last_frame = origin, first, prev
        return origins

    def _on_ready(self, t: int, st: _ClientState, fid: int, level_idx: int, input_origin: int | None):
        size = self.level_costs[level_idx][0]
        path = st.down_frames
        runs = fragment_runs(size, path.profile.mtu)
        path.forget_to(t)  # packets that have arrived; nothing reads them
        before, lost, cut = path.last_arrival, path.dropped_loss, path.dropped_queue
        arrivals = path.submit_burst(runs, t)
        lost, cut = path.dropped_loss - lost, path.dropped_queue - cut
        self._seq += 1
        seq = self._seq
        st.frames.sent += 1
        if lost or cut:
            for at, _, _ in arrivals:  # the first dropped fragment names the reason
                if at.__class__ is Drop:
                    break
            outcome, end = _FRAGMENT_DROPS[at], t
            st.pending[fid] = (arrivals[0][0], level_idx, input_origin, math.inf)
            self._drop_frame(st, fid, outcome)
        else:
            end, completed = frame_outcome(arrivals)
            outcome = "completes" if completed else "reassembly_abandoned"
            present = end + st.decode_us[level_idx] if completed else math.inf
            st.pending[fid] = (arrivals[0][0], level_idx, input_origin, present)
            # a whole frame arriving at the instant of an earlier packet is
            # seen with that packet; the tie-break keeps path order.  Two outcomes
            # may take one order at one instant: the handlers compare equal, and
            # seq, the first argument, runs them in their push order
            order = self.arrival_seq[path] if end == before else seq
            heapq.heappush(self.heap, (end, order, self._on_outcome, (seq, st, fid)))
        if path.last_arrival != before:
            self.arrival_seq[path] = seq
        if self.log_frames:
            logger.debug(FRAME_LINE, t, st.spec.client_id, fid, sum(run[2] for run in arrivals), lost + cut,
                         outcome, end)

    def _on_sync(self, t: int):
        for path, runs in self.syncs:
            if t < path.last_submit:
                continue  # counted by a train: only a train submits to a frame path ahead of the event clock
            before = path.last_arrival
            path.submit_burst(runs, t)  # nothing reads its arrival
            if path.last_arrival != before:
                self._seq += 1
                self.arrival_seq[path] = self._seq
        self.next_sync = nxt = t + self.settings.sync_interval_us
        if nxt <= self.end:
            self.push(nxt, self._on_sync)

    # -- arrivals ------------------------------------------------------------

    def _on_outcome(self, t: int, _seq: int, st: _ClientState, fid: int):
        if fid not in st.pending:
            return  # swept by a window
        present = st.pending[fid][3]  # t + the decode time, unless it never completes
        if fid <= st.last_completed:  # older than a completed frame: never completes, stays in flight
            del st.pending[fid]
            st.never_resolved += 1
        elif present < math.inf:
            st.last_completed = fid
            self.push(present, self._on_present, st, fid)
        else:
            self._drop_frame(st, fid, "reassembly_abandoned")

    def _on_present(self, t: int, st: _ClientState, fid: int):
        if fid not in st.pending:
            return  # presented by a train
        if fid <= st.last_presented:
            self._drop_frame(st, fid, "stale")
            return
        _, level_idx, input_origin, _ = st.pending.pop(fid)
        bits = self.level_costs[level_idx][0] * 8
        st.last_presented = fid
        st.frames.delivered += 1
        st.delivered_bits += bits
        buckets = st.per_second_bits
        buckets[min((t - self.start) // 1_000_000, len(buckets) - 1)] += bits
        if input_origin is not None:
            st.m2p.append(t - input_origin)

    def _drop_frame(self, st: _ClientState, fid: int, reason: str):
        del st.pending[fid]
        st.frames.dropped += 1
        reasons = self.trace.drop_reasons
        reasons[reason] = reasons.get(reason, 0) + 1

    # -- adaptation window ------------------------------------------------

    def _on_window(self, t: int):
        cfg, trace = self.settings.controller, self.trace
        window_index = len(trace.queue_drop_timeline)
        self.next_window = nxt = t + cfg.window_us
        for cid, st in self.clients.items():
            self._admit_probes(st, t)
            self._admit_inputs(st, t)
            self._read_pongs(st, t)
            frames, (delivered, dropped, bits) = st.frames, st.window_mark  # the counts at the last window
            resolved = frames.delivered - delivered + frames.dropped - dropped
            stats = WindowStats(
                srtt=st.estimator.srtt or 0,
                frame_loss_rate=(frames.dropped - dropped) / resolved if resolved else 0.0,
                delivered_throughput=(st.delivered_bits - bits) * 1_000_000 // cfg.window_us,
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
            st.window_mark = (frames.delivered, frames.dropped, st.delivered_bits)
            # a frame at or below last_completed awaits its present event, or its outcome
            # event, which counts it as never resolved
            swept = [fid for fid, (first, *_) in st.pending.items()
                     if fid > st.last_completed and t - first > REASSEMBLY_TIMEOUT_US]
            for fid in swept:
                self._drop_frame(st, fid, "reassembly_abandoned")
        trace.queue_drop_timeline.append(sum(r.path.dropped_queue for r in self.paths if r.kind == "frames"))
        if nxt <= self.end:
            self.push(nxt, self._on_window)

    def _on_bwstep(self, t: int, step: BandwidthStep):
        targets = step.client_ids
        for r in self.paths:
            if r.kind != "probe" and (targets is None or r.owner in targets):
                r.path.set_bandwidth(step.bandwidth)
        self.input_bounds.pop()
        for st in self.clients.values():
            self._admit_inputs(st, t)
        logger.info("t=%d bandwidth step to %d b/s", t, step.bandwidth)

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunTrace:
        for st in self.clients.values():
            self._admit_inputs(st, self.start)
            self._push_frame(self.start, st)
        self.push(self.start, self._on_sync)
        self.push(self.next_window, self._on_window)
        for step in self.settings.bandwidth_steps:
            self.push(self.start + step.time_us, self._on_bwstep, step)

        heap, end = self.heap, self.end
        while heap and heap[0][0] <= end:
            t, _, handler, args = heapq.heappop(heap)
            handler(t, *args)
        heap.clear()  # events after the end hold bound handlers, a cycle through this run: free it at once
        for st in self.clients.values():
            self._admit_probes(st, end)
            self._read_pongs(st, end + 1)  # every PONG kept arrives by the end
        for r in self.paths:
            r.path.forget_to(end)  # count the deliveries no event polled
        return self._build_trace()

    def _build_trace(self) -> RunTrace:
        """The run's trace, completed with what is known only at the end."""
        trace, totals = self.trace, FrameCounts()
        path_ids = {r.path: i for i, r in enumerate(self.paths)}
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
                trace.frame_path_ids[cid] = path_ids[st.down_frames]
            trace.rtt_samples[cid] = rtt
            trace.motion_to_photon[cid] = m2p
            trace.per_client_frames[cid] = frames
            trace.final_levels[cid] = level
            totals.sent += frames.sent
            totals.delivered += frames.delivered
            totals.dropped += frames.dropped
        trace.frames = totals
        trace.drop_reasons = dict(sorted(trace.drop_reasons.items()))
        for r in self.paths:
            p = r.path
            trace.path_counters[r.name] = (p.submitted, p.delivered, p.dropped_loss, p.dropped_queue)
        pending = sum(len(st.pending) + st.never_resolved for st in self.clients.values())
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
