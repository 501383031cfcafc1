"""The session against one all-events reference.

`_Events` runs the seed's event loop on today's types: every input and PING
is an event, and every fragment, input, PING, PONG and state sync is its own
encoded submission with its own "arrive" event.  The production session
carries a frame as a burst of sizes resolved by one outcome event and its
present event, or settled with the frames after it in a train, each state
sync as one burst per frame path, each client's inputs as series, a block
at a time, that a frame reads when it starts, and its PINGs and PONGs as
series, a block at a time, whose samples each window reads with a cursor.
Both must give the same trace, handle the same state syncs, windows and
bandwidth steps in the same order, start, present and drop each
client's frames at the same times in the same order, and have applied the
same RTT samples and counted the same frames when each window reads
them.  That includes jittery paths where a whole frame arrives at the clamped
arrival of an earlier packet, inputs and PONGs that arrive at the exact
microsecond of a frame or window event, inputs sent at the microsecond of a
bandwidth step, frames whose outcome or present event meets a late fragment,
a newer frame, a window or the end of the run, and one case for each
condition under which a train stops short or admits an instant as its
events would.
`tests/test_random_scenarios.py` and `tests/events_equivalence.py` compare
them on generated scenarios as well.
"""

import heapq
import math
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import pytest

from capture_goldens import apply_overrides
from epicsim import netem, orchestrator, session
from epicsim.model import NetworkProfile, NodeSpec, QualityLevel, frame_bytes
from epicsim.netem import Drop
from epicsim.render import decode_time_us
from epicsim.transport import (
    INPUT_PAYLOAD_LEN,
    MsgType,
    Reassembler,
    RttEstimator,
    WireHeader,
    decode_fragment,
    decode_message,
    encode_fragment,
    encode_message,
    fragment,
)
from reference_netem import path_state

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the payload of every encoded input: the oracle reads only an input's header timestamp
_INPUT_PAYLOAD = bytes(INPUT_PAYLOAD_LEN)


def _kind(handler):
    """An event's kind: the name of its handler without `_on_`."""
    return handler.__name__.removeprefix("_on_")


class _Logged(session._Simulation):
    """Logs every state sync, window and bandwidth step event handled, in order.  Apart from them
    it logs per client each frame start (time, frame id, level and motion-to-photon origin), each
    present and each drop with its time, since the session may settle a frame in a train, and what
    each window reads of each client: the RTT samples applied and the frames and bits counted since
    the last window.  A frame event's start comes from
    `_read_inputs`, a train's starts, presents and drops from `_settle`, with a cut frame dropped at
    its ready and an abandoned one at its late fragment; a present event logs only a frame still
    pending, since a train may have presented it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self.presents = []
        self.window_samples = []
        self.starts = []
        self.drops = []
        self.now = self.start  # the time of the event being handled
        self.settled = 0  # frames settled by trains

    def _train(self, t, st):
        started = len(self.starts)
        settled = super()._train(t, st)
        self.settled += len(self.starts) - started
        return settled

    def _read_inputs(self, st, t):
        origin = self._origin(st, t)
        self.starts.append((st.spec.client_id, t, st.next_frame_id - 1, st.controller.level, origin))
        return origin

    def _origin(self, st, t):
        return super()._read_inputs(st, t)

    def _settle(self, st, t, k, interval, present):
        fid, level, cid = st.next_frame_id, st.controller.level, st.spec.client_id
        origins = super()._settle(st, t, k, interval, present)
        fates = [(t + j * interval + present, None) for j in range(k)] if present.__class__ is int else present
        for j, (origin, (at, reason)) in enumerate(zip(origins, fates)):
            self.starts.append((cid, t + j * interval, fid + j, level, origin))
            if reason:
                self.drops.append((cid, at, fid + j, reason))
            else:
                self.presents.append((cid, at, fid + j))
        return origins

    def _read_pongs(self, st, t):
        super()._read_pongs(st, t)
        if t <= self.end:  # not the run's final read
            delivered, dropped, bits = st.window_mark
            self.window_samples.append((t, st.spec.client_id, len(st.rtt), st.frames.delivered - delivered,
                                        st.frames.dropped - dropped, st.delivered_bits - bits))

    def _drop_frame(self, st, fid, reason):
        if fid in st.pending:
            self.drops.append((st.spec.client_id, self.now, fid, reason))
        super()._drop_frame(st, fid, reason)

    def _on_present(self, t, st, fid):
        if fid in st.pending:  # not presented by a train already
            self.presents.append((st.spec.client_id, t, fid))
        super()._on_present(t, st, fid)

    def handled(self, t, handler, args):
        # production has no event per message, and none for a frame a train settles
        self.now = t
        kind = _kind(handler)
        if kind in ("sync", "window", "bwstep"):
            self.log.append((t, kind, *args))

    def logs(self):
        """The handled-event log, each client's presents in order, the window reads, each client's
        frame starts in order, and each client's drops in order of their times."""
        by_client = itemgetter(0)
        return (self.log, sorted(self.presents, key=by_client), self.window_samples,
                sorted(self.starts, key=by_client), sorted(self.drops))


class _Events(_Logged):
    """The seed's event loop: every message its own submission with its own "arrive" event.

    Inputs and PINGs are events.  Each fragment, input, PING, PONG and state
    sync is encoded on the wire format, numbered per sender side, session and
    type, submitted alone, and decoded by the arrive event that polls its path
    at its arrival.  A fragment is offered to its client's `Reassembler`,
    swept at every controller window; an input sets the host's latest input
    for the next frame to read; a PING submits its PONG; a PONG applies its
    RTT sample.  Every input carries the same zero pose: no run reads a pose.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sequences = {}
        self.host_input_origin = dict.fromkeys(self.clients)
        self.reassemblers = {cid: Reassembler() for cid in self.clients}

    def run(self):
        """The event loop with one "input" and one "ping" event per client and interval."""
        for st in self.clients.values():
            self.push(self.start, self._on_input, st)
            self.push(self.start, self._on_ping, st)
            self.push(self.start, self._on_frame, st)
        self.push(self.start, self._on_sync)
        self.push(self.start + self.settings.controller.window_us, self._on_window)
        for step in self.settings.bandwidth_steps:
            self.push(self.start + step.time_us, self._on_bwstep, step)
        while self.heap and self.heap[0][0] <= self.end:
            t, _, handler, args = session.heapq.heappop(self.heap)
            handler(t, *args)
        return self._build_trace()

    def _admit_inputs(self, st, t):
        pass  # each "input" event submits its own

    def _drop_frame(self, st, fid, reason):
        if fid in st.pending:  # not resolved already: the receiver reports a frame once per lost fragment
            super()._drop_frame(st, fid, reason)

    def _origin(self, st, t):
        return self.host_input_origin[st.spec.client_id]

    def _train(self, t, st):
        return False  # every frame takes its frame and ready events

    def _admit_probes(self, st, t):
        pass  # each "ping" event submits its own, so no PONG waits for a window to read it

    def _submit(self, path, data, t):
        """Submit one datagram; its delivery is an "arrive" event.  Returns its drop, if any."""
        result = path.submit(data, t)
        if isinstance(result, Drop):
            return result
        self.push(result, self._on_arrive, path)
        return None

    def _encode(self, side, msg_type, cid, t, payload=b""):
        """One message, numbered per sender side, session and type."""
        key = (side, cid, msg_type)
        sequence = self.sequences.get(key, 0)
        self.sequences[key] = sequence + 1
        return encode_message(WireHeader(msg_type, cid, sequence, t), payload)

    def _on_input(self, t, st):
        self._submit(st.up_data, self._encode("c", MsgType.INPUT, st.spec.client_id, t, _INPUT_PAYLOAD), t)
        if t + self.settings.tick_us <= self.end:
            self.push(t + self.settings.tick_us, self._on_input, st)

    def _on_ping(self, t, st):
        self._submit(st.up_probe, self._encode("c", MsgType.PING, st.spec.client_id, t), t)
        if t + self.settings.ping_interval_us <= self.end:
            self.push(t + self.settings.ping_interval_us, self._on_ping, st)

    def _on_ready(self, t, st, fid, level_idx, input_origin):
        path = st.down_frames
        st.pending[fid] = (math.inf, level_idx, input_origin, None)  # the Reassembler sweeps
        st.frames.sent += 1
        for frag in fragment(fid, bytes(frame_bytes(self.ladder[level_idx])), path.profile.mtu):
            dropped = self._submit(path, encode_fragment(st.spec.client_id, 0, t, frag), t)
            if dropped is not None:
                self._drop_frame(st, fid, "fragment_" + dropped.value)

    def _on_sync(self, t):
        payload = bytes(self.settings.sync_payload_bytes)
        for cid, st in self.clients.items():
            self._submit(st.down_frames, self._encode("h", MsgType.STATE_SYNC, cid, t, payload), t)
        if t + self.settings.sync_interval_us <= self.end:
            self.push(t + self.settings.sync_interval_us, self._on_sync)

    def _on_arrive(self, t, path):
        for data, at in path.advance_to(t):
            header, payload = decode_message(data)
            cid, st = header.session_id, self.clients[header.session_id]
            if header.msg_type == MsgType.FRAME_FRAG:
                event = self.reassemblers[cid].offer(decode_fragment(payload), at)
                for fid in event.abandoned:
                    self._drop_frame(st, fid, "reassembly_abandoned")
                if event.completed is not None and event.completed[0] in st.pending:
                    fid = event.completed[0]
                    level = self.ladder[st.pending[fid][1]]
                    self.push(at + decode_time_us(level, st.spec.decode_throughput), self._on_present, st, fid)
            elif header.msg_type == MsgType.INPUT:
                self.host_input_origin[cid] = header.timestamp
            elif header.msg_type == MsgType.PING:
                pong = WireHeader(MsgType.PONG, cid, header.sequence, header.timestamp)
                self._submit(st.down_probe, encode_message(pong), at)
            elif header.msg_type == MsgType.PONG:
                sample = at - header.timestamp
                st.estimator.update(sample)
                st.rtt.append(sample)

    def _on_window(self, t):
        super()._on_window(t)
        for cid, reassembler in self.reassemblers.items():
            for fid in reassembler.sweep(t):
                self._drop_frame(self.clients[cid], fid, "reassembly_abandoned")


def _match_events(args, monkeypatch):
    """Asserts that `run_session(*args)` gives the same trace and logs in production and in `_Events`;
    returns how many frames production settled in trains."""
    sims = []

    class Kept(_Logged):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    trace, logs = _run_logged(lambda: session.run_session(*args), Kept, monkeypatch)
    ref_trace, ref_logs = _run_logged(lambda: session.run_session(*args), _Events, monkeypatch)
    assert trace == ref_trace
    assert logs == ref_logs
    return sims[-1].settled


def _run(cfg, cls, monkeypatch):
    return _run_logged(lambda: orchestrator.run_scenario(cfg).trace, cls, monkeypatch)


def _run_logged(run, cls, monkeypatch):
    """`run()` with `cls` as the session's simulation; returns its trace and its logs."""
    sims = []

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    def heappop(heap):
        event = heapq.heappop(heap)
        if sims:
            sims[-1].handled(event[0], event[2], event[3])
        return event

    with monkeypatch.context() as m:
        m.setattr(session, "_Simulation", Recording)
        m.setattr(session, "heapq", type("Heap", (), {"heappush": staticmethod(heapq.heappush),
                                                      "heappop": staticmethod(heappop)}))
        trace = run()
    return trace, sims[-1].logs()


TINY_LADDER = [
    {"level_index": 0, "width": 96, "height": 64, "fps": 60, "bpp": 0.8},
    {"level_index": 1, "width": 64, "height": 48, "fps": 60, "bpp": 0.8},
]
CASES = {
    # single-fragment frames on a jittery shared egress: whole frames often
    # arrive at the clamped arrival of another client's packet
    "tiny-frames": ("shared-egress.json", 4, {"doc": {"ladder": TINY_LADDER},
                                              "link": {"jitter": 3_000, "loss_rate": 0.01}}),
    "tiny-frames-short-windows": ("shared-egress.json", 3, {
        "doc": {"ladder": TINY_LADDER, "controller": {"enabled": True, "start_level": 0, "window": 2_000}},
        "client": {"decode_throughput": 3_072_000},
        "link": {"jitter": 400, "one_way_latency": 0}}),
    "jumbo-jitter": ("shared-egress.json", 4, {"link": {"jitter": 3_000, "loss_rate": 0.002}}),
    "window-sweep": ("edge-nominal.json", None, {
        "doc": {"duration": 2_000_000, "controller": {"enabled": True, "start_level": 0, "window": 100_000}},
        "paths": {"bandwidth": 5_000_000, "mtu": 32_000, "queue_capacity": 2_000_000}}),
    "master-uplink": ("master-server.json", None, {"doc": {"duration": 1_000_000},
                                                   "link": {"jitter": 3_000, "loss_rate": 0.002}}),
    # a clean uplink: frames are cut by the queue on the run path, and the
    # session tells the cut from the path's drop counters
    "master-server": ("master-server.json", None, {"doc": {"duration": 1_000_000}}),
    # encoding slower than the frame interval: after a downgrade the next,
    # smaller frame is ready first, completes first, and the older frame's
    # fragments all arrive stale, so it never resolves
    "slow-encode": ("edge-nominal.json", None, {
        "doc": {"duration": 1_500_000, "events": [{"time": 500_000, "bandwidth": 60_000_000}],
                "nodes": [{"node_id": 1, "pixel_throughput": 5_000_000_000, "encode_throughput": 10_000_000}],
                "controller": {"enabled": True, "start_level": 0, "window": 100_000}},
        "paths": {"loss_rate": 0.0005, "queue_capacity": 8_000_000}}),
    # shipped scenarios, whose paths are draw-free, shortened to 1 s
    "edge-nominal": ("edge-nominal.json", None, {"doc": {"duration": 1_000_000}}),
    "shared-egress": ("shared-egress.json", 4, {"doc": {"duration": 1_000_000}}),
}


def _config(case, seed):
    scenario, n, overrides = CASES[case]
    doc = apply_overrides(orchestrator.load_scenario(str(SCENARIOS / scenario)).raw, overrides)
    cfg = orchestrator.parse_scenario(dict(doc, seed=seed))
    return cfg if n is None else orchestrator.scale_clients(cfg, n)


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_session_matches_the_all_events_reference(case, seed, monkeypatch):
    cfg = _config(case, seed)
    trace, log = _run(cfg, _Logged, monkeypatch)
    ref_trace, ref_log = _run(cfg, _Events, monkeypatch)
    assert trace == ref_trace
    assert log == ref_log
    # the log names a client's record by its id: each client's frame starts under its own
    assert {entry[0] for entry in log[3]} == set(trace.frame_path_ids)


def test_each_record_has_the_wire_size_of_its_message(monkeypatch):
    """Handshake records go through `Path.submit`; each state sync is one `submit_burst` per frame
    path; inputs, PINGs and PONGs are series on the input, up-probe and down-probe paths."""
    sizes, series_kinds, syncing = {}, {}, []
    submit, submit_burst, submit_series = netem.Path.submit, netem.Path.submit_burst, netem.Path.submit_series

    class Recording(session._Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for st in self.clients.values():
                series_kinds.update({st.up_data: MsgType.INPUT, st.up_probe: MsgType.PING,
                                     st.down_probe: MsgType.PONG})

        def _on_sync(self, t):
            syncing.append(t)
            super()._on_sync(t)
            syncing.pop()

    def recording(path, data, now, size=None):
        if size is not None:
            sizes.setdefault(data[0], set()).add(size)
        return submit(path, data, now, size)

    def recording_burst(path, runs, now):
        if syncing:
            sizes.setdefault(MsgType.STATE_SYNC, set()).update(size for size, _ in runs)
        return submit_burst(path, runs, now)

    def recording_series(path, size, first, step, count):
        sizes.setdefault(series_kinds[path], set()).add(size)
        return submit_series(path, size, first, step, count)

    monkeypatch.setattr(session, "_Simulation", Recording)
    monkeypatch.setattr(netem.Path, "submit", recording)
    monkeypatch.setattr(netem.Path, "submit_burst", recording_burst)
    monkeypatch.setattr(netem.Path, "submit_series", recording_series)
    doc = orchestrator.load_scenario(str(SCENARIOS / "shared-egress.json")).raw
    orchestrator.run_scenario(orchestrator.parse_scenario(dict(doc, state_sync_bytes=300)))
    payloads = {MsgType.INPUT: _INPUT_PAYLOAD, MsgType.CONTROL: bytes(1),
                MsgType.PING: b"", MsgType.PONG: b"", MsgType.STATE_SYNC: bytes(300)}
    assert sizes == {kind: {len(encode_message(WireHeader(kind, 0, 0, 0), payload))}
                     for kind, payload in payloads.items()}


def _drive_clamped_frame(cls):
    """A frame clamped to an earlier packet's arrival, with a window at that microsecond.

    A state-sync message leaves with a large jitter draw; a window is then
    scheduled for its arrival time; then a one-fragment frame is submitted
    whose own draw is small, so it is clamped to the sync's arrival.  A
    per-packet receiver sees the frame in the sync's arrive event, which was
    scheduled before the window.  The frame's present falls after the window,
    so the session resolves it by an outcome event.  Returns the logs, every
    handled event as `(t, kind)` and the sync's arrival.
    """
    profile = NetworkProfile(one_way_latency=2_000, jitter=1_000_000, bandwidth=700_000_000)
    topology = session.SessionTopology("edge_hosted", (session.ClientSpec(0, profile),),
                                       host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    ladder = tuple(QualityLevel(**level) for level in TINY_LADDER)
    sim = cls(topology, ladder, 1_000_000, session.SessionSettings(), 3, 0)
    path = sim.clients[0].down_frames
    sim._on_sync(0)
    arrival = path.last_arrival
    sim.push(arrival, sim._on_window)
    sim.next_window = arrival
    sim._on_ready(10, sim.clients[0], 0, 0, None)
    assert path.last_arrival == arrival  # the frame was clamped
    handled = _drain(sim)
    return sim.logs(), handled, arrival


def _drain(sim):
    """Runs every event left on the heap, logged; returns each as `(t, kind)`."""
    handled = []
    while sim.heap:
        t, _, handler, args = heapq.heappop(sim.heap)
        sim.handled(t, handler, args)
        handled.append((t, _kind(handler)))
        handler(t, *args)
    return handled


def test_clamped_frame_resolves_where_the_earlier_packet_arrived():
    logs, handled, arrival = _drive_clamped_frame(_Logged)
    ref_logs, _, _ = _drive_clamped_frame(_Events)
    assert logs == ref_logs
    assert handled.index((arrival, "outcome")) < handled.index((arrival, "window"))
    assert logs[1] == [(0, arrival + 1, 0)]  # presented, not swept


def _tied_outcomes(cls):
    """Two frames of one client clamped to an earlier packet's arrival, their outcomes not yet run.

    The state sync sent at 0 draws 500 ms of jitter; frames 0 and 1, one
    fragment each, are submitted at 10 and 20 us with no jitter, so both are
    clamped to the sync's arrival and take its place in push order.  Returns
    the simulation and that arrival.
    """
    profile = NetworkProfile(one_way_latency=2_000, jitter=1_000_000, bandwidth=700_000_000)
    topology = session.SessionTopology("edge_hosted", (session.ClientSpec(0, profile),),
                                       host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    ladder = tuple(QualityLevel(**level) for level in TINY_LADDER)
    sim = cls(topology, ladder, 1_000_000, session.SessionSettings(), 3, 0)
    st = sim.clients[0]
    st.down_frames.rng = _ScriptedJitter({0: 500_000})
    sim._on_sync(0)
    arrival = st.down_frames.last_arrival
    for fid in (0, 1):
        sim._on_ready(10 + 10 * fid, st, fid, 0, None)
    assert st.down_frames.last_arrival == arrival  # both frames were clamped
    return sim, arrival


def test_outcomes_taking_one_place_in_push_order_run_in_their_own():
    """Frame 1's outcome run first would complete it and leave frame 0 never resolved."""
    sim, arrival = _tied_outcomes(_Logged)
    outcomes = [event[:2] for event in sim.heap if _kind(event[2]) == "outcome"]
    assert outcomes == [(arrival, outcomes[0][1])] * 2
    _drain(sim)
    ref, _ = _tied_outcomes(_Events)
    _drain(ref)
    assert sim.logs() == ref.logs()
    present = arrival + sim.clients[0].decode_us[0]
    assert sim.logs()[1] == [(0, present, 0), (0, present, 1)]


def _resolution_case(levels=((96, 64, 60), (64, 48, 60)), latency=100, bandwidth=700_000_000, queue=None,
                     encode=4_000_000_000, decode=7_000_000_000, duration=1_000_000, window=250_000, k_down=2):
    """One client on a draw-free path; each level is `(width, height, fps)`."""
    profile = NetworkProfile(one_way_latency=latency, bandwidth=bandwidth, queue_capacity=queue)
    topology = session.SessionTopology("edge_hosted", (session.ClientSpec(0, profile, decode),),
                                       host_node=NodeSpec(1, 5_000_000_000, encode))
    ladder = tuple(QualityLevel(i, width, height, fps, 0.8) for i, (width, height, fps) in enumerate(levels))
    settings = session.SessionSettings(controller=session.ControllerConfig(window_us=window, k_down=k_down))
    return topology, ladder, duration, settings, 5, 0


# Each case resolves a frame through its outcome and present events at an
# edge where they meet a late fragment, a newer frame of the client, a window
# or the end of the run, and trains settle the frames away from it (the
# `_RESOLUTION_SETTLED` counts).  Levels downgrade at
# a window: after two windows whose srtt exceeds the 7 ms budget, or with
# `k_down=1` after the first, short of throughput.
_RESOLUTION_CASES = {
    # the burst completes the frame: 800x800 frames at 2 fps are 47 fragments,
    # 5.6 ms apart at 2 Mb/s, so each is abandoned by its own late fragment
    "abandoned-by-its-own-fragment": dict(levels=((800, 800, 2), (64, 48, 2)), bandwidth=2_000_000,
                                          queue=2_000_000, window=400_000),
    # fid > last_completed: encoding takes 50 ms at level 0 and 25 ms at level 1, so
    # the frame started after the downgrade at 500 ms is ready, complete and
    # presented before the last level-0 frame is ready, which never resolves
    "older-than-the-last-completed": dict(levels=((96, 64, 60), (64, 48, 24)), latency=3_600, encode=122_880),
    # every started frame is ready: encoding takes 25 ms at level 0, longer than
    # the frame interval, and 12.5 ms at level 1; the last level-0 frame is ready
    # after the first level-1 frame starts and 4.2 ms before it is ready, and is
    # presented after it: the level-1 decode is 6.1 ms shorter
    "newer-frame-not-yet-ready": dict(levels=((96, 64, 60), (64, 48, 24)), encode=245_760, decode=500_000,
                                      k_down=1),
    # present before the next frame: the last level-0 frame is ready 12.3 ms after it
    # starts, after the downgrade at 470 ms, and takes 12.3 ms to decode; the
    # next frame, 1/8 its size, starts, is ready and is presented before it
    "newer-frame-presented-first": dict(levels=((96, 64, 60), (32, 24, 60)), latency=3_600, encode=500_000,
                                        decode=500_000, window=235_000),
    # present before the next window: the frame started at 233,338 us is presented
    # at 250,000 us, the first window's microsecond, and counts in the next window
    "present-at-a-window": dict(latency=16_649),
    # present by the end: the frame started at 1,000,020 us is ready at
    # 1,000,024 us and arrives after the end at 1,000,025 us, still in flight
    "present-after-the-end": dict(duration=1_000_025),
}


# how many frames of each case trains settle: the frames that meet the case's condition take `_on_ready`
_RESOLUTION_SETTLED = {"abandoned-by-its-own-fragment": 0, "older-than-the-last-completed": 18,
                       "newer-frame-not-yet-ready": 25, "newer-frame-presented-first": 41, "present-at-a-window": 56,
                       "present-after-the-end": 60}


@pytest.mark.parametrize("case", list(_RESOLUTION_CASES))
def test_frames_resolving_by_their_outcome_and_present_events_match_frame_events(case, monkeypatch):
    assert _match_events(_resolution_case(**_RESOLUTION_CASES[case]), monkeypatch) == _RESOLUTION_SETTLED[case]


def test_a_frame_completing_older_than_the_last_completed_leaves_pending_at_its_outcome(monkeypatch):
    """In `older-than-the-last-completed` the last level-0 frame completes after the first level-1
    frame.  Its outcome event takes it out of `pending`, still in flight.  Of the 15 frames readied
    after the downgrade, the nine readied before the next window take an outcome event, and that
    window's train settles the other six."""
    sims, outcomes, settled = [], set(), set()

    class Counting(_Logged):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

        def _on_outcome(self, t, seq, st, fid):
            outcomes.add(fid)
            super()._on_outcome(t, seq, st, fid)

        def _settle(self, st, t, k, interval, present):
            settled.update(range(st.next_frame_id, st.next_frame_id + k))
            return super()._settle(st, t, k, interval, present)

    args = _resolution_case(**_RESOLUTION_CASES["older-than-the-last-completed"])
    trace, logs = _run_logged(lambda: session.run_session(*args), Counting, monkeypatch)
    costs = sims[-1].level_costs  # the third is the time from a frame's start to its ready
    readied = {fid: t + costs[level][2] for _, t, fid, level, _ in logs[3]}
    downgrade = trace.level_changes[0].time
    after = sorted(fid for fid, t in readied.items() if t > downgrade)
    assert trace.frames.in_flight == 1 and len(after) == 15
    assert after[:9] == list(range(27, 36)) and sorted(outcomes.intersection(after)) == after[:9]
    assert sorted(settled.intersection(after)) == after[9:]


def _train_case(decodes=(7_000_000_000,), shared=False, encode=6_144_000, bandwidth=700_000_000, latency=100,
                queue=None, mtu=1_400, sync_interval=50_000, prerender=0, steps=(), fps=(60,), wobbly=(), seed=5,
                sizes=None, pixels=5_000_000_000, start_level=0, controller=None, tick=8_333, input_latency=None):
    """Clients with `decodes` rates on draw-free paths, their own or one shared egress, streaming 96x64
    frames at 60 fps, one fragment each, ready 2 us of render plus the encode time after they start.

    `fps` gives one level per rate, each 16 px narrower and shorter than the one before unless `sizes`
    gives each level's width and height.  The clients in `wobbly` have their own paths 2.8 ms long with
    1.5 ms of jitter, so their RTT samples, one per 20 ms, straddle the 7 ms budget, and the controller
    then moves a level at every window that asks for it.  `controller` overrides the controller's
    settings, and `pixels` the node's render rate.  Inputs go every `tick` us; `input_latency` sets the
    latency of the clients' own paths, which carry their inputs, and their frames unless `shared`."""
    profile = NetworkProfile(one_way_latency=latency, bandwidth=bandwidth, queue_capacity=queue, mtu=mtu)
    own = profile if input_latency is None else replace(profile, one_way_latency=input_latency)
    jittery = NetworkProfile(one_way_latency=2_800, jitter=1_500, bandwidth=bandwidth)
    clients = tuple(session.ClientSpec(cid, jittery if cid in wobbly else own, decode)
                    for cid, decode in enumerate(decodes))
    topology = session.SessionTopology("edge_hosted", clients, host_node=NodeSpec(1, pixels, encode))
    controller = session.ControllerConfig(**controller or (dict(k_down=1, k_up=1, cooldown=0) if wobbly else {}))
    settings = session.SessionSettings(sync_interval_us=sync_interval, prerender=prerender, start_level=start_level,
                                       tick_us=tick,
                                       shared_egress=profile if shared else None, controller=controller,
                                       ping_interval_us=20_000 if wobbly else 100_000,
                                       bandwidth_steps=tuple(session.BandwidthStep(*step) for step in steps))
    sizes = sizes or [(96 - 16 * i, 64 - 16 * i) for i in range(len(fps))]
    ladder = tuple(QualityLevel(i, *size, rate, 0.8) for i, (size, rate) in enumerate(zip(sizes, fps)))
    return topology, ladder, 1_000_000, settings, seed, 0


def _window_states(args, trains):
    """The netem state of every frame path at each window of `run_session(*args)`, with or without trains."""
    states = []

    class Reading(session._Simulation):
        def _on_window(self, t):
            states.append([path_state(r.path) for r in self.paths if r.kind == "frames"])
            super()._on_window(t)

        def _train(self, t, st):
            return trains and super()._train(t, st)

    Reading(*args).run()
    return states


# Each case meets one condition under which a train stops short, or admits an instant to netem as its events
# would in place of counting it (a path busy at a ready, a sync the queue cuts, a cut or an abandonment),
# with the number of frames trains settle.  Without that condition the run leaves the all-events reference,
# or a frame path's netem state at a window leaves the run without trains.  A sync at the next instant would
# run after the frame event a train pushed early, where the events run it first when syncs are sparser than
# frames: without that condition trains settle more frames in `sync-at-the-next-instant`, and in
# `sync-time-after-a-level-change` a frame's burst goes ahead of the next sync, not behind it, and one
# motion-to-photon sample reads 66,785 us in place of 66,789.  Windows are 250 ms apart unless set.
_TRAIN_CASES = {
    # syncs every two frame intervals: an instant before a sync time ends a train
    "sync-at-the-next-instant": (dict(sync_interval=33_334), 2),
    # the frame started at 16,667 us is ready at 17,669 us, where the second sync is due and runs first
    "sync-at-a-ready": (dict(sync_interval=17_669), 46),
    # 647 B fragments take 1,849 us at 2.8 Mb/s, and two fill the queue: the sync at 50,005 us,
    # due 1 us after the frames started at 50,001 us are ready, is cut, so each train admits the instant
    # after each sync and counts the ones between
    "sync-inside-a-shared-group": (dict(decodes=(7_000_000_000,) * 2, shared=True, mtu=700, bandwidth=2_800_000,
                                        encode=6_144_000_000, sync_interval=50_005, queue=1_294), 120),
    # the same behind a 1,574 B queue: the sync at 50,005 us finds 1,294 B of bursts queued, and the queue
    # takes one of its two 280 B datagrams, so a sync's bytes are n datagrams' and the instant after it
    # is still admitted
    "sync-partly-cut-in-a-shared-group": (dict(decodes=(7_000_000_000,) * 2, shared=True, mtu=700,
                                               bandwidth=2_800_000, encode=6_144_000_000, sync_interval=50_005,
                                               queue=1_574), 120),
    # the same with syncs every 8 ms: the sync at 168,000 us, 1,327 us after the ready at 166,673 us, finds
    # the queue full and is cut, and the one at 176,000 us finds the path idle, so the instant at 183,337 us
    # after both is admitted: a sync cut before the last one stepped keeps its instant from being counted
    "sync-cut-before-an-idle-sync": (dict(decodes=(7_000_000_000,) * 2, shared=True, mtu=700, bandwidth=2_800_000,
                                          encode=6_144_000_000, sync_interval=8_000, queue=1_294), 120),
    # the sync at 480,000 us arrives at 485,004 us, after the ready at 483,346 us of the last frame the
    # train from 250,005 us could settle, so that train admits that frame and counts the ones before it; the
    # sync at 0, serialized until 4 us, makes the first frame's ready at 3 us find the path busy, so the
    # train at 0 admits its first instant and counts the rest
    "sync-arriving-after-the-last-ready": (dict(latency=5_000, encode=6_144_000_000, sync_interval=60_000), 60),
    # the step at 100 ms makes the one-fragment frame take 1 ms to serialize in place of 8 us
    "bandwidth-step-inside-a-span": (dict(steps=((100_000, 5_000_000),)), 60),
    # frames are ready their encode time after they start, without the render time
    "prerender": (dict(prerender=1), 60),
    # client 1 decodes a frame in 2,048 us, client 0 in 1 us
    "decode-rates-on-a-shared-egress": (dict(decodes=(7_000_000_000, 3_000_000), shared=True), 120),
    # clients 0 and 2 run at 25 fps from 250 to 500 ms while client 1 keeps 50 fps, so that from then on
    # their frame events at an instant run in the order 0, 2, 1, and their bursts go in that order
    "frame-event-order-on-a-shared-egress": (dict(decodes=(7_000_000_000,) * 3, shared=True, fps=(50, 25),
                                                  wobbly=(0, 2), seed=18), 27),
    # frames at 25 fps are ready 30,001 us after they start at level 1 and 60,000 us, the sync interval,
    # at level 0; the window at 240 ms, a sync time and an instant, moves the client to level 0.  The sync
    # at 240 ms runs before that instant's frame event, so the next sync runs before its ready at 300 ms;
    # a train that pushed this frame event early would run it, and so its ready, first
    "sync-time-after-a-level-change": (dict(sizes=((120, 50), (60, 50)), fps=(25, 25), pixels=6_000_000_000,
                                            encode=100_002, start_level=1, sync_interval=60_000,
                                            controller=dict(k_up=1, cooldown=0, window_us=240_000)), 2),
    # inputs take 16,667 us, the frame interval, on the clients' own paths, and each frame event sees the
    # input arriving at its microsecond, sent at the frame event before it: with inputs every 16,667 us the
    # input event there ran first, as it did at the start
    "tick-equal-to-the-interval": (dict(decodes=(7_000_000_000,) * 2, shared=True, tick=16_667,
                                        input_latency=16_666), 120),
    # the same trip with inputs every 2,381 us, a seventh of the interval: the input event at the frame
    # event before ran after it, so the input arriving at a frame event's microsecond is not seen
    "trip-equal-to-the-interval": (dict(decodes=(7_000_000_000,) * 2, shared=True, tick=2_381,
                                        input_latency=16_666), 120),
    # inputs take a tick more than the interval, so the one arriving at a frame event's microsecond was
    # sent before the frame event before it, and is seen
    "trip-above-the-interval": (dict(decodes=(7_000_000_000,) * 2, shared=True, tick=2_381,
                                     input_latency=19_047), 120),
    # nine 1080p clients on the shipped shared egress's 1 Gb/s, MTU 9,000 link: the path is idle 14,994 us
    # after each ready, but the last client's frame is presented 18,225 us after it starts, 1,558 us into
    # its next interval, so every train after the first takes over that client's frame still pending
    "nine-clients-on-a-shared-egress": (dict(decodes=(7_000_000_000,) * 9, shared=True, bandwidth=1_000_000_000,
                                             mtu=9_000, latency=2_000, encode=4_000_000_000,
                                             sizes=((1920, 1080),)), 504),
    # a 12.3 ms decode of the 96x64 level, 1.5 ms of the 32x24 one, and a 12 ms RTT that moves the client
    # down at the window at 500 ms: the train at 250,005 us presents frame 14, pending at the same level,
    # at 263,924 us, before its own first present; the one at 500,010 us finds the level-0 frame 29
    # presented at 513,929 us, after its first level-1 present at 509,085 us, which makes frame 29 stale
    "pending-frame-at-another-level": (dict(sizes=((96, 64), (32, 24)), fps=(60, 60), encode=500_000,
                                            decodes=(500_000,), latency=6_000), 43),
    # a 20.5 ms decode: each frame's outcome runs before the next frame starts and pushes its present
    # after it, so each window's train, such as the one at 250,005 us, takes over a frame whose present
    # event is pushed, here frame 14 presented at 254,928 us, and that event then finds it presented
    "pending-frame-with-its-present-pushed": (dict(decodes=(300_000,)), 56),
    # level 0 is ready 32 ms after a frame starts and level 1 1.3 ms, on a 16 ms shared link, and the window
    # at 23,334 us moves the client down: frame 1, started at 16,667 us, is submitted after frame 2, started
    # at 33,334 us.  At the train at 50,001 us both are pending, and frame 1 would be presented before the
    # train's first present, but its outcome comes after frame 2 completes, so it never completes
    "pending-frames-submitted-out-of-order": (dict(sizes=((160, 120), (32, 24)), fps=(60, 60), encode=600_000,
                                                   decodes=(25_000_000,), latency=16_000, shared=True,
                                                   input_latency=4_000, controller=dict(k_down=1, k_up=1, cooldown=0,
                                                                                       window_us=23_334)), 7),
    # the same with level 0 ready 16.6 ms after a frame starts and decoded in 9.6 ms, level 1 in 0.4 ms, on a
    # 17 ms link: frames 1 and 2 are pending at the train at 50,001 us in frame order, but frame 2 is
    # presented at 51,384 us, before frame 1 at 59,846 us, which makes frame 1 stale
    "pending-frames-presented-out-of-order": (dict(sizes=((160, 120), (32, 24)), fps=(60, 60), encode=1_160_000,
                                                   decodes=(2_000_000,), latency=17_000, shared=True,
                                                   input_latency=4_000, controller=dict(k_down=1, k_up=1, cooldown=0,
                                                                                       window_us=23_334)), 7),
    # `pending-frame-at-another-level` on a 1 Mb/s path: frame 29 still serializes at the first ready of the
    # train at 500,010 us, so the train admits that instant, and frame 29, presented at 519,097 us, comes after
    # the bounds below the train's first present, and after that present, frame 30's at 511,457 us
    "pending-frame-at-another-level-on-a-busy-path": (dict(sizes=((96, 64), (32, 24)), fps=(60, 60), encode=500_000,
                                                           decodes=(500_000,), latency=6_000, bandwidth=1_000_000),
                                                      41),
    # level 0 is ready 40,002 us after a frame starts and level 1 5,002 us, on a 10 ms path, and the window at
    # 30 ms moves the client down: frame 3, started at 50,001 us, is presented before frame 1, started at
    # 16,667 us, arrives at 66,677 us.  At the train at 66,668 us frame 1 is pending, its outcome yet to run,
    # but older than the presented frame 3, so it never completes, where a train taking it over would
    # present it as stale
    "pending-frame-that-never-completes": (dict(sizes=((96, 64), (32, 24)), fps=(60, 60), encode=153_600,
                                                latency=10_000, controller=dict(k_down=1, k_up=1, cooldown=0,
                                                                                window_us=30_000)), 30),
    # ten clients as nine: the egress drains only 7 us per instant before syncs, so trains admit 53 of
    # their 56 instants, whose readies find it busy, and count 3
    "ten-clients-on-a-shared-egress": (dict(decodes=(7_000_000_000,) * 10, shared=True, bandwidth=1_000_000_000,
                                            mtu=9_000, latency=2_000, encode=4_000_000_000, sizes=((1920, 1080),)),
                                       560),
    # eleven: an instant's bursts take 18,326 us, more than the interval, so the backlog grows until the
    # queue cuts frames, 73 of the 616 that trains settle
    "eleven-clients-on-a-shared-egress": (dict(decodes=(7_000_000_000,) * 11, shared=True, bandwidth=1_000_000_000,
                                               mtu=9_000, latency=2_000, encode=4_000_000_000,
                                               sizes=((1920, 1080),)), 616),
    # one client's 320x240 frames, six fragments, take 20,996 us at 3 Mb/s, more than the interval,
    # behind a 30,000 B queue on its own path: trains settle 43 frames, and the queue cuts 32 of them
    "cuts-on-a-clients-own-path": (dict(sizes=((320, 240),), bandwidth=3_000_000, queue=30_000,
                                        encode=4_000_000_000), 43),
    # 800x800 frames at 4 fps, 47 fragments 5,600 us apart at 2 Mb/s, each abandoned at its own late
    # fragment after the next frame's ready, which finds the path busy; a 1 s window lets one train
    # settle three, and syncs every 60 ms keep its next instants off sync times
    "abandoned-in-a-busy-train": (dict(sizes=((800, 800),), fps=(4,), bandwidth=2_000_000, queue=2_000_000,
                                       encode=4_000_000_000, sync_interval=60_000,
                                       controller=dict(window_us=1_000_000)), 3),
}


# each case as trains run it, and with `_instant` giving no ends, so that every instant is admitted for
# real, which settles the same frames
@pytest.mark.parametrize("case, busy", [pytest.param(case, busy, id=case + "-busy" * busy)
                                        for busy in (False, True) for case in _TRAIN_CASES])
def test_trains_match_frame_events(case, busy, monkeypatch):
    kwargs, settled = _TRAIN_CASES[case]
    args = _train_case(**kwargs)
    if busy:  # `_instant` without its ends
        idle = session._instant
        monkeypatch.setattr(session, "_instant", lambda *args: (None, *idle(*args)[1:]))
    assert _match_events(args, monkeypatch) == settled
    assert _window_states(args, True) == _window_states(args, False)


# The lead client's runs of one form in each train that settles frames, in order: "3c" for three instants
# counted by arithmetic, "1a" for one admitted to netem for real.  A train mixes them where a sync leaves
# the path busy at a ready, or its queue full, and the instants around that one find it idle.
_TRAIN_FORMS = {
    # the sync 1 us after every third ready does not fit the queue behind that instant's bursts, so the
    # instant after it is admitted
    "sync-inside-a-shared-group": ["1a 3c 1a 2c 1a 2c 1a 2c 1a 1c"] + ["1c 1a 2c 1a 2c 1a 2c 1a 2c 1a 1c"] * 3,
    # the sync at 0 still serializes at the first ready, 3 us, and the sync at 480,000 us has not
    # arrived by the last ready of the train from 250,005 us, which is admitted after the counted ones
    "sync-arriving-after-the-last-ready": ["1a 14c", "14c 1a", "15c", "15c"],
    # the sync before every third ready still serializes at it on the 1 Mb/s path
    "pending-frame-at-another-level-on-a-busy-path": ["13c", "13c", "1a 2c 1a 2c 1a 2c 1a 2c 1a 2c"],
    # the first train counts three instants; from the sync at 50,000 us on, every ready finds the path busy
    "ten-clients-on-a-shared-egress": ["3c 11a", "14a", "14a", "14a"],
}


@pytest.mark.parametrize("case", list(_TRAIN_FORMS))
def test_a_train_counts_or_admits_each_instant(case, monkeypatch):
    """`_settle` takes one run of instants of one form: an int for a counted run, the frames' fates
    for an admitted one."""
    forms, lead = [], []
    train, settle = session._Simulation._train, session._Simulation._settle

    def training(sim, t, st):
        forms.append([])
        lead[:] = [st]
        return train(sim, t, st)

    def settling(sim, st, t, k, interval, present):
        if st is lead[0]:
            forms[-1].append(f"{k}{'c' if present.__class__ is int else 'a'}")
        return settle(sim, st, t, k, interval, present)

    monkeypatch.setattr(session._Simulation, "_train", training)
    monkeypatch.setattr(session._Simulation, "_settle", settling)
    session.run_session(*_train_case(**_TRAIN_CASES[case][0]))
    assert [" ".join(runs) for runs in forms if runs] == _TRAIN_FORMS[case]


# 56 B inputs take 1 us to serialize at 448 Mb/s and 2 us at 224 Mb/s
_TIE_BANDWIDTH, _STEP_BANDWIDTH = 448_000_000, 224_000_000
# (fps, ticks per frame interval): ticks that divide the interval
_TIE_RATES = [(24, 1), (24, 3), (50, 1), (50, 2), (60, 1), (60, 7), (120, 1), (120, 13)]
_TIE_VARIANTS = {
    "plain": {},
    # every input but the first is sent after the step, so ties need its tx
    "step-at-0": {"steps": (session.BandwidthStep(0, _STEP_BANDWIDTH),), "tx": 2},
    # client 1's inputs stop tying 300 ms in; client 0's go on
    "targeted-step": {"steps": (session.BandwidthStep(300_000, _STEP_BANDWIDTH, (1,)),)},
    "lossy": {"link": {"loss_rate": 0.05}},
    "jittery": {"link": {"jitter": 3}},
    "client-hosted": {"hosted": True},
    "offset": {"start": 8_004},
}


def _tie_case(fps, per_frame, ahead, variant):
    """Two clients whose inputs arrive at a frame event's exact microsecond.

    The frame interval is `per_frame` ticks, and the one-way latency is
    `ahead` ticks less the input's serialization time, so that the input
    sent `ahead` ticks before each frame event arrives exactly at it: before
    the previous frame event when `ahead > per_frame`, at it when equal, and
    after it when less.
    """
    interval = round(1_000_000 / fps)
    tick = interval // per_frame
    assert tick * per_frame == interval
    v = _TIE_VARIANTS[variant]
    profile = NetworkProfile(one_way_latency=ahead * tick - v.get("tx", 1), bandwidth=_TIE_BANDWIDTH,
                             **v.get("link", {}))
    clients = tuple(session.ClientSpec(cid, profile) for cid in (0, 1))
    if v.get("hosted"):
        topology = session.SessionTopology("client_hosted", clients + (session.ClientSpec(2, profile),),
                                           master_id=2, master_uplink=profile)
    else:
        topology = session.SessionTopology("edge_hosted", clients,
                                           host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    ladder = (QualityLevel(0, 96, 64, fps, 0.8),)
    settings = session.SessionSettings(tick_us=tick, bandwidth_steps=v.get("steps", ()))
    return topology, ladder, 1_000_000, settings, 5, v.get("start", 0)


# each rate runs plain and two other variants in turn, so that every variant
# meets a rate with one tick per frame and a rate with several
_OTHER_VARIANTS = list(_TIE_VARIANTS)[1:]
_TIE_CASES = [(fps, per_frame, ahead, variant)
              for j, (fps, per_frame) in enumerate(_TIE_RATES)
              for ahead in sorted({max(per_frame - 1, 1), per_frame, per_frame + 1})
              for variant in ("plain", _OTHER_VARIANTS[j % 6], _OTHER_VARIANTS[(j + 1) % 6])]


def test_inputs_arriving_as_a_frame_starts_match_input_events(monkeypatch):
    """The tie rule of the session docstring against inputs delivered as events.

    Each case has inputs that arrive at a frame event's microsecond, sent
    before, at and after the previous frame event, with ticks that make the
    input and frame events at one microsecond run in either order.
    """
    settled = [_match_events(_tie_case(*case), monkeypatch) for case in _TIE_CASES]
    assert settled == _TIE_SETTLED  # trains read the inputs of the frames they settle as frame events do


# how many frames of each tie case trains settle, one row per rate: none on the lossy and jittery paths
_TIE_SETTLED = [40, 30, 40, 32, 24, 32,
                48, 48, 0, 40, 40, 0, 40, 40, 0,
                20, 0, 0, 20, 0, 0,
                20, 0, 20, 20, 0, 20, 20, 0, 20,
                112, 112, 112, 104, 104, 104,
                120, 120, 90, 112, 112, 84, 112, 112, 84,
                198, 172, 197, 192, 166, 191,
                198, 198, 0, 198, 197, 0, 192, 192, 0]


# Inputs go every 10 ms.  A 56 B input takes 1 us at the paths' 448 Mb/s,
# 10 ms at 44.8 kb/s and 1 ms at 448 kb/s, so a frame event (one every
# 8,333 us) falls between the arrivals the input sent at a step's exact
# microsecond would have at the old and the new rate, and its ready event
# carries that input as its latest or not.  Each case is a window length and
# the steps `(time, bandwidth, client_ids)`.
_INPUT_STEP_CASES = {
    "at-a-window": (250_000, ((500_000, 44_800, None),)),
    "before-a-window": (246_667, ((740_000, 44_800, None),)),  # the third window is at 740,001 us
    "two-at-one-instant": (250_000, ((500_000, 44_800, None), (500_000, 448_000, (1,)))),
    "at-0": (250_000, ((0, 44_800, None),)),
}


@pytest.mark.parametrize("case", list(_INPUT_STEP_CASES))
def test_inputs_sent_at_a_bandwidth_step_match_input_events(case, monkeypatch):
    """Each admission caps the inputs it submits before the client's next step, at a window or not."""
    window, steps = _INPUT_STEP_CASES[case]
    profile = NetworkProfile(one_way_latency=3_000, bandwidth=_TIE_BANDWIDTH)
    topology = session.SessionTopology("edge_hosted", tuple(session.ClientSpec(cid, profile) for cid in (0, 1)),
                                       host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    settings = session.SessionSettings(tick_us=10_000, controller=session.ControllerConfig(window_us=window),
                                       bandwidth_steps=tuple(session.BandwidthStep(*step) for step in steps))
    _match_events((topology, (QualityLevel(0, 96, 64, 120, 0.8),), 1_000_000, settings, 5, 0), monkeypatch)


# 24 B probes take 1 us to serialize at 192 Mb/s, so a PONG arrives 2 * (latency + 1) after its PING is sent
_PONG_BANDWIDTH = 192_000_000
_PONG_LINKS = {"plain": {}, "jittery": {"jitter": 2}, "lossy": {"loss_rate": 0.1}}
_PONG_CASES = [(window, interval, rtt, link, start)
               for window in (1_000, 2_000, 5_000, 10_000)
               for interval in (1_000, 2_000, 3_000, 5_000)
               for rtt in sorted({m * window + d * interval for m in (1, 2, 3) for d in (-1, 0, 1)})
               if rtt > 0
               for link in _PONG_LINKS
               for start in (0, 700)]


def _pong_case(window, interval, rtt, link, start):
    """One client whose PONGs come back `rtt` after their PINGs, on window microseconds.

    With the round trip a whole number of windows, plus or minus one ping
    interval, the PONGs of many PINGs arrive at a window event's exact
    microsecond, and their PINGs arrive before, at and after the window
    event one window earlier.
    """
    profile = NetworkProfile(one_way_latency=rtt // 2 - 1, bandwidth=_PONG_BANDWIDTH, **_PONG_LINKS[link])
    topology = session.SessionTopology("edge_hosted", (session.ClientSpec(0, profile),),
                                       host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    settings = session.SessionSettings(ping_interval_us=interval,
                                       controller=session.ControllerConfig(window_us=window))
    return topology, (QualityLevel(0, 96, 64, 24, 0.8),), 1_000_000, settings, 5, start


def _run_reading_srtt(args, cls, monkeypatch):
    """`run_session(*args)` with `cls`; returns its trace, its handled-event log, and each RTT
    sample applied and each srtt a window read, in the order they happened."""
    reads, detect, update = [], session.detect_bottleneck, RttEstimator.update

    def detecting(stats, *rest):
        reads.append(("srtt", stats.srtt))
        return detect(stats, *rest)

    def updating(estimator, sample):
        reads.append(("sample", sample))
        return update(estimator, sample)

    with monkeypatch.context() as m:
        m.setattr(session, "detect_bottleneck", detecting)
        m.setattr(RttEstimator, "update", updating)
        trace, log = _run_logged(lambda: session.run_session(*args), cls, monkeypatch)
    return trace, log, reads


def test_pongs_arriving_as_a_window_reads_match_pong_events(monkeypatch):
    """The PONG tie rule of the session docstring against PINGs and deliveries as events: each
    window applies the same samples before it reads the srtt."""
    for case in _PONG_CASES:
        args = _pong_case(*case)
        got = _run_reading_srtt(args, _Logged, monkeypatch)
        assert got == _run_reading_srtt(args, _Events, monkeypatch), case


class _ScriptedJitter:
    """A probe path's draws: no loss, and the jitter of the i-th datagram from `draws` (0 if absent)."""

    def __init__(self, draws):
        self.draws, self.count = draws, 0

    def next_unit(self):
        return 1.0

    def next_below(self, bound):
        self.count += 1
        return self.draws.get(self.count - 1, 0)


def test_a_pong_group_is_ordered_by_the_first_ping_of_its_arrival(monkeypatch):
    """The tie rule reads S off the first PING to arrive at P, not off the PONG's own PING.

    PINGs go every 100 us and windows every 500 us.  The PING sent at 900 us
    is delayed to 1,500 us, and the five after it are clamped to that
    arrival.  The PONG of the one sent at 900 us arrives at 1,501 us, and the
    PONG of the one sent at `sent` is delayed to 2,000 us, the next window's
    microsecond; the rest are clamped to it.  The first PONG arriving at
    2,000 us belongs to the PING sent at 1,000 us = P - w, or to the one
    sent at 1,100 us, which a window-by-window admission (a `_BLOCK` of 1)
    submits at the window at 1,500 us apart from the two before it, but the
    arrive event that submitted it was pushed at 900 us, before the window at
    1,500 us, so the window at 2,000 us sees the group.  Each case runs with
    that admission and with the block one.
    """
    profile = NetworkProfile(one_way_latency=0, jitter=600, bandwidth=_PONG_BANDWIDTH)
    topology = session.SessionTopology("edge_hosted", (session.ClientSpec(0, profile),),
                                       host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    settings = session.SessionSettings(ping_interval_us=100, controller=session.ControllerConfig(window_us=500))
    args = topology, (QualityLevel(0, 96, 64, 24, 0.8),), 1_000_000, settings, 5, 0
    for block in (1, session._BLOCK):
        monkeypatch.setattr(session, "_BLOCK", block)
        for pong, sent in ((10, 1_000), (11, 1_100)):
            runs = []
            for cls in (_Logged, _Events):
                class Scripted(cls):
                    def __init__(self, *args, **kwargs):
                        super().__init__(*args, **kwargs)
                        self.clients[0].up_probe.rng = _ScriptedJitter({9: 599})
                        # PONG 9, the first submitted at 1,500 us, ends its 1 us serialization at 1,501 us
                        self.clients[0].down_probe.rng = _ScriptedJitter({pong: 2_000 - (1_500 + pong - 8)})
                runs.append(_run_reading_srtt(args, Scripted, monkeypatch))
            assert runs[0] == runs[1], (block, sent)
            reads = runs[0][2]
            assert reads.index(("sample", 2_000 - sent)) < [i for i, read in enumerate(reads) if read[0] == "srtt"][3]
