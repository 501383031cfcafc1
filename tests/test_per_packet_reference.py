"""The frame datapath against a per-packet reference receiver.

`_PerPacket` runs the simulator the way a receiver that sees every packet
would: each frame is fragmented and encoded on the wire format, each
fragment is a separate submission with its own "arrive" event, and each
client reassembles through a real `transport.Reassembler`, swept at every
controller window.  The production session carries a frame as a burst of
sizes with one outcome event.  Both must give the same trace and handle the
same events in the same order, including jittery paths where a whole frame
arrives at the clamped arrival of an earlier packet.

`_WireMessages` runs the small messages the same way: input, PING/PONG and
state sync are encoded on the wire format, with `synthetic_input` poses and
per-sender sequence numbers, and decoded on arrival.  The production session
carries each as a `(MsgType, client_id, timestamp)` record of its wire size.
"""

import heapq
from pathlib import Path

import pytest

from capture_goldens import apply_overrides
from epicsim import netem, orchestrator, session
from epicsim.model import NetworkProfile, NodeSpec, QualityLevel, frame_bytes
from epicsim.netem import Drop
from epicsim.render import decode_time_us
from epicsim.transport import (
    MsgType,
    Reassembler,
    WireHeader,
    decode_fragment,
    decode_message,
    encode_fragment,
    encode_input_payload,
    encode_message,
    fragment,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class _Logged(session._Simulation):
    """Logs every handled event and every frame resolution, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self.frame_path_ids = {id(path) for path in self.down_frames.values()}
        self.path_names = {id(r.path): r.name for r in self.paths}

    def _drop_frame(self, cid, fid, reason):
        if self.frame_states[(cid, fid)].status == "pending":
            self.log.append(("drop", cid, fid, reason))
        super()._drop_frame(cid, fid, reason)

    def push(self, t, kind, *args):
        if kind == "present":
            self.log.append(("complete", t, *args))
        super().push(t, kind, *args)

    def handled(self, t, kind, args):
        if kind == "outcome" or (kind == "arrive" and id(args[0]) in self.frame_path_ids):
            return  # frame deliveries: the reference has one per packet, production one per frame
        self.log.append((t, kind, *(self.path_names.get(id(a), a) for a in args)))


class _PerPacket(_Logged):
    """Per-fragment submissions and arrive events, reassembly by Reassembler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reassemblers = {cid: Reassembler() for cid in self.clients}
        self.levels = {}

    def _on_ready(self, t, cid, fid, level_idx, input_origin):
        self.levels[(cid, fid)] = level_idx
        size = frame_bytes(self.ladder[level_idx])
        path = self.down_frames[cid]
        self.frame_states[(cid, fid)] = session._FrameState(input_origin, size * 8)
        self.clients[cid].frames.sent += 1
        for frag in fragment(fid, bytes(size), path.profile.mtu):
            result = path.submit(encode_fragment(cid, 0, t, frag), t)
            if isinstance(result, Drop):
                self._drop_frame(cid, fid, "fragment_" + result.value)
            else:
                self.push(result, "arrive", path)

    def _on_sync(self, t):
        payload = bytes(self.settings.sync_payload_bytes)
        for cid, path in self.down_frames.items():
            header = WireHeader(MsgType.STATE_SYNC, cid, 0, t)
            self._submit(path, encode_message(header, payload), t)
        if t + self.settings.sync_interval_us <= self.end:
            self.push(t + self.settings.sync_interval_us, "sync")

    def _on_arrive(self, t, path):
        if id(path) not in self.frame_path_ids:
            return super()._on_arrive(t, path)
        for data, at in path.advance_to(t):
            header, payload = decode_message(data)
            if header.msg_type != MsgType.FRAME_FRAG:
                continue
            cid = header.session_id
            event = self.reassemblers[cid].offer(decode_fragment(payload), at)
            for fid in event.abandoned:
                self._drop_frame(cid, fid, "reassembly_abandoned")
            if event.completed is not None:
                fid = event.completed[0]
                st = self.clients[cid]
                if self.frame_states[(cid, fid)].status == "pending":
                    level = self.ladder[self.levels[(cid, fid)]]
                    self.push(at + decode_time_us(level, st.spec.decode_throughput), "present", cid, fid)

    def _on_window(self, t):
        super()._on_window(t)
        for cid, reassembler in self.reassemblers.items():
            for fid in reassembler.sweep(t):
                self._drop_frame(cid, fid, "reassembly_abandoned")


class _WireMessages(_Logged):
    """Small messages as wire bytes: encoded on submit, decoded on arrival."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sequences = {}
        self.inputs_sent = dict.fromkeys(self.clients, 0)

    def _encode(self, side, msg_type, cid, t, payload=b""):
        """One message, numbered per sender side, session and type."""
        key = (side, cid, msg_type)
        sequence = self.sequences.get(key, 0)
        self.sequences[key] = sequence + 1
        return encode_message(WireHeader(msg_type, cid, sequence, t), payload)

    def _on_input(self, t, cid):
        pose = session.synthetic_input(t, self.inputs_sent[cid])
        self.inputs_sent[cid] += 1
        self._submit(self.up_data[cid], self._encode("c", MsgType.INPUT, cid, t, encode_input_payload(pose)), t)
        if t + self.settings.tick_us <= self.end:
            self.push(t + self.settings.tick_us, "input", cid)

    def _on_ping(self, t, cid):
        self._submit(self.up_probe[cid], self._encode("c", MsgType.PING, cid, t), t)
        if t + self.settings.ping_interval_us <= self.end:
            self.push(t + self.settings.ping_interval_us, "ping", cid)

    def _on_sync(self, t):
        payload = bytes(self.settings.sync_payload_bytes)
        for cid, path in self.down_frames.items():
            before = path.last_arrival
            path.submit(self._encode("h", MsgType.STATE_SYNC, cid, t, payload), t)
            if path.last_arrival != before:
                self._seq += 1
                self.arrival_seq[id(path)] = self._seq
        if t + self.settings.sync_interval_us <= self.end:
            self.push(t + self.settings.sync_interval_us, "sync")

    def _on_arrive(self, t, path):
        for data, at in path.advance_to(t):
            header, _ = decode_message(data)
            cid = header.session_id
            if header.msg_type == MsgType.INPUT:
                self.host_input_origin[cid] = header.timestamp
            elif header.msg_type == MsgType.PING:
                pong = WireHeader(MsgType.PONG, cid, header.sequence, header.timestamp)
                self._submit(self.down_probe[cid], encode_message(pong), at)
            elif header.msg_type == MsgType.PONG:
                sample = at - header.timestamp
                self.clients[cid].estimator.update(sample)
                self.clients[cid].rtt.append(sample)


def _run(cfg, cls, monkeypatch):
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
        result = orchestrator.run_scenario(cfg)
    return result.trace, sims[-1].log


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
    # encoding slower than the frame interval: after a downgrade the next,
    # smaller frame is ready first, completes first, and the older frame's
    # fragments all arrive stale, so it never resolves
    "slow-encode": ("edge-nominal.json", None, {
        "doc": {"duration": 1_500_000, "events": [{"time": 500_000, "bandwidth": 60_000_000}],
                "nodes": [{"node_id": 1, "pixel_throughput": 5_000_000_000, "encode_throughput": 10_000_000}],
                "controller": {"enabled": True, "start_level": 0, "window": 100_000}},
        "paths": {"loss_rate": 0.0005, "queue_capacity": 8_000_000}}),
}


# the shipped scenarios, whose paths are draw-free, shortened to 1 s
WIRE_CASES = {
    **CASES,
    "edge-nominal": ("edge-nominal.json", None, {"doc": {"duration": 1_000_000}}),
    "master-server": ("master-server.json", None, {"doc": {"duration": 1_000_000}}),
    "shared-egress": ("shared-egress.json", 4, {"doc": {"duration": 1_000_000}}),
}


def _config(case, seed):
    scenario, n, overrides = WIRE_CASES[case]
    doc = apply_overrides(orchestrator.load_scenario(str(SCENARIOS / scenario)).raw, overrides)
    cfg = orchestrator.parse_scenario(dict(doc, seed=seed))
    return cfg if n is None else orchestrator.scale_clients(cfg, n)


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_frame_datapath_matches_per_packet_reference(case, seed, monkeypatch):
    cfg = _config(case, seed)
    trace, log = _run(cfg, _Logged, monkeypatch)
    ref_trace, ref_log = _run(cfg, _PerPacket, monkeypatch)
    assert trace == ref_trace
    assert log == ref_log


@pytest.mark.parametrize("case", list(WIRE_CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_message_records_match_the_wire_byte_path(case, seed, monkeypatch):
    cfg = _config(case, seed)
    trace, log = _run(cfg, _Logged, monkeypatch)
    ref_trace, ref_log = _run(cfg, _WireMessages, monkeypatch)
    assert trace == ref_trace
    assert log == ref_log


def test_each_record_has_the_wire_size_of_its_message(monkeypatch):
    sizes = {}
    submit = netem.Path.submit

    def recording(path, data, now, size=None):
        if size is not None:
            sizes.setdefault(data[0], set()).add(size)
        return submit(path, data, now, size)

    monkeypatch.setattr(netem.Path, "submit", recording)
    doc = orchestrator.load_scenario(str(SCENARIOS / "shared-egress.json")).raw
    orchestrator.run_scenario(orchestrator.parse_scenario(dict(doc, state_sync_bytes=300)))
    payloads = {MsgType.INPUT: encode_input_payload(session.synthetic_input(0, 0)),
                MsgType.PING: b"", MsgType.PONG: b"", MsgType.STATE_SYNC: bytes(300)}
    assert sizes == {kind: {len(encode_message(WireHeader(kind, 0, 0, 0), payload))}
                     for kind, payload in payloads.items()}


def _drive_clamped_frame(cls):
    """A frame clamped to an earlier packet's arrival, with a window at that microsecond.

    A state-sync message leaves with a large jitter draw; a window is then
    scheduled for its arrival time; then a one-fragment frame is submitted
    whose own draw is small, so it is clamped to the sync's arrival.  A
    per-packet receiver sees the frame in the sync's arrive event, which was
    scheduled before the window.
    """
    profile = NetworkProfile(one_way_latency=2_000, jitter=1_000_000, bandwidth=700_000_000)
    topology = session.SessionTopology("edge_hosted", (session.ClientSpec(0, profile),),
                                       host_node=NodeSpec(1, 5_000_000_000, 4_000_000_000))
    ladder = tuple(QualityLevel(**level) for level in TINY_LADDER)
    sim = cls(topology, ladder, 1_000_000, session.SessionSettings(), 3, 0)
    path = sim.down_frames[0]
    sim._on_sync(0)
    arrival = path.last_arrival
    sim.push(arrival, "window")
    sim._on_ready(10, 0, 0, 0, None)
    assert path.last_arrival == arrival  # the frame was clamped
    while sim.heap:
        t, _, kind, args = heapq.heappop(sim.heap)
        sim.handled(t, kind, args)
        getattr(sim, sim._HANDLERS[kind])(t, *args)
    return sim.log, arrival


def test_clamped_frame_resolves_where_the_earlier_packet_arrived():
    log, arrival = _drive_clamped_frame(_Logged)
    ref_log, _ = _drive_clamped_frame(_PerPacket)
    assert log == ref_log
    assert log.index(("complete", arrival + 1, 0, 0)) < log.index((arrival, "window"))
