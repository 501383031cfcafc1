"""The session against the all-events reference on generated scenarios.

Each document is drawn with `random.Random(seed)` from one of the five
shipped scenarios, and must parse: one that does not is a bug of the
generator.  `_document` varies the latency, jitter, loss, bandwidth, queue
and MTU of every path, the tick, ping, sync and window intervals down to
100 us and 2 ms, `prerender`, the tiny ladder, the decode rate, the start
level, and bandwidth steps at 0, at 1 us and mid-run, some targeting one
client; a shared egress or master uplink carries 2-4 clients.
`_tie_document` builds the tie corners as `_tie_case` does: ticks that
divide the frame interval, a latency of `k * tick - tx` for the input sent
`k` ticks before a frame event, and windows and ping intervals that are
whole ticks, so that inputs arrive at frame events and PONGs at windows.
In some of them (9 of the 40) every path is slow and the first level's
frames are 51 full fragments whose last arrives exactly the reassembly
timeout after the first, so they complete, where a last fragment one
microsecond later would abandon them; inputs still arrive at frame events.
`_train_document` keeps every frame path free of loss and jitter, so that
frame trains run, with a ladder of frame rates that divide one another and
a controller that moves at every 100 ms window that asks for it; on a shared
link the even ids' own paths are often jittery around the RTT budget, so
their levels, and the order of the frame events at one instant, move apart,
and in some documents the shared link is 12 or 30 ms long, so that frames
arrive, and are presented, after their clients' next frames start.

Production and `_Events` must give the same trace and the same logs (the
handled events, each client's presents, and the RTT samples and frame
counts each window reads), or raise the same `NoPong`.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from epicsim import orchestrator
from epicsim.model import DEFAULT_LADDER, ceil_div
from epicsim.transport import HEADER_LEN, INPUT_PAYLOAD_LEN, REASSEMBLY_TIMEOUT_US, fragment_capacity
from test_per_packet_reference import TINY_LADDER, _Events, _Logged, _run

SHIPPED = {path.stem: json.loads(path.read_text())
           for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))}
DURATION = 1_000_000
# full 1,400 B fragments take 5 ms at 2.24 Mb/s, so a frame of 51 of them, sent on an
# idle or a busy path, has its last fragment arrive exactly the reassembly timeout after its first
_TIMEOUT_BANDWIDTH, _TIMEOUT_MTU, _TIMEOUT_TX = 2_240_000, 1_400, 5_000


def _base(rng, receivers):
    """A deep copy of a shipped scenario, cut to DURATION, with `receivers` copies of its
    first client as ids 0..n-1, plus a master drawn among them when it is client-hosted."""
    doc = copy.deepcopy(SHIPPED[rng.choice(sorted(SHIPPED))])
    n = receivers + (doc["topology"]["mode"] == orchestrator.CLIENT_HOSTED)
    doc["clients"] = [dict(copy.deepcopy(doc["clients"][0]), id=i) for i in range(n)]
    if "master" in doc["topology"]:
        doc["topology"]["master"] = rng.randrange(n)
    doc.update(seed=rng.randrange(1_000), duration=DURATION)
    return doc


def _profiles(doc):
    """Every client path profile, and the shared egress or master uplink if there is one."""
    for entry in doc["clients"]:
        paths = entry["paths"]
        yield from [paths] if "bandwidth" in paths else paths.values()
    link = doc.get("shared_egress") or doc["topology"].get("master_uplink")
    if link is not None:
        yield link


def _bandwidth(rng):
    return int(10 ** rng.uniform(6.7, 9))  # 5 Mb/s to 1 Gb/s


def _step(rng, clients):
    step = {"time": rng.choice((0, 1, rng.randrange(2, DURATION))), "bandwidth": _bandwidth(rng)}
    if rng.random() < 0.4:
        step["clients"] = [rng.choice(clients)["id"]]
    return step


def _document(seed):
    rng = random.Random(seed)
    doc = _base(rng, rng.randint(2, 4) if rng.random() < 0.5 else 1)
    if doc["topology"]["mode"] == orchestrator.EDGE_HOSTED and len(doc["clients"]) > 1 and rng.random() < 0.5:
        doc["shared_egress"] = dict(doc["clients"][0]["paths"].get("1", doc["clients"][0]["paths"]))
    for profile in _profiles(doc):
        profile.update(one_way_latency=rng.choice((0, 500, 2_000, 15_000, 40_000)), bandwidth=_bandwidth(rng))
        if rng.random() < 0.5:
            profile["jitter"] = rng.choice((1, 300, 3_000, 20_000))
        if rng.random() < 0.5:
            profile["loss_rate"] = rng.choice((0.0005, 0.005, 0.05))
        if rng.random() < 0.3:
            profile["queue_capacity"] = rng.choice((1, 4, 1_000)) * profile["mtu"]
        elif rng.random() < 0.15:  # a frame's fragments spread over more than the reassembly timeout
            profile.update(bandwidth=rng.choice((2_000_000, 3_000_000)), mtu=32_000, queue_capacity=2_000_000)
    for entry in doc["clients"]:
        if rng.random() < 0.3:
            entry["decode_throughput"] = rng.choice((3_072_000, 20_000_000, 300_000_000))
    for key, choices in (("tick", (250, 1_000, 4_000, 16_667)), ("ping_interval", (300, 2_500, 33_333)),
                         ("sync_interval", (1_000, 20_000)), ("state_sync_bytes", (0, 1, 1_000))):
        if rng.random() < 0.4:
            doc[key] = rng.choice(choices)
    if len(doc["clients"]) <= 2 and rng.random() < 0.3:  # 10,000 messages per client, each an event in _Events
        doc[rng.choice(("tick", "ping_interval", "sync_interval"))] = 100
    if rng.random() < 0.3:
        doc["ladder"] = TINY_LADDER
    controller = doc.setdefault("controller", {})
    controller.update(enabled=rng.random() < 0.7, start_level=rng.randrange(len(doc.get("ladder", DEFAULT_LADDER))))
    if rng.random() < 0.5:
        controller["window"] = rng.choice((2_000, 5_000, 30_000, 250_000))
    doc["prerender"] = rng.randint(0, 1)
    doc["events"] = [_step(rng, doc["clients"]) for _ in range(rng.choice((0, 0, 1, 2)))]
    return doc


def _tie_document(seed):
    rng = random.Random(seed)
    doc = _base(rng, rng.randint(1, 3))
    fps = rng.choice((24, 50, 60, 120))
    interval = round(1_000_000 / fps)
    per_frame = rng.choice([d for d in range(1, 16) if interval % d == 0 and interval // d >= 100])
    tick = interval // per_frame
    ahead = rng.choice(sorted({max(per_frame - 1, 1), per_frame, per_frame + 1}))
    # 56 B inputs and 24 B probes both take 1 us at 448 Mb/s and up, so a PONG returns after 2 * ahead ticks
    bandwidth = input_bandwidth = rng.choice((224_000_000, 448_000_000, 1_000_000_000))
    if rng.random() < 0.5:
        step = _step(rng, doc["clients"])
        doc["events"] = [step]
        if step["time"] == 0 and "clients" not in step:  # every input but the first is sent after it
            input_bandwidth = step["bandwidth"]
    tx = ceil_div((HEADER_LEN + INPUT_PAYLOAD_LEN) * 8_000_000, input_bandwidth)
    for profile in _profiles(doc):
        profile.update(one_way_latency=ahead * tick - tx, bandwidth=bandwidth,
                       jitter=rng.choice((0, 0, 0, 1, 3)), loss_rate=rng.choice((0.0, 0.0, 0.05)))
    doc["ladder"] = [dict(level, fps=fps) for level in TINY_LADDER[:rng.randint(1, 2)]]
    # a window of `ahead` ticks is the probes' one-way trip, so PINGs too arrive at windows
    window = tick * rng.choice((ahead, rng.randint(1, 8)))
    doc.update(tick=tick, ping_interval=rng.choice((window, tick * rng.randint(1, 4))))
    doc["controller"] = {"enabled": rng.random() < 0.5, "start_level": 0, "window": window}
    input_tx = ceil_div((HEADER_LEN + INPUT_PAYLOAD_LEN) * 8_000_000, _TIMEOUT_BANDWIDTH)
    if ahead * tick >= input_tx and rng.random() < 0.3:  # drawn last: the other documents stay as they were
        doc.pop("events", None)
        for profile in _profiles(doc):
            profile.update(one_way_latency=ahead * tick - input_tx, bandwidth=_TIMEOUT_BANDWIDTH, mtu=_TIMEOUT_MTU,
                           queue_capacity=2_000_000, jitter=0, loss_rate=0.0)
        doc["ladder"][0] = dict(level_index=0, width=fragment_capacity(_TIMEOUT_MTU),
                                height=REASSEMBLY_TIMEOUT_US // _TIMEOUT_TX + 1, fps=fps, bpp=8)
    return doc


def _train_document(seed):
    """A document whose frame paths are free of loss and jitter, so that trains run on them, with a
    ladder of frame rates that divide one another and a controller that moves at every window that
    asks for it.  On a shared egress or master uplink some clients' own paths are jittery around the
    RTT budget, so their levels, and the order of their frame events at one instant, move apart, and
    the shared link may be longer than a frame interval, so that presents lag their next frames."""
    rng = random.Random(seed)
    doc = _base(rng, rng.randint(2, 4))
    if doc["topology"]["mode"] == orchestrator.EDGE_HOSTED and rng.random() < 0.7:
        doc["shared_egress"] = dict(doc["clients"][0]["paths"].get("1", doc["clients"][0]["paths"]))
    shared = doc.get("shared_egress") or doc["topology"].get("master_uplink")
    for profile in _profiles(doc):
        profile.update(one_way_latency=rng.choice((100, 2_000)), jitter=0, loss_rate=0.0, mtu=1_400,
                       bandwidth=rng.choice((20_000_000, 700_000_000)))
        profile.pop("queue_capacity", None)
        if rng.random() < 0.2:
            profile["queue_capacity"] = rng.choice((2, 3)) * 1_400
    wobbly = shared is not None and rng.random() < 0.6  # even ids see 5.6 to 8.6 ms RTT samples
    for entry in doc["clients"]:
        paths = entry["paths"]
        for profile in [paths] if "bandwidth" in paths else paths.values():
            if wobbly and entry["id"] % 2 == 0:
                profile.update(one_way_latency=2_800, jitter=1_500)
        if rng.random() < 0.3:
            entry["decode_throughput"] = rng.choice((3_072_000, 300_000_000))
    rates = rng.choice(((50, 25), (40, 20), (100, 50, 25)))
    scale = rng.choice((1, 1, 4))  # frames of one or two 1,400 B fragments
    doc["ladder"] = [dict(level_index=i, width=(96 - 16 * i) * scale, height=64 - 16 * i, fps=fps, bpp=0.8)
                     for i, fps in enumerate(rates)]
    doc["controller"] = dict(enabled=rng.random() < 0.7, start_level=0, k_down=1, k_up=1, cooldown=0,
                             window=100_000)
    doc.update(ping_interval=20_000, sync_interval=rng.choice((33_334, 50_000, 990_001)),
               prerender=rng.randint(0, 1))
    doc["events"] = [_step(rng, doc["clients"]) for _ in range(rng.choice((0, 0, 1)))]
    if shared is not None and rng.random() < 0.3:  # frames arrive after their clients' next frames start
        shared["one_way_latency"] = rng.choice((12_000, 30_000))
    return doc


def _outcome(cfg, cls, monkeypatch):
    """The run's trace and logs, or the failure it raised."""
    try:
        return _run(cfg, cls, monkeypatch)
    except orchestrator.NoPong as exc:
        return repr(exc)


@pytest.mark.parametrize("make, seed", [(make, seed) for make in (_document, _tie_document, _train_document)
                                        for seed in range(40)])
def test_generated_scenario_matches_the_all_events_reference(make, seed, monkeypatch):
    cfg = orchestrator.parse_scenario(make(seed))  # a document that does not parse is a generator bug
    assert _outcome(cfg, _Logged, monkeypatch) == _outcome(cfg, _Events, monkeypatch)
