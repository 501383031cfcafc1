"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines alongside the measured values.
"""

import copy
import json
import math
import random
import time
import zlib
from pathlib import Path

import pytest

from epicsim import orchestrator
from epicsim.kpi import queue_drops_growing
from epicsim.livenet import EchoServer, live_probe
from epicsim.model import DEFAULT_LADDER, NetworkProfile, NodeSpec, bitrate
from epicsim.netem import Drop, Path as NetemPath
from epicsim.power import DEVICE_DECODE_THROUGHPUT, DEVICE_PIXEL_THROUGHPUT
from epicsim.session import ClientSpec, SessionSettings, compare_topologies
from epicsim.transport import (
    MsgType,
    Reassembler,
    WireHeader,
    decode_message,
    encode_message,
    fragment,
    fragment_capacity,
)
from reference_netem import reference_simulate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _scenario(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text())


def test_criterion_1_rtt_classification():
    cfg = orchestrator.parse_scenario(_scenario("edge-nominal.json"))
    t0 = time.perf_counter()
    result = orchestrator.run_scenario(cfg)
    wall = time.perf_counter() - t0
    expected = 2 * (2_000 + 1)  # stated as ~4001 us; probe serialization rounds to 1 us
    rtt = result.report.rtt_p95
    ok = (abs(rtt - 4_001) / 4_001 <= 0.02
          and rtt == expected
          and result.report.pass_rtt is True
          and wall < 5.0)
    _verdict("criterion-1 rtt", ok,
             f"rtt_p95={rtt}us (target 4001±2%), pass_rtt={result.report.pass_rtt}, wall={wall:.2f}s")


def _bandwidth_doc(n_clients: int) -> dict:
    doc = _scenario("edge-nominal.json")
    doc["name"] = f"bandwidth-{n_clients}"
    doc["duration"] = 3_000_000
    template = copy.deepcopy(doc["clients"][0])
    template["paths"]["1"]["mtu"] = 9_000
    doc["clients"] = []
    for i in range(n_clients):
        entry = copy.deepcopy(template)
        entry["id"] = i
        doc["clients"].append(entry)
    return doc


def test_criterion_2_bandwidth_classification():
    eight = orchestrator.run_scenario(orchestrator.parse_scenario(_bandwidth_doc(8))).report
    five = orchestrator.run_scenario(orchestrator.parse_scenario(_bandwidth_doc(5))).report
    expected = 8 * 99_532_800  # 796,262,400 b/s
    ok = (abs(eight.aggregate_throughput - expected) / expected <= 0.02
          and eight.pass_bandwidth is True
          and five.pass_bandwidth is False)
    _verdict("criterion-2 bandwidth", ok,
             f"8 clients: {eight.aggregate_throughput} b/s (target {expected}±2%, "
             f"pass={eight.pass_bandwidth}); 5 clients: {five.aggregate_throughput} b/s "
             f"(pass={five.pass_bandwidth})")


def test_criterion_3_battery_classification():
    # independent evaluation of the power formulas at the default operating point
    level = DEFAULT_LADDER[0]
    u_render = min(1.0, level.pixels / DEVICE_PIXEL_THROUGHPUT * level.fps)
    u_decode = min(1.0, level.pixels / DEVICE_DECODE_THROUGHPUT * level.fps)
    p_local = 3.0 + 4.5 * u_render
    p_off = 3.0 + 1.2 + 0.8 * u_decode
    expected_gain = round((p_local / p_off - 1.0) * 100.0, 3)

    cfg = orchestrator.parse_scenario(_scenario("edge-nominal.json"))
    gain = orchestrator.scenario_battery_gain(cfg)
    report = orchestrator.run_scenario(
        orchestrator.parse_scenario(dict(_scenario("edge-nominal.json"), duration=1_000_000))).report

    hot = _scenario("edge-nominal.json")
    hot["duration"] = 1_000_000
    hot["clients"][0]["power"] = {"p_radio": 2.7}
    flipped = orchestrator.run_scenario(orchestrator.parse_scenario(hot)).report

    ok = (round(gain, 3) == expected_gain == 50.0
          and (p_local, p_off) == (7.5, 5.0)
          and report.pass_battery is True
          and flipped.pass_battery is False)
    _verdict("criterion-3 battery", ok,
             f"gain={gain:.1f}% from {p_local}W vs {p_off}W (pass={report.pass_battery}); "
             f"p_radio=2.7W gives {flipped.battery_gain:.2f}% (pass={flipped.pass_battery})")


def test_criterion_4_determinism():
    names = ["edge-nominal.json", "bandwidth-step.json", "shared-egress.json",
             "master-server.json", "compression-sweep.json"]
    diffs = []
    for name in names:
        cfg = orchestrator.parse_scenario(_scenario(name))
        a = orchestrator.run_scenario(cfg)
        b = orchestrator.run_scenario(cfg)
        if orchestrator.report_to_json(a.report) != orchestrator.report_to_json(b.report):
            diffs.append(name + " (report)")
        if a.trace != b.trace:
            diffs.append(name + " (trace)")
    _verdict("criterion-4 determinism", not diffs,
             f"{len(names)} scenarios x 2 runs, diffs={diffs or 'none'}")


def test_criterion_5_netem_oracle_equivalence():
    gen = random.Random(0xACE5)
    total = 0
    mismatches = 0
    for _ in range(25):
        profile = NetworkProfile(
            one_way_latency=gen.randrange(0, 5_000),
            jitter=gen.choice([0, gen.randrange(1, 1_000)]),
            loss_rate=gen.choice([0.0, 0.05, 0.25]),
            bandwidth=gen.randrange(20_000_000, 900_000_000),
            mtu=1400,
            queue_capacity=gen.randrange(1_400, 11_200),
        )
        seed = gen.getrandbits(64)
        times = sorted(gen.randrange(0, 20_000) for _ in range(40))
        submissions = [(t, gen.randrange(1, 1_400)) for t in times]
        total += len(submissions)
        path = NetemPath(profile, seed)
        got = []
        for t, size in submissions:
            outcome = path.submit(bytes(size), t)
            if isinstance(outcome, int):
                got.append(("delivered", outcome))
            else:
                got.append(("loss",) if outcome is Drop.LOSS else ("queue",))
        if got != reference_simulate(profile, seed, submissions):
            mismatches += 1
    _verdict("criterion-5 netem oracle", total == 1_000 and mismatches == 0,
             f"{total} packets over 25 random profiles, mismatching trials={mismatches}")


def test_criterion_6_transport_roundtrips():
    gen = random.Random(0x7AB5)
    # 10,000 randomized messages survive encode/decode
    bad = 0
    for _ in range(10_000):
        header = WireHeader(
            msg_type=gen.choice(list(MsgType)),
            session_id=gen.getrandbits(32),
            sequence=gen.getrandbits(32),
            timestamp=gen.getrandbits(64),
            flags=gen.getrandbits(8),
        )
        payload = gen.randbytes(gen.randrange(0, 256))
        back, data = decode_message(encode_message(header, payload))
        if back != header or data != payload:
            bad += 1

    # 1,000 payloads up to 10 MB survive fragment/shuffle/reassemble with CRC intact
    crc_bad = 0
    sizes = [10_000_000] + [int(10 ** gen.uniform(0.5, 7)) for _ in range(999)]
    for size in sizes:
        mtu = gen.choice([512, 1_400, 9_000])
        if -(-size // fragment_capacity(mtu)) > 65_535:
            mtu = 9_000
        payload = gen.randbytes(size)
        frags = fragment(1, payload, mtu)
        order = list(range(len(frags)))
        gen.shuffle(order)
        reassembler = Reassembler()
        rebuilt = None
        for i in order:
            event = reassembler.offer(frags[i], 0)
            if event.completed:
                rebuilt = event.completed[1]
        if rebuilt != payload or zlib.crc32(rebuilt) != zlib.crc32(payload):
            crc_bad += 1

    golden = bytes.fromhex("45504943" "01" "03" "00" "00" "00000001" "00000007"
                           "00000000000003E8")
    golden_ok = encode_message(WireHeader(MsgType.PING, 1, 7, 1_000)) == golden
    ok = bad == 0 and crc_bad == 0 and golden_ok
    _verdict("criterion-6 transport", ok,
             f"10000 msgs ({bad} bad), 1000 payloads ({crc_bad} bad), golden={golden_ok}")


def test_criterion_7_controller_convergence():
    cfg = orchestrator.parse_scenario(_scenario("bandwidth-step.json"))
    result = orchestrator.run_scenario(cfg)
    trace = result.trace
    step_at = trace.session_start + 5_000_000
    new_rate = 30_000_000
    # highest quality (lowest index) whose demand fits within 0.9x the new rate
    target = min(lv.level_index for lv in DEFAULT_LADDER if bitrate(lv) <= 0.9 * new_rate)
    changes = trace.level_changes
    ok = (trace.final_levels[0] == target == 3
          and [c.new_level for c in changes] == [1, 2, 3]
          and all(c.time > step_at for c in changes)
          and changes[-1].time <= step_at + 5_000_000)
    settle_s = (changes[-1].time - step_at) / 1e6 if changes else float("nan")
    _verdict("criterion-7 controller", ok,
             f"settled at L{trace.final_levels[0]} ({bitrate(DEFAULT_LADDER[3])} b/s <= "
             f"0.9x30Mb/s) {settle_s:.2f}s after the step, changes={[c.new_level for c in changes]}")


def test_criterion_8_load_and_stress_searches():
    cfg = orchestrator.parse_scenario(_scenario("shared-egress.json"))
    n_max = 16

    def load_pred(report):
        return report.rtt_p95 <= 7_000 and report.loss_rate <= 0.02

    def congested(report, trace):
        return report.loss_rate > 0.05 or queue_drops_growing(trace)

    # exhaustive linear-scan oracle over 1..n_max
    oracle_runs = {}
    for n in range(1, n_max + 1):
        result = orchestrator.run_scenario(orchestrator.scale_clients(cfg, n))
        oracle_runs[n] = (result.report, result.trace)
    oracle_load = n_max
    for n in range(1, n_max + 1):
        if not load_pred(oracle_runs[n][0]):
            oracle_load = n - 1
            break
    oracle_stress = None
    for n in range(1, n_max + 1):
        if congested(*oracle_runs[n]):
            oracle_stress = n
            break

    got_load = orchestrator.load_search(cfg, 7_000, 0.02, n_max)
    got_load_again = orchestrator.load_search(cfg, 7_000, 0.02, n_max)
    got_stress = orchestrator.stress_search(cfg, n_max)

    ok = (got_load == oracle_load == 10
          and got_stress == oracle_stress == 11
          and got_load == got_load_again)
    _verdict("criterion-8 searches", ok,
             f"load_search={got_load} (oracle {oracle_load}), "
             f"stress_search={got_stress} (oracle {oracle_stress}), reproducible={got_load == got_load_again}")


def test_criterion_9_topology_comparison():
    profile = NetworkProfile(one_way_latency=2_000, bandwidth=700_000_000, mtu=1400)
    clients = tuple(ClientSpec(i, profile) for i in range(4))  # master + 3 receivers
    uplink = NetworkProfile(one_way_latency=2_000, bandwidth=50_000_000, mtu=1400)
    node = NodeSpec(node_id=1, pixel_throughput=5_000_000_000, encode_throughput=4_000_000_000)
    cmp = compare_topologies(clients, node, uplink, DEFAULT_LADDER, 5_000_000,
                             SessionSettings(adaptation=False), seed=13)
    edge, hosted = cmp.edge.frames, cmp.client_hosted.frames
    edge_loss = edge.dropped / (edge.delivered + edge.dropped)
    hosted_loss = hosted.dropped / (hosted.delivered + hosted.dropped)
    shared = set(cmp.client_hosted.frame_path_ids.values())
    ok = hosted_loss > 0.5 and edge_loss < 0.01 and len(shared) == 1
    _verdict("criterion-9 topology", ok,
             f"client_hosted loss={hosted_loss:.1%} (>50%), edge loss={edge_loss:.1%} (<1%), "
             f"receivers share {len(shared)} uplink path")


def test_criterion_10_live_loopback():
    t0 = time.perf_counter()
    with EchoServer() as server:
        result = live_probe(("127.0.0.1", server.port), count=1_000, interval_us=500)
    wall = time.perf_counter() - t0
    golden_prefix = encode_message(WireHeader(MsgType.PING, 1, 0, 0))[:16]
    header, payload = decode_message(result.first_ping)
    golden_ok = (result.first_ping[:16] == golden_prefix and payload == b""
                 and header.msg_type == MsgType.PING)
    ok = (result.loss_rate <= 0.001
          and all(s > 0 for s in result.samples)
          and golden_ok
          and wall < 10.0)
    _verdict("criterion-10 live loopback", ok,
             f"loss={result.loss_rate:.4f} (<=0.1%), rtt p95={result.rtt_percentile(95)}us, "
             f"golden={golden_ok}, wall={wall:.2f}s")
