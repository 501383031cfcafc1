"""Per-layer microbenchmarks on fixed inputs, in nanoseconds per call.

Each case runs a fixed number of calls five times and reports the median.
They measure one layer's public function with nothing around it, so they are
per-layer metrics with no bound.
"""

from __future__ import annotations

import heapq
import statistics
import time
import zlib

from epicsim import adapt, model, netem, render, transport

REPEATS = 5
FRAME_BYTES = 207_360  # one 1080p frame at the top ladder level, as edge-1080p renders it
PROFILE = model.NetworkProfile(one_way_latency=2_000, bandwidth=700_000_000, mtu=9_000)


def _ns_per_call(body, calls: int) -> float:
    """Median over REPEATS of body()'s wall time divided by the calls it makes."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        body()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / calls


def _wire(session_id: int, mtu: int) -> tuple[bytes, transport.FrameFragment]:
    payload = bytes(range(256)) * (transport.fragment_capacity(mtu) // 256 + 1)
    frag = transport.FrameFragment(7, 0, 1, payload[:transport.fragment_capacity(mtu)])
    return transport.encode_fragment(session_id, 0, 0, frag), frag


def submit_advance(size: int, n: int = 20_000) -> float:
    """Path.submit then advance_to for one packet of `size` bytes on an idle path."""
    data = bytes(size)
    path = netem.Path(PROFILE, 1)
    clock = [0]

    def body():
        t = clock[0]
        submit, advance, packet = path.submit, path.advance_to, netem.Packet
        for _ in range(n):
            t += 10_000
            advance(submit(packet(data, t), t))
        clock[0] = t

    return _ns_per_call(body, n)


def encode_fragment(mtu: int, n: int = 20_000) -> float:
    _, frag = _wire(3, mtu)
    encode = transport.encode_fragment

    def body():
        for seq in range(n):
            encode(3, seq, seq, frag)

    return _ns_per_call(body, n)


def decode_message(mtu: int, n: int = 20_000) -> float:
    wire, _ = _wire(3, mtu)
    decode = transport.decode_message

    def body():
        for _ in range(n):
            decode(wire)

    return _ns_per_call(body, n)


def decode_fragment(mtu: int, n: int = 20_000) -> float:
    _, payload = transport.decode_message(_wire(3, mtu)[0])
    decode = transport.decode_fragment

    def body():
        for _ in range(n):
            decode(payload)

    return _ns_per_call(body, n)


def reassembler_offer(frames: int = 32) -> float:
    """Reassembler.offer per fragment, over whole 152-fragment frames at MTU 1400."""
    frags = [transport.fragment(fid, bytes(FRAME_BYTES), 1_400) for fid in range(frames)]
    per_frame = len(frags[0])

    def body():
        reassembler = transport.Reassembler()
        offer = reassembler.offer
        t = 0
        for frame in frags:
            for frag in frame:
                t += 10
                offer(frag, t)

    return _ns_per_call(body, frames * per_frame)


def frame_payload_crc32(n: int = 40) -> float:
    """render.frame_payload plus zlib.crc32 for one 207,360 B frame."""
    def body():
        for fid in range(n):
            zlib.crc32(render.frame_payload(11, 0, fid, FRAME_BYTES))

    return _ns_per_call(body, n)


def controller_step(n: int = 50_000) -> float:
    pattern = [i % 7 < 3 for i in range(n)]
    cfg = adapt.ControllerConfig()
    step = adapt.controller_step

    def body():
        state = adapt.ControllerState(level=0)
        for bottleneck in pattern:
            step(state, bottleneck, 5, cfg)

    return _ns_per_call(body, n)


def heap_push_pop(depth: int = 256, n: int = 50_000) -> float:
    """One heappush plus one heappop of a session event on a heap `depth` deep."""
    heap = [(t * 100, t, "arrive", ()) for t in range(depth)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop

    def body():
        for seq in range(n):
            t, _, kind, args = pop(heap)
            push(heap, (t + depth * 100, seq, kind, args))

    return _ns_per_call(body, n)


CASES = {
    "netem.micro.submit_advance.24B": lambda: submit_advance(24),
    "netem.micro.submit_advance.1400B": lambda: submit_advance(1_400),
    "netem.micro.submit_advance.9000B": lambda: submit_advance(9_000),
    "transport.micro.encode_fragment.1400B": lambda: encode_fragment(1_400),
    "transport.micro.encode_fragment.9000B": lambda: encode_fragment(9_000),
    "transport.micro.decode_message.1400B": lambda: decode_message(1_400),
    "transport.micro.decode_message.9000B": lambda: decode_message(9_000),
    "transport.micro.decode_fragment.1400B": lambda: decode_fragment(1_400),
    "transport.micro.decode_fragment.9000B": lambda: decode_fragment(9_000),
    "transport.micro.reassembler_offer.152frag": reassembler_offer,
    "render.micro.frame_payload_crc32.207360B": frame_payload_crc32,
    "adapt.micro.controller_step": controller_step,
    "session.micro.heap_push_pop": heap_push_pop,
}
