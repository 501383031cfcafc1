import zlib

import pytest

from epicsim.model import DEFAULT_LADDER, NodeSpec
from epicsim.render import (
    ChecksumMismatch,
    LengthMismatch,
    Renderer,
    decode_check,
    encode_time_us,
    frame_payload,
    render_time_us,
)

L0 = DEFAULT_LADDER[0]
EDGE = NodeSpec(node_id=1, pixel_throughput=5_000_000_000, encode_throughput=4_000_000_000)
DEVICE = NodeSpec(node_id=2, pixel_throughput=200_000_000, encode_throughput=250_000_000)


def test_render_time_on_edge_node():
    assert render_time_us(L0, 1.0, EDGE.pixel_throughput) == 415


def test_render_time_on_device_class_hardware():
    assert render_time_us(L0, 1.0, DEVICE.pixel_throughput) == 10_368


def test_render_time_scales_with_complexity_and_pixels():
    assert render_time_us(L0, 2.0, EDGE.pixel_throughput) == 830
    half = DEFAULT_LADDER[2]
    assert render_time_us(half, 1.0, EDGE.pixel_throughput) < render_time_us(L0, 1.0, EDGE.pixel_throughput)


def test_encode_time():
    assert encode_time_us(L0, EDGE.encode_throughput) == 519


def test_payload_determinism_and_meta():
    r1 = Renderer(EDGE, seed=99)
    r2 = Renderer(EDGE, seed=99)
    m1, p1 = r1.render(7, L0, 1.0, session_id=3)
    m2, p2 = r2.render(7, L0, 1.0, session_id=3)
    assert p1 == p2
    assert m1 == m2
    assert m1.payload_size == len(p1) == 207_360
    assert m1.checksum == zlib.crc32(p1)
    assert (m1.render_time, m1.encode_time) == (415, 519)


def test_different_seeds_or_sessions_differ():
    a = frame_payload(1, 0, 0, 4096)
    assert frame_payload(2, 0, 0, 4096) != a
    assert frame_payload(1, 1, 0, 4096) != a
    assert frame_payload(1, 0, 1, 4096) != a


def test_checksums_distinct_across_frames():
    r = Renderer(EDGE, seed=5)
    level = DEFAULT_LADDER[4]
    sums = {r.render(fid, level, 1.0, 0)[0].checksum for fid in range(1000)}
    assert len(sums) == 1000


def test_decode_check_roundtrip_and_time():
    r = Renderer(EDGE, seed=11)
    meta, payload = r.render(4, L0, 1.0, 0)
    assert decode_check(meta, payload, L0, 7_000_000_000) == 297


def test_decode_check_detects_corruption():
    r = Renderer(EDGE, seed=11)
    meta, payload = r.render(4, L0, 1.0, 0)
    corrupted = bytearray(payload)
    corrupted[1000] ^= 0xFF
    with pytest.raises(ChecksumMismatch):
        decode_check(meta, bytes(corrupted), L0, 7_000_000_000)


def test_decode_check_detects_truncation():
    r = Renderer(EDGE, seed=11)
    meta, payload = r.render(4, L0, 1.0, 0)
    with pytest.raises(LengthMismatch):
        decode_check(meta, payload[:-1], L0, 7_000_000_000)


def test_decode_check_never_errors_on_untouched_payload():
    r = Renderer(EDGE, seed=123)
    for fid in range(20):
        for level in DEFAULT_LADDER:
            meta, payload = r.render(fid, level, 1.0, 0)
            assert decode_check(meta, payload, level, 7_000_000_000) > 0
