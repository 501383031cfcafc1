"""Synthetic edge renderer and parametric codec.

Frames are deterministic byte streams derived from (seed, session, frame id),
with render/encode/decode latencies modeled from pixel throughput.  No real
rasterization or codec bitstream is involved; compression is captured by the
ladder's bits-per-pixel alone.  The simulator uses only the latency models
and the frame size: it never generates a frame's bytes or checksum.
Only the tests and the benchmark use `Renderer` and `decode_check`; no demo
does.
"""

from __future__ import annotations

import zlib
from math import ceil

from .model import FrameMeta, NodeSpec, QualityLevel, ValidationError, ceil_div, frame_bytes
from .rng import SplitMix64, derive_seed

_PAYLOAD_STREAM = 0x706C


class DecodeError(ValueError):
    """Decoder-side rejection of a received frame."""


class ChecksumMismatch(DecodeError):
    pass


class LengthMismatch(DecodeError):
    pass


def render_time_us(level: QualityLevel, complexity: float, pixel_throughput: int) -> int:
    return ceil(complexity * level.pixels * 1_000_000 / pixel_throughput)


def encode_time_us(level: QualityLevel, encode_throughput: int) -> int:
    return ceil_div(level.pixels * 1_000_000, encode_throughput)


def frame_payload(seed: int, session_id: int, frame_id: int, size: int) -> bytes:
    """Deterministic encoded-frame bytes for (seed, session, frame)."""
    stream = SplitMix64(derive_seed(seed, _PAYLOAD_STREAM, session_id, frame_id))
    return stream.fill_bytes(size)


class Renderer:
    """Render + encode service of one host: a frame's metadata and bytes."""

    def __init__(self, node: NodeSpec, seed: int):
        self.node = node
        self.seed = seed

    def render(self, frame_id: int, level: QualityLevel, scene_complexity: float = 1.0,
               session_id: int = 0) -> tuple[FrameMeta, bytes]:
        size = frame_bytes(level)
        payload = frame_payload(self.seed, session_id, frame_id, size)
        meta = FrameMeta(
            frame_id=frame_id,
            level_index=level.level_index,
            render_time=render_time_us(level, scene_complexity, self.node.pixel_throughput),
            encode_time=encode_time_us(level, self.node.encode_throughput),
            payload_size=size,
            checksum=zlib.crc32(payload),
        )
        return meta, payload


def decode_time_us(level: QualityLevel, decode_throughput: int) -> int:
    if decode_throughput <= 0:
        raise ValidationError("decode throughput must be positive")
    return ceil_div(level.pixels * 1_000_000, decode_throughput)


def decode_check(meta: FrameMeta, payload: bytes, level: QualityLevel, decode_throughput: int) -> int:
    """Verify a received frame and return the modeled decode time in microseconds."""
    if level.level_index != meta.level_index:
        raise DecodeError(f"level {level.level_index} does not match frame's {meta.level_index}")
    if len(payload) != meta.payload_size:
        raise LengthMismatch(f"payload is {len(payload)} B, expected {meta.payload_size} B")
    if zlib.crc32(payload) != meta.checksum:
        raise ChecksumMismatch("payload checksum does not match frame metadata")
    return decode_time_us(level, decode_throughput)
