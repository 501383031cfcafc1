"""Synthetic edge renderer and parametric codec.

Frames are deterministic byte streams derived from (seed, session, frame id),
with render/encode/decode latencies modeled from pixel throughput.  No real
rasterization or codec bitstream is involved; compression is captured by the
ladder's bits-per-pixel alone.  The simulator uses only the latency models
and the frame size: it never generates a frame's bytes or checksum.
`Renderer` and `decode_check` serve the byte-level tests and demos.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from math import ceil

from .model import CapacityError, FrameMeta, NodeSpec, QualityLevel, ValidationError, ceil_div, frame_bytes
from .rng import SplitMix64, derive_seed

_PAYLOAD_STREAM = 0x706C


class DecodeError(ValueError):
    """Decoder-side rejection of a received frame."""


class ChecksumMismatch(DecodeError):
    pass


class LengthMismatch(DecodeError):
    pass


@dataclass(frozen=True, slots=True)
class RenderRequest:
    frame_id: int
    level: QualityLevel
    scene_complexity: float = 1.0
    session_id: int = 0

    def __post_init__(self):
        if self.scene_complexity < 0.1:
            raise ValidationError("scene_complexity must be at least 0.1")


def render_time_us(level: QualityLevel, complexity: float, pixel_throughput: int) -> int:
    return ceil(complexity * level.pixels * 1_000_000 / pixel_throughput)


def encode_time_us(level: QualityLevel, encode_throughput: int) -> int:
    return ceil_div(level.pixels * 1_000_000, encode_throughput)


def frame_payload(seed: int, session_id: int, frame_id: int, size: int) -> bytes:
    """Deterministic encoded-frame bytes for (seed, session, frame)."""
    stream = SplitMix64(derive_seed(seed, _PAYLOAD_STREAM, session_id, frame_id))
    return stream.fill_bytes(size)


class Renderer:
    """Render + encode service of one host, with an encoded-frame cache.

    The cache is keyed by (session, frame id, level index) so a re-request of
    the same frame, such as fan-out of one shared scene to several receivers,
    reuses bytes instead of re-rendering.  Entries for identical keys are
    identical by determinism, so last-write-wins on concurrent insert is
    harmless; only a few recent frames are retained.
    """

    CACHE_FRAMES = 32

    def __init__(self, node: NodeSpec, seed: int):
        self.node = node
        self.seed = seed
        self._sessions: set[int] = set()
        self._cache: OrderedDict[tuple[int, int, int], tuple[FrameMeta, bytes]] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def open_session(self, session_id: int) -> None:
        if session_id in self._sessions:
            return
        if len(self._sessions) >= self.node.max_sessions:
            raise CapacityError(
                f"node {self.node.node_id} is at its {self.node.max_sessions}-session limit"
            )
        self._sessions.add(session_id)

    def render(self, req: RenderRequest) -> tuple[FrameMeta, bytes]:
        self.open_session(req.session_id)
        key = (req.session_id, req.frame_id, req.level.level_index)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1

        size = frame_bytes(req.level)
        payload = frame_payload(self.seed, req.session_id, req.frame_id, size)
        meta = FrameMeta(
            frame_id=req.frame_id,
            level_index=req.level.level_index,
            render_time=render_time_us(req.level, req.scene_complexity, self.node.pixel_throughput),
            encode_time=encode_time_us(req.level, self.node.encode_throughput),
            payload_size=size,
            checksum=zlib.crc32(payload),
        )
        self._cache[key] = (meta, payload)
        while len(self._cache) > self.CACHE_FRAMES:
            self._cache.popitem(last=False)
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
