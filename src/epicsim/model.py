"""Shared domain types: quality ladder, network profiles, node/power specs, KPI report.

All times are integer microseconds, sizes integer bytes, and rates integer
bits per second; compressed bits-per-pixel is kept as an exact `Fraction` so
frame sizes and bitrates are bit-for-bit reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

RTT_TARGET_US = 7_000
BANDWIDTH_TARGET_BPS = 700_000_000
BATTERY_GAIN_TARGET_PCT = 30.0
# the shortest input tick, ping, sync or controller window: each costs the
# event loop at least one event, so a shorter one makes a run crawl
MIN_INTERVAL_US = 100


class ValidationError(ValueError):
    """A domain type or configuration violates one of its invariants."""


class CapacityError(RuntimeError):
    """A node cannot host the requested load (sessions or render demand)."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def as_bpp(value: int | float | str | Fraction) -> Fraction:
    """Normalize a bits-per-pixel value to an exact fraction.

    Floats go through their shortest decimal repr, so a config value of
    ``0.8`` means exactly 4/5 rather than the nearest binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class QualityLevel:
    """One rung of the resolution/fps/compression ladder."""

    level_index: int
    width: int
    height: int
    fps: int
    bpp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bpp", as_bpp(self.bpp))
        if self.level_index < 0:
            raise ValidationError("level_index must be non-negative")
        if self.width < 1 or self.height < 1:
            raise ValidationError("resolution must be at least 1x1")
        if self.fps <= 0:
            raise ValidationError("fps must be positive")
        if self.frame_interval < 1:
            raise ValidationError(f"fps {self.fps} leaves no whole microsecond between frames")
        if self.bpp <= 0:
            raise ValidationError("bpp must be positive")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def frame_interval(self) -> int:
        """Microseconds from one frame start to the next: 1 s / fps, rounded."""
        return round(1_000_000 / self.fps)


def bitrate(level: QualityLevel) -> int:
    """Demanded stream rate in bits/s: width * height * bpp * fps, floored."""
    return int(level.width * level.height * level.bpp * level.fps)


def frame_bytes(level: QualityLevel) -> int:
    """Encoded frame size in bytes: ceil(width * height * bpp / 8)."""
    return math.ceil(level.width * level.height * level.bpp / 8)


DEFAULT_LADDER: tuple[QualityLevel, ...] = (
    QualityLevel(0, 1920, 1080, 60, Fraction(4, 5)),
    QualityLevel(1, 1600, 900, 60, Fraction(4, 5)),
    QualityLevel(2, 1280, 720, 60, Fraction(4, 5)),
    QualityLevel(3, 960, 540, 60, Fraction(4, 5)),
    QualityLevel(4, 640, 360, 30, Fraction(4, 5)),
)


def validate_ladder(levels: tuple[QualityLevel, ...]) -> tuple[QualityLevel, ...]:
    """Check ladder ordering: contiguous indexes, pixels and bitrate strictly decreasing."""
    if not levels:
        raise ValidationError("ladder must have at least one level")
    for i, lv in enumerate(levels):
        if lv.level_index != i:
            raise ValidationError(f"ladder indexes must be contiguous from 0, got {lv.level_index} at {i}")
    for lo, hi in zip(levels, levels[1:]):
        if hi.pixels >= lo.pixels:
            raise ValidationError("pixel count must strictly decrease down the ladder")
        if bitrate(hi) >= bitrate(lo):
            raise ValidationError("bitrate must strictly decrease down the ladder")
    return levels


def default_queue_capacity(bandwidth: int, mtu: int) -> int:
    """Drop-tail buffer sized to 20 ms at line rate (a shallow radio buffer)."""
    return max(mtu, bandwidth // 400)


@dataclass(frozen=True, slots=True)
class NetworkProfile:
    """Impairments of one emulated path; queue_capacity defaults to 20 ms of bytes."""

    one_way_latency: int
    jitter: int = 0
    loss_rate: float = 0.0
    bandwidth: int = 1_000_000_000
    mtu: int = 1400
    queue_capacity: int | None = None

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")
        if self.mtu < 128:
            raise ValidationError("mtu must be at least 128 bytes")
        if self.one_way_latency < 0 or self.jitter < 0:
            raise ValidationError("latency and jitter must be non-negative")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValidationError("loss_rate must be within [0, 1]")
        if self.queue_capacity is None:
            object.__setattr__(self, "queue_capacity", default_queue_capacity(self.bandwidth, self.mtu))
        if self.queue_capacity < self.mtu:
            raise ValidationError("queue_capacity must hold at least one MTU")


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Render host capabilities (an edge node, or the master device in the baseline)."""

    node_id: int
    pixel_throughput: int
    encode_throughput: int
    max_sessions: int = 16

    def __post_init__(self):
        if self.pixel_throughput <= 0 or self.encode_throughput <= 0:
            raise ValidationError("node throughputs must be positive")
        if self.max_sessions < 1:
            raise ValidationError("max_sessions must be at least 1")


@dataclass(frozen=True, slots=True)
class InputEvent:
    """One upstream pose/trigger sample from a client."""

    timestamp: int
    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]
    buttons: int = 0

    def __post_init__(self):
        if len(self.position) != 3 or len(self.orientation) != 4:
            raise ValidationError("position is 3 floats, orientation 4 floats")
        norm = math.sqrt(sum(c * c for c in self.orientation))
        if abs(norm - 1.0) > 1e-3:
            raise ValidationError(f"orientation must be a unit quaternion (norm {norm:.6f})")
        if not 0 <= self.buttons < 2**32:
            raise ValidationError("buttons must fit in 32 bits")


@dataclass(frozen=True, slots=True)
class FrameMeta:
    """Descriptor of a rendered, encoded frame."""

    frame_id: int
    level_index: int
    render_time: int
    encode_time: int
    payload_size: int
    checksum: int

    def __post_init__(self):
        if self.render_time < 0 or self.encode_time < 0:
            raise ValidationError("render/encode times must be non-negative")
        if self.payload_size <= 0:
            raise ValidationError("payload_size must be positive")
        if not 0 <= self.checksum < 2**32:
            raise ValidationError("checksum must be a CRC-32 value")


@dataclass(frozen=True, slots=True)
class PowerProfile:
    """Device power draw contributors, in watts, plus battery capacity in Wh."""

    p_idle: float = 3.0
    p_render_local: float = 4.5
    p_radio: float = 1.2
    p_decode: float = 0.8
    battery_capacity: float = 7.6

    def __post_init__(self):
        if min(self.p_idle, self.p_render_local, self.p_radio, self.p_decode) < 0:
            raise ValidationError("power terms must be non-negative")
        if self.battery_capacity <= 0:
            raise ValidationError("battery_capacity must be positive")


@dataclass(frozen=True, slots=True)
class KpiReport:
    """Measured percentiles, throughput, loss and the three target verdicts.

    The pass flags are pure threshold functions of the measured fields:
    rtt_p95 strictly below 7 ms, aggregate throughput strictly above
    0.7 Gb/s, battery gain strictly above 30 percent.
    """

    rtt_p50: int
    rtt_p95: int
    rtt_p99: int
    motion_to_photon_p95: int
    aggregate_throughput: int
    loss_rate: float
    battery_gain: float
    pass_rtt: bool
    pass_bandwidth: bool
    pass_battery: bool
    frames_sent: int
    frames_delivered: int
    frames_dropped: int
    frames_in_flight: int

    def __post_init__(self):
        if self.frames_sent != self.frames_delivered + self.frames_dropped + self.frames_in_flight:
            raise ValidationError("frame counters must satisfy sent = delivered + dropped + in-flight")
        if self.pass_rtt != (self.rtt_p95 < RTT_TARGET_US):
            raise ValidationError("pass_rtt inconsistent with rtt_p95")
        if self.pass_bandwidth != (self.aggregate_throughput > BANDWIDTH_TARGET_BPS):
            raise ValidationError("pass_bandwidth inconsistent with aggregate_throughput")
        if self.pass_battery != (self.battery_gain > BATTERY_GAIN_TARGET_PCT):
            raise ValidationError("pass_battery inconsistent with battery_gain")
