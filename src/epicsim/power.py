"""Device energy model: on-device rendering vs. thin-client offload.

Average draw is idle power plus the active engines weighted by utilization.
A local renderer pays the render engine; an offloaded thin client pays the
radio (modeled constant while streaming) plus the decoder.  Battery life is
capacity over power, so the life gain of offloading is the power ratio.

The default device throughputs model a low-spec headset-class SoC whose
render and decode engines top out near 100 Mpx/s; a 1080p60 stream
(124 Mpx/s) saturates both, which is the regime that motivates offloading.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import PowerProfile, QualityLevel, ValidationError

DEVICE_PIXEL_THROUGHPUT = 100_000_000
DEVICE_DECODE_THROUGHPUT = 100_000_000


class EnergyMode(Enum):
    LOCAL_RENDER = "local_render"
    OFFLOADED = "offloaded"


@dataclass(frozen=True, slots=True)
class EnergyConfig:
    mode: EnergyMode
    profile: PowerProfile
    level: QualityLevel
    device_pixel_throughput: int = DEVICE_PIXEL_THROUGHPUT
    device_decode_throughput: int = DEVICE_DECODE_THROUGHPUT

    def __post_init__(self):
        if self.device_pixel_throughput <= 0 or self.device_decode_throughput <= 0:
            raise ValidationError("device throughputs must be positive")


def average_power(cfg: EnergyConfig) -> float:
    """Average device draw in watts for the given operating mode and level."""
    p = cfg.profile
    pixels = cfg.level.pixels
    fps = cfg.level.fps
    if cfg.mode is EnergyMode.LOCAL_RENDER:
        utilization = min(1.0, pixels / cfg.device_pixel_throughput * fps)
        return p.p_idle + p.p_render_local * utilization
    utilization = min(1.0, pixels / cfg.device_decode_throughput * fps)
    return p.p_idle + p.p_radio + p.p_decode * utilization


def life_gain(p_base: float, p_new: float) -> float:
    """Battery life increase, in percent, of drawing `p_new` watts in place of `p_base`.

    Life is capacity/power, so gain = (P_base / P_new - 1) * 100.
    """
    return (p_base / p_new - 1.0) * 100.0


def battery_life_gain(local: EnergyConfig, offloaded: EnergyConfig) -> float:
    """Battery life increase of offloading over local rendering, in percent (`life_gain`)."""
    if local.mode is not EnergyMode.LOCAL_RENDER or offloaded.mode is not EnergyMode.OFFLOADED:
        raise ValidationError("expected a local-render baseline and an offloaded config")
    if local.profile.battery_capacity != offloaded.profile.battery_capacity:
        raise ValidationError("battery capacities must match for a life comparison")
    p_local = average_power(local)
    p_off = average_power(offloaded)
    if p_off <= 0:
        raise ValidationError("offloaded power must be positive")
    return life_gain(p_local, p_off)


def battery_life_hours(cfg: EnergyConfig) -> float:
    power = average_power(cfg)
    if power <= 0:
        raise ValidationError("average power must be positive")
    return cfg.profile.battery_capacity / power


def default_gain(profile: PowerProfile, level: QualityLevel,
                 device_pixel_throughput: int = DEVICE_PIXEL_THROUGHPUT,
                 device_decode_throughput: int = DEVICE_DECODE_THROUGHPUT) -> float:
    """Gain of the offloaded thin client over the local baseline on one device."""
    local = EnergyConfig(EnergyMode.LOCAL_RENDER, profile, level,
                         device_pixel_throughput, device_decode_throughput)
    off = EnergyConfig(EnergyMode.OFFLOADED, profile, level,
                       device_pixel_throughput, device_decode_throughput)
    return battery_life_gain(local, off)
