"""Deterministic testbed for edge-offloaded remote rendering.

Thin clients send input upstream; a render host streams encoded frames back
over emulated network paths; an adaptive controller walks a quality ladder
under bottlenecks; a KPI harness measures RTT, throughput, loss, and the
battery gain of offloading against fixed targets.
"""

from .adapt import ControllerConfig, ControllerState, WindowStats, controller_step, detect_bottleneck
from .kpi import LevelChange, RunTrace, build_report, percentile
from .model import (
    DEFAULT_LADDER,
    FrameMeta,
    KpiReport,
    NetworkProfile,
    NodeSpec,
    PowerProfile,
    QualityLevel,
    ValidationError,
    bitrate,
    frame_bytes,
)
from .netem import Drop, Path
from .power import EnergyConfig, EnergyMode, average_power, battery_life_gain
from .render import Renderer, decode_check
from .session import (
    BandwidthStep,
    ClientSpec,
    SessionSettings,
    SessionTopology,
    compare_topologies,
    run_session,
)
from .transport import FrameFragment, Reassembler, RttEstimator, WireHeader, fragment

__version__ = "0.1.0"

__all__ = [
    "BandwidthStep", "ClientSpec", "ControllerConfig", "ControllerState",
    "DEFAULT_LADDER", "Drop", "EnergyConfig", "EnergyMode", "FrameFragment",
    "FrameMeta", "KpiReport", "LevelChange", "NetworkProfile",
    "NodeSpec", "Path", "PowerProfile", "QualityLevel", "Reassembler",
    "Renderer", "RttEstimator", "RunTrace", "SessionSettings",
    "SessionTopology", "ValidationError", "WindowStats", "WireHeader",
    "average_power", "battery_life_gain", "bitrate", "build_report",
    "compare_topologies", "controller_step", "decode_check", "detect_bottleneck",
    "fragment", "frame_bytes", "percentile", "run_session",
]
