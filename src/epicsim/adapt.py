"""Bottleneck detection and the hysteresis ladder controller.

Per 250 ms window the controller sees smoothed RTT, frame loss and delivered
throughput; a window is a bottleneck when any of the three degrades past its
threshold.  Downgrades need k_down consecutive bad windows, upgrades k_up
consecutive clean ones, and every change is followed by a cooldown during
which the level is pinned (counters keep accumulating).  The level moves one
rung at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import MIN_INTERVAL_US, QualityLevel, ValidationError, bitrate


@dataclass(frozen=True, slots=True)
class ControllerConfig:
    rtt_budget: int = 7_000
    loss_threshold: float = 0.02
    throughput_factor: float = 0.9
    k_down: int = 2
    k_up: int = 12
    cooldown: int = 4
    window_us: int = 250_000

    def __post_init__(self):
        for name in ("k_down", "k_up"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive, not {getattr(self, name)}")
        if self.cooldown < 0:
            raise ValidationError(f"cooldown must be non-negative, not {self.cooldown}")
        if self.window_us <= 0:
            raise ValidationError("window_us must be positive")
        if self.window_us < MIN_INTERVAL_US:
            raise ValidationError(f"window_us must be at least {MIN_INTERVAL_US} us, not {self.window_us}")


@dataclass(frozen=True, slots=True)
class WindowStats:
    """One measurement window for one client stream; srtt of 0 means no samples yet."""

    window_index: int
    srtt: int
    frame_loss_rate: float
    delivered_throughput: int
    current_level: int


@dataclass(slots=True)
class ControllerState:
    level: int
    consecutive_bad: int = 0
    consecutive_good: int = 0
    cooldown_remaining: int = 0


def detect_bottleneck(stats: WindowStats, ladder: tuple[QualityLevel, ...],
                      cfg: ControllerConfig = ControllerConfig()) -> bool:
    """True when RTT, loss, or delivered throughput degrades past threshold."""
    return bool(bottleneck_causes(stats, ladder, cfg))


def bottleneck_causes(stats: WindowStats, ladder: tuple[QualityLevel, ...],
                      cfg: ControllerConfig = ControllerConfig()) -> tuple[str, ...]:
    """Which predicates fired; any one makes the window a bottleneck."""
    causes = []
    if stats.srtt > cfg.rtt_budget:
        causes.append("rtt")
    if stats.frame_loss_rate > cfg.loss_threshold:
        causes.append("loss")
    if stats.delivered_throughput < cfg.throughput_factor * bitrate(ladder[stats.current_level]):
        causes.append("throughput")
    return tuple(causes)


def controller_step(state: ControllerState, bottleneck: bool, ladder_size: int,
                    cfg: ControllerConfig = ControllerConfig()) -> int | None:
    """Advance the controller one window; returns the new level on change, else None.

    The state is mutated in place.  Replaying the same bottleneck sequence
    from a fresh state reproduces the same level sequence exactly.
    """
    if bottleneck:
        state.consecutive_bad += 1
        state.consecutive_good = 0
    else:
        state.consecutive_good += 1
        state.consecutive_bad = 0

    if state.cooldown_remaining > 0:
        state.cooldown_remaining -= 1
        return None

    if state.consecutive_bad >= cfg.k_down and state.level < ladder_size - 1:
        state.level += 1
        state.consecutive_bad = 0
        state.consecutive_good = 0
        state.cooldown_remaining = cfg.cooldown
        return state.level

    if state.consecutive_good >= cfg.k_up and state.level > 0:
        state.level -= 1
        state.consecutive_bad = 0
        state.consecutive_good = 0
        state.cooldown_remaining = cfg.cooldown
        return state.level

    return None
