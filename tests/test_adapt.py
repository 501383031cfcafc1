import itertools

from epicsim.adapt import (
    ControllerConfig,
    ControllerState,
    WindowStats,
    bottleneck_causes,
    controller_step,
    detect_bottleneck,
)
from epicsim.model import DEFAULT_LADDER, bitrate

CFG = ControllerConfig()
LADDER = DEFAULT_LADDER


def _stats(level=0, srtt=4_000, loss=0.0, throughput=None):
    if throughput is None:
        throughput = bitrate(LADDER[level])
    return WindowStats(srtt, loss, throughput, level)


def test_rtt_over_budget_is_bottleneck():
    assert detect_bottleneck(_stats(srtt=9_000), LADDER, CFG)


def test_nominal_window_is_clean():
    assert not detect_bottleneck(_stats(), LADDER, CFG)


def test_loss_over_two_percent_is_bottleneck():
    assert detect_bottleneck(_stats(loss=0.05), LADDER, CFG)
    assert not detect_bottleneck(_stats(loss=0.02), LADDER, CFG)


def test_throughput_shortfall_is_bottleneck():
    demanded = bitrate(LADDER[0])
    assert detect_bottleneck(_stats(throughput=int(demanded * 0.89)), LADDER, CFG)
    assert not detect_bottleneck(_stats(throughput=int(demanded * 0.9)), LADDER, CFG)


def test_causes_name_the_fired_predicates():
    causes = bottleneck_causes(_stats(srtt=9_000, loss=0.1), LADDER, CFG)
    assert causes == ("rtt", "loss")


def test_two_bad_windows_downgrade_with_cooldown():
    state = ControllerState(level=0)
    assert controller_step(state, True, 5, CFG) is None
    assert controller_step(state, True, 5, CFG) == 1
    assert state.cooldown_remaining == CFG.cooldown
    assert (state.consecutive_bad, state.consecutive_good) == (0, 0)


def test_twelve_clean_windows_upgrade():
    state = ControllerState(level=2)
    changes = [controller_step(state, False, 5, CFG) for _ in range(12)]
    assert changes[:-1] == [None] * 11
    assert changes[-1] == 1
    assert state.level == 1


def test_bottom_clamp():
    state = ControllerState(level=4)
    for _ in range(40):
        controller_step(state, True, 5, CFG)
    assert state.level == 4


def test_top_clamp():
    state = ControllerState(level=0)
    for _ in range(40):
        controller_step(state, False, 5, CFG)
    assert state.level == 0


def test_step_size_is_at_most_one():
    state = ControllerState(level=2)
    rng_inputs = [bool((i * 7) % 3) for i in range(200)]
    prev = state.level
    for bn in rng_inputs:
        controller_step(state, bn, 5, CFG)
        assert abs(state.level - prev) <= 1
        prev = state.level


def test_cooldown_pins_the_level():
    state = ControllerState(level=0)
    controller_step(state, True, 5, CFG)
    controller_step(state, True, 5, CFG)  # -> level 1, cooldown 4
    for _ in range(CFG.cooldown):
        assert controller_step(state, True, 5, CFG) is None
    assert state.level == 1
    assert controller_step(state, True, 5, CFG) == 2  # eligible again


def test_replay_reproduces_level_sequence():
    inputs = [bool((i * 13) % 5 < 2) for i in range(300)]

    def run():
        state = ControllerState(level=0)
        return [controller_step(state, bn, 5, CFG) for bn in inputs]

    assert run() == run()


def test_constant_input_settles_and_never_oscillates():
    """Exhaustive over constant inputs and start levels on the 5-level ladder.

    A full upgrade walk changes level every k_up windows, so settling takes at
    most (ladder - 1) * (k_up + cooldown) windows; after that the level must
    stay constant forever (checked over a long horizon), and the walk must be
    monotone (no direction reversal) throughout.
    """
    horizon = 4 * (CFG.k_up + CFG.cooldown)
    for bottleneck, start in itertools.product([True, False], range(5)):
        state = ControllerState(level=start)
        levels = []
        for _ in range(horizon + 100):
            controller_step(state, bottleneck, 5, CFG)
            levels.append(state.level)
        assert len(set(levels[horizon:])) == 1, (bottleneck, start)
        deltas = {b - a for a, b in zip(levels, levels[1:])}
        assert deltas <= ({0, 1} if bottleneck else {-1, 0})
        assert levels[-1] == (4 if bottleneck else 0)


def test_downgrade_reduces_demanded_bitrate():
    rates = [bitrate(lv) for lv in LADDER]
    assert all(lo > hi for lo, hi in zip(rates, rates[1:]))
