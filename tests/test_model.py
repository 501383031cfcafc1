from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from epicsim.model import (
    DEFAULT_LADDER,
    KpiReport,
    NetworkProfile,
    NodeSpec,
    QualityLevel,
    ValidationError,
    as_bpp,
    bitrate,
    frame_bytes,
    validate_ladder,
)


def test_bitrate_top_and_bottom_levels():
    assert bitrate(DEFAULT_LADDER[0]) == 99_532_800
    assert bitrate(DEFAULT_LADDER[4]) == 5_529_600


# a bpp as a scenario may give it: an exact fraction, whose denominator need not divide the pixel count, a
# float or a decimal string, each normalized by `as_bpp`
_BPP = st.one_of(
    st.fractions(min_value=Fraction(1, 10**6), max_value=64, max_denominator=10**6),
    st.floats(min_value=1e-6, max_value=64, allow_nan=False, allow_infinity=False),
    st.decimals(min_value="0.000001", max_value=64, places=6).map(str),
)


@given(width=st.integers(1, 8192), height=st.integers(1, 8192), fps=st.integers(1, 1_000), bpp=_BPP)
def test_bitrate_floors_the_exact_product(width, height, fps, bpp):
    level = QualityLevel(0, width, height, fps, bpp)
    assert level.bpp == as_bpp(bpp)
    assert bitrate(level) == int(width * height * as_bpp(bpp) * fps)


def test_frame_bytes_examples():
    assert frame_bytes(DEFAULT_LADDER[0]) == 207_360
    assert frame_bytes(DEFAULT_LADDER[2]) == 92_160
    assert frame_bytes(QualityLevel(0, 1, 1, 30, 8)) == 1


def test_zero_bpp_rejected_at_construction():
    with pytest.raises(ValidationError):
        QualityLevel(0, 640, 360, 30, 0)


def test_a_rung_needs_a_whole_microsecond_between_frames():
    assert QualityLevel(0, 1, 1, 1_999_999, 1).frame_interval == 1
    assert DEFAULT_LADDER[0].frame_interval == 16_667
    for fps in (2_000_000, 2**32):  # 1 s / fps rounds to 0 us
        with pytest.raises(ValidationError, match="microsecond"):
            QualityLevel(0, 1, 1, fps, 1)


def test_float_bpp_normalized_via_decimal_string():
    level = QualityLevel(0, 1920, 1080, 60, 0.8)
    assert level.bpp == Fraction(4, 5)
    assert frame_bytes(level) == 207_360  # no ceiling creep from binary floats


def test_ladder_is_strictly_decreasing():
    pixels = [lv.pixels for lv in DEFAULT_LADDER]
    rates = [bitrate(lv) for lv in DEFAULT_LADDER]
    assert pixels == sorted(pixels, reverse=True) and len(set(pixels)) == len(pixels)
    assert rates == sorted(rates, reverse=True) and len(set(rates)) == len(rates)
    validate_ladder(DEFAULT_LADDER)


def test_ladder_validation_rejects_non_monotone():
    bad = (
        QualityLevel(0, 640, 360, 30, 0.8),
        QualityLevel(1, 1920, 1080, 60, 0.8),
    )
    with pytest.raises(ValidationError):
        validate_ladder(bad)


def test_frame_bytes_never_loses_bits():
    for lv in DEFAULT_LADDER:
        assert frame_bytes(lv) * 8 >= lv.width * lv.height * lv.bpp


def test_network_profile_invariants():
    with pytest.raises(ValidationError):
        NetworkProfile(one_way_latency=0, bandwidth=10_000_000, mtu=64)
    with pytest.raises(ValidationError):
        NetworkProfile(one_way_latency=0, bandwidth=0)
    with pytest.raises(ValidationError):
        NetworkProfile(one_way_latency=0, bandwidth=10_000_000, loss_rate=1.5)
    profile = NetworkProfile(one_way_latency=2_000, bandwidth=700_000_000, mtu=1400)
    assert profile.queue_capacity == 700_000_000 // 400  # 20 ms of bytes


def test_queue_capacity_floor_is_one_mtu():
    profile = NetworkProfile(one_way_latency=0, bandwidth=1_000, mtu=1400)
    assert profile.queue_capacity == 1400


def test_node_spec_invariants():
    with pytest.raises(ValidationError):
        NodeSpec(node_id=1, pixel_throughput=0, encode_throughput=1)
    with pytest.raises(ValidationError):
        NodeSpec(node_id=1, pixel_throughput=1, encode_throughput=1, max_sessions=0)


def _report(**overrides):
    base = dict(
        rtt_p50=4_000, rtt_p95=4_000, rtt_p99=4_000, motion_to_photon_p95=9_000,
        aggregate_throughput=800_000_000, loss_rate=0.0, battery_gain=50.0,
        pass_rtt=True, pass_bandwidth=True, pass_battery=True,
        frames_sent=100, frames_delivered=98, frames_dropped=1, frames_in_flight=1,
    )
    base.update(overrides)
    return KpiReport(**base)


def test_report_counter_identity_enforced():
    _report()
    with pytest.raises(ValidationError):
        _report(frames_in_flight=5)


def test_report_pass_flags_are_pure_threshold_functions():
    with pytest.raises(ValidationError):
        _report(rtt_p95=7_000, pass_rtt=True)  # strict less-than at the boundary
    _report(rtt_p95=7_000, pass_rtt=False)
    with pytest.raises(ValidationError):
        _report(aggregate_throughput=700_000_000, pass_bandwidth=True)
    with pytest.raises(ValidationError):
        _report(battery_gain=30.0, pass_battery=True)
