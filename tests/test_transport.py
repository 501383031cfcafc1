import zlib
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from epicsim.model import ValidationError
from epicsim.transport import (
    FRAG_HEADER_LEN,
    HEADER_LEN,
    MAX_FRAGMENTS,
    REASSEMBLY_TIMEOUT_US,
    FrameFragment,
    MsgType,
    Reassembler,
    ReassemblyError,
    RttEstimator,
    WireError,
    WireHeader,
    decode_fragment,
    decode_message,
    encode_fragment,
    encode_message,
    fragment,
    fragment_capacity,
    fragment_runs,
    frame_outcome,
)

GOLDEN_PING = bytes.fromhex("45504943" "01" "03" "00" "00" "00000001" "00000007" "00000000000003E8")


def test_golden_ping_header_bytes():
    wire = encode_message(WireHeader(MsgType.PING, session_id=1, sequence=7, timestamp=1000))
    assert wire == GOLDEN_PING
    assert len(wire) == HEADER_LEN


def test_bad_magic_rejected():
    wire = bytearray(GOLDEN_PING)
    wire[0] = 0x44
    with pytest.raises(WireError, match="magic"):
        decode_message(bytes(wire))


def test_bad_version_and_type_rejected():
    wire = bytearray(GOLDEN_PING)
    wire[4] = 0x02
    with pytest.raises(WireError, match="version"):
        decode_message(bytes(wire))
    wire = bytearray(GOLDEN_PING)
    wire[5] = 0x7F
    with pytest.raises(WireError, match="unknown"):
        decode_message(bytes(wire))


def test_truncated_message_rejected():
    with pytest.raises(WireError, match="truncated"):
        decode_message(GOLDEN_PING[:10])


@given(
    msg_type=st.sampled_from(list(MsgType)),
    session=st.integers(0, 2**32 - 1),
    seq=st.integers(0, 2**32 - 1),
    ts=st.integers(0, 2**64 - 1),
    flags=st.integers(0, 255),
    payload=st.binary(max_size=1400),
)
@settings(max_examples=200)
def test_wire_roundtrip_property(msg_type, session, seq, ts, flags, payload):
    header = WireHeader(msg_type, session, seq, ts, flags)
    back, data = decode_message(encode_message(header, payload))
    assert back == header
    assert data == payload


def test_fragment_arithmetic_for_full_hd_frame():
    payload = bytes(207_360)
    frags = fragment(1, payload, mtu=1400)
    assert fragment_capacity(1400) == 1368
    assert len(frags) == 152
    assert all(f.frag_count == 152 for f in frags)
    assert len(frags[-1].payload) == 792
    assert all(len(encode_fragment(1, i, 0, f)) <= 1400 for i, f in enumerate(frags))


def test_single_byte_payload_single_fragment():
    frags = fragment(9, b"\x01", mtu=1400)
    assert len(frags) == 1
    assert frags[0].payload == b"\x01"


def test_empty_payload_rejected():
    with pytest.raises(ValidationError):
        fragment(1, b"", 1400)


def test_fragment_count_limit():
    with pytest.raises(ValidationError, match="fragments"):
        fragment(1, bytes(10_000_000), mtu=160)


def test_fragment_wire_roundtrip():
    frags = fragment(42, bytes(range(256)) * 10, mtu=300)
    for frag in frags:
        header, payload = decode_message(encode_fragment(7, 3, 111, frag))
        assert header.msg_type == MsgType.FRAME_FRAG
        assert decode_fragment(payload) == frag


def _reassemble(frags, order, now=0):
    r = Reassembler()
    out = None
    for i in order:
        event = r.offer(frags[i], now)
        if event.completed:
            out = event.completed
    return out, r


def test_reassemble_shuffled_fragments():
    import random
    payload = random.Random(5).randbytes(207_360)
    frags = fragment(5, payload, mtu=1400)
    order = list(range(len(frags)))
    random.Random(7).shuffle(order)
    completed, r = _reassemble(frags, order)
    assert completed == (5, payload)
    assert r.completed_count == 1


def test_incomplete_set_times_out():
    frags = fragment(5, bytes(10_000), mtu=1400)
    r = Reassembler()
    for frag in frags[:-1]:
        assert r.offer(frag, 0).completed is None
    assert r.sweep(250_000) == ()          # not yet expired
    assert r.sweep(250_001) == (5,)        # past the timeout
    assert r.abandoned_count == 1


def test_duplicate_fragment_is_idempotent():
    frags = fragment(5, bytes(3_000), mtu=1400)
    r = Reassembler()
    r.offer(frags[0], 0)
    r.offer(frags[0], 0)
    event = r.offer(frags[1], 0)
    event2 = r.offer(frags[2], 0)
    assert event2.completed == (5, bytes(3_000))
    assert r.duplicate_count == 1
    assert event.completed is None


def test_inconsistent_frag_count_rejected():
    r = Reassembler()
    r.offer(FrameFragment(5, 0, 3, b"a"), 0)
    with pytest.raises(ReassemblyError):
        r.offer(FrameFragment(5, 1, 4, b"b"), 0)


def test_latest_wins_supersedes_older_pending():
    old = fragment(5, bytes(3_000), mtu=1400)
    new = fragment(6, bytes(3_000), mtu=1400)
    r = Reassembler()
    r.offer(old[0], 0)
    for frag in new[:-1]:
        r.offer(frag, 10)
    event = r.offer(new[-1], 20)
    assert event.completed[0] == 6
    assert event.abandoned == (5,)
    # a late fragment of the superseded frame is stale now
    r.offer(old[1], 30)
    assert r.stale_count == 1


def test_presented_ids_strictly_increase():
    r = Reassembler()
    a = fragment(3, bytes(100), mtu=1400)[0]
    b = fragment(2, bytes(100), mtu=1400)[0]
    assert r.offer(a, 0).completed == (3, bytes(100))
    assert r.offer(b, 0).completed is None
    assert r.stale_count == 1


@given(size=st.integers(1, 500_000), mtu=st.integers(128, 9_000), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_fragment_reassemble_roundtrip_property(size, mtu, seed):
    import random
    payload = random.Random(seed).randbytes(size)
    capacity = fragment_capacity(mtu)
    if -(-size // capacity) > 65_535:
        return
    frags = fragment(1, payload, mtu)
    order = list(range(len(frags)))
    random.Random(seed ^ 1).shuffle(order)
    completed, _ = _reassemble(frags, order)
    assert completed == (1, payload)
    assert zlib.crc32(completed[1]) == zlib.crc32(payload)


def test_rtt_estimator_examples():
    est = RttEstimator()
    assert est.update(4_000) == 4_000
    assert est.update(8_000) == 4_500
    est2 = RttEstimator()
    for _ in range(50):
        est2.update(3_333)
    assert est2.srtt == 3_333  # constant samples are a fixed point
    assert est2.samples == 50


def test_rtt_estimator_rejects_nonpositive():
    est = RttEstimator()
    with pytest.raises(ValidationError):
        est.update(0)
    with pytest.raises(ValidationError):
        est.update(-5)


@given(size=st.integers(1, 300_000), mtu=st.integers(128, 9_000))
@settings(max_examples=200, deadline=None)
def test_fragment_sizes_are_the_encoded_fragment_lengths(size, mtu):
    if -(-size // fragment_capacity(mtu)) > MAX_FRAGMENTS:
        return
    runs = fragment_runs(size, mtu)
    assert len(runs) <= 2 and all(count > 0 for _, count in runs)
    assert [wire for wire, count in runs for _ in range(count)] == [len(encode_fragment(1, 0, 0, f)) for f in fragment(1, bytes(size), mtu)]


@pytest.mark.parametrize("size, mtu", [(0, 1_400), (100, 127), (MAX_FRAGMENTS * 96 + 1, 128)])
def test_fragment_sizes_rejects_what_fragment_rejects(size, mtu):
    with pytest.raises(ValidationError) as sized:
        fragment_runs(size, mtu)
    with pytest.raises(ValidationError) as real:
        fragment(1, bytes(size), mtu)
    assert str(sized.value) == str(real.value)


def _bisect_frame_outcome(arrivals):
    """The per-fragment form of `frame_outcome`, over a list of arrival times."""
    late = bisect_right(arrivals, arrivals[0] + REASSEMBLY_TIMEOUT_US)
    if late < len(arrivals):
        return arrivals[late], False
    return arrivals[-1], True


def _expand(runs):
    return [first + i * step for first, step, count in runs for i in range(count)]


@st.composite
def _arrival_runs(draw):
    """Non-decreasing arrival runs `(first, step, count)` as a burst returns them.

    Runs of one with step 0, as under loss or jitter, and arithmetic runs,
    some long enough to straddle the reassembly timeout.
    """
    at, runs = draw(st.integers(0, 100_000)), []
    for gap, step, count in draw(st.lists(st.one_of(
            st.tuples(st.integers(0, 60_000), st.just(0), st.just(1)),
            st.tuples(st.integers(0, 60_000), st.integers(1, 130_000), st.integers(1, 6))), min_size=1, max_size=8)):
        runs.append((at + gap, step, count))
        at += gap + (count - 1) * step
    return runs


@st.composite
def _frame_timeline(draw):
    """One frame's arrival runs plus window sweeps, merged into one event order.

    Windows may fall on an arrival's microsecond, on either side of it.
    """
    runs = draw(_arrival_runs())
    arrivals = _expand(runs)
    windows = draw(st.lists(st.one_of(st.integers(0, arrivals[-1] + 100_000), st.sampled_from(arrivals)),
                            max_size=12, unique=True))
    events = [((a, 1, i), "fragment") for i, a in enumerate(arrivals)]
    events += [((w, draw(st.sampled_from([0, 2])), -1), "window") for w in windows]
    return runs, [(key[0], kind) for key, kind in sorted(events)], draw(st.booleans())


def _reassembler_fate(arrivals, timeline, stale):
    """Feed the frame to a real Reassembler; returns (kind, time) or None."""
    r = Reassembler()
    if stale:  # a newer frame completed before this one's first fragment
        r.offer(FrameFragment(8, 0, 1, b"n"), arrivals[0])
    index = 0
    for t, kind in timeline:
        if kind == "window":
            if 7 in r.sweep(t):
                return "abandoned", t
            continue
        event = r.offer(FrameFragment(7, index, len(arrivals), b"x"), t)
        index += 1
        if 7 in event.abandoned:
            return "abandoned", t
        if event.completed and event.completed[0] == 7:
            return "completed", t
    return None


def _frame_rule(runs, timeline, stale):
    """frame_outcome, with a window sweeping the frame if it runs first."""
    if stale:
        return None
    end, completed = frame_outcome(runs)
    arrivals = _expand(runs)
    index = 0
    for t, kind in timeline:
        if kind == "window" and t - arrivals[0] > REASSEMBLY_TIMEOUT_US:
            return "abandoned", t
        if kind == "fragment":
            if t == end and (arrivals.index(end) <= index):
                return ("completed" if completed else "abandoned"), end
            index += 1
    raise AssertionError("the outcome fragment is in the timeline")


@given(_frame_timeline())
@settings(max_examples=250, deadline=None)
def test_frame_outcome_and_window_sweep_agree_with_reassembler(timeline):
    runs, merged, stale = timeline
    assert _frame_rule(runs, merged, stale) == _reassembler_fate(_expand(runs), merged, stale)


@given(_arrival_runs())
@example([(0, 0, 1), (REASSEMBLY_TIMEOUT_US, 0, 1), (REASSEMBLY_TIMEOUT_US + 1, 0, 1)])
@example([(7, 125_000, 3), (250_007, 0, 1), (250_008, 3, 2)])
@example([(0, 100_000, 2), (150_000, 100_000, 3)])
@settings(max_examples=500, deadline=None)
def test_frame_outcome_agrees_with_a_bisect_over_the_expanded_arrivals(runs):
    assert frame_outcome(runs) == _bisect_frame_outcome(_expand(runs))


def test_frame_outcome_examples():
    assert frame_outcome([(10, 10, 3)]) == (30, True)
    assert frame_outcome([(0, 250_000, 2)]) == (250_000, True)
    assert frame_outcome([(0, 100_000, 2), (250_001, 149_999, 2)]) == (250_001, False)
    assert frame_outcome([(5, 0, 1)]) == (5, True)
    # runs of one, as a path with loss or jitter returns them; one arrives exactly at the bound
    assert frame_outcome([(0, 0, 1), (100_000, 0, 1), (250_000, 0, 1)]) == (250_000, True)
    assert frame_outcome([(0, 0, 1), (100_000, 0, 1), (250_000, 0, 1), (250_001, 0, 1)]) == (250_001, False)
    # a run straddling the bound is cut inside it, and one ending on the bound is not
    assert frame_outcome([(0, 0, 1), (200_000, 30_000, 4)]) == (260_000, False)
    assert frame_outcome([(0, 125_000, 3)]) == (250_000, True)
    assert frame_outcome([(0, 125_000, 3), (250_000, 0, 1), (400_000, 0, 1)]) == (400_000, False)
