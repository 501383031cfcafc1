"""Wire protocol: fixed 24-byte framing, fragmentation/reassembly, RTT smoothing.

The same encoder bytes flow through the in-process emulator and the UDP
loopback mode, so header layout is normative and big-endian throughout:

    offset  size  field
    0       4     magic "EPIC" (0x45 0x50 0x49 0x43)
    4       1     version, 0x01
    5       1     message type
    6       1     flags
    7       1     reserved, 0x00
    8       4     session id
    12      4     sequence (strictly increasing per sender, session and type)
    16      8     timestamp, microseconds

Frame payloads ride FRAME_FRAG messages whose payload starts with an 8-byte
sub-header (frame id u32, fragment index u16, fragment count u16) followed by
the fragment's slice of the encoded frame.  An INPUT payload is described by
its size only, `INPUT_PAYLOAD_LEN`; no code builds its bytes.

The codec and `Reassembler` are the normative format.  The UDP loopback mode
sends bytes through the message codec only, and `Reassembler` runs only in
the tests, demo 03 and perfbench.  The in-process simulator carries
a frame as runs of its fragments' wire sizes (`fragment_runs`) and reads the
frame's fate off their arrival times (`frame_outcome`); inputs, probes and
state syncs ride as datagram sizes in bursts and series, and the handshake's
CONTROL as a `(MsgType, session id, timestamp)` record of its encoded size;
no message is encoded.  Each handshake delivery is one event that handles only
its own message, which equals polling the path then: a path delivers in
submission order, and a reply arrives after the message that triggered it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import IntEnum

from .model import ValidationError, ceil_div

MAGIC = b"EPIC"
VERSION = 1
HEADER_LEN = 24
FRAG_HEADER_LEN = 8
INPUT_PAYLOAD_LEN = 32            # a pose: 3 position floats, 4 quaternion floats, a button mask
MAX_FRAGMENTS = 65_535
REASSEMBLY_TIMEOUT_US = 250_000

_HEADER = struct.Struct(">4sBBBBIIQ")
_FRAG = struct.Struct(">IHH")


class MsgType(IntEnum):
    INPUT = 0x01
    FRAME_FRAG = 0x02
    PING = 0x03
    PONG = 0x04
    STATE_SYNC = 0x05
    CONTROL = 0x06


class WireError(ValueError):
    """Malformed bytes, unknown type, truncation, or a framing violation."""


class ReassemblyError(WireError):
    """Fragments of one frame disagree about the fragment count."""


@dataclass(frozen=True, slots=True)
class WireHeader:
    msg_type: int
    session_id: int
    sequence: int
    timestamp: int
    flags: int = 0


def encode_message(header: WireHeader, payload: bytes = b"") -> bytes:
    return _HEADER.pack(
        MAGIC, VERSION, header.msg_type, header.flags, 0,
        header.session_id, header.sequence, header.timestamp,
    ) + payload


def decode_message(data: bytes) -> tuple[WireHeader, bytes]:
    if len(data) < HEADER_LEN:
        raise WireError(f"truncated message: {len(data)} B < {HEADER_LEN} B header")
    magic, version, msg_type, flags, reserved, session_id, sequence, timestamp = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    if msg_type not in MsgType._value2member_map_:
        raise WireError(f"unknown message type 0x{msg_type:02x}")
    header = WireHeader(MsgType(msg_type), session_id, sequence, timestamp, flags)
    return header, data[HEADER_LEN:]


@dataclass(frozen=True, slots=True)
class FrameFragment:
    frame_id: int
    frag_index: int
    frag_count: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.frag_index < self.frag_count:
            raise ValidationError("frag_index must be within frag_count")


def fragment_capacity(mtu: int) -> int:
    """Payload bytes one fragment can carry after header and sub-header."""
    return mtu - HEADER_LEN - FRAG_HEADER_LEN


def _fragment_count(n_bytes: int, mtu: int) -> int:
    if n_bytes <= 0:
        raise ValidationError("cannot fragment an empty payload")
    if mtu < 128:
        raise ValidationError("mtu must be at least 128 bytes")
    count = ceil_div(n_bytes, fragment_capacity(mtu))
    if count > MAX_FRAGMENTS:
        raise ValidationError(f"frame needs {count} fragments, limit is {MAX_FRAGMENTS}")
    return count


def fragment(frame_id: int, payload: bytes, mtu: int) -> list[FrameFragment]:
    """Split an encoded frame into MTU-sized fragments, in order, no overlap."""
    count = _fragment_count(len(payload), mtu)
    capacity = fragment_capacity(mtu)
    view = memoryview(payload)
    return [
        FrameFragment(frame_id, i, count, bytes(view[i * capacity:(i + 1) * capacity]))
        for i in range(count)
    ]


@functools.lru_cache(maxsize=256)  # a run asks for the same few frame sizes again and again
def fragment_runs(n_bytes: int, mtu: int) -> tuple[tuple[int, int], ...]:
    """Wire sizes of the FRAME_FRAG messages an `n_bytes` frame is sent as, as `(size, count)` runs.

    Every fragment but the last is a full MTU.  Expanded, the runs equal the
    lengths of `encode_fragment` over `fragment`, without bytes.
    """
    count = _fragment_count(n_bytes, mtu)
    last = n_bytes - (count - 1) * fragment_capacity(mtu) + HEADER_LEN + FRAG_HEADER_LEN
    if last == mtu:
        return ((mtu, count),)
    return ((mtu, count - 1), (last, 1)) if count > 1 else ((last, 1),)


def encode_fragment(session_id: int, sequence: int, timestamp: int, frag: FrameFragment) -> bytes:
    header = WireHeader(MsgType.FRAME_FRAG, session_id, sequence, timestamp)
    sub = _FRAG.pack(frag.frame_id, frag.frag_index, frag.frag_count)
    return encode_message(header, sub + frag.payload)


def decode_fragment(payload: bytes) -> FrameFragment:
    """Parse the payload of a FRAME_FRAG message."""
    if len(payload) < FRAG_HEADER_LEN:
        raise WireError("fragment payload shorter than its sub-header")
    frame_id, index, count = _FRAG.unpack_from(payload)
    return FrameFragment(frame_id, index, count, payload[FRAG_HEADER_LEN:])


@dataclass(frozen=True, slots=True)
class ReassemblyEvent:
    """Outcome of offering one fragment: a completed frame and/or abandoned ids."""

    completed: tuple[int, bytes] | None
    abandoned: tuple[int, ...]


class _Partial:
    __slots__ = ("count", "chunks", "received", "first_seen")

    def __init__(self, count: int, first_seen: int):
        self.count = count
        self.chunks: dict[int, bytes] = {}
        self.received = 0
        self.first_seen = first_seen


class Reassembler:
    """Per-receiver frame reassembly with latest-wins presentation.

    Frames complete when all fragments arrive; duplicates are ignored.  A
    pending frame is abandoned when a newer frame completes first, or when it
    has been pending longer than the timeout.  Completed frame ids are
    strictly increasing; fragments for frames at or below the last completed
    id are dropped as stale.
    """

    __slots__ = ("last_completed", "_pending", "_oldest",
                 "completed_count", "abandoned_count", "duplicate_count", "stale_count")

    def __init__(self):
        self.last_completed = -1
        self._pending: dict[int, _Partial] = {}
        # at most the earliest first_seen pending; left stale when a frame leaves
        self._oldest = math.inf
        self.completed_count = 0
        self.abandoned_count = 0
        self.duplicate_count = 0
        self.stale_count = 0

    def _expire(self, now: int) -> list[int]:
        if now - self._oldest <= REASSEMBLY_TIMEOUT_US:
            return []  # nothing pending can have expired
        pending = self._pending
        expired = [fid for fid, p in pending.items() if now - p.first_seen > REASSEMBLY_TIMEOUT_US]
        for fid in expired:
            del pending[fid]
        self.abandoned_count += len(expired)
        self._oldest = min((p.first_seen for p in pending.values()), default=math.inf)
        return expired

    def offer(self, frag: FrameFragment, now: int) -> ReassemblyEvent:
        abandoned = self._expire(now)

        if frag.frame_id <= self.last_completed:
            self.stale_count += 1
            return ReassemblyEvent(None, tuple(abandoned))

        partial = self._pending.get(frag.frame_id)
        if partial is None:
            partial = _Partial(frag.frag_count, now)
            self._pending[frag.frame_id] = partial
            self._oldest = min(self._oldest, now)
        elif partial.count != frag.frag_count:
            raise ReassemblyError(
                f"frame {frag.frame_id}: fragment count {frag.frag_count} != {partial.count}"
            )

        if frag.frag_index in partial.chunks:
            self.duplicate_count += 1
            return ReassemblyEvent(None, tuple(abandoned))
        partial.chunks[frag.frag_index] = frag.payload
        partial.received += 1

        if partial.received < partial.count:
            return ReassemblyEvent(None, tuple(abandoned))

        payload = b"".join(partial.chunks[i] for i in range(partial.count))
        del self._pending[frag.frame_id]
        superseded = [fid for fid in self._pending if fid < frag.frame_id]
        for fid in superseded:
            del self._pending[fid]
        self.abandoned_count += len(superseded)
        abandoned.extend(superseded)
        self.last_completed = frag.frame_id
        self.completed_count += 1
        return ReassemblyEvent((frag.frame_id, payload), tuple(abandoned))

    def sweep(self, now: int) -> tuple[int, ...]:
        """Expire timed-out pendings without offering a fragment."""
        return tuple(self._expire(now))


def frame_outcome(runs: list[tuple[int, int, int]]) -> tuple[int, bool]:
    """(time, completed) of a frame all of whose fragments arrive, from `Path.submit_burst`'s arrival runs.

    The frame is abandoned at the first arrival more than the reassembly
    timeout after the first one, where `Reassembler.offer` expires it on
    receiving that fragment; otherwise it completes at the last arrival.
    Each run takes a fixed number of steps.  Newer frames, older completions
    and timeout sweeps are the receiver's to apply.
    """
    bound = runs[0][0] + REASSEMBLY_TIMEOUT_US
    for first, step, count in runs:
        if (last := first + (count - 1) * step) > bound:  # the first late arrival; step > 0 if first <= bound
            return (first if first > bound else first + ((bound - first) // step + 1) * step), False
    return last, True


@dataclass(slots=True)
class RttEstimator:
    """Smoothed RTT: first sample adopted, then srtt <- (7*srtt + sample)/8."""

    srtt: int | None = None
    samples: int = 0

    def update(self, sample: int) -> int:
        if sample <= 0:
            raise ValidationError("rtt sample must be positive")
        if self.srtt is None:
            self.srtt = sample
        else:
            self.srtt = (7 * self.srtt + sample + 4) // 8  # round half up
        self.samples += 1
        return self.srtt
