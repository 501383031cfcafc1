"""Byte-level reference for the deployment handshake.

Each CONTROL message is encoded on the wire format, submitted as bytes, and
decoded on arrival; an "up" or "down" event polls its whole path with
`Path.advance_to`, so every message that has arrived by the event's time is
handled in that event.  The production `orchestrator.deploy_handshake` sends
records and handles each delivery as its own event; the two must return the
same steps and ready time, or both time out.
"""

import heapq

from epicsim.model import NetworkProfile
from epicsim.netem import Path
from epicsim.orchestrator import (
    CTRL_DEPLOY,
    CTRL_DISCOVER,
    CTRL_OFFER,
    CTRL_READY,
    HANDSHAKE_RETRY_US,
    HANDSHAKE_TIMEOUT_US,
    HandshakeStep,
    HandshakeTimeout,
    HandshakeTrace,
    _CTRL_NAMES,
)
from epicsim.rng import derive_seed
from epicsim.transport import MsgType, WireHeader, decode_message, encode_message


def reference_handshake(profile: NetworkProfile, seed: int) -> HandshakeTrace:
    """Run the DISCOVER/OFFER/DEPLOY/READY exchange over an emulated path pair.

    The client retransmits its outstanding request every retry interval; if
    READY has not arrived by the timeout the deployment fails.  The node side
    is a stateless responder (DISCOVER begets OFFER, DEPLOY begets READY), so
    duplicated requests are harmless.  Session traffic may only start after
    the returned ready_time.
    """
    up = Path(profile, derive_seed(seed, 0, 0x41))
    down = Path(profile, derive_seed(seed, 0, 0x42))
    heap: list[tuple[int, int, str]] = []
    order = 0
    seq = 0
    send_times: dict[int, int] = {}
    steps_seen: dict[int, HandshakeStep] = {}
    pending = CTRL_DISCOVER

    def sched(t: int, kind: str):
        nonlocal order
        order += 1
        heapq.heappush(heap, (t, order, kind))

    def send(subtype: int, t: int, path: Path, kind: str):
        nonlocal seq
        header = WireHeader(MsgType.CONTROL, 0, seq, t)
        seq += 1
        send_times.setdefault(subtype, t)
        result = path.submit(encode_message(header, bytes([subtype])), t)
        if isinstance(result, int):
            sched(result, kind)

    def record(subtype: int, at: int):
        if subtype not in steps_seen:
            steps_seen[subtype] = HandshakeStep(_CTRL_NAMES[subtype], send_times[subtype], at)

    send(CTRL_DISCOVER, 0, up, "up")
    sched(HANDSHAKE_RETRY_US, "retry")

    while heap:
        t, _, kind = heapq.heappop(heap)
        if t > HANDSHAKE_TIMEOUT_US:
            break
        if kind == "retry":
            send(pending, t, up, "up")
            sched(t + HANDSHAKE_RETRY_US, "retry")
        elif kind == "up":
            for data, at in up.advance_to(t):
                subtype = decode_message(data)[1][0]
                record(subtype, at)
                reply = CTRL_OFFER if subtype == CTRL_DISCOVER else CTRL_READY
                send(reply, at, down, "down")
        else:
            for data, at in down.advance_to(t):
                subtype = decode_message(data)[1][0]
                record(subtype, at)
                if subtype == CTRL_OFFER and pending == CTRL_DISCOVER:
                    pending = CTRL_DEPLOY
                    send(CTRL_DEPLOY, at, up, "up")
                elif subtype == CTRL_READY:
                    ordered = tuple(sorted(steps_seen.values(), key=lambda s: s.received_at))
                    return HandshakeTrace(ordered, at)
    raise HandshakeTimeout(f"no READY within {HANDSHAKE_TIMEOUT_US} us")
