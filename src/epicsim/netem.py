"""Deterministic packet-level emulation of one network path.

A path applies, in order: an i.i.d. loss draw, a byte-counted drop-tail queue
in front of a single serializer running at the profile bandwidth, fixed
one-way latency, and uniform jitter.  All arithmetic is integer microseconds;
identical (profile, seed, submission trace) always reproduces the identical
delivery trace.

RNG consumption is fixed per submitted packet so traces are reproducible
regardless of outcome: one draw for the loss decision, plus one draw for
jitter whenever the profile's jitter is non-zero (the jitter draw is made,
and discarded, even for packets that end up dropped).

Jitter can place a later packet's raw arrival before an earlier one's; to
keep the path order-preserving, each delivery time is clamped to be no
earlier than the previous delivery on the path.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from .model import NetworkProfile, ValidationError, ceil_div
from .rng import SplitMix64


class Drop(Enum):
    """Reason a submitted packet never gets a delivery time."""

    LOSS = "loss"
    QUEUE = "queue_full"


class Path:
    """Single-owner emulated path; drive it from one logical event loop."""

    __slots__ = (
        "profile", "rng", "busy_until", "queued_bytes",
        "submitted", "delivered", "dropped_loss", "dropped_queue",
        "_serializing", "_pending", "_last_arrival", "_last_submit", "_last_advance",
    )

    def __init__(self, profile: NetworkProfile, seed: int):
        if not isinstance(profile, NetworkProfile):
            raise ValidationError("profile must be a NetworkProfile")
        self.profile = profile
        self.rng = SplitMix64(seed)
        self.busy_until = 0
        self.queued_bytes = 0
        self.submitted = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        # (serialization_end, size) per packet still occupying the buffer
        self._serializing: deque[tuple[int, int]] = deque()
        # (arrival, datagram), non-decreasing arrival by construction
        self._pending: deque[tuple[int, bytes]] = deque()
        self._last_arrival = 0
        self._last_submit = 0
        self._last_advance = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._state() == other._state()

    def _state(self):
        return (
            self.profile, self.rng.state, self.busy_until, self.queued_bytes,
            self.submitted, self.delivered, self.dropped_loss, self.dropped_queue,
            tuple(self._serializing), tuple(self._pending),
            self._last_arrival, self._last_submit, self._last_advance,
        )

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def set_bandwidth(self, bandwidth: int) -> None:
        """Swap the link rate mid-run (a bandwidth step in a scenario).

        Datagrams already handed to the serializer keep their old completion
        times; the queue capacity is left as provisioned.
        """
        if bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")
        self.profile = NetworkProfile(
            one_way_latency=self.profile.one_way_latency,
            jitter=self.profile.jitter,
            loss_rate=self.profile.loss_rate,
            bandwidth=bandwidth,
            mtu=self.profile.mtu,
            queue_capacity=self.profile.queue_capacity,
        )

    def _drain_serialized(self, now: int) -> None:
        q = self._serializing
        while q and q[0][0] <= now:
            self.queued_bytes -= q.popleft()[1]

    def submit(self, data: bytes, now: int) -> int | Drop:
        """Submit one datagram at `now`; returns its delivery time or the drop reason."""
        size = len(data)
        if size > self.profile.mtu:
            raise ValidationError(f"packet of {size} B exceeds mtu {self.profile.mtu}")
        if now < self._last_submit:
            raise ValidationError("submission time regressed")
        self._last_submit = now
        self.submitted += 1

        lost = self.rng.next_unit() < self.profile.loss_rate
        jitter = self.profile.jitter
        jitter_draw = self.rng.next_below(jitter + 1) if jitter > 0 else 0

        if lost:
            self.dropped_loss += 1
            return Drop.LOSS

        self._drain_serialized(now)
        if self.queued_bytes + size > self.profile.queue_capacity:
            self.dropped_queue += 1
            return Drop.QUEUE

        start = now if now > self.busy_until else self.busy_until
        end = start + ceil_div(size * 8 * 1_000_000, self.profile.bandwidth)
        self.busy_until = end
        self.queued_bytes += size
        self._serializing.append((end, size))

        arrival = end + self.profile.one_way_latency + jitter_draw
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        self._pending.append((arrival, data))
        return arrival

    def advance_to(self, t: int) -> list[tuple[bytes, int]]:
        """Pop every (datagram, arrival) with arrival <= t, in arrival order."""
        if t < self._last_advance:
            raise ValidationError("advance time regressed")
        self._last_advance = t
        out: list[tuple[bytes, int]] = []
        pending = self._pending
        while pending and pending[0][0] <= t:
            arrival, data = pending.popleft()
            out.append((data, arrival))
            self.delivered += 1
        return out
