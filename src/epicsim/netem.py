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

`Path.submit` takes one datagram's bytes.  `Path.submit_burst` takes the
sizes of back-to-back datagrams submitted at one instant, such as the
fragments of a frame, and carries each as its size.  Both run the same
admission loop, so a burst makes the same decisions, in the same order, and
leaves the same state as one `submit` per size.  When the profile has
neither loss nor jitter no draw can decide anything, and the loop advances
the RNG past a burst's k loss draws in one step: its state is a counter.
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
        "last_arrival", "_serializing", "_pending", "_last_submit", "_last_advance",
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
        # (arrival, datagram or size), non-decreasing arrival by construction
        self._pending: deque[tuple[int, bytes | int]] = deque()
        # delivery time of the latest admitted datagram; later ones are clamped to it
        self.last_arrival = 0
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
            self.last_arrival, self._last_submit, self._last_advance,
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

    def submit(self, data: bytes, now: int) -> int | Drop:
        """Submit one datagram at `now`; returns its delivery time or the drop reason."""
        return self._admit((len(data),), (data,), now)[0]

    def submit_burst(self, sizes: list[int], now: int) -> list[int | Drop]:
        """Submit datagrams of `sizes` bytes back to back at `now`.

        Returns one delivery time or drop reason per datagram, exactly as one
        `submit` per size would; `advance_to` later yields each one's size.
        """
        return self._admit(sizes, sizes, now)

    def _admit(self, sizes, cargo, now: int) -> list[int | Drop]:
        """The admission loop: loss draw, drop-tail queue, serializer, clamp."""
        profile = self.profile
        largest = max(sizes, default=0)
        if largest > profile.mtu:
            raise ValidationError(f"packet of {largest} B exceeds mtu {profile.mtu}")
        if now < self._last_submit:
            raise ValidationError("submission time regressed")
        self._last_submit = now
        self.submitted += len(sizes)

        rng, loss_rate, jitter = self.rng, profile.loss_rate, profile.jitter
        draws = loss_rate > 0 or jitter > 0
        if not draws:
            rng.skip(len(sizes))
        jitter_draw = 0
        bandwidth, latency, capacity = profile.bandwidth, profile.one_way_latency, profile.queue_capacity
        serializing, pending = self._serializing, self._pending
        busy, queued, last = self.busy_until, self.queued_bytes, self.last_arrival
        out: list[int | Drop] = []
        for size, item in zip(sizes, cargo):
            if draws:
                lost = rng.next_unit() < loss_rate
                jitter_draw = rng.next_below(jitter + 1) if jitter > 0 else 0
                if lost:
                    self.dropped_loss += 1
                    out.append(Drop.LOSS)
                    continue
            while serializing and serializing[0][0] <= now:
                queued -= serializing.popleft()[1]
            if queued + size > capacity:
                self.dropped_queue += 1
                out.append(Drop.QUEUE)
                continue
            busy = (now if now > busy else busy) + ceil_div(size * 8 * 1_000_000, bandwidth)
            queued += size
            serializing.append((busy, size))
            arrival = busy + latency + jitter_draw
            if arrival < last:
                arrival = last
            last = arrival
            pending.append((arrival, item))
            out.append(arrival)
        self.busy_until, self.queued_bytes, self.last_arrival = busy, queued, last
        return out

    def advance_to(self, t: int) -> list[tuple[bytes | int, int]]:
        """Pop every (datagram, arrival) with arrival <= t, in arrival order.

        A datagram submitted in a burst is popped as its size.
        """
        if t < self._last_advance:
            raise ValidationError("advance time regressed")
        self._last_advance = t
        out: list[tuple[bytes | int, int]] = []
        pending = self._pending
        while pending and pending[0][0] <= t:
            arrival, data = pending.popleft()
            out.append((data, arrival))
            self.delivered += 1
        return out
