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

`Path.submit` takes one datagram: its bytes, or any item with the size of
the datagram it stands for, such as a message record.  `Path.submit_burst`
takes the sizes of back-to-back datagrams submitted at one instant, such as
the fragments of a frame, and carries each as its size.  A burst makes the
same decisions, in the same order, and leaves the same state as one `submit`
per size.

In-flight datagrams are kept as runs.  `_serializing` holds runs
`(first_end, tx, count, size)`: `count` datagrams of `size` bytes whose
serialization ends at `first_end + i * tx`.  `_pending` holds runs
`(first_arrival, step, count, item)` in the same way.  When the profile has
neither loss nor jitter no draw can decide anything: the RNG skips a burst's
loss draws in one step (its state is a counter), and each run of equal sizes
is admitted in a fixed number of steps, exactly as one `submit` per datagram:

- One release per admission.  `now` is fixed, and every serialization end an
  admission adds is later than `now` (a datagram of at least one byte takes
  at least 1 us), so the datagrams serialized by `now` are released once,
  before the first.  A run that has partly finished is split arithmetically.
- Arithmetic ends.  Equal sizes take equal serialization times `tx`, so a
  run's serialization ends and arrivals are arithmetic sequences.
- No clamp.  Without jitter an arrival is its serialization end plus the
  fixed latency, which never decreases, so the clamp cannot bind.
- One queue cut.  The queue admits `(capacity - queued) // size` datagrams
  of a run and drops the rest; a smaller size that follows may still fit.

A single datagram, a burst holding an empty one, and every admission on a
path with loss or jitter go through the per-datagram loop, which draws per
datagram and writes runs of one.  `_state()` expands every run into one
tuple per datagram, so paths compare equal whatever runs they hold.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from itertools import groupby, repeat

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
        # runs (first_end, tx, count, size) still occupying the buffer; the
        # i-th packet of a run finishes serializing at first_end + i * tx
        self._serializing: deque[tuple[int, int, int, int]] = deque()
        # runs (first_arrival, step, count, item or size), non-decreasing
        # arrival by construction; the i-th arrives at first_arrival + i * step
        self._pending: deque[tuple[int, int, int, object]] = deque()
        # delivery time of the latest admitted datagram; later ones are clamped to it
        self.last_arrival = 0
        self._last_submit = 0
        self._last_advance = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._state() == other._state()

    def _state(self):
        """Every field, with each run expanded into one tuple per datagram."""
        return (
            self.profile, self.rng.state, self.busy_until, self.queued_bytes,
            self.submitted, self.delivered, self.dropped_loss, self.dropped_queue,
            tuple((end + i * tx, size) for end, tx, count, size in self._serializing for i in range(count)),
            tuple((at + i * step, item) for at, step, count, item in self._pending for i in range(count)),
            self.last_arrival, self._last_submit, self._last_advance,
        )

    @property
    def in_flight(self) -> int:
        return sum(run[2] for run in self._pending)

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

    def submit(self, data, now: int, size: int | None = None) -> int | Drop:
        """Submit one datagram at `now`; returns its delivery time or the drop reason.

        `data` is the datagram's bytes, or any item standing for a datagram
        of `size` bytes; `advance_to` later yields it as given.
        """
        return self._admit((len(data) if size is None else size,), (data,), now)[0]

    def submit_burst(self, sizes: list[int], now: int) -> list[int | Drop]:
        """Submit datagrams of `sizes` bytes back to back at `now`.

        Returns one delivery time or drop reason per datagram, exactly as one
        `submit` per size would; `advance_to` later yields each one's size.
        """
        return self._admit(sizes, sizes, now)

    def _admit(self, sizes, cargo, now: int) -> list[int | Drop]:
        """The per-datagram loop: loss draw, drop-tail queue, serializer, clamp.

        A draw-free burst of non-empty datagrams goes to `_admit_runs` instead.
        """
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
            if len(sizes) > 1 and min(sizes) > 0:
                return self._admit_runs(sizes, now)
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
                if serializing[0][2] > 1:  # a run of several may have partly finished
                    queued = self._release(now, queued)
                    break
                queued -= serializing.popleft()[3]
            if queued + size > capacity:
                self.dropped_queue += 1
                out.append(Drop.QUEUE)
                continue
            tx = ceil_div(size * 8 * 1_000_000, bandwidth)
            busy = (now if now > busy else busy) + tx
            queued += size
            serializing.append((busy, tx, 1, size))
            arrival = busy + latency + jitter_draw
            if arrival < last:
                arrival = last
            last = arrival
            pending.append((arrival, 0, 1, item))
            out.append(arrival)
        self.busy_until, self.queued_bytes, self.last_arrival = busy, queued, last
        return out

    def _admit_runs(self, sizes, now: int) -> list[int | Drop]:
        """Admit a draw-free burst one run of equal sizes per step; exact by the module docstring."""
        profile = self.profile
        bandwidth, latency, capacity = profile.bandwidth, profile.one_way_latency, profile.queue_capacity
        serializing, pending = self._serializing, self._pending
        busy, last = self.busy_until, self.last_arrival
        # every end this admission adds is later than `now`, so one release covers it
        queued = self._release(now, self.queued_bytes)
        out: list[int | Drop] = []
        for size, run in groupby(sizes):
            count = len(list(run))
            fits = min(count, (capacity - queued) // size)
            if fits:
                tx = ceil_div(size * 8 * 1_000_000, bandwidth)
                first = (now if now > busy else busy) + tx
                busy = first + (fits - 1) * tx
                queued += fits * size
                last = busy + latency  # without jitter arrivals never fall, so no clamp binds
                serializing.append((first, tx, fits, size))
                pending.append((first + latency, tx, fits, size))
                out += range(first + latency, last + 1, tx)
            if fits < count:
                self.dropped_queue += count - fits
                out += repeat(Drop.QUEUE, count - fits)
        self.busy_until, self.queued_bytes, self.last_arrival = busy, queued, last
        return out

    def _release(self, now: int, queued: int) -> int:
        """Free the buffer of every datagram serialized by `now`; returns the bytes left queued."""
        serializing = self._serializing
        while serializing and serializing[0][0] <= now:
            end, tx, count, size = serializing[0]
            done = count if count == 1 else min(count, (now - end) // tx + 1)
            queued -= done * size
            if done < count:
                serializing[0] = (end + done * tx, tx, count - done, size)
                break
            serializing.popleft()
        return queued

    def advance_to(self, t: int) -> list[tuple[object, int]]:
        """Pop every (datagram, arrival) with arrival <= t, in arrival order.

        A datagram is popped as it was submitted: its bytes or item, or its
        size when submitted in a burst.
        """
        if t < self._last_advance:
            raise ValidationError("advance time regressed")
        self._last_advance = t
        out: list[tuple[object, int]] = []
        pending = self._pending
        while pending and pending[0][0] <= t:
            at, step, count, item = pending[0]
            if count == 1:
                pending.popleft()
                out.append((item, at))
                continue
            done = min(count, (t - at) // step + 1)
            out += zip(repeat(item, done), range(at, at + done * step, step))
            if done < count:
                pending[0] = (at + done * step, step, count - done, item)
                break
            pending.popleft()
        self.delivered += len(out)
        return out
