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
takes back-to-back datagrams submitted at one instant as `(size, count)`
runs, such as the fragments of a frame, and carries each as its size.
`Path.submit_series` takes `count` datagrams of one size submitted at
`first + i * step`, such as a client's periodic input, and also carries each
as its size.  A burst or a series makes the same decisions, in the same
order, and leaves the same state as one `submit` per datagram.
`Path.advance_to` pops and lists what has arrived; `Path.forget_to` pops and
counts it, for a caller that never reads its deliveries.

In-flight datagrams are kept as runs.  `_serializing` holds runs
`(first_end, tx, count, size)`: `count` datagrams of `size` bytes whose
serialization ends at `first_end + i * tx`.  `_pending` holds runs
`(first_arrival, step, count, item)` in the same way.  When the profile has
neither loss nor jitter no draw can decide anything: the RNG skips a burst's
loss draws in one step (its state is a counter), and each run of the burst
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

A series on such a path is one run as well when each datagram finds the
serializer idle: `busy_until <= first` and a serialization time `tx` of at
most `step`.  Each datagram then leaves at its own submission time and has
finished before the next one is submitted, so the queue holds one datagram
at a time (it fits: the queue holds at least one MTU), the arrivals are
`first + tx + latency + i * step`, and only the last datagram is left
serializing.

A single datagram, a burst of one datagram or holding an empty one, any
other series, and every admission on a path with loss or jitter go through
the per-datagram loop, which draws per datagram and writes runs of one; a
burst is expanded into its sizes for it.  `_state()` expands every run into
one tuple per datagram, so paths compare equal whatever runs they hold.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from itertools import repeat

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

    def submit_burst(self, runs, now: int) -> list[int | Drop]:
        """Submit back-to-back datagrams at `now`, given as `(size, count)` runs.

        Returns one delivery time or drop reason per datagram, exactly as one
        `submit` per datagram would; `advance_to` later yields each one's size.
        """
        profile = self.profile
        count = sum(n for _, n in runs)
        if profile.loss_rate > 0 or profile.jitter > 0 or count < 2 or min(runs)[0] == 0:
            sizes = [size for size, n in runs for _ in range(n)]
            return self._admit(sizes, sizes, now)
        self._accept(max(size for size, n in runs if n), count, now)
        self.rng.skip(count)
        return self._admit_runs(runs, now)

    def submit_series(self, size: int, first: int, step: int, count: int) -> list[int | Drop]:
        """Submit `count` datagrams of `size` bytes, the i-th at `first + i * step`.

        Returns one delivery time or drop reason per datagram, exactly as one
        `submit` per datagram would; `advance_to` later yields each one's size.
        """
        profile = self.profile
        if count <= 0:
            return []
        if size > profile.mtu:
            raise ValidationError(f"packet of {size} B exceeds mtu {profile.mtu}")
        if first < self._last_submit or step < 0:
            raise ValidationError("submission time regressed")
        tx = ceil_div(size * 8 * 1_000_000, profile.bandwidth)
        if profile.loss_rate > 0 or profile.jitter > 0 or self.busy_until > first or not 0 < tx <= step:
            return [self._admit((size,), (size,), first + i * step)[0] for i in range(count)]
        # a closed-form run, exact by the module docstring
        self.rng.skip(count)
        self.submitted += count
        self._last_submit = last_submit = first + (count - 1) * step
        self.busy_until = busy = last_submit + tx
        self.queued_bytes = size
        self._serializing.clear()  # every end so far is at most busy_until <= first
        self._serializing.append((busy, tx, 1, size))
        arrival = first + tx + profile.one_way_latency
        self.last_arrival = busy + profile.one_way_latency
        self._pending.append((arrival, step, count, size))
        return list(range(arrival, self.last_arrival + 1, step))

    def _accept(self, largest: int, count: int, now: int) -> None:
        """Check a submission of `count` datagrams at `now`, none above `largest` bytes, and count it."""
        if largest > self.profile.mtu:
            raise ValidationError(f"packet of {largest} B exceeds mtu {self.profile.mtu}")
        if now < self._last_submit:
            raise ValidationError("submission time regressed")
        self._last_submit = now
        self.submitted += count

    def _admit(self, sizes, cargo, now: int) -> list[int | Drop]:
        """The per-datagram loop: loss draw, drop-tail queue, serializer, clamp."""
        self._accept(max(sizes, default=0), len(sizes), now)
        profile = self.profile
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

    def _admit_runs(self, runs, now: int) -> list[int | Drop]:
        """Admit a draw-free burst one `(size, count)` run per step; exact by the module docstring."""
        profile = self.profile
        bandwidth, latency, capacity = profile.bandwidth, profile.one_way_latency, profile.queue_capacity
        serializing, pending = self._serializing, self._pending
        busy, last = self.busy_until, self.last_arrival
        # every end this admission adds is later than `now`, so one release covers it
        queued = self._release(now, self.queued_bytes)
        out: list[int | Drop] = []
        for size, count in runs:
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
        size when submitted in a burst or a series.
        """
        out: list[tuple[object, int]] = []
        for at, step, count, item in self._pop_to(t):
            if count == 1:
                out.append((item, at))
            else:
                out += zip(repeat(item, count), range(at, at + count * step, step))
        return out

    def forget_to(self, t: int) -> None:
        """Count and drop every datagram with arrival <= t, as `advance_to` does, listing none."""
        self._pop_to(t)

    def _pop_to(self, t: int) -> list[tuple[int, int, int, object]]:
        """Remove the pending runs, or the leading part of one, arriving by `t`; returns them."""
        if t < self._last_advance:
            raise ValidationError("advance time regressed")
        self._last_advance = t
        pending, popped = self._pending, []
        while pending and pending[0][0] <= t:
            at, step, count, item = run = pending.popleft()
            done = count if count == 1 else min(count, (t - at) // step + 1)
            if done < count:
                pending.appendleft((at + done * step, step, count - done, item))
                run = (at, step, done, item)
            popped.append(run)
            self.delivered += done
        return popped
