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
runs, such as the fragments of a frame.  `Path.submit_series` takes `count`
datagrams of one size submitted at `first + i * step`, such as a client's
periodic input.  Both carry each as its size and return arrival runs
`(first, step, count)` and drop runs `(Drop, 0, count)`.  Every datagram is
1 B to the MTU.  Both make the same decisions, in the same order, and leave
the same state as one `submit` per datagram.  `Path.advance_to` pops and
lists what has arrived; `Path.forget_to` pops and counts it, for a caller
that never reads its deliveries; `Path.skip_delivered` counts datagrams as
submitted and delivered without admitting them, for a caller that knows that
none is drawn on or cut, that each has left the serializer by the next
admission, and that each arrives before anything reads `delivered` or the
arrivals (a frame train).  No code in `src` calls `advance_to`: a run reads
each delivery time off its submission, and only the tests, their reference
oracles and the benchmark's tracer and micro cases poll a path.

In-flight datagrams are kept as runs.  `_serializing` holds runs
`(first_end, tx, count, size)`: `count` datagrams of `size` bytes whose
serialization ends at `first_end + i * tx`.  `_pending` holds runs
`(first_arrival, step, count, item)` in the same way.  `_pop_runs` pops
either one up to a time, splitting a run that has partly passed.

`Path._admit` is the one admission routine; a single datagram is a run of
one.  It releases the serializer once, before the first datagram: `now` is
fixed, and every serialization end an admission adds is later than `now` (a
datagram of at least 1 B takes at least 1 us), so every datagram of the
admission finds the same ones serialized by `now`.  An idle serializer
(`busy_until <= now`) has ended every serialization, so the release empties
`_serializing` and the queue in one step; a busy one pops the runs that
have ended.  When the profile has
neither loss nor jitter no draw can decide anything: the RNG skips the
admission's loss draws in one step (its state is a counter), and each run
is admitted in a fixed number of steps, exactly as datagram by datagram:

- Arithmetic ends.  Equal sizes take equal serialization times `tx`, so a
  run's serialization ends and arrivals are arithmetic sequences.
- No clamp.  Without jitter an arrival is its serialization end plus the
  fixed latency, which never decreases, so the clamp cannot bind.
- One queue cut.  The queue admits `(capacity - queued) // size` datagrams
  of a run and drops the rest; a smaller size that follows may still fit.

With loss or jitter it goes datagram by datagram: loss draw, jitter draw,
queue check, serializer and clamp, writing and returning runs of one.

A series on a draw-free path is one run as well when each datagram finds the
serializer idle: `busy_until <= first` and a serialization time `tx` of at
most `step`.  Each datagram then leaves at its own submission time and has
finished before the next one is submitted, so the queue holds one datagram
at a time (it fits: the queue holds at least one MTU), the arrivals are
`first + tx + latency + i * step`, and only the last datagram is left
serializing; the series returns that one run.  Any other series is
admitted one datagram at a time and returns runs of one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
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
        "last_arrival", "last_submit", "_serializing", "_pending", "_last_advance",
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
        self.last_submit = 0  # time of the latest submission; none may be earlier
        self._last_advance = 0

    @property
    def in_flight(self) -> int:
        return sum(run[2] for run in self._pending)

    def set_bandwidth(self, bandwidth: int) -> None:
        """Swap the link rate mid-run (a bandwidth step in a scenario).

        Datagrams already handed to the serializer keep their old completion
        times; the queue capacity is left as provisioned.
        """
        self.profile = replace(self.profile, bandwidth=bandwidth)

    def submit(self, data, now: int, size: int | None = None) -> int | Drop:
        """Submit one datagram at `now`; returns its delivery time or the drop reason.

        `data` is the datagram's bytes, or any item standing for a datagram
        of `size` bytes; `advance_to` later yields it as given.
        """
        return self._admit(((len(data) if size is None else size, 1),), now, data)[0][0]

    def submit_burst(self, runs, now: int) -> list[tuple[int | Drop, int, int]]:
        """Submit back-to-back datagrams at `now`, given as `(size, count)` runs.

        Returns arrival runs `(first, step, count)`, at `first + i * step`, and
        drop runs `(Drop, 0, count)`, which expand to one `submit` per datagram's
        results; `advance_to` later yields each datagram's size.
        """
        return self._admit(runs, now)

    def submit_series(self, size: int, first: int, step: int, count: int) -> list[tuple[int | Drop, int, int]]:
        """Submit `count` datagrams of `size` bytes, the i-th at `first + i * step`.

        Returns runs as `submit_burst` does; `advance_to` later yields each one's size.
        """
        if count == 0:
            return []
        self._check(((size, count),), first)
        if step < 0:
            raise ValidationError("submission time regressed")
        profile = self.profile
        tx = ceil_div(size * 8 * 1_000_000, profile.bandwidth)
        if profile.loss_rate > 0 or profile.jitter > 0 or self.busy_until > first or tx > step:
            return [self._admit(((size, 1),), first + i * step)[0] for i in range(count)]
        # a closed-form run, exact by the module docstring
        self.rng.skip(count)
        self.submitted += count
        self.last_submit = last_submit = first + (count - 1) * step
        self.busy_until = busy = last_submit + tx
        self.queued_bytes = size
        self._serializing.clear()  # every end so far is at most busy_until <= first
        self._serializing.append((busy, tx, 1, size))
        arrival = first + tx + profile.one_way_latency
        self.last_arrival = busy + profile.one_way_latency
        self._pending.append((arrival, step, count, size))
        return [(arrival, step, count)]

    def skip_delivered(self, count: int) -> None:
        """Count `count` datagrams as submitted and delivered and skip their draws, changing nothing else: on a
        path without loss or jitter, what admitting them uncut leaves once they have left the serializer and a
        `forget_to` has counted them.  The caller knows that each leaves the serializer by the next admission
        and arrives before anything reads `delivered` or the arrivals; its next `forget_to` need not pass them."""
        self.rng.skip(count)
        self.submitted += count
        self.delivered += count

    def _check(self, runs, now: int) -> int:
        """Raise on a negative count, a datagram outside 1 B to the MTU or a regressed `now`; returns their count."""
        mtu, total = self.profile.mtu, 0
        for size, count in runs:
            if count > 0:
                if not 0 < size <= mtu:
                    raise ValidationError(f"packet of {size} B must be from 1 B to mtu {mtu}")
                total += count
            elif count:
                raise ValidationError(f"a run of {count} datagrams: the count must be non-negative")
        if now < self.last_submit:
            raise ValidationError("submission time regressed")
        return total

    def _admit(self, runs, now: int, item=None) -> list[tuple[int | Drop, int, int]]:
        """Admit `(size, count)` runs back to back at `now`, each datagram carried as `item` or, if None, its size."""
        total = self._check(runs, now)
        self.last_submit = now
        self.submitted += total
        profile = self.profile
        bandwidth, latency, capacity = profile.bandwidth, profile.one_way_latency, profile.queue_capacity
        loss_rate, jitter = profile.loss_rate, profile.jitter
        serializing, pending = self._serializing, self._pending
        busy, queued, last = self.busy_until, self.queued_bytes, self.last_arrival
        if busy <= now:  # idle: every serialization has ended
            serializing.clear()
            queued = 0
        else:
            for _, _, done, size in _pop_runs(serializing, now):
                queued -= done * size
        out: list[tuple[int | Drop, int, int]] = []
        if not (loss_rate > 0 or jitter > 0):
            self.rng.skip(total)
            for size, count in runs:
                if not count:
                    continue
                fits = min(count, (capacity - queued) // size)
                if fits:
                    tx = ceil_div(size * 8 * 1_000_000, bandwidth)
                    first = (now if now > busy else busy) + tx
                    busy = first + (fits - 1) * tx
                    queued += fits * size
                    last = busy + latency  # without jitter arrivals never fall, so no clamp binds
                    serializing.append((first, tx, fits, size))
                    pending.append((first + latency, tx, fits, size if item is None else item))
                    out.append((first + latency, tx, fits))
                if fits < count:
                    self.dropped_queue += count - fits
                    out.append((Drop.QUEUE, 0, count - fits))
        else:
            rng, jitter_draw = self.rng, 0
            for size, count in runs:
                tx = ceil_div(size * 8 * 1_000_000, bandwidth)
                cargo = size if item is None else item
                for _ in range(count):
                    lost = rng.next_unit() < loss_rate
                    if jitter > 0:
                        jitter_draw = rng.next_below(jitter + 1)
                    if lost:
                        self.dropped_loss += 1
                        out.append((Drop.LOSS, 0, 1))
                    elif queued + size > capacity:
                        self.dropped_queue += 1
                        out.append((Drop.QUEUE, 0, 1))
                    else:
                        busy = (now if now > busy else busy) + tx
                        queued += size
                        serializing.append((busy, tx, 1, size))
                        arrival = busy + latency + jitter_draw
                        if arrival < last:
                            arrival = last
                        last = arrival
                        pending.append((arrival, 0, 1, cargo))
                        out.append((arrival, 0, 1))
        self.busy_until, self.queued_bytes, self.last_arrival = busy, queued, last
        return out

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
        popped = _pop_runs(self._pending, t)
        for run in popped:
            self.delivered += run[2]
        return popped


def _pop_runs(runs: deque, t: int) -> list:
    """Remove the runs `(first, step, count, x)`, or the leading part of one, falling by `t`; returns them."""
    popped = []
    while runs and runs[0][0] <= t:
        first, step, count, x = run = runs.popleft()
        done = count if count == 1 else min(count, (t - first) // step + 1)
        if done < count:
            runs.appendleft((first + done * step, step, count - done, x))
            run = (first, step, done, x)
        popped.append(run)
    return popped
