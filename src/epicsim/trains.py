"""Frame trains: a frame path's frames between windows, settled in one pass.

`settle_train` is the session's `_Simulation._train`.  The session
docstring gives the conditions under which it settles a frame path's
instants and why the frame events it pushes keep their order.  The bursts
of one instant on an idle draw-free path take the same times at every
instant, so they are admitted once on a fresh idle `Path`, with a state sync
after them, and kept for the next train with the same profile, frame and
clients; the syncs due between two readies are then stepped through in
closed form, bounding the queue by every byte admitted since the path was
last idle.
"""

from __future__ import annotations

import functools
import logging
from operator import attrgetter
from typing import TYPE_CHECKING

from .model import NetworkProfile
from .netem import Path
from .transport import fragment_runs, frame_outcome

if TYPE_CHECKING:
    from .session import _ClientState, _Simulation

logger = logging.getLogger("epicsim.session")
FRAME_LINE = "t=%d client %d frame %d: %d fragments, %d dropped, %s at %d"  # a frame's EPICSIM_LOG=packets line


@functools.lru_cache(maxsize=64)
def _instant(profile: NetworkProfile, runs: tuple[tuple[int, int], ...], n: int, sync_bytes: int):
    """On the path idle at 0: the outcome of each of `n` clients' bursts of `runs` (None if the queue cuts one),
    when the last one ends serializing, the bytes they queue, and how long a sync of n datagrams then takes."""
    idle = Path(profile, 0)
    arrivals = [idle.submit_burst(runs, 0) for _ in range(n)]
    burst_end, burst_bytes, cut = idle.busy_until, idle.queued_bytes, idle.dropped_queue
    idle.submit_burst(((sync_bytes, n),), burst_end)
    ends = None if cut else tuple(frame_outcome(burst) for burst in arrivals)
    return ends, burst_end, burst_bytes, idle.busy_until - burst_end


def settle_train(sim: _Simulation, t: int, st: _ClientState) -> bool:
    """Settle the frames of the path of `st`, its first client, at t, t + I, ... as the session docstring
    says; returns whether it settled any, and if not, tries again at the next window."""
    path, level, settings = st.down_frames, st.controller.level, sim.settings
    # in the order of their frame events at t (session docstring), `st` first if all are at t
    group = sorted((c for c in sim.clients.values() if c.down_frames is path), key=attrgetter("frame_seq"))
    size, _, ready, interval = sim.level_costs[level]
    st.train_from = sim.next_window
    if path.busy_until > t + ready or not all(c.next_frame == t and c.controller.level == level and not c.pending
                                              and c.frames.sent == c.next_frame_id for c in group):
        return False
    profile, n = path.profile, len(group)
    runs = fragment_runs(size, profile.mtu)
    ends, burst_end, burst_bytes, sync_tx = _instant(profile, runs, n, settings.sync_bytes)
    if ends is None or not all(completed for _, completed in ends):
        return False
    presents = [ready + end + c.decode_us[level] for (end, _), c in zip(ends, group)]  # after the instant
    latest = max(presents)
    sync_bytes, every = settings.sync_bytes * n, settings.sync_interval_us
    sync, busy, queued, arrived, reads = sim.next_sync, path.busy_until, path.queued_bytes, -1, []
    at, capacity = t, profile.queue_capacity
    # presented at submission, ready before the next bandwidth step (whose input bound is its time, or
    # the start + 1 for one at the start: a microsecond early but at the start)
    while at + latest <= sim._present_by(at + interval) and at + ready < sim.input_bounds[-1] - 1:
        while sync < at + ready and queued <= capacity:  # the syncs due before this ready
            busy, queued = (busy, queued) if busy > sync else (sync, 0)
            busy, queued, sync = busy + sync_tx, queued + sync_bytes, sync + every
            arrived = busy + profile.one_way_latency
        if (queued > capacity or sync == at + ready or busy > at + ready
                or (at + interval - sim.start) % every == 0):
            break
        reads.append(arrived)  # the arrival of the last sync before this ready
        busy, queued, at = at + ready + burst_end, burst_bytes, at + interval
    k = len(reads)
    while k and reads[k - 1] > t + (k - 1) * interval + ready:
        k -= 1
    if not k:
        return False
    st.train_from, last = t, t + (k - 1) * interval + ready
    fragments = sum(count for _, count in runs)
    path.skip_delivered(n * ((k - 1) * fragments + max(0, -(-(last - sim.next_sync) // every))))
    path.forget_to(last)
    for _ in group:
        path.submit_burst(runs, last)
    sim.trained[id(path)] = last
    read_inputs, on_present = sim._read_inputs, sim._on_present
    for at in range(t, t + k * interval, interval):
        for c, present, (end, _) in zip(group, presents, ends):
            fid = c.next_frame_id
            c.next_frame_id, c.last_completed = fid + 1, fid
            c.frames.sent += 1
            c.pending[fid] = (at, level, read_inputs(c, at))  # presented at once: nothing reads its arrival
            on_present(at + present, c, fid)
            if sim.log_frames:
                logger.debug(FRAME_LINE, at + ready, c.spec.client_id, fid, fragments, 0, "completes", at + ready + end)
    for c in group:
        sim._push_frame(t + k * interval, c)
    return True
