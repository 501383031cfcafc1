"""Independent step-by-step reference for the path emulator.

Walks the clock one microsecond at a time with an explicit serializer slot
and waiting queue, instead of the event-driven busy_until arithmetic the
production path uses.  Outcomes must match the production path exactly.
"""

from epicsim.model import NetworkProfile, ceil_div
from epicsim.netem import Path
from epicsim.rng import SplitMix64


def path_state(path: Path) -> tuple:
    """Every field of `path`, with each run expanded into one tuple per datagram,
    so that two paths holding the same datagrams in different runs compare equal."""
    return (
        path.profile, path.rng.state, path.busy_until, path.queued_bytes,
        path.submitted, path.delivered, path.dropped_loss, path.dropped_queue,
        tuple((end + i * tx, size) for end, tx, count, size in path._serializing for i in range(count)),
        tuple((at + i * step, item) for at, step, count, item in path._pending for i in range(count)),
        path.last_arrival, path.last_submit, path._last_advance,
    )


def reference_simulate(profile: NetworkProfile, seed: int,
                       submissions: list[tuple[int, int]]) -> list[tuple]:
    """Return one outcome per submission: ("delivered", arrival) or ("loss",) / ("queue",)."""
    rng = SplitMix64(seed)
    draws = []
    for _ in submissions:
        u = rng.next_unit()
        j = rng.next_below(profile.jitter + 1) if profile.jitter > 0 else 0
        draws.append((u, j))

    outcomes: list[tuple | None] = [None] * len(submissions)
    waiting: list[int] = []          # packet indexes queued behind the serializer
    in_service: int | None = None    # packet index being serialized
    service_end = 0
    queued_bytes = 0
    last_arrival = 0
    next_sub = 0

    def ser_time(size: int) -> int:
        return ceil_div(size * 8 * 1_000_000, profile.bandwidth)

    t = 0
    while next_sub < len(submissions) or waiting or in_service is not None:
        # 1. completion at this tick frees the buffer and produces a delivery
        if in_service is not None and service_end == t:
            idx = in_service
            size = submissions[idx][1]
            queued_bytes -= size
            arrival = t + profile.one_way_latency + draws[idx][1]
            if arrival < last_arrival:
                arrival = last_arrival
            last_arrival = arrival
            outcomes[idx] = ("delivered", arrival)
            in_service = None
            if waiting:
                in_service = waiting.pop(0)
                service_end = t + ser_time(submissions[in_service][1])

        # 2. submissions at this tick, in submission order
        while next_sub < len(submissions) and submissions[next_sub][0] == t:
            idx = next_sub
            next_sub += 1
            size = submissions[idx][1]
            u, _ = draws[idx]
            if u < profile.loss_rate:
                outcomes[idx] = ("loss",)
            elif queued_bytes + size > profile.queue_capacity:
                outcomes[idx] = ("queue",)
            else:
                queued_bytes += size
                if in_service is None:
                    in_service = idx
                    service_end = t + ser_time(size)
                else:
                    waiting.append(idx)
        t += 1

    return outcomes
