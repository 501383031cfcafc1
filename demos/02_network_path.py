#!/usr/bin/env python3
"""Push packets through one emulated path and watch each impairment act.

Serialization delay comes from the bandwidth, propagation from the one-way
latency, losses from the seeded RNG, and queue drops from the byte-counted
drop-tail buffer. The same seed always reproduces the same trace.
"""

from epicsim import NetworkProfile, Path

print("== clean 10 Mb/s path, 2 ms latency ==")
path = Path(NetworkProfile(one_way_latency=2_000, bandwidth=10_000_000, mtu=1500), seed=42)
for k in range(3):
    arrival = path.submit(bytes(1_250), 0)
    print(f"  packet {k}: 1250 B submitted at t=0 -> delivered {arrival} us "
          f"({'1 ms serialization each, FIFO' if k else '1 ms serialization + 2 ms latency'})")

print("\n== 10% loss, 500 us jitter ==")
lossy = NetworkProfile(one_way_latency=2_000, jitter=500, loss_rate=0.1,
                       bandwidth=10_000_000, mtu=1500)
path = Path(lossy, seed=16)
outcomes = [path.submit(bytes(1_250), t * 2_000) for t in range(20)]
for t, outcome in enumerate(outcomes[:8]):
    print(f"  t={t * 2_000:>6} -> {outcome}")
print(f"  ... {path.dropped_loss} of {path.submitted} lost")

print("\n== shallow queue under a burst ==")
path = Path(NetworkProfile(one_way_latency=0, bandwidth=10_000_000, mtu=1500,
                           queue_capacity=4_000), seed=1)
for k in range(6):
    outcome = path.submit(bytes(1_250), 0)
    print(f"  burst packet {k}: {outcome}")
print(f"  queue drops: {path.dropped_queue} (buffer holds 4000 B, ~3 packets)")

print("\ncounters:", path.submitted, "submitted =",
      path.delivered, "delivered +", path.dropped_loss, "lost +",
      path.dropped_queue, "queue-dropped +", path.in_flight, "in flight")
