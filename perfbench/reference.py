"""A fixed reference loop that gauges how fast this host runs Python right now.

The benchmark's host is shared: other tenants' load moves this process's
speed by up to 2x within a minute, in wall and CPU time alike.  The gated
times are therefore reported at reference speed: each measured time t is
multiplied by NOMINAL_S / r, where r is this loop's time measured next to t.
A time at reference speed reads as the seconds t would take on a host where
this loop takes exactly NOMINAL_S.

The loop uses only the standard library, never epicsim, so no change to
epicsim can move it.  Its mix of heap, struct, dict and bytes operations is
the one epicsim's event loop and wire codec spend their time on.
"""

from __future__ import annotations

import heapq
import struct
import time

NOMINAL_S = 0.05
_HEADER = struct.Struct(">4sBBBBIIQ")
_BODY = bytes(range(256)) * 6


def reference_seconds(n: int = 32_500) -> float:
    """Wall seconds for one pass of the fixed loop."""
    start = time.perf_counter()
    heap: list[tuple[int, int, str, tuple]] = []
    counts: dict[int, int] = {}
    pack, unpack = _HEADER.pack, _HEADER.unpack_from
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 1000, i, "arrive", ()))
        if len(heap) > 64:
            heapq.heappop(heap)
        wire = pack(b"EPIC", 1, 2, 0, 0, i, i, i) + _BODY[i & 255:(i & 255) + 64]
        fields = unpack(wire)
        counts[i & 255] = counts.get(i & 255, 0) + fields[5]
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reference: float) -> float:
    return seconds * NOMINAL_S / reference


# Set-up is mostly reading and executing modules in a fresh process, which
# the loop above does not track.  Set-up times are scaled instead by the
# time a fresh interpreter takes to import a fixed set of modules from
# outside this repository (`setup_probe.py --reference`), to a host where
# that takes IMPORT_NOMINAL_S.
IMPORT_NOMINAL_S = 0.2


def imports_at_reference_speed(seconds: float, reference: float) -> float:
    return seconds * IMPORT_NOMINAL_S / reference
