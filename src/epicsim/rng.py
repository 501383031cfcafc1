"""Deterministic pseudo-random streams (SplitMix64).

Every stochastic element of the testbed (packet loss, jitter, frame payload
bytes) draws from an independent SplitMix64 stream so that a run is a pure
function of its seed.  Streams for sub-components are derived from the base
seed with :func:`derive_seed`, which folds integer tags into the state one at
a time; the fold is order-sensitive, so ``derive_seed(s, a, b)`` and
``derive_seed(s, b, a)`` are unrelated streams.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *tags: int) -> int:
    """Derive an independent stream seed by folding integer tags into `base`.

    The base is mixed before each tag is xored in, so swapping the base with
    a tag (or reordering tags) yields an unrelated stream.
    """
    x = base & MASK64
    for t in tags:
        x = mix64(mix64((x + _GAMMA) & MASK64) ^ (t & MASK64))
    return x


class SplitMix64:
    """Sequential SplitMix64 generator with a bulk byte-fill fast path.

    The scalar draws (`next_u64`, `next_unit`, `next_below`) and the
    vectorized `fill_bytes` walk the same output sequence, so interleaving
    them keeps the stream reproducible.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        return mix64(self.state)

    def next_unit(self) -> float:
        """Next output as a 53-bit fraction in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by modulo reduction (bias << 2^-64)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def skip(self, n: int) -> None:
        """Advance past `n` outputs without computing them (the state is a counter)."""
        self.state = (self.state + n * _GAMMA) & MASK64

    def fill_bytes(self, n: int) -> bytes:
        """Produce `n` bytes: consecutive outputs, each little-endian packed."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if n == 0:
            return b""
        k = (n + 7) // 8
        idx = np.arange(1, k + 1, dtype=np.uint64)
        z = np.uint64(self.state) + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self.skip(k)
        return z.astype("<u8").tobytes()[:n]
