"""Counter-based pseudo-random streams.

Every random draw in this package is addressed by (stream key, counter
index) instead of consuming a stateful generator.  This gives three
properties the experiments rely on:

- bit-identical streams across platforms and Python versions,
- cheap parallelism (workers own disjoint counter ranges),
- exact monotone coupling of graph samples: the uniform draw for a given
  edge depends only on the stream key and the edge index, never on the
  inclusion probability.

The mixing function is SplitMix64, used here as a stateless hash of the
counter.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV53 = 1.0 / (1 << 53)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_hash64(*parts: int | float | str) -> int:
    """Deterministic 64-bit hash of a tuple of ints, floats and strings.

    Unlike builtin hash(), the result is stable across processes.  Floats
    are hashed by their IEEE-754 bit pattern, so distinct values never
    collide through rounding.
    """
    h = 0x243F6A8885A308D3
    for k, part in enumerate(parts):
        if isinstance(part, bool):
            part = int(part)
        if isinstance(part, float):
            part = struct.unpack("<Q", struct.pack("<d", part))[0]
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                h = mix64(h ^ (byte + _GOLDEN))
            h = mix64(h ^ 0x5F)
        elif isinstance(part, int):
            h = mix64((h ^ (part & _MASK64)) + (k + 1) * _GOLDEN)
        else:
            raise TypeError(f"unhashable part of type {type(part).__name__}")
    return mix64(h)


@dataclass(frozen=True)
class RngSpec:
    """Addressable random stream: (master_seed, stream_id) names it fully.

    Identical (master_seed, stream_id) pairs yield bit-identical streams.
    Distinct stream_ids give statistically independent streams off the
    same master seed.
    """

    master_seed: int
    stream_id: int = 0

    def key(self) -> int:
        return mix64(mix64(self.master_seed & _MASK64) ^ ((self.stream_id & _MASK64) * _GOLDEN & _MASK64))

    def substream(self, *parts: int | float | str) -> "RngSpec":
        """Derive a child stream; same master seed, hashed stream id."""
        return RngSpec(self.master_seed, stable_hash64(self.stream_id, *parts))


class CounterStream:
    """Random access into one stream: value i is a pure function of (key, i)."""

    __slots__ = ("key",)

    def __init__(self, spec: RngSpec):
        self.key = spec.key()

    def u64(self, index: int) -> int:
        return mix64(self.key + ((index + 1) * _GOLDEN & _MASK64))

    def unit(self, index: int) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.u64(index) >> 11) * _INV53

    def bernoulli_mask(self, base: int, count: int, p: float) -> int:
        """Bit j set iff unit(base + j) < p, for j < count, with u64 inlined.

        unit(i) < p is exactly u64(i) < ceil(p * 2^53) << 11: unit(i) is
        an integer times 2^-53, and p * 2^53 is exact in floating point.
        """
        below = math.ceil(p * (1 << 53)) << 11
        mask = 0
        if below:
            x = self.key + (base + 1) * _GOLDEN
            for j in range(count):
                z = x & _MASK64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                if z ^ (z >> 31) < below:
                    mask |= 1 << j
                x += _GOLDEN
        return mask
