"""Counter-based pseudo-random streams.

Support graphs and erasure patterns draw every random number from an
RngSpec: the draw is addressed by (stream key, counter index) instead of
consuming a stateful generator.  This gives three properties the
experiments rely on:

- bit-identical graphs and erasure patterns across platforms and Python
  versions, since a draw is integer arithmetic on its counter,
- cheap parallelism (workers own disjoint counter ranges),
- exact monotone coupling of graph samples: the uniform draw for a given
  edge depends only on the stream key and the edge index, never on the
  inclusion probability.

The solver's random branching and the kernel probe draw from a seeded
random.Random instead.  Those draws are deterministic per seed on a
given Python version; Python guarantees only random()'s sequence across
versions.

The mixing function is SplitMix64, used here as a stateless hash of the
counter.

Bernoulli draws (erasures, graph edges) go through one batched kernel,
RngSpec.bernoulli_bits.  It evaluates SplitMix64 on up to _CHUNK
counters at once inside one Python integer, one 128-bit lane per counter,
and yields exactly the bits a loop over unit(i) < p would: a batched draw
and a scalar one are the same function of (key, counter).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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
    same master seed.  Value i of the stream is a pure function of
    (key, i), so a spec reads its own counters in any order.
    """

    master_seed: int
    stream_id: int = 0
    key: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        key = mix64(mix64(self.master_seed & _MASK64) ^ ((self.stream_id & _MASK64) * _GOLDEN & _MASK64))
        object.__setattr__(self, "key", key)

    def substream(self, *parts: int | float | str) -> "RngSpec":
        """Derive a child stream; same master seed, hashed stream id."""
        return RngSpec(self.master_seed, stable_hash64(self.stream_id, *parts))

    def u64(self, index: int) -> int:
        return mix64(self.key + ((index + 1) * _GOLDEN & _MASK64))

    def unit(self, index: int) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.u64(index) >> 11) * _INV53

    def bernoulli_bits(self, base: int, count: int, p: float) -> bytes:
        """Byte j is b"1" if unit(base + j) < p and b"0" otherwise, j < count.

        unit(i) < p is exactly u64(i) < below = ceil(p * 2^53) << 11:
        unit(i) is an integer times 2^-53, and p * 2^53 is exact in
        floating point.  below is clamped to [0, 2^64], which changes no
        comparison.  The counters are hashed _CHUNK at a time by _lanes,
        so the result equals the per-counter loop for every base, counter
        wrap past 2^64 included.
        """
        below = min(max(math.ceil(p * (1 << 53)), 0), 1 << 53) << 11
        top = below - 1 + (1 << 64)
        x = (self.key + (base + 1) * _GOLDEN) & _MASK64  # lane 0's counter word
        out = []
        for start in range(0, count, _CHUNK):
            size = min(_CHUNK, count - start)
            out.append(_lanes(x, size, top))
            x = (x + _CHUNK_STEP) & _MASK64
        return b"".join(out)


# SplitMix64 on up to _CHUNK counters at once: lane j is bits
# [128 j, 128 j + 128) of one Python integer.  The lane invariant is that
# between steps every lane holds a value below 2^64, so its upper half is
# zero.  A right shift then spills the next lane's low bits only into that
# upper half, which the & low after it clears, and a product with a 64-bit
# constant stays below 2^128, inside its lane.  A short chunk uses the
# constants cut to its lanes.
_CHUNK = 1024
_CHUNK_STEP = _CHUNK * _GOLDEN & _MASK64
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")  # 1 in every lane
_LOW = _MASK64 * _ONES  # the low half of every lane
_RAMP = int.from_bytes(  # j * golden (mod 2^64) in lane j
    b"".join((j * _GOLDEN & _MASK64).to_bytes(16, "little") for j in range(_CHUNK)), "little")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _lanes(x: int, size: int, top: int) -> bytes:
    """z_j < below as b"1"/b"0" for z_j = mix64(x + j * golden), j < size.

    top is below - 1 + 2^64 with 0 <= below <= 2^64, so in each lane
    top - z_j lies in [0, 2^65) and borrows nothing from the next lane.
    Its guard bit 64 is set exactly when z_j < below, and it is bit 0 of
    byte 16 j + 8 in little-endian order, whose other bits are zero.
    """
    if size < _CHUNK:
        keep = (1 << (128 * size)) - 1
        ones, low, ramp = _ONES & keep, _LOW & keep, _RAMP & keep
    else:
        ones, low, ramp = _ONES, _LOW, _RAMP
    z = (x * ones + ramp) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    z = (z ^ (z >> 31)) & low
    return (top * ones - z).to_bytes(16 * size, "little")[8::16].translate(_TO_TEXT)
