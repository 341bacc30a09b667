import math
import pickle
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stabsearch.erasure import sample_erasure
from stabsearch.rng import _CHUNK, RngSpec, mix64, stable_hash64


def test_same_spec_same_stream():
    a = RngSpec(123, 5)
    b = RngSpec(123, 5)
    assert [a.u64(i) for i in range(100)] == [b.u64(i) for i in range(100)]


def test_distinct_streams_differ():
    a = RngSpec(123, 5)
    b = RngSpec(123, 6)
    c = RngSpec(124, 5)
    assert [a.u64(i) for i in range(10)] != [b.u64(i) for i in range(10)]
    assert [a.u64(i) for i in range(10)] != [c.u64(i) for i in range(10)]


def test_known_mix64_properties():
    # bijective mixer: no collisions on a small input set, zero not fixed
    outs = {mix64(x) for x in range(10000)}
    assert len(outs) == 10000
    assert mix64(0) != 0 or mix64(1) != 1


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**16))
def test_unit_in_range(seed, idx):
    u = RngSpec(seed, 0).unit(idx)
    assert 0.0 <= u < 1.0


def test_unit_mean_is_half():
    s = RngSpec(2718, 0)
    n = 20000
    mean = sum(s.unit(i) for i in range(n)) / n
    assert abs(mean - 0.5) < 4 / math.sqrt(12 * n)


def test_stable_hash64_is_stable_and_typed():
    h = stable_hash64(3, 0.25, "x")
    assert h == stable_hash64(3, 0.25, "x")
    assert h != stable_hash64(3, 0.25, "y")
    assert stable_hash64(1, 2) != stable_hash64(2, 1)
    # float hashed by bit pattern: nearby floats are distinct inputs
    assert stable_hash64(0.1) != stable_hash64(0.1 + 2**-40)


def test_substream_derivation():
    base = RngSpec(9, 1)
    assert base.substream("a", 1) == base.substream("a", 1)
    assert base.substream("a", 1) != base.substream("a", 2)
    assert base.substream("a", 1).master_seed == 9


def test_key_is_derived_once_and_not_part_of_the_name():
    a, b = RngSpec(123, 5), RngSpec(123, 5)
    assert a.key == b.key != RngSpec(123, 6).key
    assert a.key == mix64(mix64(123) ^ (5 * 0x9E3779B97F4A7C15 & (2**64 - 1)))
    assert a == b and hash(a) == hash(b) and repr(a) == "RngSpec(master_seed=123, stream_id=5)"
    assert a.u64(0) == mix64(a.key + 0x9E3779B97F4A7C15)
    assert pickle.loads(pickle.dumps(a)).key == a.key


# The batched kernel against the scalar definition: byte j of
# bernoulli_bits(base, count, p) is b"1" exactly when unit(base + j) < p,
# and bit j of sample_erasure's mask is set exactly then.  unit() hashes
# one counter with mix64, which shares no code with the lanes.

def scalar_bits(s: RngSpec, base: int, count: int, p: float) -> bytes:
    return b"".join(b"1" if s.unit(base + j) < p else b"0" for j in range(count))


def stream_with_key(key: int) -> RngSpec:
    s = RngSpec(0)
    object.__setattr__(s, "key", key)
    return s


def check_kernel(s: RngSpec, base: int, count: int, p: float) -> None:
    want = scalar_bits(s, base, count, p)
    assert s.bernoulli_bits(base, count, p) == want, (s.key, base, count, p)
    if count:
        assert sample_erasure(count, p, s, base_index=base).mask == int(want[::-1], 2)


def test_bernoulli_mask_is_unit_below_p():
    s = RngSpec(31, 4)
    for p in (0.0, 1e-300, 0.3, 0.5, 1 - 2**-53, 1.0):
        want = sum(1 << j for j in range(70) if s.unit(100 + j) < p)
        assert sample_erasure(70, p, s, base_index=100).mask == want
    for p in (-0.5, 2.0):  # bernoulli_bits clamps p; sample_erasure rejects it
        assert s.bernoulli_bits(100, 70, p) == scalar_bits(s, 100, 70, p)


def test_bernoulli_mask_threshold_is_exact():
    """p equal to a draw leaves its bit clear and p one step above sets it.

    Includes draws whose u64 has 11 zero low bits, so that it equals the
    threshold when p is the draw, and 11 one low bits, so that it is the
    threshold minus one when p is a step above; both also inside a batch."""
    s = RngSpec(7, 1)
    edges = [i for i in range(40000) if s.u64(i) & 0x7FF in (0, 0x7FF)]
    assert sum(s.u64(i) & 0x7FF == 0 for i in edges) >= 5
    assert sum(s.u64(i) & 0x7FF == 0x7FF for i in edges) >= 5
    for i in list(range(200)) + edges:
        u = s.unit(i)
        above = u + 2**-53  # the next multiple of 2^-53, exact below 1
        assert sample_erasure(1, u, s, base_index=i).mask == 0
        assert sample_erasure(1, math.nextafter(u, 1.0), s, base_index=i).mask == 1
        assert s.bernoulli_bits(i, 1, above) == b"1"
        if i >= 200:
            base = max(0, i - 700)  # the same draw inside a longer batch
            check_kernel(s, base, _CHUNK + 3, u)
            check_kernel(s, base, _CHUNK + 3, above)


@pytest.mark.parametrize("count", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_bernoulli_bits_matches_scalar_on_random_keys(count):
    r = random.Random(count)
    for _ in range(3):
        s = stream_with_key(r.getrandbits(64))
        base = r.getrandbits(64)
        for p in (0.0, 1e-300, r.random(), 0.5, 1 - 2**-53, 1.0):
            check_kernel(s, base, count, p)


@pytest.mark.parametrize("count", [1, 7, _CHUNK + 1, 2 * _CHUNK])
def test_bernoulli_bits_wraps_the_counter_past_2_64(count):
    s = stream_with_key(random.Random(99).getrandbits(64))
    for back in (1, 2, count // 2 + 1, count):
        base = 2**64 - back  # counters base .. base + count - 1 cross 2^64
        for p in (0.3, 0.9):
            check_kernel(s, base, count, p)
