import math

from hypothesis import given
import hypothesis.strategies as st

from stabsearch.rng import CounterStream, RngSpec, mix64, stable_hash64


def test_same_spec_same_stream():
    a = CounterStream(RngSpec(123, 5))
    b = CounterStream(RngSpec(123, 5))
    assert [a.u64(i) for i in range(100)] == [b.u64(i) for i in range(100)]


def test_distinct_streams_differ():
    a = CounterStream(RngSpec(123, 5))
    b = CounterStream(RngSpec(123, 6))
    c = CounterStream(RngSpec(124, 5))
    assert [a.u64(i) for i in range(10)] != [b.u64(i) for i in range(10)]
    assert [a.u64(i) for i in range(10)] != [c.u64(i) for i in range(10)]


def test_known_mix64_properties():
    # bijective mixer: no collisions on a small input set, zero not fixed
    outs = {mix64(x) for x in range(10000)}
    assert len(outs) == 10000
    assert mix64(0) != 0 or mix64(1) != 1


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**16))
def test_unit_in_range(seed, idx):
    u = CounterStream(RngSpec(seed, 0)).unit(idx)
    assert 0.0 <= u < 1.0


def test_unit_mean_is_half():
    s = CounterStream(RngSpec(2718, 0))
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


def test_bernoulli_mask_is_unit_below_p():
    s = CounterStream(RngSpec(31, 4))
    for p in (0.0, 1e-300, 0.3, 0.5, 1 - 2**-53, 1.0):
        assert s.bernoulli_mask(100, 70, p) == sum(1 << j for j in range(70) if s.unit(100 + j) < p)


def test_bernoulli_mask_threshold_is_exact():
    """p equal to a draw leaves its bit clear; the next float above sets it."""
    s = CounterStream(RngSpec(7, 1))
    for i in range(200):
        u = s.unit(i)
        assert s.bernoulli_mask(i, 1, u) == 0
        assert s.bernoulli_mask(i, 1, math.nextafter(u, 1.0)) == 1
