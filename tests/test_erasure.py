import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stabsearch.css import CommutationError, CssCode, shor_code, stats, steane_code
from stabsearch import erasure
from stabsearch.gf2 import kernel
from stabsearch.erasure import (
    ErasurePattern,
    _class_counter,
    erasure_capacity_limit,
    exact_failure_rate,
    failure_rate,
    logical_class_log2,
    sample_erasure,
    success_probability,
)
from stabsearch.rng import RngSpec

from oracles import brute_force_class_log2, reference_failure_rate


def css(n, hx, hz):
    return CssCode.from_json({"format_version": 1, "n": n, "hx": hx, "hz": hz})


# hand-built corner cases of the per-code set-up
EDGE_CODES = {
    "n1-no-checks": css(1, [], []),  # k = 1 on one qubit
    "n1-k0": css(1, ["1"], []),
    "k0-full-rank": css(2, ["11"], ["11"]),
    "repetition-empty-hx": css(3, [], ["110", "011"]),
    "empty-hz": css(4, ["1100", "0011"], []),
    "steane-redundant-rows": css(7, ["1010101", "0110011", "0001111", "1010101", "1100110", "0000000"],
                                 ["1010101", "0110011", "0001111", "0111100"]),
}


def random_css(n, x_rows, z_rows, seed, sparse=False):
    """A random commuting code: hx holds x_rows random rows and a sum of two of
    them, hz the first z_rows of a unit-triangular mix of hx's kernel basis (so
    rank hz = min(z_rows, dim ker hx)); sparse rows have about a quarter of the
    qubits set."""
    rng = random.Random(seed)
    draw = (lambda: rng.getrandbits(n) & rng.getrandbits(n)) if sparse else (lambda: rng.getrandbits(n))
    hx = [draw() for _ in range(x_rows)]
    ker = kernel(hx, range(n))[0]
    hz = []
    for i, row in enumerate(ker[:z_rows]):
        for other in ker[i + 1:]:
            if rng.random() < 0.5:
                row ^= other
        hz.append(row)
    if len(hx) > 1:
        hx.append(hx[0] ^ hx[-1])
    return CssCode(n, tuple(hx), tuple(hz))


# n on both sides of the 8-qubit table edges; per n, (x_rows, z_rows, sparse)
# from k = 0 (hz spans hx's whole kernel) up to k = n (no checks)
CHUNK_NS = [8, 9, 15, 16, 17, 40, 64, 65, 100]
CHUNK_SHAPES = [
    lambda n: (n // 2, n, False),
    lambda n: (n // 3, n // 3, True),
    lambda n: (n // 4, n // 4, False),
    lambda n: (n // 5, 2, True),
    lambda n: (1, 0, False),
    lambda n: (0, 0, False),
]
CHUNK_CODES = [random_css(n, x_rows, z_rows, 100 * n + i, sparse)
               for n in CHUNK_NS for i, (x_rows, z_rows, sparse) in enumerate(s(n) for s in CHUNK_SHAPES)]


def chunk_edge_masks(n):
    """The empty, full and single-qubit masks, and masks that start, end or
    straddle each edge between 8-qubit tables."""
    full = (1 << n) - 1
    masks = {0, full, *(1 << q for q in range(n))}
    for edge in range(8, n, 8):
        below = (1 << edge) - 1
        masks |= {below, full ^ below, 3 << (edge - 1), 0xFF << (edge - 8), full & 0xFF << edge}
    return sorted(masks)


class TestPatterns:
    def test_p_zero_all_clear(self):
        assert sample_erasure(10, 0.0, RngSpec(1)).mask == 0

    def test_p_one_all_erased(self):
        e = sample_erasure(10, 1.0, RngSpec(1))
        assert e.mask == (1 << 10) - 1
        assert e.weight == 10

    def test_mean_weight_matches_binomial(self):
        n, p = 10**4, 0.5
        sigma = math.sqrt(n * p * (1 - p))
        weights = [sample_erasure(n, p, RngSpec(5, sid)).weight for sid in range(30)]
        assert abs(sum(weights) / len(weights) - n * p) < 3 * sigma

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            sample_erasure(5, -0.2, RngSpec(0))
        with pytest.raises(ValueError):
            sample_erasure(5, 1.2, RngSpec(0))

    @pytest.mark.parametrize("args,hex_mask", [
        ((9, 0.3, RngSpec(1), 0), "147"),
        ((40, 0.45, RngSpec(20240808, 7), 123), "d0b14893e5"),
        ((64, 0.1, RngSpec(5, 2), 1000), "4000004100610000"),
        ((100, 0.5, RngSpec(0), 0), "9e53e91176133cefb8c850576"),
        ((13, 0.999, RngSpec(3), 5), "1fff"),
    ])
    def test_pinned_patterns(self, args, hex_mask):
        assert sample_erasure(*args).mask == int(hex_mask, 16)

    def test_pattern_bits_and_bounds(self):
        assert ErasurePattern(n=4, mask=0b1010).weight == 2
        assert ErasurePattern(n=3, mask=0b111).weight == 3
        for mask in (0b1000, -1):
            with pytest.raises(ValueError):
                ErasurePattern(n=3, mask=mask)


class TestLogicalClasses:
    def test_empty_erasure_zero_classes(self):
        for code in (shor_code(), steane_code()):
            assert logical_class_log2(code, ErasurePattern(code.n, 0)) == 0
            assert success_probability(code, ErasurePattern(code.n, 0)) == 1.0

    def test_full_erasure_gives_two_k(self):
        for code in (shor_code(), steane_code()):
            k = stats(code).k
            full = ErasurePattern(code.n, (1 << code.n) - 1)
            assert logical_class_log2(code, full) == 2 * k
            assert success_probability(code, full) == 0.25  # k = 1 for both

    def test_shor_z_block_erasure_matches_oracle(self):
        code = shor_code()
        mask = 0b000000111  # first Z-type block
        e = ErasurePattern(9, mask)
        assert logical_class_log2(code, e) == brute_force_class_log2(code, mask)

    def test_shor_all_patterns_match_oracle(self):
        code = shor_code()
        for mask in range(1 << 9):
            fast = logical_class_log2(code, ErasurePattern(9, mask))
            assert fast == brute_force_class_log2(code, mask), f"pattern {mask:09b}"

    def test_steane_all_patterns_match_oracle(self):
        code = steane_code()
        for mask in range(1 << 7):
            fast = logical_class_log2(code, ErasurePattern(7, mask))
            assert fast == brute_force_class_log2(code, mask)

    def test_pattern_length_must_match(self):
        with pytest.raises(ValueError):
            logical_class_log2(shor_code(), ErasurePattern(5, 0))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_monotone_in_erasures(self, seed):
        """Adding an erased qubit never decreases the class count."""
        rng = random.Random(seed)
        code = shor_code() if rng.random() < 0.5 else steane_code()
        order = list(range(code.n))
        rng.shuffle(order)
        mask = 0
        prev = 0
        for q in order:
            mask |= 1 << q
            g = logical_class_log2(code, ErasurePattern(code.n, mask))
            assert g >= prev
            prev = g

    @pytest.mark.parametrize("code", [shor_code(), steane_code(), *EDGE_CODES.values()],
                             ids=["shor", "steane", *EDGE_CODES])
    def test_kernel_equals_reference_on_every_mask(self, code):
        g = _class_counter(code)
        for mask in range(1 << code.n):
            want = logical_class_log2(code, ErasurePattern(code.n, mask))
            assert g(mask) == want, f"pattern {mask:0{code.n}b}"

    def test_kernel_edge_codes_match_oracle(self):
        for name, code in EDGE_CODES.items():
            g = _class_counter(code)
            for mask in range(1 << code.n):
                assert g(mask) == brute_force_class_log2(code, mask), name

    def test_kernel_equals_reference_on_discovered_codes(self, small_discovered_codes):
        rng = random.Random(17)
        for rec in small_discovered_codes:
            n, g = rec.code.n, _class_counter(rec.code)
            for _ in range(300):
                p = rng.random()
                mask = sum(1 << q for q in range(n) if rng.random() < p)
                assert g(mask) == logical_class_log2(rec.code, ErasurePattern(n, mask))

    @pytest.mark.parametrize("code", CHUNK_CODES,
                             ids=[f"n{c.n}-k{stats(c).k}" for c in CHUNK_CODES])
    def test_kernel_equals_reference_across_chunk_edges(self, code):
        n, g = code.n, _class_counter(code)
        rng = random.Random(n)
        masks = chunk_edge_masks(n)
        masks += [sum(1 << q for q in range(n) if rng.random() < p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)
                  for _ in range(12)]
        for mask in masks:
            assert g(mask) == logical_class_log2(code, ErasurePattern(n, mask)), f"mask {mask:x}"

    def test_chunk_codes_span_the_rate_range(self):
        ks = {c.n: set() for c in CHUNK_CODES}
        for c in CHUNK_CODES:
            ks[c.n].add(stats(c).k)
        for n, seen in ks.items():
            assert min(seen) == 0 and max(seen) == n, n

    def test_g_bounded_by_two_k(self):
        code = shor_code()
        k = stats(code).k
        rng = random.Random(0)
        for _ in range(100):
            mask = rng.randrange(1 << 9)
            g = logical_class_log2(code, ErasurePattern(9, mask))
            assert 0 <= g <= 2 * k


class TestFailureRate:
    def test_p_zero_never_fails(self):
        rep = failure_rate(shor_code(), 0.0, 500, RngSpec(1))
        assert rep.failure_rate == 0.0
        assert rep.failures == 0.0

    def test_full_erasure_failure_approaches_three_quarters(self):
        rep = failure_rate(shor_code(), 1.0, 100, RngSpec(1))
        assert rep.failure_rate == pytest.approx(0.75)

    def test_estimators_agree_within_joint_ci(self):
        code = shor_code()
        for p in (0.3, 0.5):
            exact = failure_rate(code, p, 4000, RngSpec(11), estimator="exact")
            bern = failure_rate(code, p, 4000, RngSpec(12), estimator="bernoulli")
            assert abs(exact.failure_rate - bern.failure_rate) <= exact.ci95 + bern.ci95 + 1e-12

    def test_exact_estimator_matches_enumeration(self):
        code = shor_code()
        for p in (0.2, 0.5):
            truth = exact_failure_rate(code, p)
            rep = failure_rate(code, p, 6000, RngSpec(21), estimator="exact")
            assert abs(rep.failure_rate - truth) <= rep.ci95 + 1e-12

    def test_determinism(self):
        a = failure_rate(shor_code(), 0.37, 500, RngSpec(8, 3), estimator="bernoulli")
        b = failure_rate(shor_code(), 0.37, 500, RngSpec(8, 3), estimator="bernoulli")
        assert a == b

    @pytest.mark.parametrize("estimator", ["exact", "bernoulli"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_report_equals_original_trial_loop(self, p, estimator):
        codes = [shor_code(), steane_code(), *EDGE_CODES.values(),
                 random_css(40, 12, 14, seed=1), random_css(65, 20, 25, seed=2, sparse=True)]
        for i, code in enumerate(codes):
            rng = RngSpec(41, i)
            want = reference_failure_rate(code, p, 200, rng, estimator)
            assert failure_rate(code, p, 200, rng, estimator) == want

    @pytest.mark.parametrize("estimator", ["exact", "bernoulli"])
    def test_report_equals_original_trial_loop_across_blocks(self, estimator):
        """Trials past a draw block and its lane chunks read the same counters."""
        for i, code in enumerate([shor_code(), steane_code()]):
            stride = code.n + 1
            trials = 2 * (erasure._BLOCK_DRAWS // stride) + 3  # two full blocks and a short one
            rng = RngSpec(43, i)
            want = reference_failure_rate(code, 0.4, trials, rng, estimator)
            assert failure_rate(code, 0.4, trials, rng, estimator) == want

    def test_non_commuting_code_raises(self):
        code = css(3, ["110"], ["100"])
        with pytest.raises(CommutationError):
            failure_rate(code, 0.5, 10, RngSpec(0))
        with pytest.raises(CommutationError):
            exact_failure_rate(code, 0.5)

    def test_set_up_cache_follows_the_code(self):
        """The cached per-code set-up answers for the code it is called with,
        whichever code was decoded last."""
        a, b = random_css(40, 12, 14, seed=1), random_css(17, 5, 3, seed=4, sparse=True)
        for i, code in enumerate([a, b, a, b, a]):
            rng = RngSpec(47, i)
            assert failure_rate(code, 0.4, 100, rng) == reference_failure_rate(code, 0.4, 100, rng, "exact")
            full = (1 << code.n) - 1
            assert _class_counter(code)(full) == 2 * stats(code).k
            assert _class_counter.cache_info().currsize <= 1

    def test_non_commuting_code_raises_on_every_call(self):
        bad = css(3, ["110"], ["100"])
        for code in (bad, shor_code(), bad, bad):
            if code is bad:
                with pytest.raises(CommutationError):
                    failure_rate(code, 0.5, 10, RngSpec(0))
            else:
                failure_rate(code, 0.5, 10, RngSpec(0))
        assert _class_counter.cache_info().currsize <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            failure_rate(shor_code(), 0.5, 0, RngSpec(0))
        with pytest.raises(ValueError):
            failure_rate(shor_code(), 1.5, 10, RngSpec(0))
        with pytest.raises(ValueError):
            failure_rate(shor_code(), 0.5, 10, RngSpec(0), estimator="bogus")


class TestCapacity:
    def test_reference_points(self):
        assert erasure_capacity_limit(0.1) == pytest.approx(0.45)
        assert erasure_capacity_limit(1.0) == 0.0
        assert erasure_capacity_limit(0.0) == 0.5

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            erasure_capacity_limit(-0.1)
        with pytest.raises(ValueError):
            erasure_capacity_limit(1.1)
