import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stabsearch.constraints import EncodingParams, consistent_completion, encode
from stabsearch.css import (
    CommutationError,
    CssCode,
    check_commutation,
    extract_code,
    from_alist,
    satisfies_degree_bounds,
    shor_code,
    stats,
    steane_code,
    to_alist,
)
from stabsearch.gf2 import BitMatrix
from stabsearch.graphs import SupportGraph, sample_support_graph
from stabsearch.rng import RngSpec
from stabsearch.solver import (
    SAT,
    SolverConfig,
    check,
    solve,
)

from oracles import naive_rank


class TestBitMatrix:
    def test_identity_rank(self):
        eye = BitMatrix.from_bits([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert eye.rank() == 4

    def test_zero_rank(self):
        assert BitMatrix((0, 0, 0), 5).rank() == 0

    def test_string_round_trip(self):
        mat = BitMatrix.from_strings(["1010", "0110"])
        assert mat.to_strings() == ["1010", "0110"]
        assert mat.entry(0, 0) == 1 and mat.entry(0, 1) == 0

    def test_row_value_range_enforced(self):
        with pytest.raises(ValueError):
            BitMatrix((8,), 3)  # bit 3 out of range for 3 columns
        BitMatrix((7,), 3)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_rank_matches_naive_elimination(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        bits = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert BitMatrix.from_bits(bits).rank() == naive_rank(bits)

    def test_rank_matches_naive_on_larger_matrices(self):
        rng = random.Random(9)
        for _ in range(25):
            rows = rng.randint(30, 64)
            cols = rng.randint(30, 64)
            bits = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            assert BitMatrix.from_bits(bits).rank() == naive_rank(bits)


class TestKnownCodes:
    def test_shor_structure(self):
        code = shor_code()
        assert code.n == 9
        assert sorted(code.hx.row_weights()) == [6, 6]
        assert sorted(code.hz.row_weights()) == [2] * 6
        assert check_commutation(code)
        # includes the two-qubit generator on the last pair of qubits
        assert "000000011" in code.hz.to_strings()

    def test_shor_ranks_and_k(self):
        code = shor_code()
        assert code.hx.rank() == 2
        assert code.hz.rank() == 6
        assert stats(code).k == 1

    def test_shor_density_is_one_third(self):
        s = stats(shor_code())
        assert s.density == pytest.approx((2 * 6 + 6 * 2) / (8 * 9))
        assert s.density == pytest.approx(1 / 3)

    def test_steane(self):
        code = steane_code()
        assert check_commutation(code)
        s = stats(code)
        assert s.k == 1
        assert s.mean_stab_degree == pytest.approx(4.0)


class TestCommutationPredicate:
    def test_odd_overlap_anticommutes(self):
        code = CssCode(3, BitMatrix.from_strings(["110"]), BitMatrix.from_strings(["101"]))
        assert not check_commutation(code)

    def test_even_overlap_commutes(self):
        code = CssCode(2, BitMatrix.from_strings(["11"]), BitMatrix.from_strings(["11"]))
        assert check_commutation(code)

    def test_empty_sides_commute(self):
        code = CssCode(4, BitMatrix((), 4), BitMatrix((1, 2), 4))
        assert check_commutation(code)


class TestExtraction:
    def test_all_inactive_gives_zero_code_full_k(self):
        g = sample_support_graph(10, 9, 0.5, RngSpec(3))
        cs = encode(g)
        a = consistent_completion(cs, [0] * g.m, [s % 2 for s in range(g.m)])
        code = extract_code(g, a)
        assert code.hx.total_weight() == 0 and code.hz.total_weight() == 0
        assert stats(code).k == 10

    def test_extract_rejects_anticommuting_assignment(self):
        g = sample_support_graph(3, 2, 1.0, RngSpec(0))
        # activate exactly one shared qubit on both stabilizers, opposite types
        cs = encode(g)
        a = consistent_completion(cs, [0b1, 0b1], [1, 0])
        with pytest.raises(CommutationError):
            extract_code(g, a)

    def test_extract_requires_covering_assignment(self):
        g = sample_support_graph(3, 2, 1.0, RngSpec(0))
        with pytest.raises(ValueError):
            extract_code(g, (0,))

    def test_solved_instances_extract_to_commuting_codes(self):
        count = 0
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(4, 12)
            m = max(2, round(0.9 * n))
            g = sample_support_graph(n, m, rng.uniform(0.3, 0.9), RngSpec(seed, 1))
            r = solve(encode(g), SolverConfig(time_budget=2, seed=seed))
            assert r.verdict == SAT
            code = extract_code(g, r.assignment)
            assert check_commutation(code)
            count += 1
        assert count == 30

    def test_shor_tanner_graph_assignment_extracts_shor_code(self):
        """Encoding the 9-qubit code's Tanner graph as a support graph and
        activating every edge reproduces its check matrices exactly."""
        reference = shor_code()
        edges = []
        paulis = []
        for s, row in enumerate(reference.hx.rows):
            paulis.append(1)
            edges.extend((q, s) for q in range(9) if (row >> q) & 1)
        offset = reference.hx.num_rows
        for s, row in enumerate(reference.hz.rows):
            paulis.append(0)
            edges.extend((q, s + offset) for q in range(9) if (row >> q) & 1)
        g = SupportGraph(n=9, m=8, gamma=1.0, seed=0, edges=tuple(sorted(edges)))
        cs = encode(g)
        a = consistent_completion(cs, [(1 << g.n) - 1] * g.m, paulis)
        assert check(cs, a)
        code = extract_code(g, a)
        assert code == reference
        assert sorted(code.hx.row_weights()) == [6, 6]
        assert sorted(code.hz.row_weights()) == [2] * 6

    def test_degree_bounds_reflected_in_extracted_code(self):
        g = sample_support_graph(14, 12, 0.8, RngSpec(21, 4))
        params = EncodingParams(min_qubit_degree=2, min_stab_degree=2, max_stab_degree=9)
        r = solve(encode(g, params), SolverConfig(time_budget=30, seed=3))
        assert r.verdict == SAT
        code = extract_code(g, r.assignment)
        assert satisfies_degree_bounds(code, params)
        bad = EncodingParams(min_qubit_degree=2, max_stab_degree=1)
        assert not satisfies_degree_bounds(code, bad)


class TestSerialization:
    def test_json_round_trip(self):
        code = shor_code()
        text = code.to_json()
        again = CssCode.from_json(text)
        assert again == code
        assert again.to_json() == text

    def test_alist_round_trip(self):
        for mat in (shor_code().hx, shor_code().hz, steane_code().hx, BitMatrix((0, 0), 4)):
            assert from_alist(to_alist(mat)) == mat

    def test_alist_header(self):
        lines = to_alist(shor_code().hz).splitlines()
        assert lines[0] == "9 6"
        assert lines[1] == "2 2"  # max column weight, max row weight

    def test_k_never_below_n_minus_m(self):
        for seed in range(10):
            g = sample_support_graph(12, 10, 0.7, RngSpec(seed, 8))
            r = solve(encode(g), SolverConfig(time_budget=2, seed=seed))
            code = extract_code(g, r.assignment)
            s = stats(code)
            assert s.k >= g.n - g.m
            assert s.k == g.n - code.hx.rank() - code.hz.rank()
