import json
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
    satisfies_degree_bounds,
    shor_code,
    stats,
    steane_code,
)
from stabsearch.gf2 import rank_int_rows
from stabsearch.graphs import SupportGraph, sample_support_graph
from stabsearch.rng import RngSpec
from stabsearch.solver import (
    SAT,
    SolverConfig,
    check,
    solve,
)

from oracles import naive_rank


def int_rows(bits: list[list[int]]) -> list[int]:
    return [sum(b << j for j, b in enumerate(row)) for row in bits]


class TestBitMatrix:
    """Check matrices as int rows, bit j = column j: ranks by gf2.rank_int_rows,
    the row range and the bitstring text by CssCode."""

    def test_identity_rank(self):
        eye = int_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert rank_int_rows(eye) == 4

    def test_zero_rank(self):
        assert rank_int_rows([0, 0, 0]) == 0

    def test_string_round_trip(self):
        code = CssCode.from_json({"format_version": 1, "n": 4, "hx": ["1010"], "hz": ["0110"]})
        assert code.hx == (0b0101,) and code.hz == (0b0110,)  # character j is bit j
        assert json.loads(code.to_json())["hx"] == ["1010"]
        assert json.loads(code.to_json())["hz"] == ["0110"]

    def test_row_value_range_enforced(self):
        with pytest.raises(ValueError, match=r"CSS code: hx\[1\] = 8 is not a row on n=3 qubits"):
            CssCode(3, (7, 8), ())  # bit 3 out of range for 3 qubits
        with pytest.raises(ValueError, match=r"CSS code: hz\[0\] = 8 "):
            CssCode(3, (), (8,))
        with pytest.raises(ValueError, match=r"CSS code: hz\[1\] = -1 "):
            CssCode(3, (), (1, -1))
        CssCode(3, (7,), (7,))

    @given(st.integers(min_value=0, max_value=10**9))
    def test_rank_matches_naive_elimination(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        bits = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert rank_int_rows(int_rows(bits)) == naive_rank(bits)

    def test_rank_matches_naive_on_larger_matrices(self):
        rng = random.Random(9)
        for _ in range(25):
            rows = rng.randint(30, 64)
            cols = rng.randint(30, 64)
            bits = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            assert rank_int_rows(int_rows(bits)) == naive_rank(bits)


class TestKnownCodes:
    def test_shor_structure(self):
        code = shor_code()
        assert code.n == 9
        assert sorted(r.bit_count() for r in code.hx) == [6, 6]
        assert sorted(r.bit_count() for r in code.hz) == [2] * 6
        assert check_commutation(code)
        # includes the two-qubit generator on the last pair of qubits
        assert "000000011" in json.loads(code.to_json())["hz"]

    def test_shor_ranks_and_k(self):
        code = shor_code()
        assert rank_int_rows(code.hx) == 2
        assert rank_int_rows(code.hz) == 6
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
        code = CssCode(3, (0b011,), (0b101,))
        assert not check_commutation(code)

    def test_even_overlap_commutes(self):
        code = CssCode(2, (0b11,), (0b11,))
        assert check_commutation(code)

    def test_empty_sides_commute(self):
        code = CssCode(4, (), (1, 2))
        assert check_commutation(code)


class TestExtraction:
    def test_all_inactive_gives_zero_code_full_k(self):
        g = sample_support_graph(10, 9, 0.5, RngSpec(3))
        cs = encode(g)
        a = consistent_completion(cs, [0] * g.m, [s % 2 for s in range(g.m)])
        code = extract_code(g, a)
        assert set(code.hx + code.hz) <= {0}
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
        for s, row in enumerate(reference.hx):
            paulis.append(1)
            edges.extend((q, s) for q in range(9) if (row >> q) & 1)
        offset = len(reference.hx)
        for s, row in enumerate(reference.hz):
            paulis.append(0)
            edges.extend((q, s + offset) for q in range(9) if (row >> q) & 1)
        g = SupportGraph(n=9, m=8, gamma=1.0, seed=0, edges=tuple(sorted(edges)))
        cs = encode(g)
        a = consistent_completion(cs, [(1 << g.n) - 1] * g.m, paulis)
        assert check(cs, a)
        code = extract_code(g, a)
        assert code == reference
        assert sorted(r.bit_count() for r in code.hx) == [6, 6]
        assert sorted(r.bit_count() for r in code.hz) == [2] * 6

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

    def test_k_never_below_n_minus_m(self):
        for seed in range(10):
            g = sample_support_graph(12, 10, 0.7, RngSpec(seed, 8))
            r = solve(encode(g), SolverConfig(time_budget=2, seed=seed))
            code = extract_code(g, r.assignment)
            s = stats(code)
            assert s.k >= g.n - g.m
            assert s.k == g.n - rank_int_rows(code.hx) - rank_int_rows(code.hz)
