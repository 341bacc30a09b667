import json
import random
from itertools import product

import pytest

from stabsearch.cnf import export_cnf
from stabsearch.constraints import EncodingParams, Linear, OrClause, XorClause, encode
from stabsearch.graphs import sample_support_graph
from stabsearch.rng import RngSpec
from stabsearch.solver import SAT, SolverConfig, check, solve

import test_constraints
from oracles import brute_force_verdict, reference_dimacs, reference_system_json
from test_solver import random_system, raw_system


def dimacs_clauses(export):
    """The clauses of an exported CNF, read from the body of its text."""
    body = export.text.split("\n")[export.num_orig + 2:-1]  # title, map lines, header
    assert len(body) == export.num_clauses and export.text.endswith("\n")
    clauses = [tuple(map(int, line.split())) for line in body]
    assert all(clause[-1] == 0 for clause in clauses)
    return [clause[:-1] for clause in clauses]


def cnf_models(export):
    """Enumerate all satisfying assignments of an exported CNF."""
    clauses = dimacs_clauses(export)
    models = []
    for bits in product((0, 1), repeat=export.num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (1 if l > 0 else 0) for l in clause):
                ok = False
                break
        if ok:
            models.append(bits)
    return models


def model_lits(bits):
    return [i + 1 if b else -(i + 1) for i, b in enumerate(bits)]


def test_single_or_clause_header_and_line():
    cs = raw_system(2, [OrClause((0, 3), "t")])
    export = export_cnf(cs)
    lines = [ln for ln in export.text.splitlines() if not ln.startswith("c")]
    assert lines[0] == "p cnf 2 1"
    assert lines[1] == "1 -2 0"


def test_xor3_direct_expansion_is_four_clauses():
    cs = raw_system(3, [XorClause((0, 1, 2), 1, "t")])
    export = export_cnf(cs)
    assert export.num_vars == 3  # no auxiliaries at width <= 3
    assert export.num_clauses == 4
    models = cnf_models(export)
    assert sorted(models) == sorted(
        bits for bits in product((0, 1), repeat=3) if (bits[0] ^ bits[1] ^ bits[2]) == 1
    )


def test_wide_xor_chain_preserves_parity_models():
    width = 6
    cs = raw_system(width, [XorClause(tuple(range(width)), 0, "t")])
    export = export_cnf(cs)
    assert export.num_vars > width  # chain auxiliaries present
    projected = {m[:width] for m in cnf_models(export)}
    expected = {
        bits for bits in product((0, 1), repeat=width) if sum(bits) % 2 == 0
    }
    assert projected == expected


def test_at_least_two_of_five_has_26_projected_models():
    cs = raw_system(5, [Linear(tuple(range(5)), ">=", 2, "t")])
    export = export_cnf(cs)
    projected = {m[:5] for m in cnf_models(export)}
    assert len(projected) == 26  # 2^5 - C(5,0) - C(5,1)


def test_cardinality_projections_match_bounds():
    for cmp_, bound in [(">=", 3), ("<=", 2), ("==", 2)]:
        cs = raw_system(5, [Linear(tuple(range(5)), cmp_, bound, "t")])
        projected = {m[:5] for m in cnf_models(export_cnf(cs))}
        for bits in product((0, 1), repeat=5):
            s = sum(bits)
            expected = (s >= bound) if cmp_ == ">=" else (s <= bound) if cmp_ == "<=" else s == bound
            assert (bits in projected) == expected


def test_equisatisfiability_on_random_systems():
    rng = random.Random(555)
    for trial in range(60):
        nv = rng.randint(3, 9)
        cs = random_system(rng, nv)
        expected = brute_force_verdict(cs)
        export = export_cnf(cs)
        if export.num_vars > 18:
            continue
        models = cnf_models(export)
        assert (len(models) > 0) == (expected == "sat")
        for bits in models[:5]:
            back = export.assignment_from_model(model_lits(bits))
            assert check(cs, back)


def test_solver_verdict_matches_cnf_satisfiability():
    rng = random.Random(314)
    for trial in range(40):
        cs = random_system(rng, rng.randint(3, 8))
        export = export_cnf(cs)
        if export.num_vars > 16:
            continue
        has_model = bool(cnf_models(export))
        r = solve(cs, SolverConfig(time_budget=1.0, seed=trial))
        assert (r.verdict == SAT) == has_model


def test_var_map_comments_present():
    cs = raw_system(3, [OrClause((0,), "t")])
    export = export_cnf(cs)
    assert "c map 0 1" in export.text
    assert "c map 2 3" in export.text


@pytest.mark.parametrize("width", range(1, 10))
@pytest.mark.parametrize("parity", (0, 1))
def test_xor_text_matches_reference(width, parity):
    cs = raw_system(width + 1, [XorClause(tuple(range(width, 0, -1)), parity, "t"),
                                OrClause((1, 2 * width), "t")])
    assert export_cnf(cs).text == reference_dimacs(cs)


@pytest.mark.parametrize("cmp_", (">=", "<=", "=="))
def test_cardinality_text_matches_reference(cmp_):
    rows = [Linear(tuple(range(w)), cmp_, bound, "t") for w in range(9) for bound in range(-1, w + 2)]
    cs = raw_system(8, rows)
    assert export_cnf(cs).text == reference_dimacs(cs)


def test_random_and_encoded_text_matches_reference():
    rng = random.Random(77)
    systems = [random_system(rng, rng.randint(3, 12)) for _ in range(30)]
    g = sample_support_graph(10, 9, 0.4, RngSpec(2))
    systems += [encode(g, params) for params, _ in test_constraints.TestLayout.FAMILIES.values()]
    systems.append(encode(g, EncodingParams()))
    for cs in systems:
        assert export_cnf(cs).text == reference_dimacs(cs)


def test_empty_rows_text_matches_reference():
    rows = [OrClause((), "t"), XorClause((), 1, "t"), XorClause((), 0, "t"),
            Linear((), ">=", 1, "t"), Linear((), "<=", 0, "t"), OrClause((0,), "t")]
    for cut in range(len(rows) + 1):
        cs = raw_system(2, rows[:cut])
        export = export_cnf(cs)
        assert export.text == reference_dimacs(cs)
        assert len(dimacs_clauses(export)) == export.num_clauses
    # an empty OR and an odd empty parity are each the empty clause; an even one is no clause
    assert dimacs_clauses(export_cnf(raw_system(1, rows[:3]))) == [(), ()]


def test_int_literal_signs_write_the_bool_text():
    # literal 2v is v true, written [v, 1] and v+1; 2v + 1 is v false, written [v, 0] and -(v+1)
    cs = raw_system(3, [OrClause((0, 3, 4), "t"), OrClause((5,), "t")])
    assert dimacs_clauses(export_cnf(cs)) == [(1, -2, 3), (-3,)]
    assert [c["lits"] for c in json.loads(cs.to_json())["constraints"]] == [[[0, 1], [1, 0], [2, 1]], [[2, 0]]]
    assert export_cnf(cs).text == reference_dimacs(cs)
    assert cs.to_json() == reference_system_json(cs)


@pytest.mark.parametrize("params", [EncodingParams(), EncodingParams(min_qubit_degree=2),
                                    EncodingParams(min_stab_degree=2, max_stab_degree=12)],
                         ids=["commutation", "delta_q=2", "delta_s=2..12"])
def test_mid_size_system_text_matches_reference(params):
    cs = encode(sample_support_graph(60, 54, 0.17, RngSpec(20240808, 1)), params)
    assert export_cnf(cs).text == reference_dimacs(cs)
    assert cs.to_json() == reference_system_json(cs)
