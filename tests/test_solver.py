import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from stabsearch.constraints import (
    ACTIVATOR,
    ConstraintSystem,
    EncodingParams,
    Linear,
    OrClause,
    VarRef,
    XorClause,
    encode,
)
from stabsearch.graphs import sample_support_graph
from stabsearch import solver
from stabsearch.rng import RngSpec
from stabsearch.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Assignment,
    SolverConfig,
    check,
    consistent_completion,
    solve,
)

from oracles import brute_force_verdict


def free_variables(nv: int):
    """nv independent booleans, hosted on a complete-bipartite dummy graph."""
    g = sample_support_graph(nv, 1, 1.0, RngSpec(0))
    return g, [VarRef(i, ACTIVATOR, (i, 0)) for i in range(nv)]


def raw_system(nv: int, constraints) -> ConstraintSystem:
    g, variables = free_variables(nv)
    return ConstraintSystem(g, variables, constraints)


def random_system(rng: random.Random, nv: int) -> ConstraintSystem:
    cons = []
    for _ in range(rng.randint(max(1, nv // 2), 2 * nv)):
        kind = rng.random()
        if kind < 0.5:
            w = rng.randint(1, min(4, nv))
            vs = rng.sample(range(nv), w)
            cons.append(OrClause(tuple((v, rng.random() < 0.5) for v in vs), "rnd"))
        elif kind < 0.8:
            w = rng.randint(2, min(7, nv))
            vs = rng.sample(range(nv), w)
            cons.append(XorClause(tuple(vs), rng.randint(0, 1), "rnd"))
        else:
            w = rng.randint(1, min(8, nv))
            vs = rng.sample(range(nv), w)
            cons.append(Linear(tuple(vs), rng.choice([">=", "<=", "=="]), rng.randint(0, w), "rnd"))
    return raw_system(nv, cons)


class TestCheck:
    def test_check_accepts_consistent_all_inactive(self):
        g = sample_support_graph(8, 6, 0.5, RngSpec(4))
        cs = encode(g)
        a = consistent_completion(cs, {}, [0] * g.m)
        assert check(cs, a)

    def test_check_rejects_flipped_aux(self):
        cs = encode(sample_support_graph(8, 6, 0.9, RngSpec(4)))
        a = consistent_completion(cs, {}, [0] * 6)
        both_ids = [v.id for v in cs.variables if v.kind == "both"]
        assert both_ids
        values = list(a.values)
        values[both_ids[0]] ^= 1
        assert not check(cs, Assignment(tuple(values)))

    def test_check_rejects_partial_assignment(self):
        cs = encode(sample_support_graph(4, 3, 0.5, RngSpec(0)))
        with pytest.raises(ValueError):
            check(cs, Assignment((0,) * (cs.num_vars - 1)))
        with pytest.raises(ValueError):
            check(cs, Assignment((0, 2) + (0,) * (cs.num_vars - 2)))

    def test_check_evaluates_each_constraint_type(self):
        cs = raw_system(
            3,
            [
                OrClause(((0, True), (1, False)), "t"),
                XorClause((0, 1, 2), 1, "t"),
                Linear((0, 1, 2), ">=", 1, "t"),
                Linear((0, 1, 2), "<=", 2, "t"),
                Linear((0, 1), "==", 1, "t"),
            ],
        )
        assert check(cs, Assignment((1, 0, 0)))
        assert not check(cs, Assignment((1, 1, 1)))  # violates xor and <= and ==


class TestSolveBasics:
    def test_commutation_only_is_sat(self):
        for seed in range(3):
            g = sample_support_graph(20, 18, 0.4, RngSpec(seed))
            r = solve(encode(g), SolverConfig(time_budget=5))
            assert r.verdict == SAT

    def test_contradictory_parities_unsat(self):
        cs = raw_system(2, [XorClause((0, 1), 1, "t"), XorClause((0, 1), 0, "t")])
        assert solve(cs).verdict == UNSAT

    def test_empty_linear_lower_bound_unsat(self):
        cs = raw_system(2, [Linear((), ">=", 1, "t")])
        assert solve(cs).verdict == UNSAT

    def test_unknown_only_on_budget_exhaustion(self):
        # tiny budget on a contradiction that still resolves instantly
        cs = raw_system(2, [XorClause((0, 1), 1, "t"), XorClause((0, 1), 0, "t")])
        assert solve(cs, SolverConfig(time_budget=0.001)).verdict == UNSAT

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(time_budget=0)

    def test_luby_restarts_agree_with_brute_force(self):
        rng = random.Random(3)
        for _ in range(20):
            cs = random_system(rng, 10)
            assert solve(cs, SolverConfig(time_budget=1)).verdict == brute_force_verdict(cs)


class TestOracleAgreement:
    def test_agreement_on_random_systems(self):
        rng = random.Random(2024)
        n_sat = n_unsat = 0
        for trial in range(200):
            nv = rng.randint(4, 16)
            cs = random_system(rng, nv)
            expected = brute_force_verdict(cs)
            got = solve(cs, SolverConfig(time_budget=1.0, seed=trial))
            assert got.verdict == expected
            if got.verdict == SAT:
                assert check(cs, got.assignment)
                n_sat += 1
            else:
                n_unsat += 1
        assert n_sat > 20 and n_unsat > 20

    def test_agreement_without_probes(self):
        rng = random.Random(77)
        for trial in range(60):
            cs = random_system(rng, rng.randint(4, 14))
            expected = brute_force_verdict(cs)
            got = solve(cs, SolverConfig(time_budget=1.0, seed=trial, probe_candidates=False))
            assert got.verdict == expected
            if got.verdict == SAT:
                assert check(cs, got.assignment)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60)
    def test_sat_models_always_pass_check(self, seed):
        rng = random.Random(seed)
        cs = random_system(rng, rng.randint(3, 12))
        r = solve(cs, SolverConfig(time_budget=1.0, seed=seed & 0xFFFF))
        if r.verdict == SAT:
            assert check(cs, r.assignment)

    def test_monotone_restriction(self):
        """Appending constraints never turns unsat into sat."""
        rng = random.Random(6)
        for _ in range(40):
            nv = rng.randint(4, 10)
            base = random_system(rng, nv)
            g, variables = free_variables(nv)
            seen_unsat = False
            constraints = list(base.constraints)
            for _ in range(4):
                w = rng.randint(1, min(4, nv))
                vs = rng.sample(range(nv), w)
                constraints.append(OrClause(tuple((v, rng.random() < 0.5) for v in vs), "x"))
                verdict = solve(ConstraintSystem(g, variables, constraints)).verdict
                if seen_unsat:
                    assert verdict == UNSAT
                seen_unsat = seen_unsat or verdict == UNSAT


class TestDeterminism:
    def test_same_config_reproduces_assignment(self):
        rng = random.Random(12)
        for trial in range(25):
            cs = random_system(rng, rng.randint(5, 14))
            cfg = SolverConfig(time_budget=1.0, seed=trial)
            r1, r2 = solve(cs, cfg), solve(cs, cfg)
            assert r1.verdict == r2.verdict
            if r1.verdict == SAT:
                assert r1.assignment.values == r2.assignment.values

    def test_degree_constrained_pipeline_deterministic(self):
        g = sample_support_graph(20, 18, 0.7, RngSpec(5, 2))
        cs = encode(g, EncodingParams(min_qubit_degree=3))
        cfg = SolverConfig(time_budget=20, seed=9)
        r1, r2 = solve(cs, cfg), solve(cs, cfg)
        assert r1.verdict == r2.verdict == SAT
        assert r1.assignment.values == r2.assignment.values

    def test_verdict_does_not_depend_on_wall_clock(self, monkeypatch):
        g = sample_support_graph(20, 18, 0.5, RngSpec(11, 3))
        cs = encode(g, EncodingParams(min_qubit_degree=3))
        cfg = SolverConfig(time_budget=2.0, seed=1)
        steady = solve(cs, cfg)
        # decided, and only after the first budget slice ran out
        assert steady.verdict != UNKNOWN and steady.stats.propagations > solver._MIN_SLICE
        clock = itertools.count(step=1e6)  # each clock reading 10^6 s after the last
        monkeypatch.setattr(solver.time, "monotonic", lambda: next(clock))
        slow = solve(cs, cfg)
        assert slow.verdict == steady.verdict
        assert slow.assignment == steady.assignment
        assert dataclasses.replace(slow.stats, wall_time_s=0.0) == dataclasses.replace(
            steady.stats, wall_time_s=0.0
        )
