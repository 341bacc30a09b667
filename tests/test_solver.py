import hashlib
import random
import time
from collections import Counter

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
    consistent_completion,
    encode,
    flip_variable,
    model_candidate,
)
from stabsearch.css import extract_code, satisfies_degree_bounds, stats as code_stats
from stabsearch.gf2 import kernel, rank_int_rows
from stabsearch.graphs import SupportGraph, sample_support_graph
from stabsearch import harness, probe, solver
from stabsearch.rng import RngSpec, stable_hash64
from stabsearch.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    SolverConfig,
    check,
    solve,
)

from oracles import assignment_bits, brute_force_verdict, reference_check, satisfying_set


def free_variables(nv: int):
    """nv independent booleans, hosted on a complete-bipartite dummy graph."""
    g = sample_support_graph(nv, 1, 1.0, RngSpec(0))
    return g, [VarRef(ACTIVATOR, (i, 0)) for i in range(nv)]


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
            cons.append(OrClause(tuple(2 * v + (rng.random() >= 0.5) for v in vs), "rnd"))
        elif kind < 0.8:
            w = rng.randint(2, min(7, nv))
            vs = rng.sample(range(nv), w)
            cons.append(XorClause(tuple(vs), rng.randint(0, 1), "rnd"))
        else:
            w = rng.randint(1, min(8, nv))
            vs = rng.sample(range(nv), w)
            cons.append(Linear(tuple(vs), rng.choice([">=", "<=", "=="]), rng.randint(0, w), "rnd"))
    return raw_system(nv, cons)


def random_3sat(seed: int, nv: int, ratio: float, n_binary: int) -> ConstraintSystem:
    """round(ratio * nv) random 3-literal OR clauses, then n_binary random 2-literal ones."""
    rng = random.Random(seed)
    widths = [3] * round(ratio * nv) + [2] * n_binary
    return raw_system(nv, [
        OrClause(tuple(2 * v + (rng.random() >= 0.5) for v in rng.sample(range(nv), w)), "rnd") for w in widths
    ])


class TestCheck:
    def test_check_accepts_consistent_all_inactive(self):
        g = sample_support_graph(8, 6, 0.5, RngSpec(4))
        cs = encode(g)
        a = consistent_completion(cs, [0] * g.m, [0] * g.m)
        assert check(cs, a)

    def test_check_rejects_flipped_aux(self):
        cs = encode(sample_support_graph(8, 6, 0.9, RngSpec(4)))
        a = consistent_completion(cs, [0] * 6, [0] * 6)
        both_ids = [i for i, v in enumerate(cs.variables) if v.kind == "both"]
        assert both_ids
        values = list(a)
        values[both_ids[0]] ^= 1
        assert not check(cs, tuple(values))

    def test_check_rejects_partial_assignment(self):
        cs = encode(sample_support_graph(4, 3, 0.5, RngSpec(0)))
        with pytest.raises(ValueError):
            check(cs, (0,) * (cs.num_vars - 1))
        with pytest.raises(ValueError):
            check(cs, (0, 2) + (0,) * (cs.num_vars - 2))

    def test_check_evaluates_each_constraint_type(self):
        cs = raw_system(
            3,
            [
                OrClause((0, 3), "t"),
                XorClause((0, 1, 2), 1, "t"),
                Linear((0, 1, 2), ">=", 1, "t"),
                Linear((0, 1, 2), "<=", 2, "t"),
                Linear((0, 1), "==", 1, "t"),
            ],
        )
        assert check(cs, (1, 0, 0))
        assert not check(cs, (1, 1, 1))  # violates xor and <= and ==

    @staticmethod
    def outcome(fn, cs, values):
        """fn's verdict on values, or the class of the exception it raises."""
        try:
            return fn(cs, values)
        except Exception as exc:  # any class: the two must raise the same one
            return type(exc)

    @given(st.integers(min_value=0, max_value=2**32))
    def test_check_matches_reference(self, seed):
        rng = random.Random(seed)
        cs = random_system(rng, rng.randint(2, 12))
        g = sample_support_graph(rng.randint(4, 9), rng.randint(3, 7), rng.uniform(0.3, 0.9), RngSpec(seed))
        band = encode(g, EncodingParams(min_qubit_degree=rng.randint(0, 1), min_stab_degree=rng.randint(0, 2)))
        model = solve(cs, SolverConfig(time_budget=0.1, seed=seed)).assignment
        cases = [
            (cs, tuple(rng.randint(0, 1) for _ in range(cs.num_vars))),
            (band, consistent_completion(band, [0] * g.m, [0] * g.m)),
            (band, consistent_completion(band, [rng.getrandbits(g.n) for _ in range(g.m)],
                                         [rng.randint(0, 1) for _ in range(g.m)])),
        ] + [(cs, model)] * (model is not None)
        for system, values in list(cases):  # and every single-bit flip of each
            cases += [(system, values[:v] + (values[v] ^ 1,) + values[v + 1:]) for v in range(len(values))]
        verdicts = [self.outcome(check, *case) for case in cases]
        assert verdicts == [self.outcome(reference_check, *case) for case in cases]
        assert all(type(v) is bool for v in verdicts)
        assert model is None or verdicts[3] is True

        values = cases[0][1]
        for bad in [values[:-1], values + (0,), values[:-1] + (2,), (-1,) + values[1:],
                    values[:-1] + (0.5,), values[:-1] + (None,)]:
            raised = self.outcome(check, cs, bad)
            assert raised is self.outcome(reference_check, cs, bad) is ValueError


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


class TestProbes:
    def test_degree_bounded_solve_never_checks_the_all_inactive_completion(self, monkeypatch):
        # a positive minimum qubit degree rules the all-inactive probe out; the
        # band grid's n=20, gamma=0.6 sample ends sat in its slices, whose model is checked
        cs = encode(band_graph(20, 0.6), EncodingParams(min_qubit_degree=3))
        zero = consistent_completion(cs, [0] * cs.graph.m, [0] * cs.graph.m)
        checked = []

        def recording_check(cs_, a):
            checked.append(a)
            return check(cs_, a)

        monkeypatch.setattr(solver, "check", recording_check)
        assert solve(cs, band_config(20, 0.6)).verdict == SAT
        assert checked and zero not in checked


class TestWarmStart:
    """An engine whose saved phases satisfy the system returns them on its first descent."""

    @staticmethod
    def first_descent(cs, phases, seed):
        stats = solver.SolverStats()
        engine = solver._Engine(cs, seed, phases, stats)
        assert engine.search(solver.PROPS_PER_SECOND) == SAT
        assert tuple(engine.values) == phases and stats.conflicts == 0

    def test_brute_force_model_as_phases(self):
        rng = random.Random(31)
        models = 0
        for trial in range(150):
            cs = random_system(rng, rng.randint(4, 14))
            sat = satisfying_set(cs)
            if sat:
                models += 1
                lowest = (sat & -sat).bit_length() - 1
                self.first_descent(cs, assignment_bits(lowest, cs.num_vars), trial)
        assert models > 20

    def test_all_inactive_completion_as_phases(self):
        for i in range(20):
            g = sample_support_graph(20, 18, 0.3 + 0.02 * i, RngSpec(7, i))
            cs = encode(g)
            self.first_descent(cs, consistent_completion(cs, [0] * g.m, [0] * g.m), i)


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
        # the bare CDCL engine, with no probe to answer first
        rng = random.Random(77)
        for trial in range(60):
            cs = random_system(rng, rng.randint(4, 14))
            expected = brute_force_verdict(cs)
            engine = solver._Engine(cs, trial, None, solver.SolverStats())
            assert engine.search(solver.PROPS_PER_SECOND) == expected
            if expected == SAT:
                assert check(cs, tuple(engine.values))

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
                constraints.append(OrClause(tuple(2 * v + (rng.random() >= 0.5) for v in vs), "x"))
                verdict = solve(ConstraintSystem(g, variables, constraints)).verdict
                if seen_unsat:
                    assert verdict == UNSAT
                seen_unsat = seen_unsat or verdict == UNSAT


def small_encoded_systems(params: EncodingParams, count: int):
    """count encoded systems of at most 20 variables on random graphs of 2-4 qubits and
    1-4 stabilizers; odd m included, so balanced params meet systems with no flip too."""
    rng = random.Random(repr(params))
    made = 0
    while made < count:
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        g = sample_support_graph(n, m, rng.choice([0.5, 0.7, 1.0]), RngSpec(rng.getrandbits(32)))
        cs = encode(g, params)
        if cs.num_vars <= 20:
            made += 1
            yield cs


class TestXZFlip:
    """Every slice fixes p(0) at its saved phase where flip_variable names it.  A model
    still leaves only through check, and a refutation under the fixed value counts
    for the system only once is_encoded confirms it is encode's; else the other half
    is searched."""

    FAMILIES = [EncodingParams(), EncodingParams(min_qubit_degree=1), EncodingParams(min_stab_degree=1),
                EncodingParams(min_stab_degree=1, max_stab_degree=2), EncodingParams(balanced=True),
                EncodingParams(min_qubit_degree=1, min_stab_degree=1, balanced=True)]

    @pytest.mark.parametrize("params", FAMILIES, ids=str)
    def test_agrees_with_brute_force_on_small_encoded_systems(self, params):
        verdicts = Counter()
        for i, cs in enumerate(small_encoded_systems(params, 25)):
            got = solve(cs, SolverConfig(time_budget=1.0, seed=i))
            assert got.verdict == brute_force_verdict(cs)
            verdicts[got.verdict] += 1
        assert verdicts[SAT]

    def test_balance_with_odd_m_searches_both_types_of_stabilizer_0(self):
        # stabilizers 1 and 2 have one edge each, on qubit 0: active, so of one type, and
        # with one X stabilizer of three, stabilizer 0 must be it.  A flip that ignored
        # the balance row's parity would fix p(0) to Z (no saved phases) and refute.
        g = SupportGraph(2, 3, 1.0, 0, ((0, 1), (0, 2), (1, 0)))
        cs = encode(g, EncodingParams(min_stab_degree=1, balanced=True))
        assert flip_variable(cs) is None
        result = solve(cs, SolverConfig(time_budget=1.0))
        assert result.verdict == SAT and result.assignment[len(g.edges)] == 1

    def test_a_system_that_forces_p0_is_solved_in_the_other_half(self, monkeypatch):
        # encode's system plus two clauses that force p(0) through activator 0 is no longer
        # symmetric: where they oppose the fixed value, the refuted half is followed by the other
        fixed = []
        hook_engine(monkeypatch, "search", before=lambda engine: fixed.append(engine.values[p0]))
        other_halves = 0
        for params in [EncodingParams(), EncodingParams(min_stab_degree=1),
                       EncodingParams(min_qubit_degree=1, min_stab_degree=1, balanced=True)]:
            for cs in small_encoded_systems(params, 12):
                if brute_force_verdict(cs) != SAT:
                    continue
                p0 = flip_variable(cs)
                for value in (0, 1):
                    lit = 2 * p0 + 1 - value  # p(0) = value
                    force = (OrClause((lit, 0), "t"), OrClause((lit, 1), "t"))
                    forced = ConstraintSystem(cs.graph, cs.variables, cs.constraints + force, cs.params)
                    fixed.clear()
                    result = solve(forced, SolverConfig(time_budget=1.0))
                    assert result.verdict == SAT and result.assignment[p0] == value
                    assert check(forced, result.assignment)
                    if fixed and fixed[0] != value:  # the first half was refuted
                        assert fixed[-1] == value
                        other_halves += 1
        assert other_halves > 10

    def test_a_refutation_is_confirmed_by_re_encoding_or_followed_by_the_other_half(self, monkeypatch):
        # band_sweep's n=40, gamma=0.3 graph fails the degree screen, so a search refutes it
        cs = encode(band_graph(40, 0.3), EncodingParams(min_qubit_degree=3))
        p0 = flip_variable(cs)
        fixed, confirmed = [], []
        hook_engine(monkeypatch, "search", before=lambda engine: fixed.append(engine.values[p0]))
        is_encoded = solver.is_encoded
        monkeypatch.setattr(solver, "is_encoded", lambda cs_: confirmed.append(is_encoded(cs_)) or confirmed[-1])
        assert solve(cs, band_config(40, 0.3)).verdict == UNSAT
        assert confirmed == [True] and len(fixed) == 1
        fixed.clear()
        monkeypatch.setattr(solver, "is_encoded", lambda cs_: False)
        assert solve(cs, band_config(40, 0.3)).verdict == UNSAT
        assert len(fixed) == 2 and fixed[0] != fixed[1]


class TestDeterminism:
    def test_same_config_reproduces_assignment(self):
        rng = random.Random(12)
        for trial in range(25):
            cs = random_system(rng, rng.randint(5, 14))
            cfg = SolverConfig(time_budget=1.0, seed=trial)
            r1, r2 = solve(cs, cfg), solve(cs, cfg)
            assert r1.verdict == r2.verdict
            if r1.verdict == SAT:
                assert r1.assignment == r2.assignment

    def test_degree_constrained_pipeline_deterministic(self):
        g = sample_support_graph(20, 18, 0.7, RngSpec(5, 2))
        cs = encode(g, EncodingParams(min_qubit_degree=3))
        cfg = SolverConfig(time_budget=20, seed=9)
        r1, r2 = solve(cs, cfg), solve(cs, cfg)
        assert r1.verdict == r2.verdict == SAT
        assert r1.assignment == r2.assignment

    def test_verdict_does_not_depend_on_wall_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the solver read a clock")

        for name in ("monotonic", "perf_counter", "time", "process_time"):
            monkeypatch.setattr(time, name, no_clock)
        # band_sweep's n=30, gamma=0.5 sample: sat only after the first slice ran out
        result = solve(encode(band_graph(30, 0.5), EncodingParams(min_qubit_degree=3)), band_config(30, 0.5))
        assert result.stats.propagations > solver._MIN_SLICE
        assert work_row(result) == PINNED_BAND_SWEEP[2]

    def test_solving_twice_leaves_the_system_as_stored(self):
        # every slice's engine loads the system's own literal and variable tuples
        cs = encode(band_graph(30, 0.5), EncodingParams(min_qubit_degree=3))
        text = cs.to_json()
        first = solve(cs, band_config(30, 0.5))
        assert first.stats.propagations > solver._MIN_SLICE  # more than one slice ran
        assert solve(cs, band_config(30, 0.5)) == first
        assert cs.to_json() == text


# (verdict, decisions, conflicts, propagations, restarts, learned, model hash)
SCREENED = ("unsat", 0, 0, 0, 0, 0, None)  # settled by the degree screen, before any encode
PINNED_BAND = [
    SCREENED,
    SCREENED,
    ("unknown", 1629, 754, 150492, 3, 754, None),
    ("sat", 683, 213, 32731, 1, 213, "5909549f4133e8bf"),
    SCREENED,
    SCREENED,
    ("unknown", 1249, 698, 150018, 3, 698, None),
    ("unknown", 2128, 815, 150339, 4, 815, None),
]
PINNED_RANDOM = [
    ("sat", 2, 0, 7, 0, 0, "3d5b3e09988c1358"), ("unsat", 0, 1, 9, 0, 0, None),
    ("unsat", 3, 4, 14, 0, 1, None), ("unsat", 0, 0, 12, 0, 0, None),
    ("sat", 3, 0, 4, 0, 0, "b40711a88c703975"), ("unsat", 0, 1, 8, 0, 0, None),
    ("unsat", 0, 0, 2, 0, 0, None), ("unsat", 0, 1, 10, 0, 0, None),
    ("unsat", 0, 1, 11, 0, 0, None), ("unsat", 0, 1, 10, 0, 0, None),
    ("unsat", 0, 0, 4, 0, 0, None), ("sat", 4, 0, 6, 0, 0, "588611f65741c171"),
    ("sat", 2, 0, 4, 0, 0, "d5e2d2ac07b741be"), ("unsat", 0, 1, 5, 0, 0, None),
    ("sat", 21, 16, 56, 0, 16, "9261c41a5e259f45"), ("sat", 6, 0, 10, 0, 0, "e5b8b6811897fc48"),
    ("unsat", 0, 0, 1, 0, 0, None), ("sat", 8, 0, 13, 0, 0, "eb1c3168a6374ad1"),
    ("sat", 1, 0, 5, 0, 0, "15f2f1a4339f5f2a"), ("unsat", 0, 0, 7, 0, 0, None),
    ("sat", 0, 0, 0, 0, 0, "df3f619804a92fdb"), ("unsat", 0, 1, 12, 0, 0, None),
    ("sat", 5, 1, 14, 0, 1, "f2785cf850f5f4f0"), ("unsat", 0, 1, 10, 0, 0, None),
    ("unsat", 0, 0, 6, 0, 0, None), ("unsat", 0, 1, 4, 0, 0, None),
    ("sat", 6, 1, 12, 0, 0, "69934aa2cfc5bfff"), ("sat", 2, 1, 11, 0, 1, "b66d6696898837d1"),
    ("sat", 5, 0, 7, 0, 0, "ac82e3cd5011c942"), ("unsat", 0, 0, 6, 0, 0, None),
    ("sat", 2, 1, 10, 0, 1, "b60a5715460ff315"), ("sat", 2, 0, 5, 0, 0, "8e0c5acc0a2f5318"),
    ("unsat", 0, 0, 3, 0, 0, None), ("sat", 6, 2, 23, 0, 2, "f721c253e8992313"),
    ("unsat", 0, 0, 6, 0, 0, None), ("unsat", 0, 0, 1, 0, 0, None),
    ("unsat", 0, 1, 2, 0, 0, None), ("sat", 10, 0, 14, 0, 0, "428bcbc1a5b54803"),
    ("sat", 8, 0, 10, 0, 0, "ce07fb094c5e4478"), ("sat", 0, 0, 7, 0, 0, "ac82e3cd5011c942"),
    ("sat", 3, 0, 12, 0, 0, "1ff0293aaa002d58"), ("unsat", 0, 0, 1, 0, 0, None),
    ("unsat", 0, 1, 11, 0, 0, None), ("unsat", 0, 0, 1, 0, 0, None),
    ("sat", 2, 0, 8, 0, 0, "6e6e1f1d04424746"), ("unsat", 0, 1, 11, 0, 0, None),
    ("unsat", 0, 1, 11, 0, 0, None), ("sat", 2, 0, 9, 0, 0, "8e8cf23feec69e47"),
    ("unsat", 0, 0, 3, 0, 0, None), ("sat", 4, 1, 25, 0, 0, "93992577186b34ff"),
]
# band_sweep's own grid: n=30 and 40, gamma 0.3-0.6, delta_q=3, budget 1.0
PINNED_BAND_SWEEP = [
    SCREENED,
    ("sat", 969, 185, 47762, 1, 185, "a291d7604cdb3a8d"),
    ("sat", 2832, 545, 106991, 2, 544, "dcb66183ef095d30"),
    ("sat", 0, 0, 1187, 0, 0, "7e0b657718710de3"),
    SCREENED,
    ("unknown", 2036, 303, 150349, 1, 303, None),
    ("sat", 0, 0, 2064, 0, 0, "695b77057b26e558"),
    ("sat", 0, 0, 1461, 0, 0, "98e29372a2e34bac"),
]


def work_row(result) -> tuple:
    s = result.stats
    model = result.assignment
    digest = None if model is None else hashlib.sha256(bytes(model)).hexdigest()[:16]
    return (result.verdict, s.decisions, s.conflicts, s.propagations, s.restarts, s.learned, digest)


class TestPinnedWork:
    """Every solve below spends exactly the pinned work and finds the pinned model.

    The work unit (propagations) prices every budgeted verdict.  A change
    that moves these numbers is a deliberate change of the search or of
    what a work unit counts (ROADMAP item 1), and CHANGES.md must record
    it together with the new values.
    """

    @staticmethod
    def sweep(monkeypatch, out_dir, qubit_counts, params) -> list[tuple]:
        """work_row of every sample of a serial band sweep (gamma 0.3-0.6, budget 1.0).

        A sample that the degree screen settles is an unsat row with no work.
        """
        results = []
        find_code = harness.find_code

        def recording_find_code(*args):
            result, record = find_code(*args)
            results.append(result)
            return result, record

        monkeypatch.setattr(harness, "find_code", recording_find_code)
        harness.run_phase_sweep(harness.SweepConfig(
            qubit_counts, 0.3, 0.6, 0.1, samples=1, params=params, time_budget=1.0,
            master_seed=20240808, out_dir=str(out_dir),
        ))
        return [work_row(r) for r in results]

    def test_band_grid_and_random_systems(self, monkeypatch, tmp_path):
        # the band_sweep benchmark's small grid (n=20, delta_q=3, budget 1.0), then the
        # same grid with stabilizer-degree bounds and balance
        got = []
        for i, params in enumerate([
            EncodingParams(min_qubit_degree=3),
            EncodingParams(min_qubit_degree=3, min_stab_degree=4, max_stab_degree=8, balanced=True),
        ]):
            got += self.sweep(monkeypatch, tmp_path / str(i), (20,), params)
        assert got == PINNED_BAND

        rng = random.Random(8)
        got = []
        for trial in range(len(PINNED_RANDOM)):
            cs = random_system(rng, rng.randint(4, 16))
            got.append(work_row(solve(cs, SolverConfig(time_budget=1.0, seed=trial))))
        assert got == PINNED_RANDOM

    def test_band_sweep_grid(self, monkeypatch, tmp_path):
        got = self.sweep(monkeypatch, tmp_path, (30, 40), EncodingParams(min_qubit_degree=3))
        assert got == PINNED_BAND_SWEEP


def band_graph(n: int, gamma: float) -> SupportGraph:
    """The graph of band_sweep's (n, gamma) sample: m = 0.9 n, master seed 20240808."""
    return sample_support_graph(n, round(0.9 * n), gamma, RngSpec(20240808, stable_hash64(n, gamma, 0)))


def band_config(n: int, gamma: float) -> SolverConfig:
    """The solver config (budget 1.0) that band_sweep gives its (n, gamma) sample."""
    return SolverConfig(1.0, stable_hash64("solver", n, gamma, 0, 20240808) & 0x7FFFFFFF)


def band_system() -> ConstraintSystem:
    """The band_sweep small grid's gamma=0.5 system (n=20, m=18, delta_q=3)."""
    g = sample_support_graph(20, 18, 0.5, RngSpec(20240808, stable_hash64(20, 0.5, 0)))
    return encode(g, EncodingParams(min_qubit_degree=3))


def check_heap_entries(engine):
    """Every unassigned variable has the heap entry (-var_act[v], v)."""
    entries = set(engine.heap)
    for v in range(engine.nvars):
        if engine.values[v] < 0:
            assert (-engine.var_act[v], v) in entries


def check_reasons(engine):
    """Each implied variable's reason is its true literal, then false literals set before it."""
    position = {lit >> 1: i for i, lit in enumerate(engine.trail)}
    for i, lit in enumerate(engine.trail):
        r = engine._reason_of(lit >> 1)
        if r is None:
            continue
        assert r[0] == lit
        for q in r[1:]:
            assert engine.values[q >> 1] == q & 1
            assert position[q >> 1] < i


def record_binaries(monkeypatch):
    """Patch _Engine._load to keep the literal pairs of the system's binary OR clauses
    as engine.binaries, or None where a conflict stopped the load before its end."""
    load = solver._Engine._load

    def recording(engine, cs):
        load(engine, cs)
        engine.binaries = [list(c.lits) for c in cs.constraints
                           if isinstance(c, OrClause) and len(c.lits) == 2] if engine.ok else None

    monkeypatch.setattr(solver._Engine, "_load", recording)


def check_binary_watches(engine):
    """Each original binary clause (l0, l1) is the int l1 in watches[l0] and the int
    l0 in watches[l1], once each, and no other int is in any watch list.  Needs
    record_binaries."""
    if engine.binaries is None:
        return
    expected = [Counter() for _ in engine.watches]
    for l0, l1 in engine.binaries:
        expected[l0][l1] += 1
        expected[l1][l0] += 1
    for lit, wl in enumerate(engine.watches):
        assert Counter(c for c in wl if type(c) is int) == expected[lit]


def hook_engine(monkeypatch, method, before=None, after=None):
    """Call before(engine) ahead of and after(engine) behind every call of _Engine.method;
    returns the call log."""
    original = getattr(solver._Engine, method)
    calls = []

    def hooked(engine, *args):
        if before:
            before(engine)
        calls.append(method)
        result = original(engine, *args)
        if after:
            after(engine)
        return result

    monkeypatch.setattr(solver._Engine, method, hooked)
    return calls


class TestEngineInvariants:
    """The heap, reason and binary-watch invariants of _Engine's docstring hold inside
    real searches."""

    @staticmethod
    def solve_all():
        rng = random.Random(5)
        for trial in range(60):
            cs = random_system(rng, rng.randint(4, 16))
            solver._Engine(cs, trial, None, solver.SolverStats()).search(solver.PROPS_PER_SECOND)
        result = solve(band_system(), SolverConfig(time_budget=1.0, seed=1))
        assert result.verdict == UNKNOWN and result.stats.restarts > 1

    def test_unassigned_variables_have_current_heap_entries(self, monkeypatch):
        calls = hook_engine(monkeypatch, "_pick_branch_var", check_heap_entries)
        self.solve_all()
        assert len(calls) > 1500

    def test_reasons_are_true_literal_then_earlier_false_literals(self, monkeypatch):
        binary_reasons = []
        calls = hook_engine(monkeypatch, "_analyze", lambda engine: (
            check_reasons(engine), binary_reasons.extend(r for r in engine.reason if type(r) is int)))
        self.solve_all()
        assert len(calls) > 800 and binary_reasons

    def test_binary_clauses_stay_watched_as_their_other_literal(self, monkeypatch):
        record_binaries(monkeypatch)
        reduces = hook_engine(monkeypatch, "_reduce_db", after=check_binary_watches)
        slices = hook_engine(monkeypatch, "search", after=check_binary_watches)
        self.solve_all()
        # one 250,000-propagation slice learns past the 4,000 clauses that start a reduction
        monkeypatch.setattr(solver, "_MIN_SLICE", 250_000)
        result = solve(random_3sat(2, 180, 4.3, 10), SolverConfig(time_budget=2.0, seed=2))
        assert result.verdict == UNSAT and result.stats.conflicts > 4000
        assert len(reduces) >= 1 and len(slices) > 60

    def test_binary_conflict_is_other_then_falsified(self):
        # deciding x0 falsifies ~x0: (~x0 | x1) implies x1, then (~x0 | ~x1) is in conflict
        cs = raw_system(2, [OrClause((1, 2), "t"), OrClause((1, 3), "t")])
        engine = solver._Engine(cs, 0, None, solver.SolverStats())
        assert engine.watches[1] == [2, 3] and engine.num_clauses == 2
        engine.trail_lim.append(0)
        engine._enqueue(0, None)
        assert engine._propagate() == [3, 1]
        assert engine.reason[1] == 1 and engine._reason_of(1) == [2, 1]
        assert engine.watches[1] == [2, 3] and engine.stats.propagations == 2


class TestActivityRescale:
    """Scaling every activity by 1e-100 scales the heap keys with them."""

    def test_next_pick_has_highest_current_activity(self, monkeypatch):
        monkeypatch.setattr(solver, "_RANDOM_BRANCH_FREQ", 0.0)
        engine = solver._Engine(raw_system(4, []), 0, None, solver.SolverStats())

        def bump_at_level_one(v, inc):
            engine.trail_lim.append(len(engine.trail))
            engine._enqueue(2 * v, None)
            engine.var_inc = inc
            engine._bump_var(v)
            engine._backtrack(0)

        bump_at_level_one(0, 1e99)  # pushed with key -1e99
        bump_at_level_one(1, 2e100)  # rescales: var 0 drops to 0.1, var 1 ends at 2
        assert engine.var_act[0] < engine.var_act[1] < 1e99
        assert engine._pick_branch_var() == 1

    def test_heap_entries_stay_current_across_rescales(self, monkeypatch):
        original_init = solver._Engine.__init__
        engines = []

        def init_near_rescale(engine, *args):
            original_init(engine, *args)
            engine.var_inc = 1e97  # passes 1e100 after at most a few hundred conflicts
            engines.append(engine)

        monkeypatch.setattr(solver._Engine, "__init__", init_near_rescale)
        hook_engine(monkeypatch, "_pick_branch_var", check_heap_entries)
        solve(band_system(), SolverConfig(time_budget=1.0, seed=1))
        assert sum(e.var_inc < 1e97 for e in engines) >= 2  # var_inc only falls in a rescale


def record_calls(monkeypatch, owner, name, log):
    """Append an entry to log on every call of owner.name: (name, work returned) for
    solver.kernel_candidate(g, dq, seed), and (name, stats.propagations before, after)
    for solver._Engine.search(engine, limit)."""
    original = getattr(owner, name)

    def recorded(*args):
        if name == "kernel_candidate":
            result = original(*args)
            log.append((name, result[1]))
            return result
        before = args[0].stats.propagations
        result = original(*args)
        log.append((name, before, args[0].stats.propagations))
        return result

    monkeypatch.setattr(owner, name, recorded)


def one_propagation_first_slice(monkeypatch):
    """Slices of 1, 2, 4, ... propagations, so a first slice ends unknown at once."""
    monkeypatch.setattr(solver, "_MIN_SLICE", 1)
    monkeypatch.setattr(solver, "_FIRST_SLICE_FRACTION", 0)


class TestKernelProbe:
    """The probe ahead of the first slice: random X side, Z rows by elimination."""

    def test_kernel_basis_spans_the_restricted_kernel(self):
        rng = random.Random(4)
        for _ in range(40):
            rows = [rng.getrandbits(24) for _ in range(rng.randint(0, 14))]
            cols = sorted(rng.sample(range(24), rng.randint(1, 24)))
            basis, _ = kernel(rows, cols)
            mask = sum(1 << c for c in cols)
            assert all(b & ~mask == 0 and all((b & r).bit_count() % 2 == 0 for r in rows) for b in basis)
            assert rank_int_rows(basis) == len(basis) == len(cols) - rank_int_rows([r & mask for r in rows])

    def test_same_seed_same_model_and_work(self):
        g = band_graph(40, 0.6)
        runs = [probe.kernel_candidate(g, 3, seed) for seed in (6, 6, 7)]
        assert runs[0] == runs[1] and runs[0][0] is not None and runs[0][1] > 0
        assert runs[2][0] is not None and runs[2][0] != runs[0][0]

    def test_every_hit_is_a_checked_code_within_its_degree_bounds(self):
        # without stabilizer bounds every candidate completes to a model; under them none of
        # the eight candidates meets the bounds, which is why solve() skips the probe there
        hits = bounded_hits = 0
        for n, gamma, params in [
            (30, 0.7, EncodingParams(min_qubit_degree=3)),
            (30, 0.7, EncodingParams(min_qubit_degree=3, min_stab_degree=4, max_stab_degree=14)),
            (40, 0.6, EncodingParams(min_qubit_degree=3)),
            (20, 0.7, EncodingParams(min_qubit_degree=3, max_stab_degree=14)),
        ]:
            g = band_graph(n, gamma)
            cs = encode(g, params)
            bounded = params.min_stab_degree > 0 or params.max_stab_degree is not None
            for seed in range(3):
                candidate, _ = probe.kernel_candidate(g, params.min_qubit_degree, seed)
                if candidate is None:
                    continue
                model = consistent_completion(cs, *candidate)
                assert bounded or check(cs, model)
                if check(cs, model):
                    hits += 1
                    bounded_hits += bounded
                    assert satisfies_degree_bounds(extract_code(g, model), params)
        assert (hits, bounded_hits) == (6, 0)

    def test_band_sample_ends_sat_before_the_first_slice(self):
        # band_sweep's n=40, gamma=0.6 sample: unknown at budget 1 without the probe
        result = solve(encode(band_graph(40, 0.6), EncodingParams(min_qubit_degree=3)), band_config(40, 0.6))
        assert result.stats.propagations < 2_000
        assert work_row(result) == ("sat", 0, 0, 1461, 0, 0, "98e29372a2e34bac")

    def test_balanced_hit_meets_the_balance_row(self):
        g = band_graph(30, 0.7)  # m = 27, so 13 X stabilizers
        candidate, _ = probe.kernel_candidate(g, 3, 1)
        assert candidate is not None and sum(candidate[1]) == g.m // 2 == 13
        cs = encode(g, EncodingParams(min_qubit_degree=3, balanced=True))
        model = consistent_completion(cs, *candidate)
        assert check(cs, model) and len(extract_code(g, model).hx) == 13

    @pytest.mark.parametrize("params, calls", [
        (EncodingParams(min_qubit_degree=3), 1),
        (EncodingParams(min_stab_degree=2), 0),
        (EncodingParams(min_qubit_degree=3, min_stab_degree=4), 0),
        (EncodingParams(min_qubit_degree=3, max_stab_degree=14), 0),
    ])
    def test_entered_once_and_only_with_a_qubit_degree_and_probes(self, monkeypatch, params, calls):
        one_propagation_first_slice(monkeypatch)
        log = []
        record_calls(monkeypatch, solver, "kernel_candidate", log)
        record_calls(monkeypatch, solver._Engine, "search", log)
        cs = encode(band_graph(20, 0.5), params)
        solve(cs, SolverConfig(time_budget=0.05, seed=3))
        names = [entry[0] for entry in log]
        assert names.count("search") > 3
        assert names.count("kernel_candidate") == calls
        if calls:
            assert names[:2] == ["kernel_candidate", "search"]

    def test_runs_before_any_engine_and_a_hit_builds_none(self, monkeypatch):
        log = []
        record_calls(monkeypatch, solver, "kernel_candidate", log)
        original_init = solver._Engine.__init__

        def logged_init(engine, *args):
            log.append(("engine",))
            original_init(engine, *args)

        monkeypatch.setattr(solver._Engine, "__init__", logged_init)
        original_greedy = solver.greedy_candidate

        def logged_greedy(*args):
            log.append(("greedy",))
            return original_greedy(*args)

        # a hit builds neither the greedy phases nor an engine
        monkeypatch.setattr(solver, "greedy_candidate", logged_greedy)
        params = EncodingParams(min_qubit_degree=3)
        hit = solve(encode(band_graph(40, 0.6), params), band_config(40, 0.6))
        assert hit.verdict == SAT and [entry[0] for entry in log] == ["kernel_candidate"]
        log.clear()
        # band_sweep's n=30, gamma=0.5 sample: the probe misses, then the slices decide
        miss = solve(encode(band_graph(30, 0.5), params), band_config(30, 0.5))
        assert miss.verdict == SAT and miss.stats.decisions > 0
        assert [entry[0] for entry in log] == ["kernel_candidate", "greedy", "engine", "engine"]
        assert log[0][1] > 0

    def test_a_hit_that_fails_the_check_is_searched_from(self, monkeypatch):
        # encode's system plus two clauses forcing p(0) against a model of encode's
        # system: that model, returned as the probe's hit, fails the check, so it
        # only seeds the saved phases and the search decides the system
        searched = 0
        for cs, models in self.sat_systems():
            candidate = model_candidate(cs.graph, assignment_bits((models & -models).bit_length() - 1, cs.num_vars))
            monkeypatch.setattr(solver, "kernel_candidate", lambda g, dq, seed: (candidate, 0))
            p0 = flip_variable(cs)
            lit = 2 * p0 + candidate[1][0]  # p(0) = 1 - the hit's
            force = (OrClause((lit, 0), "t"), OrClause((lit, 1), "t"))
            forced = ConstraintSystem(cs.graph, cs.variables, cs.constraints + force, cs.params)
            assert not check(forced, consistent_completion(forced, *candidate))
            result = solve(forced, SolverConfig(time_budget=1.0))
            # the X/Z flip of the hit's model meets the forcing clauses
            assert result.verdict == brute_force_verdict(forced) == SAT
            assert check(forced, result.assignment) and result.stats.propagations > 0  # the probe charged 0
            searched += 1
        assert searched >= 5

    @staticmethod
    def sat_systems():
        """Satisfiable small encoded systems under a qubit degree, with their model sets."""
        for cs in small_encoded_systems(EncodingParams(min_qubit_degree=1), 60):
            if models := satisfying_set(cs):
                yield cs, models

    def test_a_search_model_that_fails_the_check_is_an_internal_error(self, monkeypatch):
        # the pre-search candidate fails the check and is searched from; the search's
        # model leaves through the same check, and its failure is the solver's fault
        cs, _ = next(self.sat_systems())
        assert solve(cs, SolverConfig(time_budget=1.0)).verdict == SAT
        monkeypatch.setattr(solver, "check", lambda cs, values: False)
        with pytest.raises(RuntimeError, match="invalid model"):
            solve(cs, SolverConfig(time_budget=1.0))

    def test_unknown_after_a_missed_probe_ends_at_the_budget(self, monkeypatch):
        # band_sweep's n=40, gamma=0.4 sample: the probe misses and the budget runs out
        log = []
        record_calls(monkeypatch, solver, "kernel_candidate", log)
        cfg = band_config(40, 0.4)
        result = solve(encode(band_graph(40, 0.4), EncodingParams(min_qubit_degree=3)), cfg)
        assert [entry[0] for entry in log] == ["kernel_candidate"] and log[0][1] > 0
        assert result.verdict == UNKNOWN
        assert result.stats.propagations >= int(cfg.time_budget * solver.PROPS_PER_SECOND)
        assert work_row(result) == PINNED_BAND_SWEEP[5]

    def test_hits_have_exact_x_degrees_and_no_lightening_move_left(self):
        dq = 3
        hits = 0
        for n, gamma in [(30, 0.6), (30, 0.7), (40, 0.5), (40, 0.6)]:
            g = band_graph(n, gamma)
            for seed in range(3):
                candidate, _ = probe.kernel_candidate(g, dq, seed)
                if candidate is None:
                    continue
                hits += 1
                rows, paulis = candidate
                assert all(rows[s] & ~sum(1 << q for q in g.stabilizer_neighbors(s)) == 0 for s in range(g.m))
                hx = [rows[s] for s in range(g.m) if paulis[s]]
                assert all(sum(r >> q & 1 for r in hx) == dq for q in range(g.n))
                assert 0 in hx  # the X side fills its stabilizers in order and leaves the last ones empty
                zdeg = [sum(rows[s] >> q & 1 for s in range(g.m) if not paulis[s]) for q in range(g.n)]
                assert min(zdeg) >= dq
                for s in range(g.m):
                    if paulis[s]:
                        continue
                    for b in (rows[s], *kernel(hx, g.stabilizer_neighbors(s))[0]):  # emptying included
                        lighter = (rows[s] ^ b).bit_count() < rows[s].bit_count()
                        assert not lighter or any(zdeg[q] == dq for q in range(g.n) if (rows[s] & b) >> q & 1)
                # extract_code's layout (activators in edge order, then Pauli types); it checks commutation
                code = extract_code(g, tuple(rows[s] >> q & 1 for q, s in g.edges) + tuple(paulis))
                assert code_stats(code).k > g.n - g.m  # empty rows add no rank
        assert hits == 12

    def test_degree_infeasible_graph_charges_nothing_and_falls_through(self, monkeypatch):
        g = band_graph(40, 0.6)
        cut = [(q, s) for q, s in g.edges if q != 0] + [(0, s) for s in g.qubit_neighbors(0)[:5]]
        cut = SupportGraph(g.n, g.m, g.gamma, g.seed, tuple(cut))
        assert probe.kernel_candidate(cut, 3, 0) == (None, 0)
        one_propagation_first_slice(monkeypatch)
        log = []
        record_calls(monkeypatch, solver, "kernel_candidate", log)
        record_calls(monkeypatch, solver._Engine, "search", log)
        solve(encode(cut, EncodingParams(min_qubit_degree=3)), SolverConfig(time_budget=0.05, seed=3))
        # the first search starts at one unit: the level-0 enqueue that fixes p(0)
        assert log[0] == ("kernel_candidate", 0) and log[1][:2] == ("search", 1)

    def test_no_slice_after_a_probe_that_spends_the_budget(self, monkeypatch):
        cfg = SolverConfig(time_budget=0.05, seed=3)
        budget = int(cfg.time_budget * solver.PROPS_PER_SECOND)
        monkeypatch.setattr(solver, "kernel_candidate", lambda g, dq, seed: (None, budget + 5))
        original_init = solver._Engine.__init__
        built = []

        def counted_init(engine, *args):
            built.append(engine)
            original_init(engine, *args)

        monkeypatch.setattr(solver._Engine, "__init__", counted_init)
        result = solve(encode(band_graph(20, 0.5), EncodingParams(min_qubit_degree=3)), cfg)
        assert built == []  # no slice at all
        assert result.verdict == UNKNOWN and result.stats.propagations == budget + 5

    def test_first_slice_verdicts_are_unchanged(self, monkeypatch):
        # samples the probe misses keep the first slice's verdict, search and model;
        # their work is the first slice's plus the probe's charge
        log = []
        record_calls(monkeypatch, solver, "kernel_candidate", log)
        got = [work_row(solve(encode(band_graph(n, gamma), EncodingParams(min_qubit_degree=3)),
                              band_config(n, gamma)))
               for n, gamma in [(20, 0.6), (40, 0.3)]]
        charges = [work for _, work in log]
        assert len(charges) == 2 and charges[0] > 0
        first_slice = [("sat", 683, 213, 32639, 1, 213, "5909549f4133e8bf"),
                       ("unsat", 353, 25, 8030, 0, 20, None)]
        assert got == [row[:3] + (row[3] + charge,) + row[4:] for row, charge in zip(first_slice, charges)]
