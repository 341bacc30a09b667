"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v`; a summary hook prints one
PASS/FAIL line per criterion at the end of the session.

The desk-scale sweep (criteria 5, 6, 10) is expensive, so its outputs
are cached under tests/.acceptance_cache and reused across sessions;
the cache directory is safe to delete.
"""

import random
import time
from pathlib import Path

import pytest

from stabsearch.constraints import (
    TAG_BALANCE,
    TAG_BOTH,
    TAG_COMMUTE,
    TAG_EVEN,
    TAG_SAME,
    TAG_SDEG_MAX,
    TAG_SDEG_MIN,
    TAG_XDEG,
    TAG_XIND,
    TAG_ZDEG,
    TAG_ZIND,
    EncodingParams,
    consistent_completion,
    constraint_census,
    encode,
)
from stabsearch.css import check_commutation, satisfies_degree_bounds
from stabsearch.erasure import (
    ErasurePattern,
    exact_failure_rate,
    failure_rate,
    logical_class_log2,
    sample_erasure,
    success_probability,
)
from stabsearch.css import shor_code, steane_code
from stabsearch.graphs import sample_support_graph
from stabsearch.harness import (
    SATISFIABLE,
    SweepConfig,
    best_codes,
    run_phase_sweep,
    satisfiable_records,
)
from stabsearch.rng import RngSpec, stable_hash64
from stabsearch.solver import SAT, SolverConfig, check, solve

from oracles import (
    assignment_bits,
    brute_force_class_log2,
    brute_force_verdict,
    edge_rows,
    satisfying_set,
    tag_count,
    tag_mean_width,
    tag_width_count,
)
from test_constraints import semantic_commutes
from test_harness import run_interrupted
from test_solver import random_system

CACHE = Path(__file__).parent / ".acceptance_cache"
MASTER_SEED = 20240808

DESK_SWEEP = SweepConfig(
    qubit_counts=(20, 30, 40),
    gamma_min=0.05,
    gamma_max=0.95,
    gamma_step=0.05,
    samples=10,
    ratio=0.9,
    params=EncodingParams(min_qubit_degree=3),
    time_budget=60.0,
    master_seed=MASTER_SEED,
    workers=2,
    out_dir=str(CACHE / "desk_sweep"),
)


@pytest.fixture(scope="session")
def desk_sweep():
    """Criterion 5's sweep; resumable on-disk cache shared by 5, 6 and 10."""
    pixels = run_phase_sweep(DESK_SWEEP)
    return pixels


@pytest.fixture(scope="session")
def desk_records(desk_sweep):
    return satisfiable_records(DESK_SWEEP.out_dir)


def test_criterion_01_encoder_soundness():
    """Exhaustive: constraint satisfaction == consistent auxiliaries plus
    pairwise commutation, for 200 random graphs with <= 16 variables."""
    t0 = time.time()
    rng = random.Random(101)
    done = 0
    while done < 200:
        n = rng.randint(2, 5)
        m = rng.randint(2, 4)
        gamma = rng.choice([0.4, 0.6, 0.8, 1.0])
        g = sample_support_graph(n, m, gamma, RngSpec(4242, done * 97 + rng.randint(0, 96)))
        cs = encode(g)
        if not (0 < cs.num_vars <= 16):
            continue
        sat_set = satisfying_set(cs)
        n_edges = len(g.edges)
        for idx in range(1 << cs.num_vars):
            bits = assignment_bits(idx, cs.num_vars)
            activators = {edge: bits[i] for i, edge in enumerate(g.edges)}
            paulis = [bits[n_edges + s] for s in range(g.m)]
            aux_ok = bits == consistent_completion(cs, edge_rows(g, bits), paulis)
            expected = aux_ok and semantic_commutes(g, activators, paulis)
            assert bool((sat_set >> idx) & 1) == expected
        done += 1
    assert time.time() - t0 < 300


def test_criterion_02_solver_oracle_agreement():
    """200 random mixed systems with <= 20 variables: verdicts equal brute
    force, no unknowns at a one second budget."""
    t0 = time.time()
    rng = random.Random(2002)
    n_sat = n_unsat = 0
    for trial in range(200):
        nv = rng.randint(5, 20)
        cs = random_system(rng, nv)
        expected = brute_force_verdict(cs)
        got = solve(cs, SolverConfig(time_budget=1.0, seed=trial))
        assert got.verdict == expected, f"trial {trial}"
        if got.verdict == SAT:
            assert check(cs, got.assignment)
            n_sat += 1
        else:
            n_unsat += 1
    assert n_sat > 0 and n_unsat > 0
    assert time.time() - t0 < 600


def test_criterion_03_trivial_satisfiability():
    """Commutation-only instances are satisfiable and solve in under a
    second each; the all-inactive coloring verifies."""
    rng = random.Random(33)
    for trial in range(100):
        n = rng.randint(5, 100)
        m = max(2, round(0.9 * n))
        gamma = rng.uniform(0.05, 0.35)
        g = sample_support_graph(n, m, gamma, RngSpec(808, trial))
        cs = encode(g)
        t0 = time.time()
        r = solve(cs, SolverConfig(time_budget=10, seed=trial))
        elapsed = time.time() - t0
        assert r.verdict == SAT
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s at n={n}, gamma={gamma:.2f}"
        assert check(cs, r.assignment)
        all_inactive = consistent_completion(cs, [0] * g.m, [0] * g.m)
        assert check(cs, all_inactive)


def test_criterion_04_all_discovered_codes_commute(desk_records, small_discovered_codes):
    """Every sat verdict across the experiments yields a commuting code
    respecting its encoded degree bounds.  Zero violations tolerated."""
    all_records = list(desk_records) + list(small_discovered_codes)
    assert all_records, "no codes were discovered"
    for rec in all_records:
        assert check_commutation(rec.code), rec.code_id
        params = EncodingParams.from_dict(rec.provenance["params"])
        assert satisfies_degree_bounds(rec.code, params), rec.code_id
        rec.validate()


def test_criterion_05_phase_transition(desk_sweep):
    """Desk-scale reproduction: sat fraction non-decreasing in gamma (dips
    of at most 2/10), and the 50% crossing non-increasing in n."""
    by_n: dict[int, list] = {}
    for px in desk_sweep:
        by_n.setdefault(px.n, []).append(px)
    assert sorted(by_n) == [20, 30, 40]

    crossings = {}
    for n, pixels in by_n.items():
        pixels.sort(key=lambda p: p.gamma)
        fractions = [p.sat_fraction for p in pixels]
        for lo, hi in zip(fractions, fractions[1:]):
            # a decrease of exactly 2/10 is tolerated, anything larger fails
            assert hi - lo >= -0.2 - 1e-12, f"sat fraction dips at n={n}: {fractions}"
        crossing = next((p.gamma for p, f in zip(pixels, fractions) if f >= 0.5), None)
        assert crossing is not None, f"no 50% crossing at n={n}"
        crossings[n] = crossing
    assert crossings[20] >= crossings[30] >= crossings[40], crossings


def test_criterion_06_density_gap(desk_sweep, desk_records):
    """Mean discovered-code density sits strictly below the minimum
    satisfiable gamma, and decreases from n=20 to n=40."""
    sat_pixels = [p for p in desk_sweep if p.classification == SATISFIABLE]
    mean_density = {}
    for n in (20, 30, 40):
        min_gamma = min((p.gamma for p in sat_pixels if p.n == n), default=None)
        assert min_gamma is not None, f"no satisfiable pixel at n={n}"
        recs = [r for r in desk_records if r.stats.n == n]
        assert recs, f"no records at n={n}"
        mean_density[n] = sum(r.stats.density for r in recs) / len(recs)
        assert mean_density[n] < min_gamma, (
            f"n={n}: mean density {mean_density[n]:.3f} >= min sat gamma {min_gamma}"
        )
    assert mean_density[40] < mean_density[20], mean_density


def test_criterion_07_constraint_census():
    """Census means over 100 seeds at (n, m, gamma) = (100, 90, 0.2) match
    the per-family expectations within 20%.

    Expected occurrences derive from the pair/triple combinatorics of the
    encoding: C(m,2) intersecting-pair candidates, each sharing n*gamma^2
    qubits in expectation, n*m*gamma edges, and one linear bound per
    qubit side, stabilizer side and balance."""
    t0 = time.time()
    n, m, gamma = 100, 90, 0.2
    params = EncodingParams(min_qubit_degree=3, min_stab_degree=6, max_stab_degree=20, balanced=True)
    seeds = 100

    pair_count = m * (m - 1) / 2
    p_intersect = 1 - (1 - gamma**2) ** n
    exp = {
        "pairs": pair_count * p_intersect,
        "triples": pair_count * n * gamma**2,
        "edges": n * m * gamma,
        "even_width": 1 + n * gamma**2 / p_intersect,
        "qubit_lin_width": m * gamma,
        "stab_lin_width": n * gamma,
    }

    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for sid in range(seeds):
        g = sample_support_graph(n, m, gamma, RngSpec(7001, sid))
        census = constraint_census(encode(g, params))
        add("or2_commute", tag_count(census, TAG_COMMUTE))
        add("xor3_same", tag_count(census, TAG_SAME))
        add("xor_even", tag_count(census, TAG_EVEN))
        add("or3_both", tag_width_count(census, TAG_BOTH, 3))
        add("or3_xind", tag_width_count(census, TAG_XIND, 3))
        add("or3_zind", tag_width_count(census, TAG_ZIND, 3))
        add("lin_x", tag_count(census, TAG_XDEG))
        add("lin_z", tag_count(census, TAG_ZDEG))
        add("lin_smin", tag_count(census, TAG_SDEG_MIN))
        add("lin_smax", tag_count(census, TAG_SDEG_MAX))
        add("lin_bal", tag_count(census, TAG_BALANCE))
        add("even_width", tag_mean_width(census, TAG_EVEN))
        add("qubit_lin_width", tag_mean_width(census, TAG_XDEG))
        add("stab_lin_width", tag_mean_width(census, TAG_SDEG_MIN))
        add("bal_width", tag_mean_width(census, TAG_BALANCE))

    def mean(key):
        return acc[key] / seeds

    def within20(measured, expected):
        assert abs(measured / expected - 1) < 0.20, f"{measured} vs {expected}"

    within20(mean("or2_commute"), exp["pairs"])
    within20(mean("xor3_same"), exp["pairs"])
    within20(mean("xor_even"), exp["pairs"])
    within20(mean("or3_both"), exp["triples"])
    within20(mean("or3_xind"), exp["edges"])
    within20(mean("or3_zind"), exp["edges"])
    within20(mean("even_width"), exp["even_width"])
    within20(mean("qubit_lin_width"), exp["qubit_lin_width"])
    within20(mean("stab_lin_width"), exp["stab_lin_width"])
    assert mean("lin_x") == n and mean("lin_z") == n
    assert mean("lin_smin") == m and mean("lin_smax") == m
    assert mean("lin_bal") == 1 and mean("bal_width") == m
    assert time.time() - t0 < 600


def test_criterion_08_erasure_oracle_equivalence(small_discovered_codes):
    """Rank-based class counting equals brute-force enumeration for every
    pattern of the 9- and 7-qubit reference codes and for 100 random
    patterns on each of five discovered codes."""
    t0 = time.time()
    code = shor_code()
    for mask in range(1 << 9):
        assert logical_class_log2(code, ErasurePattern(9, mask)) == brute_force_class_log2(
            code, mask
        )
    code = steane_code()
    for mask in range(1 << 7):
        assert logical_class_log2(code, ErasurePattern(7, mask)) == brute_force_class_log2(
            code, mask
        )
    for ci, rec in enumerate(small_discovered_codes):
        n = rec.code.n
        assert n <= 20
        for t in range(100):
            e = sample_erasure(n, 0.5, RngSpec(606, ci * 1000 + t))
            assert logical_class_log2(rec.code, e) == brute_force_class_log2(
                rec.code, e.mask
            ), f"code {rec.code_id} pattern {e.mask:x}"
    assert time.time() - t0 < 1800


def test_criterion_09_exact_erasure_anchors():
    """Known anchors plus Monte-Carlo agreement with exact enumeration."""
    code = shor_code()
    assert success_probability(code, ErasurePattern(9, 0)) == 1.0
    assert success_probability(code, ErasurePattern(9, (1 << 9) - 1)) == 0.25  # 4^-k, k=1
    code7 = steane_code()
    assert success_probability(code7, ErasurePattern(7, (1 << 7) - 1)) == 0.25
    for p in (0.1, 0.5, 0.9):
        truth = exact_failure_rate(code, p)
        rep = failure_rate(code, p, 10_000, RngSpec(0), estimator="bernoulli")
        assert abs(rep.failure_rate - truth) <= rep.ci95, f"p={p}"


def _best_reports(records, n, p_grid, trials):
    """Fig-5-style aggregation: screen, then benchmark the best codes."""
    screened = best_codes([r for r in records if r.stats.n == n], MASTER_SEED)
    assert screened, f"no rate >= 1/10 codes at n={n}"
    best = {}
    for p in p_grid:
        reports = [
            failure_rate(
                r.code, p, trials, RngSpec(MASTER_SEED, stable_hash64("final", r.code_id, p))
            )
            for r in screened
        ]
        best[p] = min(reports, key=lambda rep: rep.failure_rate)
    return best


def test_criterion_10_capacity_approach(desk_records):
    """Failure rate of the best discovered codes grows with p up to the
    rate-1/10 capacity point, and larger codes decode better at p=0.35."""
    p_grid = [0.30, 0.35, 0.40, 0.45]
    trials = 10_000
    best40 = _best_reports(desk_records, 40, p_grid, trials)
    best20 = _best_reports(desk_records, 20, [0.35], trials)

    rates = [best40[p].failure_rate for p in p_grid]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 1e-12, f"failure not monotone over p: {rates}"
    lo_end, hi_end = best40[p_grid[0]], best40[p_grid[-1]]
    assert lo_end.failure_rate + lo_end.ci95 < hi_end.failure_rate - hi_end.ci95, (
        "endpoint confidence intervals overlap"
    )
    assert best40[0.35].failure_rate < best20[0.35].failure_rate, (
        f"n=40 best {best40[0.35].failure_rate:.4f} not below "
        f"n=20 best {best20[0.35].failure_rate:.4f} at p=0.35"
    )


def test_criterion_11_determinism_and_resumability(tmp_path, monkeypatch):
    """Byte-identical outputs across reruns, and across interrupt/resume."""
    def config(out):
        return SweepConfig(
            qubit_counts=(8, 10),
            gamma_min=0.3,
            gamma_max=0.9,
            gamma_step=0.3,
            samples=3,
            params=EncodingParams(min_qubit_degree=1),
            time_budget=5.0,
            master_seed=MASTER_SEED,
            workers=1,
            out_dir=str(out),
        )

    run_phase_sweep(config(tmp_path / "a"))
    run_phase_sweep(config(tmp_path / "b"))
    csv_a = (tmp_path / "a" / "pixels.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "pixels.csv").read_bytes()

    run_interrupted(config(tmp_path / "c"), monkeypatch, 3 * 3)  # 3 samples per pixel
    assert len(list((tmp_path / "c" / "pixels").glob("*.json"))) == 3
    run_phase_sweep(config(tmp_path / "c"))
    assert csv_a == (tmp_path / "c" / "pixels.csv").read_bytes()

    names_a = sorted(p.name for p in (tmp_path / "a" / "codes").glob("*.json"))
    names_c = sorted(p.name for p in (tmp_path / "c" / "codes").glob("*.json"))
    assert names_a == names_c
    for name in names_a:
        assert (tmp_path / "a" / "codes" / name).read_bytes() == (
            tmp_path / "c" / "codes" / name
        ).read_bytes()
