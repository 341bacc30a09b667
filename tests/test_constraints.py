import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stabsearch.constraints import (
    ACTIVATOR,
    BOTH,
    EVEN,
    PAULI,
    SAME,
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
    XIND,
    ZIND,
    ConstraintSystem,
    EncodingParams,
    Linear,
    OrClause,
    XorClause,
    consistent_completion,
    constraint_census,
    degree_obstruction,
    encode,
    flip_variable,
    intersecting_pairs,
    is_encoded,
    model_candidate,
)
from stabsearch.css import CommutationError, extract_code
from stabsearch.documents import read_document
from stabsearch.graphs import SupportGraph, sample_support_graph
from stabsearch.rng import RngSpec
from stabsearch.solver import UNSAT, SolverConfig, check, solve

from oracles import (
    assignment_bits,
    edge_rows,
    reference_encode,
    reference_system_json,
    satisfying_set,
    shared_qubits,
    tag_count,
    tag_mean_width,
    tag_width_count,
)
from test_graphs import fig_two_stabilizers_graph
from test_solver import free_variables, raw_system


def semantic_commutes(g, activators, paulis):
    """First-principles commutation predicate on (activator, pauli) values.

    Two stabilizers are compatible when they share a Pauli type or their
    jointly active qubit set has even size.
    """
    for s1 in range(g.m):
        for s2 in range(s1 + 1, g.m):
            overlap = sum(
                activators.get((q, s1), 0) & activators.get((q, s2), 0)
                for q in shared_qubits(g, s1, s2)
            )
            if paulis[s1] != paulis[s2] and overlap % 2 == 1:
                return False
    return True


class TestCommutationEncoding:
    def test_pair_graph_variable_and_constraint_counts(self):
        # two stabilizers sharing three qubits: 6 activators, 2 Pauli,
        # 1 same, 1 even, 3 both = 13 variables; 1 OR + 2 XOR + 9 OR = 12
        cs = encode(fig_two_stabilizers_graph())
        assert cs.num_vars == 13
        assert len(cs.constraints) == 12
        kinds = [v.kind for v in cs.variables]
        assert kinds.count(ACTIVATOR) == 6
        assert kinds.count(PAULI) == 2
        assert kinds.count(SAME) == 1
        assert kinds.count(EVEN) == 1
        assert kinds.count(BOTH) == 3

    def test_pair_graph_census(self):
        census = constraint_census(encode(fig_two_stabilizers_graph()))
        assert census.or_count == 10
        assert census.xor_count == 2
        assert census.linear_count == 0
        assert tag_count(census, TAG_COMMUTE) == 1
        assert tag_count(census, TAG_SAME) == 1
        assert tag_count(census, TAG_EVEN) == 1
        assert tag_count(census, TAG_BOTH) == 9
        # widths: even XOR spans the even variable plus three both variables
        assert tag_mean_width(census, TAG_EVEN) == 4.0
        assert tag_mean_width(census, TAG_SAME) == 3.0

    def test_single_stabilizer_emits_nothing(self):
        g = sample_support_graph(6, 1, 1.0, RngSpec(0))
        cs = encode(g)
        assert len(cs.constraints) == 0
        assert cs.num_vars == 6 + 1

    def test_disjoint_pair_emits_nothing(self):
        g = SupportGraph(n=4, m=2, gamma=0.0, seed=0, edges=((0, 0), (1, 0), (2, 1), (3, 1)))
        cs = encode(g)
        assert len(cs.constraints) == 0
        assert SAME not in {v.kind for v in cs.variables}

    def test_all_inactive_assignment_satisfies_any_commutation_system(self):
        for seed in range(5):
            g = sample_support_graph(10, 9, 0.5, RngSpec(seed))
            cs = encode(g)
            for paulis in ([0] * g.m, [s % 2 for s in range(g.m)]):
                a = consistent_completion(cs, [0] * g.m, paulis)
                assert check(cs, a)

    def test_reencoding_is_byte_identical(self):
        g = sample_support_graph(12, 10, 0.4, RngSpec(3))
        cs1 = encode(g, EncodingParams(min_qubit_degree=2, balanced=True))
        cs2 = encode(g, EncodingParams(min_qubit_degree=2, balanced=True))
        assert cs1.to_json() == cs2.to_json()

    def test_system_json_round_trip(self):
        g = sample_support_graph(8, 6, 0.5, RngSpec(11))
        cs = encode(g, EncodingParams(1, 1, 3, True))
        again = ConstraintSystem.from_json(cs.to_json())
        assert again.to_json() == cs.to_json()
        assert again.num_vars == cs.num_vars

    @given(st.integers(min_value=0, max_value=10**6))
    def test_exhaustive_soundness_and_completeness(self, seed):
        """System satisfaction == consistent auxiliaries + pairwise commutation,
        checked over every assignment of every variable."""
        rng = random.Random(seed)
        while True:
            n = rng.randint(2, 4)
            m = rng.randint(2, 3)
            g = sample_support_graph(n, m, rng.choice([0.5, 0.8, 1.0]), RngSpec(seed, 17))
            cs = encode(g)
            if 0 < cs.num_vars <= 14:
                break
        sat_set = satisfying_set(cs)
        n_edges = len(g.edges)
        for idx in range(1 << cs.num_vars):
            bits = assignment_bits(idx, cs.num_vars)
            activators = {edge: bits[i] for i, edge in enumerate(g.edges)}
            paulis = [bits[n_edges + s] for s in range(g.m)]
            expected_aux = consistent_completion(cs, edge_rows(g, bits), paulis)
            semantically_ok = (
                bits == expected_aux and semantic_commutes(g, activators, paulis)
            )
            assert bool((sat_set >> idx) & 1) == semantically_ok


class TestDegreeAndBalance:
    def test_default_params_leave_system_unchanged(self):
        g = sample_support_graph(6, 5, 0.6, RngSpec(2))
        assert encode(g, EncodingParams()).to_json() == encode(g).to_json()

    def test_balance_constraint_bound_is_floor_m_half(self):
        g = fig_two_stabilizers_graph()
        cs = encode(g, EncodingParams(balanced=True))
        balance = [c for c in cs.constraints if c.tag == TAG_BALANCE]
        assert len(balance) == 1
        assert balance[0].cmp == "=="
        assert balance[0].bound == 1  # floor(2/2)
        g5 = sample_support_graph(4, 5, 1.0, RngSpec(0))
        cs5 = encode(g5, EncodingParams(balanced=True))
        assert [c for c in cs5.constraints if c.tag == TAG_BALANCE][0].bound == 2  # floor(5/2)

    def test_qubit_degree_constraints_shape(self):
        g = sample_support_graph(10, 9, 0.4, RngSpec(8))
        cs = encode(g, EncodingParams(min_qubit_degree=3))
        xdeg = [c for c in cs.constraints if c.tag == TAG_XDEG]
        zdeg = [c for c in cs.constraints if c.tag == TAG_ZDEG]
        assert len(xdeg) == g.n and len(zdeg) == g.n
        for c in xdeg + zdeg:
            assert isinstance(c, Linear) and c.cmp == ">=" and c.bound == 3
        for q in range(g.n):
            assert len(xdeg[q].vars) == len(g.qubit_neighbors(q))

    def test_stabilizer_degree_bounds_shape(self):
        g = sample_support_graph(10, 9, 0.4, RngSpec(8))
        cs = encode(g, EncodingParams(min_stab_degree=2, max_stab_degree=5))
        lo = [c for c in cs.constraints if c.tag == TAG_SDEG_MIN]
        hi = [c for c in cs.constraints if c.tag == TAG_SDEG_MAX]
        assert len(lo) == g.m
        assert all(c.cmp == ">=" and c.bound == 2 for c in lo)
        assert all(c.cmp == "<=" and c.bound == 5 for c in hi)

    def test_excessive_min_degree_encodes_without_error(self):
        # unsatisfiable bounds are the solver's business, not the encoder's
        g = sample_support_graph(4, 3, 0.3, RngSpec(1))
        cs = encode(g, EncodingParams(min_qubit_degree=10))
        assert any(c.tag == TAG_XDEG for c in cs.constraints)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            EncodingParams(min_qubit_degree=-1)
        with pytest.raises(ValueError):
            EncodingParams(min_stab_degree=5, max_stab_degree=3)

    @pytest.mark.parametrize("field, value, want", [
        ("min_qubit_degree", 1.5, "an integer, got a number"),
        ("min_qubit_degree", True, "an integer, got a boolean"),
        ("min_stab_degree", True, "an integer, got a boolean"),
        ("max_stab_degree", 3.5, "an integer or null, got a number"),
        ("balanced", 1, "a boolean, got an integer"),
    ])
    def test_wrong_typed_params_rejected_as_their_document_is(self, field, value, want):
        message = re.escape(f"encoding params: key '{field}' must be {want}")
        with pytest.raises(ValueError, match=message):
            EncodingParams(**{field: value})
        with pytest.raises(ValueError, match=message):
            EncodingParams.from_dict({field: value})


class TestDegreeScreen:
    """degree_obstruction names a vertex only where the encoded system is unsat."""

    @given(st.integers(min_value=0, max_value=2**32))
    def test_screened_graphs_are_unsat(self, seed):
        rng = random.Random(seed)
        g = sample_support_graph(rng.randint(3, 8), rng.randint(2, 7), rng.uniform(0.2, 0.7), RngSpec(seed))
        params = EncodingParams(min_qubit_degree=rng.randint(1, 2), min_stab_degree=rng.choice([0, 0, 2, 3]))
        if degree_obstruction(g, params) is not None:
            assert solve(encode(g, params), SolverConfig(time_budget=30, seed=seed)).verdict == UNSAT

    def test_screen_fires_on_random_small_graphs(self):
        # the property above is not vacuous: its draws screen graphs of both kinds
        kinds = Counter()
        for seed in range(40):
            g = sample_support_graph(6, 5, 0.4, RngSpec(seed))
            obstruction = degree_obstruction(g, EncodingParams(min_qubit_degree=1, min_stab_degree=3))
            kinds[obstruction and obstruction[0]] += 1
        assert kinds["qubit"] and kinds["stabilizer"] and kinds[None]

    def test_exact_minimum_is_not_screened(self):
        # qubit 0 has exactly 4 candidates and stabilizer 4 exactly 2; every other vertex has more
        g = SupportGraph(n=3, m=5, gamma=1.0, seed=0,
                         edges=tuple((q, s) for q in range(3) for s in range(5) if (q, s) != (0, 4)))
        assert degree_obstruction(g, EncodingParams(min_qubit_degree=2, min_stab_degree=2)) is None
        assert degree_obstruction(g, EncodingParams(min_qubit_degree=3)) == ("qubit", 0)
        assert degree_obstruction(g, EncodingParams(min_stab_degree=3)) == ("stabilizer", 4)
        assert degree_obstruction(g, EncodingParams(min_qubit_degree=3, min_stab_degree=3)) == ("qubit", 0)
        assert degree_obstruction(g, EncodingParams()) is None


class TestLayout:
    """The variable and constraint order that extract_code and stored systems rely on."""

    QUBIT_TAGS = {TAG_XIND, TAG_ZIND, TAG_XDEG, TAG_ZDEG}
    STAB_TAGS = {TAG_SDEG_MIN, TAG_SDEG_MAX}
    FAMILIES = {
        "qubit-degree": (EncodingParams(min_qubit_degree=2), [QUBIT_TAGS]),
        "stab-degree": (EncodingParams(min_stab_degree=1, max_stab_degree=4), [STAB_TAGS]),
        "balanced": (EncodingParams(balanced=True), [{TAG_BALANCE}]),
        "all": (EncodingParams(2, 1, 4, True), [QUBIT_TAGS, STAB_TAGS, {TAG_BALANCE}]),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_params_extend_the_commutation_system(self, family):
        params, tag_groups = self.FAMILIES[family]
        for seed in range(3):
            g = sample_support_graph(10, 9, 0.4, RngSpec(seed))
            base = encode(g)
            cs = encode(g, params)
            assert cs.params == params
            assert cs.variables[: base.num_vars] == base.variables
            assert cs.constraints[: len(base.constraints)] == base.constraints
            extra_kinds = {v.kind for v in cs.variables[base.num_vars :]}
            assert extra_kinds == ({XIND, ZIND} if params.min_qubit_degree else set())
            # the families follow one another in the order qubit, stabilizer, balance
            group_of = [
                next(i for i, tags in enumerate(tag_groups) if c.tag in tags)
                for c in cs.constraints[len(base.constraints) :]
            ]
            assert group_of and group_of == sorted(group_of)
            assert set(group_of) == set(range(len(tag_groups)))

    def test_activators_in_edge_order_then_one_pauli_per_stabilizer(self):
        g = sample_support_graph(10, 9, 0.4, RngSpec(4))
        cs = encode(g, self.FAMILIES["all"][0])
        head = [(v.kind, v.index) for v in cs.variables[: len(g.edges) + g.m]]
        assert head == [(ACTIVATOR, e) for e in g.edges] + [(PAULI, (s,)) for s in range(g.m)]

    @given(st.data())
    def test_completion_round_trips_the_masked_rows(self, data):
        # random rows, with bits off each stabilizer's candidate qubits and past n,
        # complete to the rows masked to the graph's edges, and back out of extract_code
        n, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 5))
        gamma = data.draw(st.sampled_from([0.3, 0.6, 1.0]))
        g = sample_support_graph(n, m, gamma, RngSpec(data.draw(st.integers(0, 10**6))))
        rows = data.draw(st.lists(st.integers(0, (1 << n + 2) - 1), min_size=m, max_size=m))
        paulis = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        masked = [sum(1 << q for q in range(n) if rows[s] >> q & 1 and (q, s) in g.edges) for s in range(m)]
        a = consistent_completion(encode(g), rows, paulis)
        n_edges = len(g.edges)
        assert edge_rows(g, a[:n_edges]) == masked and list(a[n_edges:n_edges + m]) == paulis
        assert model_candidate(g, a) == (masked, paulis)
        commute = all(paulis[s1] == paulis[s2] or (masked[s1] & masked[s2]).bit_count() % 2 == 0
                      for s1 in range(m) for s2 in range(s1 + 1, m))
        assert check(encode(g), a) == commute
        degree = all(any(masked[s] >> q & 1 and paulis[s] == t for s in range(m)) for q in range(n) for t in (0, 1))
        cs = encode(g, EncodingParams(min_qubit_degree=1))
        typed = consistent_completion(cs, rows, paulis)
        assert check(cs, typed) == (commute and degree)
        indicators = [c for c in cs.constraints if c.tag in (TAG_XIND, TAG_ZIND)]
        assert check(ConstraintSystem(g, cs.variables, indicators), typed)
        if not commute:
            with pytest.raises(CommutationError):
                extract_code(g, a)
            return
        code = extract_code(g, a)
        assert code.hx == tuple(masked[s] for s in range(m) if paulis[s])
        assert code.hz == tuple(masked[s] for s in range(m) if not paulis[s])


class TestReferenceEncoder:
    """encode builds, field for field, what the original encoder built with one
    namedtuple call per row and ids handed out as variables were made."""

    @staticmethod
    def assert_same(g, params):
        cs, ref = encode(g, params), reference_encode(g, params)
        assert vars(cs) == vars(ref)
        assert list(map(type, cs.constraints)) == list(map(type, ref.constraints))

    @pytest.mark.parametrize("family", sorted(TestLayout.FAMILIES))
    def test_every_family(self, family):
        for seed in range(3):
            self.assert_same(sample_support_graph(10, 9, 0.4, RngSpec(seed)), TestLayout.FAMILIES[family][0])

    def test_odd_m_balanced(self):
        for seed in range(3):
            g = sample_support_graph(8, 7, 0.5, RngSpec(seed))
            self.assert_same(g, EncodingParams(balanced=True))
            self.assert_same(g, EncodingParams(1, 1, 3, True))

    def test_graph_with_no_intersecting_pair(self):
        g = SupportGraph(n=5, m=3, gamma=0.5, seed=0, edges=((0, 0), (1, 1), (2, 0), (4, 2)))
        assert intersecting_pairs(g) == []
        for params, _ in TestLayout.FAMILIES.values():
            self.assert_same(g, params)

    def test_n60_graph(self):
        g = sample_support_graph(60, 54, 0.17, RngSpec(20240808, 1))
        self.assert_same(g, EncodingParams())
        self.assert_same(g, TestLayout.FAMILIES["all"][0])


class TestSharedQubits:
    """The oracle encoder's shared_qubits, and intersecting_pairs against it."""

    def test_validation(self):
        g = fig_two_stabilizers_graph()
        with pytest.raises(ValueError):
            shared_qubits(g, 0, 0)
        with pytest.raises(ValueError):
            shared_qubits(g, 0, 5)

    def test_disjoint(self):
        g = SupportGraph(n=4, m=2, gamma=0.0, seed=0, edges=((0, 0), (1, 0), (2, 1), (3, 1)))
        assert shared_qubits(g, 0, 1) == []

    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_set_intersection(self, seed):
        g = sample_support_graph(50, 10, 0.3, RngSpec(seed, 0))
        for s1, s2 in [(0, 1), (2, 7), (4, 9)]:
            expected = sorted(
                set(g.stabilizer_neighbors(s1)) & set(g.stabilizer_neighbors(s2))
            )
            assert shared_qubits(g, s1, s2) == expected

    @given(st.integers(min_value=0, max_value=2**32))
    def test_intersecting_pairs_match_shared_qubits(self, seed):
        rng = random.Random(seed)
        g = sample_support_graph(rng.randint(1, 30), rng.randint(1, 20), rng.uniform(0.0, 0.6), RngSpec(seed))
        expected = [(s1, s2, tuple(shared)) for s1 in range(g.m) for s2 in range(s1 + 1, g.m)
                    if (shared := shared_qubits(g, s1, s2))]
        assert intersecting_pairs(g) == expected


class TestSystemDocument:
    """to_json writes the bytes of json.dumps over one dict per constraint."""

    FAMILIES = TestLayout.FAMILIES

    @pytest.mark.parametrize("family", ["none", *sorted(FAMILIES)])
    def test_system_json_matches_dict_oracle(self, family):
        params = self.FAMILIES[family][0] if family in self.FAMILIES else None
        for seed in range(3):
            cs = encode(sample_support_graph(10, 9, 0.4, RngSpec(seed)), params)
            assert cs.to_json() == reference_system_json(cs)

    def test_hand_built_system_json_matches_dict_oracle(self):
        tags = ['say "hi"', "back\\slash", "naïve ✓", "tab\tnew\nline", ""]
        g, variables = free_variables(4)
        cs = ConstraintSystem(g, variables, [
            OrClause((0, 7), tags[0]),
            XorClause((1, 2), 0, tags[1]),
            Linear((0, 1, 2), "==", 2, tags[2]),
            OrClause((4,), tags[3]),
            Linear((), "<=", 0, tags[4]),
        ])
        assert cs.to_json() == reference_system_json(cs)
        empty = ConstraintSystem(g, variables, [])
        assert empty.to_json() == reference_system_json(empty)


def load_error(source) -> str | None:
    """The message from_json raises on source, or None if it loads."""
    try:
        ConstraintSystem.from_json(source)
    except ValueError as exc:
        return str(exc)
    return None


class TestSystemValidation:
    """from_json is the one way a system enters from outside.  It re-encodes the
    document's graph and params and accepts the document only if it is what to_json
    writes for that system, so every edit of an encode-written document is rejected
    with an error that names the first entry or key it changed."""

    GRAPH = sample_support_graph(3, 1, 1.0, RngSpec(0))
    PARAMS = EncodingParams(min_stab_degree=1, max_stab_degree=3)  # 4 variables, 2 Linear rows
    TEXT = encode(GRAPH, PARAMS).to_json()
    ENTRIES = json.loads(TEXT)["constraints"]

    @pytest.mark.parametrize("family", ["none", *sorted(TestLayout.FAMILIES)])
    def test_checked_constructor_accepts_what_encode_builds(self, family):
        params = TestLayout.FAMILIES[family][0] if family in TestLayout.FAMILIES else None
        for seed in range(3):
            cs = encode(sample_support_graph(12, 10, 0.5, RngSpec(seed)), params)
            again = ConstraintSystem.from_json(cs.to_json())
            assert vars(again) == vars(cs)

    def test_reserialized_document_loads(self):
        g = sample_support_graph(5, 4, 0.7, RngSpec(2))
        cs = encode(g, EncodingParams(min_qubit_degree=1))
        doc = json.loads(cs.to_json())
        for source in (json.dumps(doc, indent=2), json.dumps(dict(reversed(doc.items()))), doc):
            assert vars(ConstraintSystem.from_json(source)) == vars(cs)

    def test_dropped_degree_rows_with_edited_params_rejected(self):
        # a coherent system, but not the one its params describe
        g = sample_support_graph(5, 4, 0.7, RngSpec(2))
        doc = json.loads(encode(g, EncodingParams(min_qubit_degree=1)).to_json())
        kept = [c for c in doc["constraints"] if c["type"] != "linear"]
        assert (len(doc["constraints"]), len(kept)) == (133, 123)
        doc["constraints"] = kept
        doc["params"]["balanced"] = True
        with self.rejects("constraints[123]"):
            ConstraintSystem.from_json(json.dumps(doc))

    @staticmethod
    def rejects(where):
        message = f"constraint system: {where} is not what encode writes for the document's graph and params"
        return pytest.raises(ValueError, match=re.escape(message) + "$")

    @classmethod
    def load(cls, *entries):
        """from_json of the document encode writes for GRAPH and PARAMS, with its first
        constraint entries replaced by entries; None keeps encode's entry.  Where JSON
        can hold the edited document, its sorted-key text must load as the dict does."""
        doc = json.loads(cls.TEXT)
        for i, entry in enumerate(entries):
            if entry is not None:
                doc["constraints"][i] = entry
        try:
            text = json.dumps(doc, sort_keys=True)  # reads graph and params from its tail, then misses
        except TypeError:  # a value JSON cannot hold, such as a bytes tag
            pass
        else:
            assert load_error(text) == load_error(doc)
        return ConstraintSystem.from_json(doc)

    def test_unknown_variable_rejected(self):
        with self.rejects("constraints[0]"):
            self.load({"type": "or", "lits": [[7, 1]], "tag": "t"})

    def test_empty_or_xor_rejected(self):
        with self.rejects("constraints[0]"):
            self.load({"type": "or", "lits": [], "tag": "t"})
        with self.rejects("constraints[0]"):
            self.load({"type": "xor", "vars": [], "parity": 1, "tag": "t"})

    def test_duplicate_vars_rejected(self):
        with self.rejects("constraints[1]"):
            self.load(None, {**self.ENTRIES[1], "vars": [0, 0, 1]})

    def test_bad_parity_and_comparator_rejected(self):
        with self.rejects("constraints[0]"):
            self.load({"type": "xor", "vars": [0, 1], "parity": 2, "tag": "t"})
        with self.rejects("constraints[1]"):
            self.load(None, {**self.ENTRIES[1], "cmp": ">"})

    @pytest.mark.parametrize("bound", [True, 1.0])
    def test_canonical_text_tells_true_and_float_from_1(self, bound):
        assert self.ENTRIES[0]["bound"] == 1
        with self.rejects("constraints[0]"):
            self.load({**self.ENTRIES[0], "bound": bound})

    # fault: what is wrong with the OR entry, some entries having several
    @pytest.mark.parametrize("entry, fault", [
        ({"lits": [[0, 2]], "tag": "t"}, "literal sign 2 is not 0 or 1"),
        ({"lits": [[0, True]], "tag": "t"}, "literal sign True is not 0 or 1"),
        ({"lits": [[0, -1]], "tag": "t"}, "literal sign -1 is not 0 or 1"),
        ({"lits": [[0, 1], [1, 1.0]], "tag": "t"}, "literal sign 1.0 is not 0 or 1"),
        ({"lits": [[True, 1]], "tag": "t"}, "variable id True is not an integer in [0, 4)"),
        ({"lits": [[-1, 1]], "tag": "t"}, "variable id -1 is not an integer in [0, 4)"),
        ({"lits": [[1.0, 1]], "tag": "t"}, "variable id 1.0 is not an integer in [0, 4)"),
        ({"lits": [[4, 0]], "tag": "t"}, "variable id 4 is not an integer in [0, 4)"),
        ({"lits": [[0, 1], [0, 0]], "tag": "t"}, "constraint variable lists must be duplicate-free"),
        ({"lits": [[0, 1]], "tag": "t", "x": 1}, "unknown key 'x'"),
        ({"lits": [[0, 2]]}, "missing key 'tag'"),
        ({"lits": [[9, 1], [1, 5]], "tag": "t", "x": 1}, "literal sign 5 is not 0 or 1"),
        ({"lits": [[9, 1]], "tag": 5, "x": 1}, "unknown key 'x'"),
        ({"lits": [[9, 1], [9, 1]], "tag": 5}, "variable id 9 is not an integer in [0, 4)"),
        ({"lits": [], "tag": 5}, "OR/XOR constraints must be non-empty"),
        ({"lits": [[1, 1], [1, 0]], "tag": 5}, "constraint variable lists must be duplicate-free"),
    ])
    def test_bad_or_entry_named(self, entry, fault):
        with self.rejects("constraints[1]"):
            self.load(None, {"type": "or", **entry})

    @pytest.mark.parametrize("tag", [5, [1], None, b"t"])
    def test_non_string_tag_rejected(self, tag):
        with self.rejects("constraints[1]"):
            self.load(None, {**self.ENTRIES[1], "tag": tag})

    # pattern: the part before ':' matches the entry the error names, the rest says
    # what is wrong with its shape
    @pytest.mark.parametrize("entries, pattern", [
        ([{"type": "or", "lits": [[1, 1, 5]], "tag": "t"}],
         r"constraints\[0\]: literal \[1, 1, 5\] is not a \[variable, sign\] pair$"),
        ([{"type": "or", "lits": [[0, 1], 3], "tag": "t"}],
         r"constraints\[0\]: literal 3 is not a \[variable, sign\] pair$"),
        ([{"type": "or", "lits": [{"v": 0, "s": 1}], "tag": "t"}],
         r"constraints\[0\]: literal \{'v': 0, 's': 1\} is not a \[variable, sign\] pair$"),
        ([{"type": "or", "lits": 5, "tag": "t"}],
         r"constraints\[0\]: lits 5 is not an array of \[variable, sign\] pairs$"),
        ([None, 5],
         r"constraints\[1\]: entry 5 is not an object$"),
        ([["or", [[0, 1]]]], r"constraints\[0\]: entry \['or', \[\[0, 1\]\]\] is not an object$"),
        ([{"type": "xor", "vars": 5, "parity": 1, "tag": "t"}],
         r"constraints\[0\]: vars 5 is not an array of ids$"),
        ([{"type": "linear", "vars": "01", "cmp": "<=", "bound": 1, "tag": "t"}],
         r"constraints\[0\]: vars '01' is not an array of ids$"),
    ])
    def test_malformed_entry_named_with_its_shape(self, entries, pattern):
        with pytest.raises(ValueError, match=pattern.split(":")[0] + " is not what encode writes"):
            self.load(*entries)

    @pytest.mark.parametrize("entry", [5, ["a"], ["a", [0, 0], 1], {"a": [0, 0]}])
    def test_malformed_variable_named_with_its_shape(self, entry):
        doc = json.loads(self.TEXT)
        doc["variables"][2] = entry
        with self.rejects("variables[2]"):
            ConstraintSystem.from_json(doc)

    def test_encode_written_text_loads_without_reading_the_document(self, monkeypatch):
        def read(kind, *args, **kwargs):
            if kind == "constraint system":
                raise AssertionError("the whole system document was read")
            return read_document(kind, *args, **kwargs)

        monkeypatch.setattr("stabsearch.constraints.read_document", read)
        want = encode(self.GRAPH, self.PARAMS)
        for text in (self.TEXT, self.TEXT + "\n"):
            assert vars(ConstraintSystem.from_json(text)) == vars(want)
        with pytest.raises(AssertionError, match="whole system document"):  # any other text is read whole
            ConstraintSystem.from_json(json.dumps(json.loads(self.TEXT), indent=1))

    def test_text_sources_encode_once_unless_the_tail_misses(self, monkeypatch):
        calls = []
        monkeypatch.setattr("stabsearch.constraints.encode", lambda *args: calls.append(args) or encode(*args))
        doc = json.loads(self.TEXT)
        edited = json.dumps({**doc, "variables": doc["variables"][::-1]}, sort_keys=True)
        for source, encodes in ((self.TEXT, 1), (json.dumps(doc, indent=1), 1),
                                (json.dumps(dict(reversed(doc.items()))), 1), (doc, 1), (edited, 2)):
            calls.clear()
            load_error(source)
            assert len(calls) == encodes

    @pytest.mark.parametrize("old, new, where", [
        ('"balanced": false', '"balanced": true', "constraints[2]"),
        ("[[0, 0], [1, 0], [2, 0]]", "[[0, 0], [1, 0]]", "constraints[0]"),
    ], ids=["balanced", "dropped-edge"])
    def test_edited_tail_rejected(self, old, new, where):
        assert self.TEXT.count(old) == 1
        text = self.TEXT.replace(old, new)
        assert load_error(text) == load_error(json.loads(text))
        with self.rejects(where):
            ConstraintSystem.from_json(text)

    def test_text_edits_outside_the_constraints_give_the_dict_message(self):
        doc = json.loads(self.TEXT)
        for edited in ({**doc, "variables": [*doc["variables"][:2], 5, *doc["variables"][3:]]},
                       {**doc, "format_version": 2}, {**doc, "extra": 1}, {**doc, "graph": {**doc["graph"], "n": 0}},
                       {**doc, "params": {**doc["params"], "max_stab_degree": 0}}):
            assert load_error(json.dumps(edited, sort_keys=True)) == load_error(edited) is not None

    def test_missing_format_version_rejected(self):
        """Unlike the other documents, a system without format_version is not read
        as the current version: encode writes it, so its absence is an edit."""
        doc = json.loads(self.TEXT)
        del doc["format_version"]
        message = ("constraint system: format_version is not what encode writes "
                   "for the document's graph and params")
        assert load_error(doc) == load_error(json.dumps(doc, sort_keys=True)) == message

    @pytest.mark.parametrize("cut", [1, 2, len(TEXT) // 2], ids=["last-brace", "tail", "half"])
    def test_truncated_text_gives_the_readers_message(self, cut):
        self.rejects_as_json(self.TEXT[:-cut])

    @pytest.mark.parametrize("extra", ["x", "}", "\n{}", ", 1]"])
    def test_trailing_bytes_give_the_readers_message(self, extra):
        self.rejects_as_json(self.TEXT + extra)

    @staticmethod
    def rejects_as_json(text):
        with pytest.raises(json.JSONDecodeError) as parse:
            json.loads(text)
        assert load_error(text) == f"constraint system: {parse.value}"

    def test_empty_linear_allowed(self):
        # encode writes an empty sum, here unsatisfiable, for a qubit with no candidate edge
        g = SupportGraph(n=2, m=1, gamma=0.5, seed=0, edges=((0, 0),))
        cs = ConstraintSystem.from_json(encode(g, EncodingParams(min_qubit_degree=1)).to_json())
        assert Linear((), ">=", 1, TAG_XDEG) in cs.constraints


def flip_rows(cs: ConstraintSystem, flip: bool) -> Counter:
    """The constraints as a multiset of normalized rows, each taken through the X/Z flip
    when flip is set: every p(s) negated, x(e) and z(e) exchanged, and the xind/zind and
    x-degree/z-degree tags exchanged with them."""
    ids = {v: i for i, v in enumerate(cs.variables)}
    image, negated = list(range(cs.num_vars)), [False] * cs.num_vars
    swap_kind = {XIND: ZIND, ZIND: XIND}
    swap_tag = {TAG_XIND: TAG_ZIND, TAG_ZIND: TAG_XIND, TAG_XDEG: TAG_ZDEG, TAG_ZDEG: TAG_XDEG}
    if flip:
        for i, (kind, index) in enumerate(cs.variables):
            negated[i] = kind == PAULI
            if kind in swap_kind:
                image[i] = ids[(swap_kind[kind], index)]
    rows = Counter()
    for c in cs.constraints:
        tag = swap_tag.get(c.tag, c.tag) if flip else c.tag
        if isinstance(c, OrClause):
            lits = sorted(2 * image[lit // 2] + (lit % 2 ^ negated[lit // 2]) for lit in c.lits)
            rows[("or", tag, tuple(lits))] += 1
        elif isinstance(c, XorClause):
            parity = c.parity ^ sum(negated[v] for v in c.vars) % 2
            rows[("xor", tag, tuple(sorted(image[v] for v in c.vars)), parity)] += 1
        else:  # a row of negated variables counts the false ones: sum(1 - v) cmp bound
            flips = {negated[v] for v in c.vars}
            assert len(flips) <= 1, "a cardinality row mixes negated and plain variables"
            cmp, bound = c.cmp, c.bound
            if flips == {True}:
                cmp, bound = {">=": "<=", "<=": ">=", "==": "=="}[cmp], len(c.vars) - bound
            rows[("linear", tag, tuple(sorted(image[v] for v in c.vars)), cmp, bound)] += 1
    return rows


class TestXZFlip:
    """The X/Z flip maps encode's systems onto themselves, which is what lets a search
    fix p(0); flip_variable names p(0) only where it does, and is_encoded confirms it."""

    FAMILIES = {
        "commutation": EncodingParams(),
        "qubit-degree": EncodingParams(min_qubit_degree=2),
        "stab-degree": EncodingParams(min_stab_degree=1, max_stab_degree=4),
        "balanced": EncodingParams(balanced=True),
        "all": EncodingParams(2, 1, 4, True),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 7), half_m=st.integers(1, 4),
           gamma=st.sampled_from([0.3, 0.6, 1.0]))
    def test_flip_maps_each_family_onto_itself(self, family, seed, n, half_m, gamma):
        params = self.FAMILIES[family]
        g = sample_support_graph(n, 2 * half_m, gamma, RngSpec(seed))  # even m, so balance too
        cs = encode(g, params)
        assert flip_rows(cs, True) == flip_rows(cs, False)
        assert flip_variable(cs) == len(g.edges)

    def test_balance_with_odd_m_is_not_symmetric(self):
        for params in (EncodingParams(balanced=True), self.FAMILIES["all"]):
            for m in (1, 3, 5):
                g = sample_support_graph(6, m, 0.6, RngSpec(m))
                cs = encode(g, params)
                assert flip_rows(cs, True) != flip_rows(cs, False)  # sum p == m // 2 becomes m - m // 2
                assert flip_variable(cs) is None
                assert flip_variable(encode(g, EncodingParams(params.min_qubit_degree))) == len(g.edges)

    def test_a_table_without_p0_at_its_place_has_no_flip(self):
        assert flip_variable(raw_system(6, [OrClause((0, 3), "t")])) is None
        g = sample_support_graph(5, 4, 0.6, RngSpec(2))
        cs = encode(g)
        assert flip_variable(ConstraintSystem(g, cs.variables[:len(g.edges)], ())) is None  # table too short
        variables = list(cs.variables)
        variables[len(g.edges)], variables[len(g.edges) + 1] = variables[len(g.edges) + 1], variables[len(g.edges)]
        assert flip_variable(ConstraintSystem(g, variables, cs.constraints)) is None  # p(1) where p(0) belongs

    def test_is_encoded_holds_only_for_what_encode_writes(self):
        g = sample_support_graph(8, 6, 0.5, RngSpec(3))
        cs = encode(g, self.FAMILIES["all"])
        assert is_encoded(cs) and is_encoded(ConstraintSystem.from_json(cs.to_json()))
        p0 = flip_variable(encode(g))
        for changed in [cs.constraints + (OrClause((2 * p0,), "t"),), cs.constraints[1:],
                        cs.constraints[1::-1] + cs.constraints[2:]]:
            assert not is_encoded(ConstraintSystem(g, cs.variables, changed, cs.params))
        assert not is_encoded(ConstraintSystem(g, cs.variables, cs.constraints))  # the params differ


class TestCensusScaling:
    def test_empty_graph_census_is_all_zero(self):
        g = SupportGraph(n=3, m=2, gamma=0.0, seed=0, edges=())
        census = constraint_census(encode(g))
        assert census.or_count == 0 and census.xor_count == 0 and census.linear_count == 0

    def test_mean_counts_match_expectations_at_table_point(self):
        """Mean census over seeds vs first-principles expectations at
        (n, m, gamma) = (100, 90, 0.2); see the acceptance suite for the
        full-tolerance run over 100 seeds."""
        n, m, gamma = 100, 90, 0.2
        seeds = 8
        pair_count = m * (m - 1) / 2
        p_intersect = 1 - (1 - gamma**2) ** n
        expect_pairs = pair_count * p_intersect
        expect_triples = pair_count * n * gamma**2
        tot_or3 = tot_pairs = tot_evenw = 0.0
        for sid in range(seeds):
            g = sample_support_graph(n, m, gamma, RngSpec(31337, sid))
            census = constraint_census(encode(g))
            tot_or3 += tag_width_count(census, TAG_BOTH, 3)
            tot_pairs += tag_count(census, TAG_COMMUTE)
            tot_evenw += tag_mean_width(census, TAG_EVEN)
        assert abs(tot_or3 / seeds / expect_triples - 1) < 0.1
        assert abs(tot_pairs / seeds / expect_pairs - 1) < 0.1
        # mean even-XOR width = 1 + (expected shared qubits | >= 1 shared)
        expect_width = 1 + n * gamma**2 / p_intersect
        assert abs(tot_evenw / seeds / expect_width - 1) < 0.1
