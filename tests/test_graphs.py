import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stabsearch.graphs import SupportGraph, sample_support_graph
from stabsearch.rng import RngSpec

from oracles import shared_qubits


def fig_two_stabilizers_graph():
    """Two stabilizers adjacent to the same three qubits."""
    return SupportGraph(
        n=3, m=2, gamma=1.0, seed=0,
        edges=tuple((q, s) for q in range(3) for s in range(2)),
    )


def test_gamma_zero_gives_empty_graph():
    g = sample_support_graph(5, 4, 0.0, RngSpec(1))
    assert len(g.edges) == 0


def test_gamma_one_gives_complete_graph():
    g = sample_support_graph(5, 4, 1.0, RngSpec(1))
    assert len(g.edges) == 20
    assert g.edges == tuple((q, s) for q in range(5) for s in range(4))


def test_invalid_gamma_rejected():
    with pytest.raises(ValueError):
        sample_support_graph(5, 4, -0.1, RngSpec(1))
    with pytest.raises(ValueError):
        sample_support_graph(5, 4, 1.5, RngSpec(1))


def test_nonpositive_sizes_rejected():
    with pytest.raises(ValueError):
        sample_support_graph(0, 4, 0.5, RngSpec(1))
    with pytest.raises(ValueError):
        sample_support_graph(4, 0, 0.5, RngSpec(1))


def test_edge_count_mean_matches_binomial_law():
    # 1000 independent streams at n*m = 9000, gamma = 0.2
    n, m, gamma = 100, 90, 0.2
    sigma = math.sqrt(n * m * gamma * (1 - gamma))
    counts = [
        len(sample_support_graph(n, m, gamma, RngSpec(777, sid)).edges) for sid in range(1000)
    ]
    mean = sum(counts) / len(counts)
    assert abs(mean - n * m * gamma) < 3 * sigma
    # variance sanity: within half an order of magnitude of binomial
    var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
    assert 0.5 * sigma**2 < var < 2.0 * sigma**2


@pytest.mark.parametrize("n,m,gamma", [
    (5, 4, 0.5), (40, 36, 0.1), (40, 36, 0.45), (100, 90, 0.05), (3, 700, 0.9), (7, 1, 1e-300),
])
def test_edges_are_per_edge_unit_below_gamma(n, m, gamma):
    """Edge (q, s) is present exactly when unit(q*m + s) < gamma."""
    rng = RngSpec(2024, n * m)
    g = sample_support_graph(n, m, gamma, rng)
    assert g.edges == tuple((q, s) for q in range(n) for s in range(m) if rng.unit(q * m + s) < gamma)
    assert g.seed == rng.key


def test_determinism_across_calls():
    a = sample_support_graph(30, 27, 0.31, RngSpec(42, 9))
    b = sample_support_graph(30, 27, 0.31, RngSpec(42, 9))
    assert a == b


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_monotone_coupling(n, m, g1, g2, seed):
    """Same stream at lower gamma yields a subset of the edges."""
    lo, hi = min(g1, g2), max(g1, g2)
    rng = RngSpec(seed, 3)
    e_lo = set(sample_support_graph(n, m, lo, rng).edges)
    e_hi = set(sample_support_graph(n, m, hi, rng).edges)
    assert e_lo <= e_hi


def test_fig_style_pair_graph_counts():
    g = fig_two_stabilizers_graph()
    assert len(g.edges) == 6
    assert shared_qubits(g, 0, 1) == [0, 1, 2]


def test_json_round_trip_is_bit_exact():
    g = sample_support_graph(17, 13, 0.37, RngSpec(5, 21))
    text = g.to_json()
    again = SupportGraph.from_json(text)
    assert again == g
    assert again.to_json() == text


def test_duplicate_and_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        SupportGraph(n=2, m=2, gamma=0.5, seed=0, edges=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        SupportGraph(n=2, m=2, gamma=0.5, seed=0, edges=((2, 0),))
    with pytest.raises(ValueError):
        SupportGraph(n=2, m=2, gamma=0.5, seed=0, edges=((0, 2),))
