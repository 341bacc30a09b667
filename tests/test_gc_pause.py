"""The bulk builders run with the cyclic collector paused.

constraints.gc_paused pauses it for encode, ConstraintSystem.to_json and
from_json, cnf.export_cnf and solver.solve, which is only safe because
the pipeline creates no reference cycles: the collector would have
nothing to free.
"""

import gc

import pytest

from stabsearch.cli import main
from stabsearch.cnf import export_cnf
from stabsearch.constraints import ConstraintSystem, EncodingParams, encode, gc_paused
from stabsearch.graphs import sample_support_graph
from stabsearch.harness import SweepConfig, run_phase_sweep
from stabsearch.rng import RngSpec
from stabsearch.solver import SAT, SolverConfig, solve

GRAPH = sample_support_graph(12, 10, 0.4, RngSpec(3))
PARAMS = EncodingParams(min_qubit_degree=1)
CS = encode(GRAPH, PARAMS)
TEXT = CS.to_json()
CALLS = {
    "encode": lambda: encode(GRAPH, PARAMS),
    "to_json": CS.to_json,
    "from_json": lambda: ConstraintSystem.from_json(TEXT),
    "export_cnf": lambda: export_cnf(CS),
    "solve": lambda: solve(CS, SolverConfig(time_budget=0.2)),
}


@pytest.fixture
def collector():
    """Puts back the collector's state and threshold after the test."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(*threshold)


def collections_during(call) -> int:
    """Collections that start while call runs, at a threshold of 1."""
    starts = []

    def on_collect(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.set_threshold(1)
    gc.callbacks.append(on_collect)
    try:
        call()
    finally:
        gc.callbacks.remove(on_collect)
    return len(starts)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_call_keeps_the_callers_collector_state(name, enabled, collector):
    (gc.enable if enabled else gc.disable)()
    CALLS[name]()
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_runs_without_collections(name, collector):
    gc.enable()
    assert collections_during(lambda: [[] for _ in range(1000)]) > 100
    assert collections_during(CALLS[name]) <= 2  # the closing young pass, and one at entry


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_raising_call_keeps_the_callers_collector_state(enabled, collector):
    def fail():
        assert not gc.isenabled()
        raise ValueError("bad")

    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError, match="bad"):
        gc_paused(fail)()
    assert gc.isenabled() == enabled


def test_bad_system_document_leaves_the_collector_enabled(tmp_path, collector, capsys):
    gc.enable()
    path = tmp_path / "s.json"
    path.write_text(TEXT.replace('"parity": 1', '"parity": 7', 1))
    assert main(["solve", "--system", str(path)]) == 4
    assert "constraints[" in capsys.readouterr().err
    assert gc.isenabled()


def test_pipeline_creates_no_reference_cycles(tmp_path, collector):
    gc.collect()
    gc.disable()
    g = sample_support_graph(16, 14, 0.5, RngSpec(7))
    cs = encode(g, EncodingParams(min_qubit_degree=2))
    assert solve(cs, SolverConfig(time_budget=1.0)).verdict == SAT
    export_cnf(ConstraintSystem.from_json(cs.to_json()))
    run_phase_sweep(SweepConfig((10,), 0.6, 0.6, 0.1, samples=1,
                                params=EncodingParams(min_qubit_degree=2), time_budget=1.0,
                                master_seed=5, out_dir=str(tmp_path / "sweep")))
    assert gc.collect() == 0
