"""The bulk builders and the single jobs run with the cyclic collector paused.

constraints.gc_paused pauses it at two levels.  Per builder: encode,
ConstraintSystem.to_json and from_json (on to_json's text, which it
reads from the tail, and on any other document, which it reads whole),
cnf.export_cnf and solver.solve.
Per job: harness.find_code (one sample) and each CLI command that works
on one document (sample, encode, solve, export-cnf, find-code); the
builder pauses inside a job are nested and leave the closing pass to it.
A sweep is never paused as a whole.  This is only safe because the
pipeline creates no reference cycles: the collector would have nothing
to free.
"""

import gc
import json

import pytest

from stabsearch.cli import build_parser, main
from stabsearch.cnf import export_cnf
from stabsearch.constraints import ConstraintSystem, EncodingParams, encode, gc_paused
from stabsearch.graphs import sample_support_graph
from stabsearch.harness import SweepConfig, find_code, run_phase_sweep
from stabsearch.rng import RngSpec
from stabsearch.solver import SAT, SolverConfig, solve

GRAPH = sample_support_graph(12, 10, 0.4, RngSpec(3))
PARAMS = EncodingParams(min_qubit_degree=1)
CS = encode(GRAPH, PARAMS)
TEXT = CS.to_json()
REORDERED = json.dumps(dict(reversed(json.loads(TEXT).items())))  # not to_json's text: read whole
CALLS = {
    "encode": lambda: encode(GRAPH, PARAMS),
    "to_json": CS.to_json,
    "from_json": lambda: ConstraintSystem.from_json(TEXT),
    "from_json_reordered": lambda: ConstraintSystem.from_json(REORDERED),
    "export_cnf": lambda: export_cnf(CS),
    "solve": lambda: solve(CS, SolverConfig(time_budget=0.2)),
    "find_code": lambda: find_code(12, 10, 0.6, PARAMS, RngSpec(3), SolverConfig(time_budget=0.2)),
}
SAMPLE = ["sample", "--n", "12", "--m", "10", "--gamma", "0.6", "--seed", "3", "--out", "g.json"]
# Each document command, and an argument list that makes it exit 4
COMMANDS = {
    "sample": (SAMPLE, ["sample", "--n", "12", "--m", "10", "--gamma", "2", "--out", "bad.json"]),
    "encode": (["encode", "--graph", "g.json", "--delta-q", "1", "--out", "s.json"],
               ["encode", "--graph", "s.json", "--out", "bad.json"]),
    "solve": (["solve", "--system", "s.json", "--budget", "0.2", "--out", "r.json"],
              ["solve", "--system", "g.json"]),
    "export-cnf": (["export-cnf", "--system", "s.json", "--out", "c.cnf"], ["export-cnf", "--system", "g.json"]),
    "find-code": (["find-code", "--n", "12", "--m", "10", "--gamma", "0.6", "--delta-q", "1", "--seed", "3",
                   "--budget", "0.2", "--out", "code.json"],
                  ["find-code", "--n", "12", "--m", "10", "--gamma", "2", "--out", "bad.json"]),
}


@pytest.fixture
def documents(tmp_path, monkeypatch, capsys):
    """A working directory holding the graph and system the commands read."""
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE) == 0 and main(COMMANDS["encode"][0]) == 0
    capsys.readouterr()


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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_runs_without_collections(command, documents, collector):
    args = build_parser().parse_args(COMMANDS[command][0])
    gc.enable()
    assert collections_during(lambda: args.fn(args)) <= 2  # one at entry, and the job's closing pass


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", [0, 4], ids=["ok", "exit4"])
def test_command_keeps_the_callers_collector_state(command, enabled, outcome, documents, collector, capsys):
    (gc.enable if enabled else gc.disable)()
    assert main(COMMANDS[command][outcome > 0]) == outcome
    assert ("error:" in capsys.readouterr().err) == (outcome > 0)
    assert gc.isenabled() == enabled


def test_bad_system_document_leaves_the_collector_enabled(tmp_path, collector, capsys):
    gc.enable()
    path = tmp_path / "s.json"
    path.write_text(TEXT.replace('"parity": 1', '"parity": 7', 1))
    assert main(["solve", "--system", str(path)]) == 4
    assert "constraints[" in capsys.readouterr().err
    assert gc.isenabled()


def test_pipeline_creates_no_reference_cycles(tmp_path, monkeypatch, collector, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE) == 0  # main's first call builds its parser, which is a reference cycle
    gc.collect()
    gc.disable()
    for ok, _ in COMMANDS.values():
        assert main(ok) == 0
    assert find_code(16, 14, 0.6, EncodingParams(min_qubit_degree=2), RngSpec(7))[0].verdict == SAT
    g = sample_support_graph(16, 14, 0.5, RngSpec(7))
    cs = encode(g, EncodingParams(min_qubit_degree=2))
    assert solve(cs, SolverConfig(time_budget=1.0)).verdict == SAT
    export_cnf(ConstraintSystem.from_json(cs.to_json()))
    ConstraintSystem.from_json(json.dumps(dict(reversed(json.loads(cs.to_json()).items()))))
    run_phase_sweep(SweepConfig((10,), 0.6, 0.6, 0.1, samples=1,
                                params=EncodingParams(min_qubit_degree=2), time_budget=1.0,
                                master_seed=5, out_dir=str(tmp_path / "sweep")))
    assert gc.collect() == 0
