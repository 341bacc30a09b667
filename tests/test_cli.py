import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stabsearch import cli, harness
from stabsearch.cli import main
from stabsearch.constraints import PAULI, EncodingParams, Linear, OrClause, XorClause, encode
from stabsearch.css import shor_code
from stabsearch.graphs import SupportGraph, sample_support_graph
from stabsearch.harness import (
    DECODING_COLUMNS,
    DECODING_MIN_COLUMNS,
    best_codes,
    run_decoding_benchmark,
    satisfiable_records,
    write_csv,
)
from stabsearch.rng import RngSpec


def run(argv):
    return main(argv)


def run_sweep(tmp_path, name, **overrides):
    """Run a small sweep through the CLI; returns its output directory."""
    cfg = {
        "qubit_counts": [6, 8],
        "gamma_min": 0.5,
        "gamma_max": 0.9,
        "gamma_step": 0.2,
        "samples": 4,
        "params": {"min_qubit_degree": 1},
        "time_budget": 5.0,
        "master_seed": 77,
        **overrides,
    }
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / name
    assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    return out_dir


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    """A small sweep with satisfiable-phase codes, shared read-only by the tests."""
    return run_sweep(tmp_path_factory.mktemp("shared"), "sweep")


GRAPH = sample_support_graph(5, 4, 0.7, RngSpec(2))


def write_system(path):
    path.write_text(encode(GRAPH).to_json())
    return str(path)


def write_edited(path, text, edit):
    """Write the JSON document text to path after edit(doc) has changed it in place."""
    doc = json.loads(text)
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def write_shor(path):
    path.write_text(shor_code().to_json())
    return str(path)


def write_text(path, text):
    path.write_text(text)
    return str(path)


def write_not_an_object(path):
    return write_text(path, "[1, 2]")


def sweep_copy(tmp_path, sweep, pattern, edit_text):
    """A copy of the sweep whose first file matching pattern has edit_text
    applied; an edit that returns bytes is written as they are."""
    copy = tmp_path / "edited"
    shutil.copytree(sweep, copy)
    path = sorted(copy.glob(pattern))[0]
    edited = edit_text(path.read_text())
    if isinstance(edited, bytes):
        path.write_bytes(edited)
    else:
        path.write_text(edited)
    return str(copy)


def sweep_record(sweep):
    """The text of the shared sweep's first code record."""
    return sorted((sweep / "codes").glob("*.json"))[0].read_text()


def first_name(pattern):
    """A word for BAD_INPUTS: the name of the shared sweep's first file matching pattern."""
    return lambda sweep: sorted(sweep.glob(pattern))[0].name


# `stabsearch sweep` on a 2-worker config whose first pixel is quick and
# whose later samples each sleep for a minute; argv[1] is the config,
# argv[2] the output directory.
SLOW_CLI_SWEEP = """
import sys, time
from stabsearch import cli, harness

real = harness._run_sample

def slow(task):
    if task[0] > 6:
        time.sleep(60)
    return real(task)

harness._run_sample = slow
sys.exit(cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""

NON_COMMUTING = '{"hx": ["110"], "hz": ["100"], "n": 3}'
LAST_CONSTRAINT = len(encode(GRAPH).constraints) - 1
FIRST_XOR = next(i for i, c in enumerate(encode(GRAPH).constraints) if isinstance(c, XorClause))
FIRST_OR = next(i for i, c in enumerate(encode(GRAPH).constraints) if isinstance(c, OrClause))
DEGREE_CS = encode(GRAPH, EncodingParams(min_qubit_degree=1))
DEGREE_SYSTEM = DEGREE_CS.to_json()
FIRST_PAULI = next(i for i, v in enumerate(DEGREE_CS.variables) if v.kind == PAULI)
FIRST_LINEAR = next(i for i, c in enumerate(DEGREE_CS.constraints) if isinstance(c, Linear))


def rejected(where):
    """The words of the error for a system document that differs from encode's first at where."""
    return ["constraint system", f"{where} is not what encode writes for the document's graph and params"]


def drop_degree_rows_and_balance(doc):
    """A coherent system, but not the one its params describe."""
    doc["constraints"] = [c for c in doc["constraints"] if c["type"] != "linear"]
    doc["params"]["balanced"] = True

# (name, argv builder, exit code, words of the error line); each builder
# gets tmp_path and the shared sweep, and a callable word gets the sweep
BAD_INPUTS = [
    ("solve-budget-0",
     lambda t, s: ["solve", "--system", write_system(t / "s.json"), "--budget", "0"], 4,
     ["time_budget"]),
    ("solve-budget-inf",
     lambda t, s: ["solve", "--system", write_edited(t / "s.json", DEGREE_SYSTEM, lambda d: None),
                   "--budget", "inf"], 4, ["time_budget", "inf"]),
    ("solve-budget-nan",
     lambda t, s: ["solve", "--system", write_edited(t / "s.json", DEGREE_SYSTEM, lambda d: None),
                   "--budget", "nan"], 4, ["time_budget", "nan"]),
    ("decode-out-missing-dir",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "10",
                   "--out", str(t / "absent" / "d.csv")], 3, ["d.csv"]),
    ("decode-min-out-missing-dir",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "10",
                   "--min-out", str(t / "absent" / "m.csv")], 3, ["m.csv"]),
    ("decode-grid-no-value",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "10", "--grid", ",",
                   "--out", str(t / "d.csv")], 4, ["--grid"]),
    ("decode-grid-not-a-number",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "10", "--grid", "0.2,x",
                   "--out", str(t / "d.csv")], 4, ["--grid", "'x'"]),
    ("decode-grid-out-of-range",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "10", "--grid", "1.5",
                   "--out", str(t / "d.csv")], 4, ["--grid", "'1.5'", "[0, 1]"]),
    ("decode-trials-zero",
     lambda t, s: ["decode", "--sweep", str(s), "--trials", "0", "--out", str(t / "d.csv")], 4,
     ["--trials", "0"]),
    ("decode-trials-negative",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "-3",
                   "--out", str(t / "d.csv")], 4, ["--trials", "-3"]),
    ("decode-grid-nan",
     lambda t, s: ["decode", "--code", write_shor(t / "c.json"), "--trials", "10",
                   "--grid", "0.3,nan", "--out", str(t / "d.csv")], 4, ["--grid", "'nan'"]),
    ("density-sweep-missing",
     lambda t, s: ["density", "--sweep", str(t / "absent"), "--out", str(t / "d.csv")], 3,
     ["absent", "pixels"]),
    ("decode-sweep-missing",
     lambda t, s: ["decode", "--sweep", str(t / "absent"), "--trials", "10"], 3, ["absent", "pixels"]),
    ("density-out-missing-dir",
     lambda t, s: ["density", "--sweep", str(s), "--out", str(t / "absent" / "d.csv")], 3,
     ["d.csv"]),
    ("solve-system-not-object",
     lambda t, s: ["solve", "--system", write_not_an_object(t / "x.json")], 4,
     ["constraint system", "JSON object"]),
    ("export-cnf-system-not-object",
     lambda t, s: ["export-cnf", "--system", write_not_an_object(t / "x.json"),
                   "--out", str(t / "x.cnf")], 4, ["constraint system", "JSON object"]),
    ("encode-graph-not-object",
     lambda t, s: ["encode", "--graph", write_not_an_object(t / "x.json"),
                   "--out", str(t / "s.json")], 4, ["support graph", "JSON object"]),
    ("sweep-config-not-object",
     lambda t, s: ["sweep", "--config", write_not_an_object(t / "x.json")], 4,
     ["sweep config", "JSON object"]),
    ("sweep-config-syntax",
     lambda t, s: ["sweep", "--config", write_text(t / "x.json", "{,}")], 4,
     ["sweep config", "Expecting property name"]),
    ("decode-code-syntax",
     lambda t, s: ["decode", "--code", write_text(t / "c.json", "{,}"), "--trials", "10",
                   "--out", str(t / "d.csv")], 4, ["c.json", "Expecting property name"]),
    ("density-truncated-record",
     lambda t, s: ["density", "--sweep", sweep_copy(t, s, "codes/*.json", lambda x: x[:40]),
                   "--out", str(t / "d.csv")], 4, ["code record", first_name("codes/*.json")]),
    ("density-record-not-utf8",
     lambda t, s: ["density", "--sweep",
                   sweep_copy(t, s, "codes/*.json", lambda x: b"\xff" + x.encode()),
                   "--out", str(t / "d.csv")], 4, ["utf-8", first_name("codes/*.json")]),
    ("decode-record-code-not-object",
     lambda t, s: ["decode", "--code", write_edited(t / "c.json", "{}", lambda d: d.update(code=5))],
     4, ["code record", "'code'"]),
    ("encode-edges-not-array",
     lambda t, s: ["encode", "--graph",
                   write_edited(t / "g.json", GRAPH.to_json(), lambda d: d.update(edges=5)),
                   "--out", str(t / "s.json")], 4, ["support graph", "'edges'"]),
    ("encode-graph-version-2",
     lambda t, s: ["encode", "--graph",
                   write_edited(t / "g.json", GRAPH.to_json(), lambda d: d.update(format_version=2)),
                   "--out", str(t / "s.json")], 4, ["support graph", "format_version"]),
    ("decode-code-unknown-key",
     lambda t, s: ["decode", "--code",
                   write_edited(t / "c.json", shor_code().to_json(), lambda d: d.update(extra=1))],
     4, ["CSS code", "'extra'"]),
    ("solve-constraint-type-xr",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][0].update(type="xr"))],
     4, rejected("constraints[0]")),
    ("sweep-resume-pixel-missing-sat",
     lambda t, s: ["sweep", "--config", str(s.parent / "sweep.json"), "--out",
                   sweep_copy(t, s, "pixels/*.json",
                              lambda x: json.dumps({k: v for k, v in json.loads(x).items()
                                                    if k != "sat"}))],
     4, ["pixel", "'sat'", "pixel_n6_g000.json"]),
    ("sweep-resume-config-truncated",
     lambda t, s: ["sweep", "--config", str(s.parent / "sweep.json"), "--out",
                   sweep_copy(t, s, "config.json", lambda x: x[:20])],
     4, ["sweep config", "config.json"]),
    ("encode-edge-one-end",
     lambda t, s: ["encode", "--graph",
                   write_edited(t / "g.json", GRAPH.to_json(), lambda d: d.update(edges=[[0]])),
                   "--out", str(t / "s.json")], 4, ["support graph", "edges[0]"]),
    ("encode-edge-not-integers",
     lambda t, s: ["encode", "--graph",
                   write_edited(t / "g.json", GRAPH.to_json(), lambda d: d.update(edges=[["a", 1]])),
                   "--out", str(t / "s.json")], 4, ["support graph", "edges[0]"]),
    ("decode-code-row-not-bits",
     lambda t, s: ["decode", "--code",
                   write_edited(t / "c.json", shor_code().to_json(),
                                lambda d: d["hz"].__setitem__(1, "01x000000"))],
     4, ["CSS code", "hz[1]"]),
    ("solve-constraint-missing-tag",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][-1].pop("tag"))],
     4, rejected(f"constraints[{LAST_CONSTRAINT}]")),
    ("solve-xor-parity-7",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR].update(parity=7))],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("solve-variable-one-field",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["variables"].__setitem__(2, ["act"]))],
     4, rejected("variables[2]")),
    ("export-cnf-xor-var-not-integer",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR]["vars"].__setitem__(0, 20.5)),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("solve-xor-var-not-integer",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR]["vars"].__setitem__(0, 20.5))],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("solve-xor-var-boolean",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR]["vars"].__setitem__(0, True))],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("export-cnf-xor-extra-key",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR].update(lits=[[0, 1]])),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("solve-variable-kind-unknown",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["variables"][2].__setitem__(0, "zzz"))],
     4, rejected("variables[2]")),
    ("export-cnf-variable-index-not-integers",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["variables"][3].__setitem__(1, ["q", 0.5])),
                   "--out", str(t / "x.cnf")],
     4, rejected("variables[3]")),
    ("solve-pauli-index-past-graph",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM,
                                lambda d: d["variables"][FIRST_PAULI].__setitem__(1, [99]))],
     4, rejected(f"variables[{FIRST_PAULI}]")),
    ("export-cnf-pauli-index-past-graph",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM,
                                lambda d: d["variables"][FIRST_PAULI].__setitem__(1, [99])),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"variables[{FIRST_PAULI}]")),
    ("solve-pauli-index-empty",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM,
                                lambda d: d["variables"][FIRST_PAULI].__setitem__(1, []))],
     4, rejected(f"variables[{FIRST_PAULI}]")),
    ("export-cnf-activator-qubit-past-graph",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM,
                                lambda d: d["variables"][0].__setitem__(1, [5, 0])),
                   "--out", str(t / "x.cnf")],
     4, rejected("variables[0]")),
    ("solve-linear-bound-not-integer",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM,
                                lambda d: d["constraints"][FIRST_LINEAR].update(bound=1.5))],
     4, rejected(f"constraints[{FIRST_LINEAR}]")),
    ("export-cnf-linear-bound-boolean",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM,
                                lambda d: d["constraints"][FIRST_LINEAR].update(bound=True)),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{FIRST_LINEAR}]")),
    ("solve-or-sign-2",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_OR]["lits"][1].__setitem__(1, 2))],
     4, rejected(f"constraints[{FIRST_OR}]")),
    ("export-cnf-or-sign-string",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_OR]["lits"][0].__setitem__(1, "x")),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{FIRST_OR}]")),
    ("solve-or-sign-boolean",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_OR]["lits"][0].__setitem__(1, True))],
     4, rejected(f"constraints[{FIRST_OR}]")),
    ("export-cnf-xor-parity-boolean",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR].update(parity=True)),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("solve-tag-integer",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][FIRST_XOR].update(tag=5))],
     4, rejected(f"constraints[{FIRST_XOR}]")),
    ("export-cnf-tag-list",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", encode(GRAPH).to_json(),
                                lambda d: d["constraints"][LAST_CONSTRAINT].update(tag=[1])),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{LAST_CONSTRAINT}]")),
    ("decode-record-degree-not-integer",
     lambda t, s: ["decode", "--code",
                   write_edited(t / "r.json", sweep_record(s),
                                lambda d: d["stats"]["qubit_degree_hist"].update(x=1))],
     4, ["code stats", "'qubit_degree_hist'", "'x'"]),
    ("solve-degree-rows-dropped",
     lambda t, s: ["solve", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM, drop_degree_rows_and_balance)],
     4, rejected(f"constraints[{FIRST_LINEAR}]")),
    ("export-cnf-degree-rows-dropped",
     lambda t, s: ["export-cnf", "--system",
                   write_edited(t / "s.json", DEGREE_SYSTEM, drop_degree_rows_and_balance),
                   "--out", str(t / "x.cnf")],
     4, rejected(f"constraints[{FIRST_LINEAR}]")),
    ("decode-code-n-zero",
     lambda t, s: ["decode", "--code",
                   write_edited(t / "c.json", '{"n": 0, "hx": [], "hz": []}', lambda d: None)],
     4, ["CSS code", "n must be at least 1, got 0"]),
    ("decode-code-n-negative",
     lambda t, s: ["decode", "--code",
                   write_edited(t / "c.json", '{"n": -3, "hx": [], "hz": []}', lambda d: None)],
     4, ["CSS code", "n must be at least 1, got -3"]),
    ("decode-code-not-commuting",
     lambda t, s: ["decode", "--code", write_edited(t / "c.json", NON_COMMUTING, lambda d: None)],
     4, ["commut"]),
]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "build,code,words", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
    )
    def test_bad_input_exit_code(self, build, code, words, small_sweep, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.chdir(tmp_path)
        argv = build(tmp_path, small_sweep)
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        words = [w(small_sweep) if callable(w) else w for w in words]
        assert all(word in err for word in words), err
        assert not (tmp_path / "x.cnf").exists()  # a failed export writes no file
        assert not (tmp_path / "d.csv").exists()  # nor a failed density or decode run

    def test_program_fault_propagates(self, tmp_path, monkeypatch):
        def broken_solve(cs, cfg):
            raise RuntimeError("model fails its re-check")

        monkeypatch.setattr(cli, "solve", broken_solve)
        with pytest.raises(RuntimeError, match="re-check"):
            run(["solve", "--system", write_system(tmp_path / "s.json")])

    def test_missing_key_names_the_key(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 4, "m": 3, "gamma": 0.5, "seed": 0}))
        assert run(["encode", "--graph", str(graph), "--out", str(tmp_path / "s.json")]) == 4
        assert capsys.readouterr().err == "error: support graph: missing key 'edges'\n"


class TestSampleEncodeSolve:
    def test_sample_encode_solve_chain(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        system = tmp_path / "s.json"
        out = tmp_path / "r.json"
        assert run(["sample", "--n", "8", "--m", "7", "--gamma", "0.5",
                    "--seed", "3", "--out", str(graph)]) == 0
        g = SupportGraph.from_json(graph.read_text())
        assert g.n == 8 and g.m == 7
        assert run(["encode", "--graph", str(graph), "--delta-q", "1",
                    "--out", str(system)]) == 0
        assert run(["solve", "--system", str(system), "--budget", "10",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] in ("sat", "unsat")
        assert "assignment" in doc or doc["verdict"] != "sat"
        assert "verdict:" in capsys.readouterr().out

    def test_solve_result_is_byte_reproducible(self, tmp_path):
        # satisfiable, and only by search: no probe answers it
        g = sample_support_graph(12, 10, 0.6, RngSpec(1))
        system = tmp_path / "s.json"
        system.write_text(encode(g, EncodingParams(min_qubit_degree=1)).to_json())
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            assert run(["solve", "--system", str(system), "--budget", "1", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        assert doc.keys() == {"verdict", "stats", "assignment"}
        assert doc["stats"].keys() == {"decisions", "conflicts", "propagations", "restarts", "learned"}

    def test_sample_invalid_gamma_is_validation_error(self, tmp_path):
        assert run(["sample", "--n", "4", "--m", "3", "--gamma", "1.5",
                    "--out", str(tmp_path / "g.json")]) == 4

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["encode", "--graph", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "s.json")]) == 3

    def test_corrupt_system_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a system\"}")
        assert run(["solve", "--system", str(bad)]) == 4

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--n", "4"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestFindCode:
    def test_find_code_writes_record(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        assert run(["find-code", "--n", "10", "--m", "9", "--gamma", "0.8",
                    "--delta-q", "1", "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stats"]["n"] == 10
        text = capsys.readouterr().out
        assert "found code" in text and "rate=" in text


class TestSweepAndDensity:
    def test_sweep_and_density(self, tmp_path, capsys):
        cfg = {
            "qubit_counts": [6],
            "gamma_min": 0.4,
            "gamma_max": 1.0,
            "gamma_step": 0.3,
            "samples": 2,
            "params": {"min_qubit_degree": 1},
            "time_budget": 5.0,
            "master_seed": 11,
            "workers": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "sweepdir"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "pixels.csv").exists()
        density_csv = tmp_path / "density.csv"
        code = run(["density", "--sweep", str(out_dir), "--out", str(density_csv)])
        pixels = (out_dir / "pixels.csv").read_text()
        if "satisfiable" in pixels.replace("unsatisfiable", ""):
            assert code == 0
            assert density_csv.exists()
        else:
            assert code == 4

    def test_gamma_zero_grid_is_all_unsat(self, tmp_path):
        cfg = {
            "qubit_counts": [5],
            "gamma_min": 0.0,
            "gamma_max": 0.0,
            "gamma_step": 0.1,
            "samples": 2,
            "params": {"min_qubit_degree": 1},
            "time_budget": 5.0,
            "master_seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "zs"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        lines = (out_dir / "pixels.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].endswith("unsatisfiable")
        assert ",2,0," in lines[2]  # unsat=2, unknown=0

    def test_resume_accepts_equal_config_written_differently(self, tmp_path, monkeypatch):
        # "time_budget": 2 and 2.0 describe one sweep; resuming one from the other must work
        real = harness._run_sample
        calls = []

        def interrupted(task):
            if len(calls) == 5:
                raise KeyboardInterrupt
            calls.append(task)
            return real(task)

        monkeypatch.setattr(harness, "_run_sample", interrupted)
        cfg = {
            "qubit_counts": [6, 8],
            "gamma_min": 0.5,
            "gamma_max": 0.9,
            "gamma_step": 0.2,
            "samples": 4,
            "params": {"min_qubit_degree": 1},
            "master_seed": 77,
        }
        first, resumed = tmp_path / "int.json", tmp_path / "float.json"
        first.write_text(json.dumps({**cfg, "time_budget": 2}))
        resumed.write_text(json.dumps({**cfg, "time_budget": 2.0}))
        out_dir = tmp_path / "resumed"
        assert run(["sweep", "--config", str(first), "--out", str(out_dir)]) == 130
        assert not (out_dir / "pixels.csv").exists()
        monkeypatch.setattr(harness, "_run_sample", real)
        assert run(["sweep", "--config", str(resumed), "--out", str(out_dir)]) == 0

        whole = run_sweep(tmp_path, "whole", time_budget=2.0)
        files = sorted(
            p.relative_to(whole) for p in whole.rglob("*")
            if p.is_file() and p.name != "config.json"
        )
        assert any((whole / "codes").glob("*.json"))
        for rel in files:
            assert (out_dir / rel).read_bytes() == (whole / rel).read_bytes(), rel
        assert sorted(
            p.relative_to(out_dir) for p in out_dir.rglob("*")
            if p.is_file() and p.name != "config.json"
        ) == files

    def test_ctrl_c_on_pooled_sweep_is_one_line(self, tmp_path):
        cfg = {"qubit_counts": [6, 8], "gamma_min": 0.5, "gamma_max": 0.5, "gamma_step": 0.1,
               "samples": 2, "params": {"min_qubit_degree": 1}, "time_budget": 5.0, "workers": 2}
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "sweep"
        cfg_path.write_text(json.dumps(cfg))
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", SLOW_CLI_SWEEP, str(cfg_path), str(out)],
                                env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob("pixels/pixel_*.json")):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "no pixel was written"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C reaches the whole process group
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                pytest.fail("the sweep was still running 60 s after SIGINT")
            assert proc.returncode == 130, err
            assert err.count("\n") == 1 and "resume" in err and "Traceback" not in err, err
            assert not list(out.rglob("*.tmp"))
            assert not (out / "pixels.csv").exists()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)

    @pytest.mark.parametrize("budget", [0, float("inf"), float("nan")])
    def test_bad_budget_is_validation_error(self, budget, tmp_path, capsys):
        cfg = {"qubit_counts": [5], "gamma_min": 0.5, "gamma_max": 0.5, "gamma_step": 0.1,
               "samples": 2}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**cfg, "time_budget": budget}))  # inf as Infinity
        out_dir = tmp_path / "sweep"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        assert "time_budget" in capsys.readouterr().err
        assert not (out_dir / "config.json").exists()
        cfg_path.write_text(json.dumps({**cfg, "time_budget": 1.0}))
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    @pytest.mark.parametrize("field,value", [
        ("workers", 0), ("qubit_counts", [5, 0]), ("qubit_counts", [8.5]), ("qubit_counts", ["8"]),
        ("qubit_counts", [True]), ("ratio", -1), ("ratio", float("inf")),
        ("solved_threshold", 7), ("solved_threshold", 0), ("gamma_min", -0.5), ("gamma_max", 1.5),
    ])
    def test_out_of_range_config_is_validation_error(self, field, value, tmp_path, capsys):
        cfg = {"qubit_counts": [5], "gamma_min": 0.5, "gamma_max": 0.5, "gamma_step": 0.1,
               "samples": 2, "time_budget": 1.0}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**cfg, field: value}))  # inf as Infinity
        out_dir = tmp_path / "sweep"
        assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        assert field in capsys.readouterr().err
        assert not (out_dir / "config.json").exists()

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        base = {"qubit_counts": [5], "gamma_min": 0.5, "gamma_max": 0.5, "gamma_step": 0.1}
        bad = [
            ({**base, "sample": 10}, "sample"),  # misspelt top-level key
            ({**base, "params": {"delta_q": 3}}, "delta_q"),  # misspelt params key
            ({k: v for k, v in base.items() if k != "gamma_min"}, "gamma_min"),  # missing key
        ]
        for i, (cfg, key) in enumerate(bad):
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(cfg))
            out_dir = tmp_path / f"typo{i}"
            assert run(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
            assert key in capsys.readouterr().err
            assert not out_dir.exists()


# sha256 of the CSV `decode --code R --grid 0.25,0.35,0.45 --trials 300 --seed 7 --out`
# writes for three committed records R of perfbench/codes.jsonl, at n = 20, 30 and 40
DECODE_RECORDS = Path(__file__).parents[1] / "perfbench" / "codes.jsonl"
PINNED_DECODE_CSV = {
    "2ba00b0d49996db8": "226a25a7f91dd6188c6c3398b5f10fa43dcc7d36f388d2e186627751ee34a02c",
    "0915f8b7d5e7214a": "319a1794a41caa5d32c8a3bef014aad828bc9506efd3b18448bc724095437888",
    "5827bb73fd1eece2": "0fafc02243aa955faa223ab8358791f579bc8f77e04cfc123c9fca68dc36b801",
}


class TestDecode:
    @pytest.mark.parametrize("code_id", PINNED_DECODE_CSV)
    def test_decode_csv_bytes_are_pinned(self, tmp_path, code_id):
        line = next(line for line in DECODE_RECORDS.read_text().splitlines()
                    if line and json.loads(line)["code_id"] == code_id)
        record, out_csv = tmp_path / "record.json", tmp_path / "dec.csv"
        record.write_text(line)
        assert run(["decode", "--code", str(record), "--grid", "0.25,0.35,0.45",
                    "--trials", "300", "--seed", "7", "--out", str(out_csv)]) == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == PINNED_DECODE_CSV[code_id]

    def test_decode_plain_code_document(self, tmp_path, capsys):
        code_path = tmp_path / "shor.json"
        code_path.write_text(shor_code().to_json())
        assert run(["decode", "--code", str(code_path), "--grid", "0.5",
                    "--trials", "2000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "failure_rate=" in out
        rate = float(out.split("failure_rate=")[1].split(" ")[0])
        assert 0.0 <= rate <= 1.0

    def test_decode_grid_and_csv(self, tmp_path):
        code_path = tmp_path / "shor.json"
        code_path.write_text(shor_code().to_json())
        out_csv = tmp_path / "dec.csv"
        assert run(["decode", "--code", str(code_path), "--grid", "0.1,0.5",
                    "--trials", "500", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 4  # format line + header + 2 rows

    def test_decode_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert run(["decode", "--code", str(bad)]) == 4

    def test_decode_sweep_matches_library(self, tmp_path):
        sweep = run_sweep(tmp_path, "sweep")
        out_csv, min_csv = tmp_path / "dec.csv", tmp_path / "dec_min.csv"
        assert run(["decode", "--sweep", str(sweep), "--seed", "77", "--grid", "0.3,0.4",
                    "--trials", "200", "--out", str(out_csv), "--min-out", str(min_csv)]) == 0
        rows, minima = run_decoding_benchmark(
            best_codes(satisfiable_records(sweep), 77), [0.3, 0.4], 200, RngSpec(77)
        )
        assert len(rows) == 2 * 3 * 2  # two n, three codes each, two p
        write_csv(tmp_path / "lib.csv", DECODING_COLUMNS, rows)
        write_csv(tmp_path / "lib_min.csv", DECODING_MIN_COLUMNS, minima)
        assert out_csv.read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert min_csv.read_bytes() == (tmp_path / "lib_min.csv").read_bytes()

    def test_decode_takes_exactly_one_source(self, tmp_path):
        code_path = tmp_path / "shor.json"
        code_path.write_text(shor_code().to_json())
        for argv in (["--code", str(code_path), "--sweep", str(tmp_path)], []):
            with pytest.raises(SystemExit) as exc:
                run(["decode", *argv])
            assert exc.value.code == 2

    def test_decode_sweep_checks_grid_before_screening(self, small_sweep, monkeypatch, capsys):
        def no_screen(records, master_seed):
            pytest.fail("the codes were screened before --grid was parsed")

        monkeypatch.setattr(cli, "best_codes", no_screen)
        assert run(["decode", "--sweep", str(small_sweep), "--grid", "0.3,x"]) == 4
        assert "'x'" in capsys.readouterr().err

    def test_decode_sweep_without_satisfiable_codes(self, tmp_path, capsys):
        sweep = run_sweep(tmp_path, "empty", gamma_min=0.0, gamma_max=0.0, gamma_step=0.1)
        assert run(["decode", "--sweep", str(sweep)]) == 4
        assert "satisfiable phase" in capsys.readouterr().err


class TestExportCnf:
    def test_export_cnf(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        system = tmp_path / "s.json"
        cnf = tmp_path / "s.cnf"
        run(["sample", "--n", "5", "--m", "4", "--gamma", "0.7", "--seed", "2",
             "--out", str(graph)])
        run(["encode", "--graph", str(graph), "--delta-q", "1", "--out", str(system)])
        assert run(["export-cnf", "--system", str(system), "--out", str(cnf)]) == 0
        text = cnf.read_text()
        assert text.splitlines()[0].startswith("c")
        assert any(ln.startswith("p cnf ") for ln in text.splitlines())
