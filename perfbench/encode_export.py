"""encode_export: the CLI file path, sample -> encode -> export-cnf, in-process.

Larger graphs than the sweep and every constraint family, with no
search.  The graph seeds are fixed, so the constraint and clause counts
(the work units) are the same in every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import checks
from common import on_encode, on_export, on_graph

GRAPH_SEED = 20240808
# (n, m, gamma, stream, encode flags): commutation only, per-qubit degree,
# stabilizer degree bounds, balance.
FULL = [
    (60, 54, 0.17, 1, []),
    (80, 72, 0.13, 2, ["--delta-q", "2"]),
    (100, 90, 0.10, 3, ["--delta-s", "2", "--delta-s-max", "12"]),
    (70, 63, 0.15, 4, ["--balance", "--delta-q", "1"]),
]
SMALL = [
    (20, 18, 0.2, 1, []),
    (24, 22, 0.2, 2, ["--delta-q", "1"]),
    (28, 25, 0.15, 3, ["--delta-s", "1", "--delta-s-max", "6"]),
    (22, 20, 0.2, 4, ["--balance"]),
]


def _params(flags: list[str]) -> dict:
    """EncodingParams fields the flags ask for, read by the census check."""
    out = {"min_qubit_degree": 0, "min_stab_degree": 0, "max_stab_degree": None, "balanced": False}
    names = {"--delta-q": "min_qubit_degree", "--delta-s": "min_stab_degree", "--delta-s-max": "max_stab_degree"}
    i = 0
    while i < len(flags):
        if flags[i] == "--balance":
            out["balanced"] = True
            i += 1
        else:
            out[names[flags[i]]] = int(flags[i + 1])
            i += 2
    return out


def _constraints_and_clauses(out: Path, i: int) -> int:
    """Constraints in system document i plus clauses its CNF header declares.

    check_outputs confirms the header against the CNF body.
    """
    constraints = len(json.loads((out / f"s{i}.json").read_text())["constraints"])
    with open(out / f"c{i}.cnf") as fh:
        header = next(line for line in fh if line.startswith("p cnf"))
    return constraints + int(header.split()[3])


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class EncodeExport:
    name = "encode_export"
    # spans whose self time is the workload's own loop, not a named layer
    orchestration = ("cli.main",)

    def __init__(self, out_root: Path, seed: int, small: bool):
        self.out_root = out_root
        self.specs = SMALL if small else FULL

    def prepare(self, mods) -> None:
        self.mods = mods
        self.argv = []
        for i, (n, m, gamma, stream, flags) in enumerate(self.specs):
            self.argv.append((
                ["sample", "--n", str(n), "--m", str(m), "--gamma", repr(gamma),
                 "--seed", str(GRAPH_SEED), "--stream", str(stream), "--out", f"g{i}.json"],
                ["encode", "--graph", f"g{i}.json", *flags, "--out", f"s{i}.json"],
                ["export-cnf", "--system", f"s{i}.json", "--out", f"c{i}.cnf"],
            ))

    def install_hooks(self) -> None:
        pass

    def trace_targets(self):
        cli = self.mods.cli
        cs_cls = self.mods.constraints.ConstraintSystem
        g_cls = self.mods.graphs.SupportGraph
        return [
            (cli, "main", "cli", "cli.main", None),
            (cli, "sample_support_graph", "graphs", "graphs.sample", on_graph),
            (g_cls, "to_json", "graphs", "graphs.json", None),
            (g_cls, "from_json", "graphs", "graphs.json", None),
            (cli, "encode", "constraints", "constraints.encode", on_encode),
            (cli, "constraint_census", "constraints", "constraints.census", None),
            (cs_cls, "to_json", "constraints", "constraints.json", None),
            (cs_cls, "from_json", "constraints", "constraints.json", None),
            (cli, "export_cnf", "cnf", "cnf.export", on_export),
        ]

    def run_round(self, k: int, clock) -> dict:
        out = self.out_root / f"enc_{k}"
        out.mkdir(parents=True)
        main = self.mods.cli.main
        faults = []
        sink = io.StringIO()
        for steps in self.argv:
            for argv in steps:
                argv = [str(out / a) if a.endswith((".json", ".cnf")) else a for a in argv]
                with contextlib.redirect_stdout(sink):
                    code = main(argv)
                if code != 0:
                    faults.append(f"stabsearch {' '.join(argv)} exited with {code}")
        clock.stop()
        digest = [_sha(p) for p in sorted(out.iterdir())]
        return {
            "attempted": 3 * len(self.argv),
            "failed": len(faults),
            "work": sum(_constraints_and_clauses(out, i) for i in range(len(self.argv))),
            "digest": digest,
            "faults": faults,
            "dir": out,
        }

    def check_outputs(self, first: dict) -> list[str]:
        """Census, byte round trip, DIMACS and model checks on the first round.

        Every round re-encodes from scratch, so equal digests across
        rounds (checked by the runner) show that re-encoding reproduces
        the same bytes.
        """
        cs_cls = self.mods.constraints.ConstraintSystem
        out = first["dir"]
        faults = []
        for i, (n, m, gamma, stream, flags) in enumerate(self.specs):
            graph = json.loads((out / f"g{i}.json").read_text())
            sys_text = (out / f"s{i}.json").read_text()
            doc = json.loads(sys_text)
            kinds = {"or": 0, "xor": 0, "linear": 0}
            for c in doc["constraints"]:
                kinds[c["type"]] += 1
            got = {"variables": len(doc["variables"]), **kinds}
            want = checks.census_closed_form(graph, _params(flags))
            if got != want:
                faults.append(f"graph {i}: census {got} differs from the closed form {want}")
            if cs_cls.from_json(sys_text).to_json() + "\n" != sys_text:
                faults.append(f"graph {i}: system document changes on a JSON round trip")
            nvars, clauses, cnf_faults = checks.parse_dimacs((out / f"c{i}.cnf").read_text())
            faults.extend(f"graph {i}: {f}" for f in cnf_faults)
            if not flags:
                fixed = {}
                for vid, (kind, _) in enumerate(doc["variables"]):
                    # all edges inactive, all stabilizers Z: every pair has the
                    # same type and an even (empty) overlap
                    fixed[vid + 1] = kind in ("same", "even")
                if not checks.extends_to_model(nvars, clauses, fixed):
                    faults.append(f"graph {i}: the all-inactive model does not extend to the CNF")
        return faults

    def cleanup(self, result: dict) -> None:
        shutil.rmtree(result["dir"], ignore_errors=True)

    def report(self) -> list[str]:
        return []

