"""band_sweep: the paper's satisfiability sweep over the transition band.

One round is one ``harness.run_phase_sweep`` call, serial, into a fresh
directory.  The grid is fixed and does not depend on the run's seed: at
this budget some samples end ``unknown`` (counted as failed), and the
failure share must be the same in every run.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import checks
from common import on_encode, on_graph, on_solve

MASTER_SEED = 20240808
DELTA_Q = 3
FULL = {"qubit_counts": (30, 40), "gamma_min": 0.3, "gamma_max": 0.6, "gamma_step": 0.1,
        "samples": 1, "time_budget": 1.0}
SMALL = {"qubit_counts": (20,), "gamma_min": 0.3, "gamma_max": 0.6, "gamma_step": 0.1,
         "samples": 1, "time_budget": 1.0}


class BandSweep:
    name = "band_sweep"
    # spans whose self time is the workload's own loop, not a named layer
    orchestration = ("harness.run_phase_sweep", "harness.find_code")

    def __init__(self, out_root: Path, seed: int, small: bool):
        self.out_root = out_root
        self.grid = SMALL if small else FULL
        self.samples: list[dict] = []
        self.unsat_certified = 0
        self.unsat_uncertified = 0

    def prepare(self, mods) -> None:
        self.mods = mods
        self.params = mods.constraints.EncodingParams(min_qubit_degree=DELTA_Q)
        self.budget_props = int(self.grid["time_budget"] * mods.solver.PROPS_PER_SECOND)

    def config(self, out_dir: Path):
        return self.mods.harness.SweepConfig(
            params=self.params, master_seed=MASTER_SEED, workers=1, out_dir=str(out_dir), **self.grid
        )

    def install_hooks(self) -> None:
        """Record every sample's verdict and work."""
        harness = self.mods.harness
        real = harness.find_code

        def find_code(n, m, gamma, params, rng, solver_cfg=None):
            result, record = real(n, m, gamma, params, rng, solver_cfg)
            self.samples.append({
                "n": n, "m": m, "gamma": gamma, "rng": rng, "verdict": result.verdict,
                "props": result.stats.propagations,
                "code_id": record.code_id if record is not None else None,
            })
            return result, record

        harness.find_code = find_code

    def trace_targets(self):
        h = self.mods.harness
        return [
            (h, "run_phase_sweep", "harness", "harness.run_phase_sweep", None),
            (h, "find_code", "harness", "harness.find_code", None),
            (h.CodeRecord, "build", "harness", "harness.record_build", None),
            (h, "sample_support_graph", "graphs", "graphs.sample", on_graph),
            (h, "encode", "constraints", "constraints.encode", on_encode),
            (h, "solve", "solver", "solver.solve", on_solve),
            (h, "extract_code", "css", "css.extract", None),
            (h, "code_stats", "css", "css.stats", None),
        ]

    def run_round(self, k: int, clock) -> dict:
        out = self.out_root / f"band_{k}"
        self.samples = []
        pixels = self.mods.harness.run_phase_sweep(self.config(out))
        clock.stop()
        return {
            "attempted": len(self.samples),
            "failed": sum(1 for s in self.samples if s["verdict"] == "unknown"),
            "work": sum(s["props"] for s in self.samples),
            "digest": [(s["verdict"], s["props"], s["code_id"]) for s in self.samples],
            "faults": self._check_pixels(out, pixels),
            "samples": self.samples,
            "dir": out,
        }

    def _check_pixels(self, out: Path, pixels) -> list[str]:
        faults = []
        cfg = self.config(out)
        expected = len(cfg.qubit_counts) * len(cfg.gammas())
        docs = [json.loads(p.read_text()) for p in sorted((out / "pixels").glob("pixel_*.json"))]
        docs.sort(key=lambda d: (d["n"], d["gamma"]))
        if len(docs) != expected or len(pixels) != expected:
            faults.append(f"expected {expected} pixels, found {len(docs)} files and {len(pixels)} results")
        verdicts = [v for d in docs for v in d["verdicts"]]
        if verdicts != [s["verdict"] for s in self.samples]:
            faults.append("pixel verdicts differ from the solver verdicts in sweep order")
        for d in docs:
            counts = {v: d["verdicts"].count(v) for v in ("sat", "unsat", "unknown")}
            if (d["sat"], d["unsat"], d["unknown"]) != (counts["sat"], counts["unsat"], counts["unknown"]):
                faults.append(f"pixel n={d['n']} gamma={d['gamma']}: counts disagree with its verdicts")
            if d["classification"] != checks.pixel_class(counts["sat"], counts["unsat"], counts["unknown"]):
                faults.append(f"pixel n={d['n']} gamma={d['gamma']}: wrong classification")
        for s in self.samples:
            if s["verdict"] == "unknown" and s["props"] < self.budget_props:
                faults.append(
                    f"unknown at n={s['n']} gamma={s['gamma']} stopped after {s['props']} of "
                    f"{self.budget_props} propagations (wall-clock valve)"
                )
        sat_ids = [s["code_id"] for s in self.samples if s["verdict"] == "sat"]
        if [r for d in docs for r in d["records"]] != sat_ids:
            faults.append("pixel record lists differ from the sat samples")
        return faults

    def check_outputs(self, first: dict) -> list[str]:
        """Full checks on the first round's directory."""
        graphs = self.mods.graphs
        faults = []
        graph_of = {}
        for s in first["samples"]:
            g = graphs.sample_support_graph(s["n"], s["m"], s["gamma"], s["rng"])
            graph_of[(s["rng"].master_seed, s["rng"].stream_id)] = g
            if s["verdict"] == "unsat":
                if checks.degree_certifies_unsat(g.n, g.edges, DELTA_Q):
                    self.unsat_certified += 1
                else:
                    self.unsat_uncertified += 1
        paths = sorted((first["dir"] / "codes").glob("*.json"))
        if len(paths) != len({s["code_id"] for s in first["samples"] if s["code_id"]}):
            faults.append("code record files do not match the sat samples")
        for path in paths:
            doc = json.loads(path.read_text())
            prov = doc["provenance"]
            g = graph_of.get((prov["master_seed"], prov["stream_id"]))
            if g is None:
                faults.append(f"{path.name}: provenance names no sample of this sweep")
                continue
            masks = checks.stab_masks(g.n, g.m, g.edges)
            faults.extend(checks.check_code_record(doc, masks, DELTA_Q))
        return faults

    def cleanup(self, result: dict) -> None:
        shutil.rmtree(result["dir"], ignore_errors=True)

    def report(self) -> list[str]:
        return [f"unsat verdicts certified by the degree argument: {self.unsat_certified}, "
                f"not certified: {self.unsat_uncertified}"]

