#!/usr/bin/env python3
"""stabsearch benchmark: one workload per process, serial, no threads.

From the repository root:

    python3 perfbench/run.py --workload band_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick     # every workload, small, all checks

A run sets up several times, each in a fresh interpreter (start, import
of stabsearch and input preparation), then repeats whole rounds of the
workload until ``--seconds`` have passed (at least two rounds), checks
the outputs and prints one JSON line last.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  See README.md for the workloads and
the reference-seconds scaling.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import Tracer, peak_rss_mb
from refclock import RefClock
from setup_probe import WORKLOADS, import_program, workload_class
SETUP_REPEATS = 21
MIN_ROUNDS = 2
# band_sweep: the sweep's own code (self time of the orchestration spans) may
# take at most this share of the timed section; the rest must be claimed by
# the named inner layers
SELF_TIME_MARGIN = 0.03


class Runner:
    def __init__(self, wl, seconds: float):
        self.wl = wl
        self.seconds = seconds
        self.rounds: list[dict] = []

    def round(self, traced: bool) -> dict:
        tracer = Tracer() if traced else None
        if tracer is not None:
            for target in self.wl.trace_targets():
                tracer.wrap(*target)
        clock = RefClock(on_exclude=tracer.exclude if tracer else None)
        try:
            res = self.wl.run_round(len(self.rounds) + 1, clock.start())
        finally:
            clock.stop()
            if tracer is not None:
                tracer.unwrap_all()
        res.update(raw_s=clock.raw_s, norm_s=clock.norm_s, scale=clock.scale, refs=clock.refs, tracer=tracer)
        if self.rounds and res["digest"] != self.rounds[0]["digest"]:
            res["faults"].append(f"round {len(self.rounds) + 1} outputs differ from round 1")
        if self.rounds:
            self.wl.cleanup(res)
        self.rounds.append(res)
        return res

    def run(self, trace: bool) -> None:
        t0 = time.perf_counter()
        while len(self.rounds) < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            self.round(traced=False)
            if trace:
                self.round(traced=True)


def setup(args) -> list[dict]:
    """SETUP_REPEATS set-ups, each in a fresh interpreter (setup_probe.py)."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           args.workload, str(args.seed), "1" if args.small else "0"]
    out = []
    for _ in range(SETUP_REPEATS):
        spawn = time.perf_counter()
        proc = subprocess.run(cmd + [repr(spawn)], capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(runner: Runner, setups: list[dict], rss: float) -> dict:
    first = runner.rounds[0]
    return {
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "norm_s": (median([r["norm_s"] for r in runner.rounds]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "work_units": (first["work"], "count"),
    }


def per_layer(runner: Runner, wl) -> dict:
    traced = [r for r in runner.rounds if r["tracer"] is not None]
    plain = [r for r in runner.rounds if r["tracer"] is None]

    def avg(f):
        return sum(f(r) for r in traced) / len(traced)

    def incl(*labels):
        return avg(lambda r: sum(r["tracer"].incl_s.get(l, 0.0) for l in labels) * r["scale"])

    def calls(*labels):
        return avg(lambda r: sum(r["tracer"].calls.get(l, 0) for l in labels))

    def count(key):
        return avg(lambda r: r["tracer"].counts.get(key, 0))

    def scaled_count(key):
        return avg(lambda r: r["tracer"].counts.get(key, 0.0) * r["scale"])

    solve_s = incl("solver.solve")
    props = count("solver.props")
    verdicts = {v: count("solver." + v) for v in ("sat", "unsat", "unknown")}
    solves = sum(verdicts.values())
    erasure_s = incl("erasure.screen", "erasure.bench")
    trials = count("erasure.trials")
    untraced = median([r["norm_s"] for r in plain])
    m = {
        "graphs.sample_s": (incl("graphs.sample"), "s"),
        "graphs.edges": (count("graphs.edges"), "count"),
        "constraints.encode_s": (incl("constraints.encode"), "s"),
        "constraints.json_s": (incl("constraints.json"), "s"),
        "constraints.vars": (count("constraints.vars"), "count"),
        "constraints.constraints": (count("constraints.constraints"), "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.sat_s": (scaled_count("solver.sat_s"), "s"),
        "solver.unsat_s": (scaled_count("solver.unsat_s"), "s"),
        "solver.unknown_s": (scaled_count("solver.unknown_s"), "s"),
        "solver.props": (props, "count"),
        "solver.conflicts": (count("solver.conflicts"), "count"),
        "solver.decisions": (count("solver.decisions"), "count"),
        "solver.restarts": (count("solver.restarts"), "count"),
        "solver.probe_hits": (count("solver.probe_hits"), "count"),
        "solver.sat": (verdicts["sat"], "count"),
        "solver.unsat": (verdicts["unsat"], "count"),
        "solver.unknown": (verdicts["unknown"], "count"),
        "solver.props_per_s": (props / solve_s if solve_s else 0.0, "1/s"),
        "solver.decided_ratio": ((verdicts["sat"] + verdicts["unsat"]) / solves if solves else 0.0, "ratio"),
        "css.extract_s": (incl("css.extract"), "s"),
        "css.stats_s": (incl("css.stats"), "s"),
        "harness.sweep_self_s": (
            avg(lambda r: sum(r["tracer"].label_self_s.get(l, 0.0)
                              for l in ("harness.run_phase_sweep", "harness.find_code")) * r["scale"]),
            "s",
        ),
        "harness.validate_s": (incl("harness.validate"), "s"),
        "harness.records": (calls("harness.record_build", "harness.validate"), "count"),
        "cnf.export_s": (incl("cnf.export"), "s"),
        "cnf.clauses": (count("cnf.clauses"), "count"),
        "cnf.bytes": (count("cnf.bytes"), "bytes"),
        "erasure.screen_s": (incl("erasure.screen"), "s"),
        "erasure.bench_s": (incl("erasure.bench"), "s"),
        "erasure.trials": (trials, "count"),
        "erasure.trials_per_s": (trials / erasure_s if erasure_s else 0.0, "1/s"),
        "gf2.rank_calls": (calls("gf2.rank"), "count"),
        "gf2.rank_s": (incl("gf2.rank"), "s"),
        "cli.self_s": (avg(lambda r: r["tracer"].self_s.get("cli", 0.0) * r["scale"]), "s"),
        "trace.raw_round_s": (avg(lambda r: r["raw_s"]), "s"),
        "trace.overhead_pct": ((median([r["norm_s"] for r in traced]) / untraced - 1.0) * 100.0, "%"),
        "trace.self_coverage": (coverage(traced, wl.orchestration), "ratio"),
        "checks.unsat_certified": (getattr(wl, "unsat_certified", 0), "count"),
        "checks.unsat_uncertified": (getattr(wl, "unsat_uncertified", 0), "count"),
    }
    return m


def coverage(traced: list[dict], orchestration: tuple[str, ...]) -> float:
    """Share of the timed section claimed by the named inner layers.

    The self time of the workload's orchestration spans (the sweep loop,
    ``cli.main``) is left out: time that no inner wrapper catches lands
    there, so the share falls when a layer's work goes unattributed.
    Reference-loop time is kept out of both sides.
    """
    def claimed(r):
        t = r["tracer"]
        return sum(v for label, v in t.label_self_s.items() if label not in orchestration)

    return sum(claimed(r) / r["raw_s"] for r in traced) / len(traced)


def run(args, out_root: Path) -> int:
    wl = workload_class(args.workload)(out_root, args.seed, args.small)
    setups = [] if args.trace else setup(args)  # setup_s is an end-to-end metric
    wl.prepare(import_program())
    runner = Runner(wl, args.seconds)
    wl.install_hooks()
    runner.run(trace=bool(args.trace))
    rss = peak_rss_mb()

    first = runner.rounds[0]
    faults = [f for r in runner.rounds for f in r["faults"]]
    for r in runner.rounds[1:]:
        if (r["attempted"], r["failed"], r["work"]) != (first["attempted"], first["failed"], first["work"]):
            faults.append("attempted, failed or work differ between rounds")
    faults.extend(wl.check_outputs(first))

    if args.trace:
        metrics = per_layer(runner, wl)
        cov = metrics["trace.self_coverage"][0]
        if args.workload == "band_sweep" and cov < 1.0 - SELF_TIME_MARGIN:
            faults.append(f"named layers claim only {cov:.3f} of the timed section")
        trace_dir = Path.cwd() / ".perfbench_out" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.spans", "w") as fh:
            for i, r in enumerate(runner.rounds, 1):
                fh.write(f"# round {i} traced={r['tracer'] is not None} raw_s={r['raw_s']:.6f} "
                         f"norm_s={r['norm_s']:.6f}\n")
                if r["tracer"] is not None:
                    for sid, parent, label, t0, t1 in r["tracer"].spans:
                        fh.write(f"{sid} {parent} {label} {t0:.9f} {t1:.9f}\n")
    else:
        metrics = end_to_end(runner, setups, rss)

    # one round's operations: every round repeats them (checked above), so
    # the counts do not depend on how many rounds fit into --seconds
    attempted, failed = first["attempted"], first["failed"]
    rounds = runner.rounds
    refs = [x for r in rounds for x in r["refs"]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds of "
          f"{attempted} operations, {failed} failed per round")
    if setups:
        print(f"  set-up: {len(setups)} fresh interpreters, median raw s "
              f"{median(s['raw_s'] for s in setups):.4f}")
    print("  raw s per round:       " + " ".join(f"{r['raw_s']:.3f}" for r in rounds))
    print("  reference s per round: " + " ".join(f"{r['norm_s']:.3f}" for r in rounds))
    print(f"  reference loop: median {median(refs) * 1e6:.1f} us over {len(refs)} samples")
    for line in wl.report():
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for f in faults:
        print(f"check failed: {f}", file=sys.stderr)
    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not faults else 1


def quick() -> int:
    """Small size of every workload, untraced and traced, all checks."""
    ok = True
    for name in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", trace, "--small"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                res = None
            good = proc.returncode == 0 and res is not None and res["correct"]
            ok = ok and good
            summary = f"attempted={res['attempted']} failed={res['failed']}" if res else "no result"
            print(f"{name} trace={trace}: {'ok' if good else 'FAILED'} ({summary})")
            if not good:
                print(proc.stderr[-3000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="small inputs, for the self-check")
    ap.add_argument("--quick", action="store_true", help="self-check every workload at small size")
    args = ap.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required")
    src = Path.cwd() / "src"
    if not (src / "stabsearch" / "__init__.py").is_file():
        print(f"error: no stabsearch package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_root = Path.cwd() / ".perfbench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out_root.mkdir(parents=True)
    try:
        return run(args, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
