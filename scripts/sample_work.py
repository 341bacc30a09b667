#!/usr/bin/env python3
"""Verdict and solver work of every sample of a sweep grid.

Reads a sweep config, the JSON file `stabsearch sweep --config` reads, and
runs each (n, gamma, sample) of its grid through harness.solve_sample, with
the graph stream and solver seed the sweep gives that sample, on the
config's workers; writes no sweep directory.  Prints one JSON line per
sample, in sweep order, with its verdict and work units (propagations, the
kernel probe's charge included), then one line of totals: by verdict, and
over the unsat samples the solver refuted ("refuted"; the degree screen's
unsat count no work).

    PYTHONPATH=src python3 scripts/sample_work.py --config desk.json
"""

import argparse
import json
import sys
from pathlib import Path

from stabsearch.harness import SweepConfig, sample_map, solve_sample, sweep_tasks


def sample_row(task: tuple) -> dict:
    n, _, gamma, sample_idx = task[:4]
    result, _ = solve_sample(task)
    s = result.stats
    return {"n": n, "gamma": gamma, "sample": sample_idx, "verdict": result.verdict,
            "work": s.propagations, "decisions": s.decisions, "conflicts": s.conflicts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="sweep config JSON")
    cfg = SweepConfig.from_dict(Path(ap.parse_args().config).read_text())

    rows = []
    with sample_map(cfg.workers) as run:
        tasks = sweep_tasks(cfg, [(n, gamma) for n in cfg.qubit_counts for gamma in cfg.gammas()])
        for row in run(sample_row, tasks):
            print(json.dumps(row), flush=True)
            rows.append(row)

    def total(selected: list[dict]) -> dict:
        return {"samples": len(selected), "work": sum(r["work"] for r in selected)}

    verdicts = sorted({r["verdict"] for r in rows})
    print(json.dumps({**total(rows), "by_verdict": {v: total([r for r in rows if r["verdict"] == v]) for v in verdicts},
                      "refuted": total([r for r in rows if r["verdict"] == "unsat" and r["work"] > 0])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
