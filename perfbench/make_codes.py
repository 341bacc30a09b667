#!/usr/bin/env python3
"""Regenerate codes.jsonl, the code records decode_study reads.

Runs a serial phase sweep with the settings below, then writes every
record with rate >= 0.1 (the desk study's candidate rule), one JSON
document per line, sorted by (n, code_id).  From the repository root:

    python3 perfbench/make_codes.py

Takes a few minutes; the result is byte-identical for the same program.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stabsearch.constraints import EncodingParams  # noqa: E402
from stabsearch.harness import SweepConfig, run_phase_sweep, sweep_records  # noqa: E402

MASTER_SEED = 20240808
SWEEP = dict(qubit_counts=(20, 30, 40), gamma_min=0.5, gamma_max=0.8, gamma_step=0.1,
             samples=3, time_budget=4.0, master_seed=MASTER_SEED, workers=1,
             params=EncodingParams(min_qubit_degree=3))


def main() -> int:
    work = ROOT / ".perfbench_out" / "make_codes"
    shutil.rmtree(work, ignore_errors=True)
    run_phase_sweep(SweepConfig(out_dir=str(work), **SWEEP))
    records = [r for r in sweep_records(work) if r.stats.rate >= 0.1]
    records.sort(key=lambda r: (r.stats.n, r.code_id))
    lines = [json.dumps(json.loads(r.to_json()), sort_keys=True) for r in records]
    Path(__file__).with_name("codes.jsonl").write_text("\n".join(lines) + "\n")
    shutil.rmtree(work)
    counts = {}
    for r in records:
        counts[r.stats.n] = counts.get(r.stats.n, 0) + 1
    print(f"wrote {len(records)} records, per n: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
