"""decode_study: the desk study's analysis stage over committed code records.

Stage 1 screens every record with few erasure trials at one p; stage 2
runs ``harness.run_decoding_benchmark`` with many trials on the best
codes per n over the p grid.  Nothing upstream of decoding runs.  The
run's seed picks the erasure streams; the trial counts, and so the work
units, do not depend on it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import checks
from common import on_trials

CODES = Path(__file__).with_name("codes.jsonl")
P_GRID = [0.30, 0.35, 0.40, 0.45]
SCREEN_P = 0.35
TOP = 2  # codes per n in stage 2
# recount_all: recount every stage-2 row; otherwise the first code per n at
# one p each (p cycling over P_GRID), all of its trials
FULL = {"screen_trials": 64, "trials": 1200, "recount_all": False}
SMALL = {"screen_trials": 16, "trials": 120, "recount_all": True}


class DecodeStudy:
    name = "decode_study"
    # spans whose self time is the workload's own loop, not a named layer
    orchestration = ("harness.run_decoding_benchmark",)

    def __init__(self, out_root: Path, seed: int, small: bool):
        self.seed = seed
        self.size = SMALL if small else FULL

    def prepare(self, mods) -> None:
        """Read and validate the code records (part of set-up)."""
        self.mods = mods
        self.lines = [line for line in CODES.read_text().splitlines() if line]
        record_cls = mods.harness.CodeRecord
        self.records = []
        for line in self.lines:
            rec = record_cls.from_json(line)
            rec.validate()
            self.records.append(rec)
        self.records.sort(key=lambda r: (r.stats.n, r.code_id))
        self.rng = mods.rng.RngSpec(self.seed)

    def install_hooks(self) -> None:
        pass

    def trace_targets(self):
        h, e = self.mods.harness, self.mods.erasure
        return [
            (h, "run_decoding_benchmark", "harness", "harness.run_decoding_benchmark", None),
            (h.CodeRecord, "validate", "harness", "harness.validate", None),
            (h, "check_commutation", "css", "css.commutation", None),
            (h, "code_stats", "css", "css.stats", None),
            (h, "satisfies_degree_bounds", "css", "css.degree_bounds", None),
            (e, "failure_rate", "erasure", "erasure.screen", on_trials),
            (h, "failure_rate", "erasure", "erasure.bench", on_trials),
            (e, "rank_masked", "gf2", "gf2.rank", None, False),
            (e, "rank_int_rows", "gf2", "gf2.rank", None, False),
        ]

    def run_round(self, k: int, clock) -> dict:
        size = self.size
        failure_rate = self.mods.erasure.failure_rate
        screened = []
        for rec in self.records:
            rng = self.rng.substream("screen", rec.code_id)
            rep = failure_rate(rec.code, SCREEN_P, size["screen_trials"], rng)
            screened.append((rec.stats.n, rep.failure_rate, rec.code_id, rec, rep))
        screened.sort(key=lambda t: (t[0], t[1], t[2]))
        best = []
        for n in sorted({t[0] for t in screened}):
            best.extend([t[3] for t in screened if t[0] == n][:TOP])
        rows, minima = self.mods.harness.run_decoding_benchmark(best, P_GRID, size["trials"], self.rng)
        clock.stop()
        attempted = len(screened) + len(rows)
        return {
            "attempted": attempted,
            "failed": 0,
            "work": len(screened) * size["screen_trials"] + sum(r["trials"] for r in rows),
            "digest": [(t[2], t[4].failures) for t in screened] + [json.dumps(r, sort_keys=True) for r in rows],
            "faults": [] if len(rows) == len(best) * len(P_GRID) else ["missing decoding rows"],
            "screened": screened,
            "rows": rows,
            "minima": minima,
        }

    def check_outputs(self, first: dict) -> list[str]:
        faults = []
        sample_erasure = self.mods.erasure.sample_erasure
        docs = [json.loads(line) for line in self.lines]
        by_id = {doc["code_id"]: doc for doc in docs}
        for doc in docs:
            faults.extend(checks.check_code_record(doc))

        def own_failures(code_id, p, rng, trials):
            doc = by_id[code_id]
            n = doc["code"]["n"]
            hx = checks.parse_rows(doc["code"]["hx"])
            hz = checks.parse_rows(doc["code"]["hz"])
            total = 0.0
            for t in range(trials):
                # trial t draws qubit q from counter t*(n+1) + q
                e = sample_erasure(n, p, rng, base_index=t * (n + 1))
                if e.mask:
                    total += 1.0 - 2.0 ** -checks.class_log2(hx, hz, n, e.mask)
            return total

        for _, _, code_id, rec, rep in first["screened"]:
            rng = self.rng.substream("screen", code_id)
            if not math.isclose(own_failures(code_id, SCREEN_P, rng, rep.trials), rep.failures, abs_tol=1e-9):
                faults.append(f"{code_id}: screening failures differ from the independent recount")
        trials = self.size["trials"]
        by_code: dict[str, list[dict]] = {}
        recount = set()
        for row in first["rows"]:
            by_code.setdefault(row["code_id"], []).append(row)
            if row["trials"] != trials or not math.isclose(row["failure_rate"], row["failures"] / trials):
                faults.append(f"{row['code_id']} p={row['p']}: trials or failure rate do not fit the run")
        for j, n in enumerate(sorted({row["n"] for row in first["rows"]})):
            code_id = next(row["code_id"] for row in first["rows"] if row["n"] == n)
            recount.add((code_id, P_GRID[j % len(P_GRID)]))
        for row in first["rows"]:
            if self.size["recount_all"] or (row["code_id"], row["p"]) in recount:
                # run_decoding_benchmark draws (code, p) from substream ("decode", code_id, p)
                rng = self.rng.substream("decode", row["code_id"], row["p"])
                if not math.isclose(own_failures(row["code_id"], row["p"], rng, trials), row["failures"],
                                    rel_tol=1e-9, abs_tol=1e-9):
                    faults.append(f"{row['code_id']} p={row['p']}: failures differ from the independent recount")
        for code_id, rows in by_code.items():
            rows.sort(key=lambda r: r["p"])
            for a, b in zip(rows, rows[1:]):
                if b["failure_rate"] + b["ci95"] + a["ci95"] < a["failure_rate"]:
                    faults.append(f"{code_id}: failure rate falls from p={a['p']} to p={b['p']}")
        want_min = {}
        for row in first["rows"]:
            key = (row["n"], row["p"])
            cand = (row["failure_rate"], row["code_id"])
            if key not in want_min or cand < want_min[key]:
                want_min[key] = cand
        got_min = {(m["n"], m["p"]): (m["min_failure_rate"], m["code_id"]) for m in first["minima"]}
        if got_min != want_min:
            faults.append("per-(n, p) minima differ from the minima of the rows")
        return faults

    def cleanup(self, result: dict) -> None:
        pass

    def report(self) -> list[str]:
        return [f"code records: {len(self.records)}"]
