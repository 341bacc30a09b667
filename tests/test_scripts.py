"""Smoke tests: the experiment scripts run end to end and write what they claim."""

import json
import os
import subprocess
import sys
from pathlib import Path

from stabsearch.constraints import EncodingParams
from stabsearch.css import shor_code
from stabsearch.erasure import exact_failure_rate
from stabsearch.harness import SweepConfig, run_phase_sweep, solve_sample

ROOT = Path(__file__).resolve().parent.parent


def test_shor_erasure_curve(tmp_path):
    out = tmp_path / "shor.csv"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "shor_erasure_curve.py"),
         "--trials", "200", "--out", str(out)],
        check=True, capture_output=True, env=env, timeout=300,
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "# format_version: 1"
    assert lines[1].split(",")[:2] == ["p", "exact"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 19
    code = shor_code()
    for i, row in enumerate(rows, start=1):
        p = float(row[0])
        assert p == round(0.05 * i, 2)
        assert float(row[1]) == exact_failure_rate(code, p)


def test_readme_library_example_prints_a_code_and_a_report():
    # the "Library use" block of README.md, run as written
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", block], check=True, capture_output=True,
                         text=True, env=env, timeout=300).stdout
    assert "CodeStats(" in out and "DecodingReport(" in out, out


def test_sample_work_reports_each_sweep_sample_and_the_totals(tmp_path):
    # every sample of a config's grid, in sweep order, with the verdict and work a sweep's
    # find_code gets for it; the sweep's pixel files hold the same verdicts.  Samples 5 and 6
    # at gamma 0.35 are refuted by the solver, and the grid has screened unsat too.
    cfg = SweepConfig((20,), 0.35, 0.4, 0.05, samples=7, params=EncodingParams(min_qubit_degree=2),
                      time_budget=0.2, master_seed=20240808, workers=2, out_dir=str(tmp_path / "sweep"))
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(cfg.to_dict()))
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sample_work.py"), "--config", str(config)],
        check=True, capture_output=True, text=True, env=env, timeout=300,
    ).stdout.splitlines()
    rows, totals = [json.loads(line) for line in out[:-1]], json.loads(out[-1])
    assert [(r["gamma"], r["sample"]) for r in rows] == [(g, i) for g in (0.35, 0.4) for i in range(7)]
    for r in rows:
        result, _ = solve_sample((20, 18, r["gamma"], r["sample"], 20240808, cfg.params, 0.2))
        assert (r["verdict"], r["work"]) == (result.verdict, result.stats.propagations)
    assert totals["samples"] == len(rows) and totals["work"] == sum(r["work"] for r in rows)
    assert sum(t["samples"] for t in totals["by_verdict"].values()) == len(rows)
    refuted = [r for r in rows if r["verdict"] == "unsat" and r["work"] > 0]
    assert [(r["gamma"], r["sample"]) for r in refuted] == [(0.35, 5), (0.35, 6)]
    assert any(r["verdict"] == "unsat" and r["work"] == 0 for r in rows)
    assert totals["refuted"] == {"samples": len(refuted), "work": sum(r["work"] for r in refuted)}
    pixels = run_phase_sweep(cfg)
    counts = [[sum(r["verdict"] == v for r in rows if r["gamma"] == px.gamma) for v in ("sat", "unsat", "unknown")]
              for px in pixels]
    assert counts == [[px.sat, px.unsat, px.unknown] for px in pixels]
