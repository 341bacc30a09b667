"""Smoke tests: the experiment scripts run end to end and write what they claim."""

import os
import subprocess
import sys
from pathlib import Path

from stabsearch.css import shor_code
from stabsearch.erasure import exact_failure_rate

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
