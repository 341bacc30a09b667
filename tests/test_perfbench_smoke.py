"""Smoke test: the benchmark's self-check still runs against the current program.

The benchmark wraps program functions by name (``cli.main``,
``cli.encode``, ``harness.find_code``, ...), so a refactor that renames
or moves one of them breaks the benchmark without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_quick_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
