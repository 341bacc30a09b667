import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from stabsearch.constraints import EncodingParams
from stabsearch.harness import find_code
from stabsearch.rng import RngSpec
from stabsearch.solver import SolverConfig

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_acceptance_outcomes: dict[str, str] = {}


@pytest.fixture(scope="session")
def small_discovered_codes():
    """Five codes with n <= 20 found by the standard pipeline."""
    records = []
    attempt = 0
    while len(records) < 5 and attempt < 40:
        n = 16 + (attempt % 5)
        m = round(0.9 * n)
        _, rec = find_code(
            n, m, 0.8, EncodingParams(min_qubit_degree=3),
            RngSpec(20240808, 9_000 + attempt),  # the acceptance suite's master seed
            SolverConfig(time_budget=20, seed=attempt),
        )
        if rec is not None:
            records.append(rec)
        attempt += 1
    assert len(records) == 5, "pipeline failed to discover five small codes"
    return records


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and "criterion" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
            name = report.nodeid.split("::")[-1].removeprefix("test_")
            _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(_acceptance_outcomes.items()):
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{label}] {name}")
