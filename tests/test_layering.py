"""Module seams: the stages downstream of the solver do not depend on it,
the sweep reaches the solver's probes only through solve(), and importing
one stage loads only what that stage imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabsearch
from stabsearch import solver

SRC = Path(stabsearch.__file__).parent


def imported_names(tree) -> set[str]:
    """Modules and names a module imports, relative ones with their leading dots."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(module + "." + alias.name for alias in node.names)
            imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


@pytest.mark.parametrize("module", ["css", "cnf"])
def test_module_does_not_import_the_solver(module):
    imported = imported_names(ast.parse((SRC / f"{module}.py").read_text()))
    assert not {".solver", "stabsearch.solver"} & imported, imported


def test_harness_reaches_the_kernel_probe_only_through_solve():
    # probe work stays inside the solve() call that perfbench traces as solver.solve
    tree = ast.parse((SRC / "harness.py").read_text())
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    referenced |= {alias.name for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    private = {name for name in vars(solver) if name.startswith("_") and not name.startswith("__")}
    assert {"_kernel_probe", "_kernel_try"} <= private
    assert not referenced & private, referenced & private
    imported = imported_names(tree)
    assert not {".gf2.kernel", "stabsearch.gf2.kernel"} & imported, imported
    assert not any(isinstance(node, ast.Attribute) and node.attr == "kernel" for node in ast.walk(tree))


@pytest.mark.parametrize("module", ["erasure", "graphs"])
def test_stage_import_loads_no_solver_or_pool(module):
    # the package root re-exports nothing, so a decoding-only process never
    # compiles the solver nor loads the sweep's process pool
    heavy = ["stabsearch.solver", "stabsearch.harness", "stabsearch.cli", "multiprocessing"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    script = f"import sys, stabsearch.{module}; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
