"""Module seams: the stages downstream of the solver do not depend on it,
neither the solver nor code extraction reads the variable layout, the
sweep reaches the kernel probe only through solve(), graphs and erasures
draw without the random module, importing one stage loads only what
that stage imports, and every public function or class is reached by
the package, its scripts or its benchmark, not by tests alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabsearch

SRC = Path(stabsearch.__file__).parent
ROOT = SRC.parent.parent


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


@pytest.mark.parametrize("module, banned", [
    ("probe", {"constraints", "solver"}),  # candidates come from the graph alone
    ("solver", {"gf2", "rng"}),  # the GF(2) work and its seeding live in probe.py
    ("harness", {"probe", "gf2.kernel"}),
    ("cli", {"probe", "gf2.kernel"}),
], ids=["probe", "solver", "harness", "cli"])
def test_module_does_not_import(module, banned):
    # The sweep and the CLI reach the probe only through solve(), inside the span
    # perfbench traces as solver.solve.  On the band_sweep grid the probe and the
    # completion and check of its three hits take 0.076 s a round (0.018 s + 0.058 s,
    # about 5%); outside that span no traced layer would claim the time, and
    # trace.self_coverage (0.979) would fall below its 0.97 gate.
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = imported_names(tree)
    assert not {prefix + name for name in banned for prefix in (".", "stabsearch.")} & imported, imported
    if "probe" in banned:  # nor through a module attribute, as in gf2.kernel(...)
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not {"kernel", "kernel_candidate", "greedy_candidate"} & attributes


LAYOUT_KINDS = {"ACTIVATOR", "PAULI", "SAME", "EVEN", "BOTH", "XIND", "ZIND"}


def names_used(module: str) -> set[str]:
    """The names a module imports, last dotted part only, and the attributes it reads."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = {name.rsplit(".", 1)[-1] for name in imported_names(tree)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_solver_does_not_read_the_variable_layout():
    # The variable table's layout is known to constraints.py alone: encode writes it
    # and consistent_completion reads a candidate's (rows, paulis) back into it, so
    # the search sees a variable only by its id.  A solver that dispatched on kinds
    # again would be a second reader to keep in step with encode.
    names = names_used("solver")
    assert not LAYOUT_KINDS & names, LAYOUT_KINDS & names


def test_css_does_not_read_the_variable_layout():
    # extract_code takes a model's (rows, paulis) from constraints.model_candidate,
    # the inverse of consistent_completion; indexing the model by edge position
    # here would make css.py a second reader of the layout encode writes.
    names = names_used("css")
    assert "model_candidate" in names
    assert not (LAYOUT_KINDS | {"edges", "variables"}) & names, (LAYOUT_KINDS | {"edges", "variables"}) & names


# Public names that only tests reach, each kept on purpose.
KEPT = {
    "steane_code": "a known code that anchors the tests of code stats and erasure decoding",
    "success_probability": "the acceptance suite's criterion 8 compares the decoder with it",
    "erasure_capacity_limit": "the bound the paper's capacity claim is measured against (ROADMAP item 19)",
}


def names_referenced(nodes) -> set[str]:
    """Every name the AST nodes mention: names, attributes, imported names and their
    aliases, and string constants (perfbench reaches functions through getattr)."""
    found = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.rsplit(".", 1)[-1], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_definition_is_reached_outside_tests():
    # A function that only its own tests call is code to maintain that no verdict or
    # artifact depends on: delete it with its tests, or name it in KEPT with a reason.
    outside = [*ROOT.joinpath("scripts").glob("*.py"), *ROOT.joinpath("perfbench").glob("*.py")]
    outside_names = names_referenced(ast.parse(path.read_text()) for path in outside)
    modules = {path: ast.parse(path.read_text()).body for path in SRC.glob("*.py")}
    referenced = {path: names_referenced(body) for path, body in modules.items()}
    unreached = set()
    for path, body in modules.items():
        elsewhere = outside_names.union(*(names for p, names in referenced.items() if p != path))
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in elsewhere
                    and node.name not in names_referenced(n for n in body if n is not node)):
                unreached.add(node.name)
    assert not unreached - KEPT.keys(), sorted(unreached - KEPT.keys())
    assert KEPT.keys() <= unreached, sorted(KEPT.keys() - unreached)  # a KEPT name now reached, or gone


def test_counter_stages_import_no_random():
    # Graphs and erasures draw from RngSpec counters alone, which is what keeps them
    # identical across Python versions; random.Random promises only random()'s
    # sequence across versions, so its seeded draws stay in the solver and the probe.
    imports = {path.stem: imported_names(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    assert {module for module, names in imports.items() if "random" in names} == {"probe", "solver"}
    reached, todo = set(), ["rng", "graphs", "erasure"]
    while todo:
        module = todo.pop()
        assert not {"random", ".probe", "stabsearch.probe"} & imports[module], module
        reached.add(module)
        todo += {name[1:].split(".")[0] for name in imports[module] if name.startswith(".")} & imports.keys() - reached
    assert not {"probe", "solver"} & reached, reached


def loaded_after_import(modules: str, heavy: list[str]) -> str:
    """The names in heavy that a fresh interpreter has loaded after importing modules."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    script = f"import sys, {modules}; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() + out.stderr


@pytest.mark.parametrize("module", ["erasure", "graphs"])
def test_stage_import_loads_no_solver_or_pool(module):
    # the package root re-exports nothing, so a decoding-only process never
    # compiles the solver nor loads the sweep's process pool
    heavy = ["stabsearch.solver", "stabsearch.harness", "stabsearch.cli", "multiprocessing"]
    assert loaded_after_import(f"stabsearch.{module}", heavy) == "[]"


def test_sweep_import_loads_no_pool():
    # sample_map imports the pool only for workers > 1, so a serial sweep or a
    # single job never loads it
    assert loaded_after_import("stabsearch.harness, stabsearch.cli", ["multiprocessing"]) == "[]"
