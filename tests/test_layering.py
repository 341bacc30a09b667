"""Module seams: the stages downstream of the solver do not depend on it."""

import ast
from pathlib import Path

import pytest

import stabsearch

SRC = Path(stabsearch.__file__).parent


@pytest.mark.parametrize("module", ["css", "cnf"])
def test_module_does_not_import_the_solver(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {".solver", "stabsearch.solver"} & imported, imported
