"""CI's end-to-end checks, .github/ci_checks.py, read rather than run:
each takes seconds to minutes, and the workflow runs one per step."""

import ast
import re
from pathlib import Path

from helpers import imported_modules

GITHUB = Path(__file__).resolve().parents[1] / ".github"
MODULE = GITHUB / "ci_checks.py"


def test_ci_checks_import_nothing_from_the_library():
    # they run the command line and check it against perfbench/reference.py
    imported = imported_modules(MODULE)
    assert "reference" in imported
    assert not [name for name in imported if name.split(".")[0] == "statecomp"]


def test_workflow_runs_each_check_the_module_defines():
    tree = ast.parse(MODULE.read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    (checks,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CHECKS"
    ]
    defined = [name.id for name in checks.elts]
    assert set(defined) <= functions
    workflow = (GITHUB / "workflows" / "tier1.yml").read_text()
    steps = re.findall(r"^ +run: python \.github/ci_checks\.py (\w+)$", workflow, re.M)
    assert steps == defined
