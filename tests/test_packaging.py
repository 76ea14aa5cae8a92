"""The shipped package holds what `efl check`/`efl repl` load, and no more."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import efl

PACKAGE = Path(efl.__file__).resolve().parent

_PROBE = """
import json, sys
import efl.cli
import efl
missing = [n for n in efl.__all__ if not hasattr(efl, n)]
loaded = sorted(m for m in sys.modules if m == "efl" or m.startswith("efl."))
print(json.dumps({"loaded": loaded, "missing": missing}))
"""


def test_cli_import_loads_every_module_and_exports_resolve():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    report = json.loads(out.stdout)
    files = {"efl" if f.stem == "__init__" else f"efl.{f.stem}"
             for f in PACKAGE.glob("*.py")}
    assert set(report["loaded"]) == files
    assert report["missing"] == []


def test_solver_imports_only_formulas_and_names():
    """The SAT engine sees formulas only: of the package it imports
    `formulas` and `names`, nothing else."""
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.add(node.module or "")
            elif node.module and node.module.split(".")[0] == "efl":
                imported.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] for a in node.names
                            if a.name.split(".")[0] == "efl")
    assert imported == {"formulas", "names"}
