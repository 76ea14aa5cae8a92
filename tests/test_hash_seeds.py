"""Corpus output and REPL transcripts do not depend on string hash values.

Each case runs `tests/test_golden.py` and `tests/test_repl_golden.py` in a
fresh interpreter under a fixed `PYTHONHASHSEED`, so every set and dict of
names iterates in another order than in the test process itself, and
requires all of their cases to pass.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES
from test_repl_golden import CASES as REPL_CASES

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_golden_output_under_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_golden.py"), str(TESTS / "test_repl_golden.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    # Every case and both coverage checks ran, and none was skipped.
    want = len(CASES) + 1 + len(REPL_CASES) + 1
    assert re.search(rf"\b{want} passed\b", run.stdout), run.stdout
    assert "skipped" not in run.stdout
