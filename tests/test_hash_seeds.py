"""Corpus output does not depend on string hash values.

Each case runs `tests/test_golden.py` in a fresh interpreter under a fixed
`PYTHONHASHSEED`, so every set and dict of names iterates in another order
than in the test process itself, and requires all of its cases to pass.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES

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
         str(TESTS / "test_golden.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    # Every corpus case and the coverage check ran, and none was skipped.
    assert re.search(rf"\b{len(CASES) + 1} passed\b", run.stdout), run.stdout
    assert "skipped" not in run.stdout
