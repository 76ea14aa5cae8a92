"""The project's pytest settings let a failing property test report.

`filterwarnings = ["error"]` turns every warning into an error. Hypothesis
warns with a `DeprecationWarning` from `mypy_extensions` while it reports
a failure, so without the matching ignore a failing `@given` test ended
the session with an internal error (exit code 3) and no falsifying
example, and the tests collected after it never ran.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 5


def test_after():
    pass
"""


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
