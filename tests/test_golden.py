"""Byte-identical corpus output: `efl --mode M check P --verify
--dump-formula --dump-cert` for every program in `programs/`, both modes.

The expected stdout, stderr and exit code of each run live under
`tests/golden/` as `<program>.<mode>.out`, `<program>.<mode>.err` and one
entry of `exit_codes.json`. Regenerate them, after a deliberate change of
output, with `PYTHONPATH=src python tests/test_golden.py`.
"""
import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from efl.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = ("constrained", "constraint-free")
PROGRAMS = sorted(p.name for p in (ROOT / "programs").glob("*.efl"))
CASES = [(prog, mode) for prog in PROGRAMS for mode in MODES]


def _stem(prog: str, mode: str) -> str:
    return f"{prog[:-len('.efl')]}.{mode}"


def run_case(prog: str, mode: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one check, run from the repo root
    so that paths in messages read `programs/<prog>`."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--mode", mode, "check", f"programs/{prog}",
                         "--verify", "--dump-formula", "--dump-cert"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def test_golden_covers_the_corpus():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(_stem(p, m) for p, m in CASES)


@pytest.mark.parametrize("prog,mode", CASES,
                         ids=[_stem(p, m) for p, m in CASES])
def test_corpus_output_is_byte_identical(prog, mode):
    stem = _stem(prog, mode)
    code, out, err = run_case(prog, mode)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[stem]
    assert out == (GOLDEN / f"{stem}.out").read_text()
    assert err == (GOLDEN / f"{stem}.err").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for prog, mode in CASES:
        stem = _stem(prog, mode)
        codes[stem], out, err = run_case(prog, mode)
        (GOLDEN / f"{stem}.out").write_text(out)
        (GOLDEN / f"{stem}.err").write_text(err)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
