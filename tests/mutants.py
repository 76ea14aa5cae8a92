"""A standing list of one-line mutants of the contract code.

Each entry of MUTANTS maps a name to `(file, old, new, killing test)`: the
file, relative to the repository root, in which the text `old` occurs
exactly once; the text that replaces it; and the pytest node id of the test
expected to fail on the mutant.

Run `python tests/mutants.py [NAME ...]` from anywhere. For each mutant it
copies the repository into a temporary directory, applies the replacement,
runs the named test, and, if that passes, the whole suite with `-x`. It
prints one row per mutant: killed by the named test, killed by another
test, or survived. Every listed mutant is killed when it is added; a
survivor is a blind check to report. A killed mutant costs one run of its
named test; a survivor costs a run of the whole suite.

Pytest does not collect this file. `test_packaging.py` checks that every
`old` still occurs exactly once, so that the list cannot rot unseen.
"""
from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DRIVER = "src/efl/driver.py"
DECLARATIVE = "src/efl/declarative.py"
MEANS = "tests/test_display.py::test_printed_scheme_means_the_stored_one"
WORDS = ("tests/test_display.py::"
         "test_display_letters_avoid_exactly_the_printed_words")
TAMPERED = "tests/test_replay.py::test_tampered_certificates_fail_alike"

MUTANTS: dict[str, tuple[str, str, str, str]] = {
    # The displayed scheme must mean the stored one (ROADMAP item 10)
    "simplify-drops-every-constraint": (
        DRIVER, "    return frozenset(out)\n", "    return frozenset()\n",
        MEANS),
    "simplify-drops-the-first-kept": (
        DRIVER, "    for c in kept:\n", "    for c in kept[1:]:\n", MEANS),
    "simplify-merges-guards-by-and": (
        DRIVER,
        "groups[key] = disj2(groups[key], psi) if key in groups else psi",
        "groups[key] = conj2(groups[key], psi) if key in groups else psi",
        MEANS),
    # Display letters avoid the words of the printed scheme
    "display-reads-no-words": (
        DRIVER,
        "    used_texts = set(_WORD.findall(str(Scheme((), omega, s.body))))",
        "    used_texts = set(_WORD.findall(\"\"))", WORDS),
    "display-words-split-at-primes": (
        DRIVER, "_WORD = re.compile(r\"[\\w']+\")",
        "_WORD = re.compile(r\"\\w+\")", WORDS),
    "display-words-of-the-body-only": (
        DRIVER, "set(_WORD.findall(str(Scheme((), omega, s.body))))",
        "set(_WORD.findall(str(s.body)))", WORDS),
    # Each rejection of check_certificate that inference never triggers
    # (ROADMAP item 9), seen on tampered certificates of the corpus and
    # the families
    "R1-let-bound-purity": (
        DECLARATIVE, "        if not e1.is_pure():", "        if False:",
        TAMPERED),
    "R2-abstraction-body-purity": (
        DECLARATIVE, "        if not e_body.is_pure():",
        "        if False:", TAMPERED),
    "R7-tapp-annotation": (
        DECLARATIVE, "        if not match_type(expr.arg, cert.arg, rho):",
        "        if False:", TAMPERED),
    "R8-let-bound-type": (
        DECLARATIVE, "        if t1 != scheme.body:", "        if False:",
        TAMPERED),
    "R11-app-argument-type": (
        DECLARATIVE, "        if t_fn.param != t_arg:", "        if False:",
        TAMPERED),
    "R13-eapp-annotation": (
        DECLARATIVE, "    if not match_effect(expr.arg, cert.arg, rho):",
        "    if False:", TAMPERED),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", "out", ".work-*")


def _pytest(cwd: Path, *args: str) -> tuple[int, str]:
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                          "-p", "no:cacheprovider", *args],
                         cwd=cwd, capture_output=True, text=True)
    return run.returncode, run.stdout


def _first_failure(output: str) -> str:
    found = re.search(r"^FAILED (\S+)", output, re.MULTILINE)
    return found.group(1) if found else "?"


def run(name: str) -> str:
    """Apply one mutant to a fresh copy of the repository; the verdict."""
    file, old, new, test = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        path = copy / file
        text = path.read_text()
        if text.count(old) != 1:
            return "not applied: `old` does not occur exactly once"
        path.write_text(text.replace(old, new))
        code, out = _pytest(copy, test)
        if code == 1:
            return "killed by the named test"
        if code != 0:
            return f"error: pytest exited {code} on the named test"
        code, out = _pytest(copy)
        if code == 1:
            return f"killed by {_first_failure(out)}"
        return "survived" if code == 0 else f"error: pytest exited {code}"


def main(names: list[str]) -> int:
    rows = [(name, run(name)) for name in names or MUTANTS]
    width = max(len(name) for name, _ in rows)
    print(f"{'mutant':<{width}}  verdict")
    for name, verdict in rows:
        print(f"{name:<{width}}  {verdict}")
    return 0 if all(v.startswith("killed") for _, v in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
