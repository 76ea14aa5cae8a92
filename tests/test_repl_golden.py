"""Byte-identical REPL transcripts.

Each script is fed to one `efl repl` session (`cli.Repl`) one line at a
time. Every corpus program gives one script per mode: its lines in order,
blank and comment lines left out, with `:type <body>` asked before each
`let` and `:constraints` at the end. One more script feeds inputs the REPL
must reject. A transcript holds each input as `> line`, then the answer, if
any. Generated names print with their uids, so a change in the order names
are minted shows up here.

The expected transcripts live under `tests/golden/repl/` as
`<script>.<mode>.txt`. Regenerate them, after a deliberate change of
output, with `PYTHONPATH=src python tests/test_repl_golden.py`.
"""
from pathlib import Path

import pytest

from efl.cli import Repl
from efl.inference import Config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "repl"
MODES = ("constrained", "constraint-free")

ERRORS = (
    "effect IO",
    "type Unit",
    "type T",
    "extern u : Unit",
    "extern t0 : T",
    "extern launch : Unit ->[IO] Unit",
    "let = broken",
    "effect IO",
    "effect E junk",
    "type V junk",
    "extern x : T junk",
    "extern y : T ->[_] T",
    "let bad = tfun t => launch u",
    "bad",
    ":type tfun t => launch u",
    ":type u u",
    ":type (",
    ":frobnicate now",
    "u u",
    "tfun t => launch u",
    "let ok = fn (x : Unit) => launch x",
    "let v = u in ok v",
    "let w = ok u junk",
    "ok u",
    ":constraints",
)


def corpus_script(path: Path) -> list[str]:
    script = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("--"):
            continue
        if line.startswith("let "):
            script.append(":type " + line.split("=", 1)[1])
        script.append(line)
    return script + [":constraints"]


SCRIPTS = {p.stem: corpus_script(p)
           for p in sorted((ROOT / "programs").glob("*.efl"))}
SCRIPTS["errors"] = list(ERRORS)
CASES = [(name, mode) for name in SCRIPTS for mode in MODES]


def transcript(script: list[str], mode: str) -> str:
    repl = Repl(Config(mode=mode))
    out = []
    for line in script:
        out.append(f"> {line}\n")
        answer = repl.handle(line)
        if answer is not None:
            out.append(answer + "\n")
    return "".join(out)


def test_golden_covers_every_script():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        f"{name}.{mode}.txt" for name, mode in CASES)


@pytest.mark.parametrize("name,mode", CASES,
                         ids=[f"{n}.{m}" for n, m in CASES])
def test_repl_transcript_is_byte_identical(name, mode):
    want = (GOLDEN / f"{name}.{mode}.txt").read_text()
    assert transcript(SCRIPTS[name], mode) == want


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, mode in CASES:
        (GOLDEN / f"{name}.{mode}.txt").write_text(
            transcript(SCRIPTS[name], mode))


if __name__ == "__main__":
    regenerate()
