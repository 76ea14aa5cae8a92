"""Command line driver: batch checking, flags, exit codes, and the REPL."""
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from efl.cli import Repl, main
from efl.formulas import conj2
from efl.inference import Config
from efl.names import Name, NameSupply
from efl.solver import SolverSession
from efl.syntax import Parser
from helpers import (cf_grid_source, nest_source, sat, spine_source,
                     wild_nest_source)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
ALL_PROGRAMS = sorted(PROGRAMS.glob("*.efl"))

OK_PROGRAMS = [p for p in ALL_PROGRAMS
               if p.name not in ("purity_violation.efl",
                                 "g_example_surface.efl")]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_programs_directory_is_populated():
    assert len(ALL_PROGRAMS) >= 8


@pytest.mark.parametrize("path", OK_PROGRAMS, ids=lambda p: p.stem)
def test_check_accepts_fixture(capsys, path):
    code, out, err = _run(capsys, "check", str(path))
    assert code == 0, err
    assert err == ""
    # one line per definition plus one for the final expression, if any
    assert all(" : " in line for line in out.splitlines())


def test_check_reports_unsat_with_exit_1(capsys):
    code, out, err = _run(capsys, "check",
                          str(PROGRAMS / "purity_violation.efl"))
    assert code == 1
    assert "error: effect constraints unsatisfiable in the final " \
           "expression" in err


def test_check_reports_shape_error_with_exit_1(capsys):
    code, out, err = _run(capsys, "check",
                          str(PROGRAMS / "g_example_surface.efl"))
    assert code == 1
    assert "error: in definition 'g': applied a non-function" in err


def test_check_missing_file_is_exit_2(capsys, tmp_path):
    code, out, err = _run(capsys, "check", str(tmp_path / "nope.efl"))
    assert code == 2
    assert "error: cannot read" in err


def test_check_non_utf8_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "latin1.efl"
    bad.write_bytes("effect IO\n-- caf\xe9\n".encode("latin-1"))
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in err


def test_check_accepts_a_byte_order_mark(capsys, tmp_path):
    path = PROGRAMS / "g_example.efl"
    bom = tmp_path / "bom.efl"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    want = _run(capsys, "check", "--verify", str(path))
    assert want[0] == 0
    assert _run(capsys, "check", "--verify", str(bom)) == want
    bad = tmp_path / "bom_latin1.efl"
    bad.write_bytes(b"\xef\xbb\xbf" + "-- caf\xe9\n".encode("latin-1"))
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")


def test_check_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.efl"
    bad.write_text("effect IO\nlet = broken\n")
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert str(bad) in err and "error:" in err


def test_check_verify_prints_confirmation(capsys):
    code, out, err = _run(capsys, "check", "--verify",
                          str(PROGRAMS / "identity.efl"))
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "certificates: verified"


def test_check_verify_every_fixture(capsys):
    for path in OK_PROGRAMS:
        code, out, err = _run(capsys, "check", "--verify", str(path))
        assert code == 0, (path.name, err)
        assert "certificates: verified" in out


def test_check_verify_passes_lets_nested_900_deep(capsys, tmp_path):
    """Each `let … in` level costs the parser one frame, so this depth stays
    below the recursion limit through checking and replay."""
    src = tmp_path / "lets.efl"
    src.write_text("type Unit\nextern u : Unit\n" + "let a = u in " * 900
                   + "a\n")
    code, out, _ = _run(capsys, "check", "--verify", str(src))
    assert code == 0
    assert out.endswith("certificates: verified\n")


def test_check_verify_passes_nest_400_deep(capsys, tmp_path):
    """The parser reads parenthesised applications in a loop, so
    f (f (... x)) 400 deep parses, checks and replays."""
    src = tmp_path / "nest.efl"
    src.write_text(nest_source(400))
    code, out, err = _run(capsys, "check", "--verify", str(src))
    assert (code, err) == (0, "")
    assert out == "r : Int ->[IO] Int\ncertificates: verified\n"


@pytest.mark.parametrize("source,flags", [(nest_source(1000), ()),
                                          (spine_source(800), ("--verify",))],
                         ids=["nest-1000", "spine-800-verify"])
def test_check_too_deep_is_exit_3_without_traceback(tmp_path, source,
                                                    flags):
    """A program deeper than the checker's recursion reaches (inference
    for nest×1000, certificate replay for spine×800) is reported in one
    line with exit code 3, in a fresh process at the default limit."""
    src = tmp_path / "deep.efl"
    src.write_text(source)
    run = _fresh_efl("check", *flags, str(src))
    assert run.returncode == 3
    assert run.stderr == f"error: {src}: program nested too deeply\n"


def _fresh_efl(*argv, stdin=None):
    """`python -m efl.cli` in a fresh process, at the default recursion
    limit."""
    env = dict(os.environ, PYTHONPATH=str(PROGRAMS.parent / "src"))
    return subprocess.run([sys.executable, "-m", "efl.cli", *argv], env=env,
                          input=stdin, capture_output=True, text=True,
                          timeout=120)


def test_check_verify_passes_a_wildcard_nest_450_deep(tmp_path):
    """Substituting into and replaying the certificate of g (g (... x)),
    with g's arrow effect a wildcard, costs one frame per level: a
    comprehension around the recursive call would add one more and fail
    well below this depth."""
    src = tmp_path / "wild.efl"
    src.write_text(wild_nest_source(450))
    run = _fresh_efl("check", "--verify", str(src))
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.endswith("certificates: verified\n")


def test_repl_answers_a_too_deep_input_and_goes_on():
    """An input deeper than the checker's recursion reaches gets one error
    line; the session keeps what it had and answers the inputs after it."""
    stdin = (nest_source(1000) + "effect DB\n"
             + "let k = fn (x : Int) => f x\n")
    run = _fresh_efl("repl", stdin=stdin)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        "effect IO", "type Int", "f : Int ->[IO] Int",
        "error: input nested too deeply", "effect DB", "k : Int ->[IO] Int"]


def test_check_accepts_a_join_of_1500_atoms(capsys, tmp_path):
    """Surface joins are walked with an explicit stack, so an annotation's
    length does not meet the recursion limit."""
    wide = " \\/ ".join(["E"] * 1500)
    src = tmp_path / "wide.efl"
    src.write_text(f"effect E\ntype Unit\nextern k : Unit ->[{wide}] Unit\n"
                   f"let f = fn (h : Unit ->[{wide}] Unit) => h\n"
                   f"f k\n")
    code, out, err = _run(capsys, "check", "--verify", str(src))
    assert (code, err) == (0, "")
    assert out == ("f : (Unit ->[E] Unit) ->[] Unit ->[E] Unit\n"
                   "it : Unit ->[E] Unit @ []\ncertificates: verified\n")


def test_check_dump_formula(capsys):
    code, out, err = _run(capsys, "check", "--dump-formula",
                          str(PROGRAMS / "identity.efl"))
    assert code == 0
    assert any(line.startswith("formula: ") for line in out.splitlines())


def test_check_dump_cert(capsys):
    code, out, err = _run(capsys, "check", "--dump-cert",
                          str(PROGRAMS / "g_example.efl"))
    assert code == 0
    assert any(line.startswith("cert g: (")
               for line in out.splitlines())
    # a program with a final expression also dumps its certificate
    code, out, err = _run(capsys, "check", "--dump-cert",
                          str(PROGRAMS / "quantifiers.efl"))
    assert code == 0
    assert any(line.startswith("cert it: (")
               for line in out.splitlines())


def test_check_dump_cert_prints_a_spine_of_400_arguments(capsys, tmp_path):
    """Certificates and types print by explicit-stack walks, so a spine as
    deep as the one replay passes also dumps its certificate."""
    src = tmp_path / "spine.efl"
    src.write_text(spine_source(400))
    code, out, err = _run(capsys, "check", "--dump-cert", str(src))
    assert (code, err) == (0, "")
    assert out.count("(app ") == 400
    assert out.startswith("it : Unit @ []\ncert it: (app ")
    assert f"(sub {' ->[] '.join(['Unit'] * 401)} [pure] (var {{}}))" in out


def test_check_no_simplify_keeps_redundant_constraints(capsys):
    plain = _run(capsys, "check", str(PROGRAMS / "g_example.efl"))
    raw = _run(capsys, "check", "--no-simplify",
               str(PROGRAMS / "g_example.efl"))
    assert plain[0] == raw[0] == 0
    assert plain[1] != raw[1]
    assert len(raw[1]) > len(plain[1])


def test_check_constraint_free_mode(capsys):
    for name in ("cf_equal_vars.efl", "cf_k_join.efl", "identity.efl"):
        code, out, err = _run(capsys, "--mode", "constraint-free", "check",
                              "--verify", str(PROGRAMS / name))
        assert code == 0, (name, err)


# stdout of `--mode constraint-free check --verify --dump-formula
# --dump-cert` on each 2^11-variable grid, as the checker printed it when
# the grid was built by one join per grid variable
GRID_SHA256 = {
    (5, False):
        "a81fee95e9e51068b6ebdcf6fb4b32929d3f0b88f24e5e8b7ccabcc148b1fec9",
    (8, True):
        "0f14b3f49284d2cfa5a601e3888161f79c7d96cba611586450d4ab24ae82e3db",
}


@pytest.mark.parametrize("k,constrained", sorted(GRID_SHA256),
                         ids=["no-constraint", "constrained"])
def test_constraint_free_grid_output_and_work(capsys, tmp_path, monkeypatch,
                                              k, constrained):
    """A 2^11-variable grid prints what it always printed, and the work of
    building it stays about linear: counted `Name` calls, not wall time.
    A grid rebuilt per grid variable makes millions of `Name.KEY` calls; a
    projection that scans each constraint once per guard it reads, millions
    of `Name.__eq__` calls."""
    path = tmp_path / "grid.efl"
    path.write_text(cf_grid_source(k, constrained))
    calls = {"key": 0, "eq": 0}

    def counted(attr, method):
        def wrapper(*args):
            calls[attr] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(Name, "KEY", counted("key", Name.KEY))
    monkeypatch.setattr(Name, "__eq__", counted("eq", Name.__eq__))
    code, out, err = _run(capsys, "--mode", "constraint-free", "check",
                          "--verify", "--dump-formula", "--dump-cert",
                          str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GRID_SHA256[k, constrained]
    assert calls["key"] < 200_000
    if constrained:
        assert calls["eq"] < 10_000


def test_check_is_deterministic(capsys):
    for path in ALL_PROGRAMS:
        first = _run(capsys, "check", str(path))
        second = _run(capsys, "check", str(path))
        assert first == second, path.name


def _in_process(capsys, argv):
    """(exit code, raised SystemExit?, stdout, stderr) of `main(argv)`."""
    try:
        code, raised = main(list(argv)), False
    except SystemExit as ex:
        code, raised = ex.code, True
    captured = capsys.readouterr()
    return code, raised, captured.out, captured.err


def test_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    """The argument parser is shared by every `main` call in a process: no
    option of one call reaches the next, and usage errors still exit 2
    through SystemExit with the usage on stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHONPATH", str(PROGRAMS.parent / "src"))
    g, cf = str(PROGRAMS / "g_example.efl"), str(PROGRAMS / "cf_k_join.efl")
    bad = str(PROGRAMS / "purity_violation.efl")
    usage_errors = [(), ("check",), ("--mode", "bad", "check", g)]
    calls = [
        ("--mode", "constraint-free", "check", "--verify", cf),
        (),
        ("--mode", "constrained", "check", "--dump-formula", g),
        ("check", cf),
        ("--mode", "constraint-free", "check", "--dump-cert", g),
        ("check",),
        ("check", "--no-simplify", g),
        ("--mode", "bad", "check", g),
        ("check", "--verify", "--dump-cert", bad),
        ("check", g),
        ("--mode", "constraint-free", "check", g),
    ]
    for argv in calls:
        got = _in_process(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "efl.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        assert got[0] == fresh.returncode, argv
        assert got[1] == (argv in usage_errors), argv
        assert (got[2], got[3]) == (fresh.stdout, fresh.stderr), argv
        if got[1]:
            assert got[0] == 2 and got[3].startswith("usage: efl"), argv


def test_readme_example_is_the_corpus_file_and_its_output():
    readme = (PROGRAMS.parent / "README.md").read_text()
    label = "```\n-- programs/call_now_or_later.efl\n"
    start = readme.index(label) + len(label)
    block = readme[start:readme.index("```", start)]
    assert block == (PROGRAMS / "call_now_or_later.efl").read_text()
    shown = readme.split("$ efl check programs/call_now_or_later.efl\n")[1]
    golden = PROGRAMS.parent / "tests" / "golden"
    expected = (golden / "call_now_or_later.constrained.out").read_text()
    assert shown.splitlines()[0] == expected.splitlines()[0]


# -- the repl ------------------------------------------------------------------


def test_repl_declarations_echo():
    repl = Repl(Config())
    assert repl.handle("effect IO") == "effect IO"
    assert repl.handle("type Unit") == "type Unit"
    assert repl.handle("extern u : Unit") == "u : Unit"
    assert repl.handle("extern launch : Unit ->[IO] Unit") == \
        "launch : Unit ->[IO] Unit"
    assert repl.handle("") is None
    assert repl.handle("   ") is None


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
def test_repl_ignores_comment_lines(mode):
    """Fed with its comments, each corpus program gets None for every
    comment line and, for every other line, the answer it gets without
    them."""
    for path in ALL_PROGRAMS:
        lines = path.read_text().splitlines() + ["  -- indented", "--"]
        with_comments = Repl(Config(mode=mode))
        without = Repl(Config(mode=mode))
        for line in lines:
            got = with_comments.handle(line)
            if line.lstrip().startswith("--"):
                assert got is None, (path.name, line)
            else:
                assert got == without.handle(line), (path.name, line)


def test_repl_definitions_and_expressions():
    repl = Repl(Config())
    for line in ("effect IO", "type Unit", "extern u : Unit",
                 "extern launch : Unit ->[IO] Unit"):
        repl.handle(line)
    out = repl.handle("let go = fn (x : Unit) => launch x")
    assert out == "go : Unit ->[IO] Unit"
    assert repl.handle("go u") == "it : Unit @ [IO]"
    assert repl.handle("u") == "it : Unit @ []"


def test_repl_type_query_does_not_extend_environment():
    repl = Repl(Config())
    for line in ("effect IO", "type Unit", "extern u : Unit"):
        repl.handle(line)
    assert repl.handle(":type u") == "Unit @ []"
    assert repl.handle(":type fn (x : Unit) => x") == "Unit ->[] Unit @ []"
    assert repl.handle(":type v").startswith("parse error:")


def test_repl_constraints_listing():
    repl = Repl(Config())
    for line in ("effect IO", "type Unit",
                 "extern launch : Unit ->[IO] Unit",
                 "extern weaken : forall eff h. (Unit ->[h] Unit) ->[] "
                 "(Unit ->[h] Unit)"):
        repl.handle(line)
    assert repl.handle(":constraints") == "(no constraints)"
    out = repl.handle("let w = (weaken [eff _]) launch")
    assert out.startswith("w : ")
    listing = repl.handle(":constraints")
    assert "IO <:" in listing


def test_repl_unknown_command():
    repl = Repl(Config())
    assert repl.handle(":frobnicate now") == \
        "error: unknown command ':frobnicate'"


def test_repl_type_command_is_a_whole_word():
    repl = Repl(Config())
    for line in ("type Unit", "extern u : Unit"):
        repl.handle(line)
    assert repl.handle(":type u") == "Unit @ []"
    assert repl.handle(":type\tu") == "Unit @ []"
    assert repl.handle(":typeu") == "error: unknown command ':typeu'"
    assert repl.handle(":types") == "error: unknown command ':types'"


def test_repl_reports_a_bad_character_as_a_parse_error():
    repl = Repl(Config())
    for line in ("type Unit", "extern u : Unit"):
        repl.handle(line)
    assert repl.handle("u > u") == \
        "parse error: line 1, col 3: unexpected character '>'"
    out = repl.handle(":type u > u")
    assert out.startswith("parse error: ")
    assert out.endswith("unexpected character '>'")
    assert repl.handle("u") == "it : Unit @ []"


def test_repl_error_columns_count_from_the_start_of_the_line():
    repl = Repl(Config())
    for line in ("type Unit", "extern u : Unit"):
        repl.handle(line)
    unbound = "parse error: line 1, col {}: unbound variable 'zz'"
    assert repl.handle(":type   zz") == unbound.format(9)
    assert repl.handle("  zz") == unbound.format(3)
    assert repl.handle("  :type zz\n") == unbound.format(9)
    assert repl.handle("\tlet w = zz") == unbound.format(10)
    assert repl.handle(" :type u > u") == \
        "parse error: line 1, col 10: unexpected character '>'"


def test_repl_let_in_mints_each_binder_once(monkeypatch):
    """A `let … in` input binds the names parse_expr binds on its text."""
    src = "let w = fn (x : Unit) => fn (y : Unit) => x in w u u"
    repl = Repl(Config())
    for line in ("type Unit", "extern u : Unit"):
        repl.handle(line)
    bound = []
    bind = Parser.bind

    def recording_bind(parser, kind, tok):
        bound.append(tok.text)
        return bind(parser, kind, tok)
    monkeypatch.setattr(Parser, "bind", recording_bind)
    Parser(src, NameSupply(), repl.scope).parse_expr()
    by_parse_expr, bound[:] = bound[:], []
    assert repl.handle(src) == "it : Unit @ []"
    assert bound == by_parse_expr == ["x", "y", "w"]


def test_repl_quit_raises_eof():
    repl = Repl(Config())
    with pytest.raises(EOFError):
        repl.handle(":q")
    with pytest.raises(EOFError):
        repl.handle(":quit")


def test_repl_rejected_definition_leaves_environment_clean():
    repl = Repl(Config())
    for line in ("effect IO", "type Unit", "extern u : Unit",
                 "extern launch : Unit ->[IO] Unit"):
        repl.handle(line)
    assert repl.handle("let ok = fn (x : Unit) => launch x").startswith(
        "ok : ")
    out = repl.handle("let bad = tfun t => launch u")
    assert out == "error: effect constraints unsatisfiable; input rejected"
    # the rejected name was not adopted ...
    assert repl.handle("bad").startswith("parse error:")
    # ... and the session keeps working with earlier definitions
    assert repl.handle("ok u") == "it : Unit @ [IO]"


def test_repl_rejected_expression_keeps_session_usable():
    repl = Repl(Config())
    for line in ("effect IO", "type Unit", "extern u : Unit",
                 "extern launch : Unit ->[IO] Unit"):
        repl.handle(line)
    bad = repl.handle("tfun t => launch u")
    assert bad == "error: effect constraints unsatisfiable; input rejected"
    assert repl.handle("launch u") == "it : Unit @ [IO]"


def test_repl_infer_error_is_reported_inline():
    repl = Repl(Config())
    for line in ("type Unit", "extern u : Unit"):
        repl.handle(line)
    assert repl.handle("u u").startswith("error: applied a non-function")


def test_repl_command_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "effect IO\ntype Unit\nextern u : Unit\nu\n:q\nu\n"))
    code = main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["effect IO", "type Unit", "u : Unit",
                                "it : Unit @ []"]


class SatCheckedSession(SolverSession):
    """A session whose every satisfiability verdict is checked against the
    earlier REPL design: the session formula and the query re-encoded into
    a fresh solver."""

    def __init__(self):
        super().__init__()
        self.verdicts = []

    def admits(self, phi):
        got = super().admits(phi)
        assert got == (sat(conj2(self.formula, phi)) is not None)
        self.verdicts.append(got)
        return got


def _checked_repl(mode="constrained"):
    repl = Repl(Config(mode=mode))
    repl.top.session = SatCheckedSession()
    return repl


def test_repl_type_answers_agree_with_fresh_solver():
    repl = _checked_repl()
    outs = [repl.handle(line) for line in (
        "effect IO", "type Unit", "extern u : Unit",
        "extern launch : Unit ->[IO] Unit",
        ":type launch u",
        "let ok = fn (x : Unit) => launch x",
        "let bad = tfun t => launch u",
        ":type ok u",
        ":type tfun t => launch u",
        "tfun t => launch u",
        ":type fn (x : Unit) => ok x",
        "ok u")]
    assert outs[4:] == [
        "Unit @ [IO]", "ok : Unit ->[IO] Unit",
        "error: effect constraints unsatisfiable; input rejected",
        "Unit @ [IO]", "error: effect constraints unsatisfiable",
        "error: effect constraints unsatisfiable; input rejected",
        "Unit ->[IO] Unit @ []", "it : Unit @ [IO]"]
    assert repl.top.session.verdicts == [True, True, False, True, False,
                                         False, True, True]


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
@pytest.mark.parametrize("path", ALL_PROGRAMS, ids=lambda p: p.stem)
def test_repl_type_of_each_corpus_body_agrees_with_fresh_solver(path, mode):
    """`:type` of each definition body and expression, asked before the
    input itself, gets the verdict a fresh solver gives; so does the
    input, accepted or rejected."""
    repl = _checked_repl(mode)
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("--"):
            continue
        if line.startswith("let "):
            repl.handle(":type " + line.split("=", 1)[1])
        elif not line.startswith(("effect ", "type ", "extern ")):
            repl.handle(":type " + line)
        repl.handle(line)


# -- batch/REPL agreement ----------------------------------------------------


def _canon(text: str, table: dict) -> str:
    """Replace machine-chosen e<uid>/p<uid> tokens positionally."""
    def sub(match):
        token = match.group(0)
        if token not in table:
            table[token] = f"{token[0].upper()}{len(table)}"
        return table[token]

    return re.sub(r"\b[ep]\d+\b", sub, text)


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
@pytest.mark.parametrize("path", ALL_PROGRAMS, ids=lambda p: p.stem)
def test_repl_agrees_with_batch_checking(capsys, path, mode):
    source_lines = [ln for ln in path.read_text().splitlines()
                    if ln.strip() and not ln.strip().startswith("--")]
    code, out, err = _run(capsys, "--mode", mode, "check", str(path))

    repl = Repl(Config(mode=mode))
    repl_outputs = []
    rejected = False
    for line in source_lines:
        got = repl.handle(line)
        repl_outputs.append(got)
        if got is not None and got.startswith(("error", "parse error")):
            rejected = True

    if code == 0:
        assert not rejected, (path.name, repl_outputs)
    else:
        assert rejected, (path.name, err)

    # every definition/main line the batch checker accepted must come out
    # of the REPL with the same text, up to generated variable names
    batch_lines = out.splitlines()
    repl_reported = [got for line, got in zip(source_lines, repl_outputs)
                     if got is not None
                     and (line.startswith("let ")
                          or not line.startswith(("effect ", "type ",
                                                  "extern ")))
                     and not got.startswith(("error", "parse error"))]
    t1, t2 = {}, {}
    canon_batch = [_canon(line, t1) for line in batch_lines]
    canon_repl = [_canon(line, t2) for line in repl_reported]
    assert canon_repl == canon_batch[:len(canon_repl)], path.name
    if code == 0:
        assert canon_repl == canon_batch
