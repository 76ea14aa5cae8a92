"""Lexing, parsing, scope resolution and pretty-printing."""
import pytest
from hypothesis import given, settings, strategies as st

from efl.names import KIND_EFF, NameSupply
from efl.syntax import (App, Lam, Parser, SForallEff, SourceError,
                        parse_program)
from helpers import SOURCES, chain_source, g_example_source, tokenize
from oracles import gen_program, tokenize_chars

PRELUDE = """effect IO
effect DB
type Unit
extern f : forall eff a. Unit ->[a] Unit
extern g : forall typ t. t ->[] t
extern u : Unit
"""


def _parse(body: str):
    return parse_program(PRELUDE + body + "\n", NameSupply())


def test_tokenize_kinds_and_positions():
    toks = tokenize("let f' = fn (x : Int) => x -- note\n[eff _]")
    assert [(t.kind, t.text) for t in toks[:4]] == [
        ("kw", "let"), ("ident", "f'"), ("=", "="), ("kw", "fn")]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[1].text == "f'"          # primes stay part of the name
    texts = [t.text for t in toks]
    assert "note" not in texts           # comments are skipped
    bracket = next(t for t in toks if t.kind == "[")
    assert (bracket.line, bracket.col) == (2, 1)
    assert toks[-1].kind == "eof"


def test_tokenize_error_position():
    with pytest.raises(SourceError) as exc:
        tokenize("let x = $")
    assert str(exc.value) == "line 1, col 9: unexpected character '$'"
    assert exc.value.line == 1 and exc.value.col == 9


def _lexed(lex, src: str):
    """The (kind, text, line, col) stream of src, or its error and place."""
    try:
        return [tuple(t) for t in lex(src)]
    except SourceError as e:
        return ("error", str(e), e.line, e.col)


def _depths(toks) -> list[int]:
    out, d = [], 0
    for kind, _, _, _ in toks:
        out.append(d)
        d += (kind in ("(", "[")) - (kind in (")", "]"))
    return out


def _assert_lexes_like_the_oracle(src: str) -> None:
    want = _lexed(tokenize_chars, src)
    assert _lexed(tokenize, src) == want
    if want[0] != "error":
        assert Parser(src, NameSupply()).depth == _depths(want)


def test_tokenize_agrees_with_the_character_lexer_on_programs():
    sources = ([src for _, src in SOURCES]
               + [g_example_source(40), chain_source(12)]
               + [gen_program(seed, mode=mode) for seed in range(40)
                  for mode in ("constrained", "constraint-free")])
    for src in sources:
        _assert_lexes_like_the_oracle(src)
        # Cut short: the eof token after a comment, a bare '-' or '\\'.
        for cut in range(0, len(src), max(1, len(src) // 25)):
            _assert_lexes_like_the_oracle(src[:cut])


_PIECES = ["let", "in", "fn", "x", "x'", "_x", "f_1", "é", "½", "٣", "x½",
           "é٣", "Ⅻ", "²", "(", ")", "[", "]", "=>", "->", "=", ">", "-",
           "--", "\\/", "\\", "/", ":", ".", "_", " ", "\t", "\r", "\n",
           "\r\n", "$", "\f", "\u00a0"]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES) | st.characters(), max_size=30))
def test_tokenize_agrees_with_the_character_lexer_on_strings(pieces):
    _assert_lexes_like_the_oracle("".join(pieces))


@pytest.mark.parametrize("src,want", [
    ("½", "line 1, col 1: unexpected character '½'"),
    ("x ½y", "line 1, col 3: unexpected character '½'"),
    ("a\n  ٣", "line 2, col 3: unexpected character '٣'"),
    ("x½ é٣ _x", ["x½", "é٣", "_", "x", ""]),
])
def test_words_start_only_at_letters(src, want):
    """A word starts at a letter; numeric characters such as '½' and '٣'
    may only continue it. `want` is the error, or the token texts."""
    if isinstance(want, list):
        assert [t.text for t in tokenize(src)] == want
        return
    with pytest.raises(SourceError) as exc:
        tokenize(src)
    assert str(exc.value) == want


def test_eof_after_a_trailing_comment_sits_at_the_comment():
    assert tuple(tokenize("x  -- done")[-1]) == ("eof", "", 1, 4)


def test_guard_syntax_is_output_only():
    with pytest.raises(SourceError):
        tokenize("Unit ->[a ? p] Unit")


@pytest.mark.parametrize("tsrc", [
    "Unit",
    "Unit ->[] Unit",
    "Unit ->[IO \\/ DB] Unit",
    "(Unit ->[IO] Unit) ->[] Unit",
    "forall eff a. Unit ->[a] Unit",
    "forall typ t. t ->[] t",
    "forall eff a. forall eff b. Unit ->[a \\/ b] Unit",
])
def test_type_rendering_round_trips(tsrc):
    prog = _parse(f"extern w : {tsrc}\nu")
    rendered = str(prog.externs[-1][1])
    assert rendered == tsrc
    again = _parse(f"extern w : {rendered}\nu")
    assert str(again.externs[-1][1]) == rendered


@pytest.mark.parametrize("esrc", [
    "f [eff IO] u",
    "g [type Unit] u",
    "fn (x : Unit) => x",
    "let w = u in w",
    "efun e => fn (x : Unit ->[e] Unit) => x u",
    "tfun t => fn (x : t) => x",
])
def test_expr_rendering_round_trips(esrc):
    prog = _parse(esrc)
    rendered = str(prog.main)
    again = _parse(rendered)
    assert str(again.main) == rendered


def test_application_is_left_associative():
    prog = _parse("extern two : Unit ->[] Unit ->[] Unit\ntwo u u")
    main = prog.main
    assert isinstance(main, App) and isinstance(main.fn, App)
    assert str(main) == "two u u"


def test_instantiation_binds_like_an_atom():
    bare = _parse("f [eff IO] u")
    parened = _parse("(f [eff IO]) u")
    assert str(bare.main) == str(parened.main) == "f [eff IO] u"
    assert isinstance(bare.main, App)


def test_application_stops_at_line_break():
    prog = _parse("extern a : Unit ->[] Unit\nlet r = a\nu")
    assert str(prog.defs[-1][1]) == "a"
    assert str(prog.main) == "u"


def test_application_continues_inside_brackets():
    prog = _parse("extern a : Unit ->[] Unit\nlet r = (a\nu)\nr")
    assert str(prog.defs[-1][1]) == "a u"


def test_lambda_body_extends_right():
    prog = _parse("fn (x : Unit) => f [eff IO] x")
    assert isinstance(prog.main, Lam)
    assert str(prog.main) == "fn (x : Unit) => f [eff IO] x"


def test_let_in_is_an_expression():
    prog = _parse("let w = u in f [eff IO] w")
    assert str(prog.main) == "let w = u in f [eff IO] w"


def test_duplicate_declarations_rejected():
    with pytest.raises(SourceError, match="duplicate declaration of 'IO'"):
        parse_program("effect IO\neffect IO\ntype Unit\nextern u : Unit\nu\n",
                      NameSupply())
    with pytest.raises(SourceError, match="duplicate declaration of 'u'"):
        _parse("extern u : Unit\nu")


def test_toplevel_let_may_shadow():
    prog = _parse("let u = f [eff IO] u\nlet u = u\nu")
    assert len(prog.defs) == 2
    # the second definition's body refers to the first, not to itself
    first_name = prog.defs[0][0]
    assert str(prog.defs[1][1]) == "u"
    assert prog.defs[1][1].name == first_name


def test_unbound_names_are_positioned_errors():
    with pytest.raises(SourceError) as exc:
        _parse("v")
    assert "unbound variable 'v'" in str(exc.value)
    with pytest.raises(SourceError, match="unbound type 'Unita'"):
        _parse("extern w : Unita\nu")
    with pytest.raises(SourceError, match="unbound effect 'XX'"):
        _parse("extern w : Unit ->[XX] Unit\nu")


def test_extern_types_must_be_wildcard_free():
    with pytest.raises(SourceError, match="wildcard"):
        _parse("extern w : Unit ->[_] Unit\nu")


def test_lambda_annotations_may_use_wildcards():
    prog = _parse("fn (k : Unit ->[_] Unit) => k u")
    assert str(prog.main) == "fn (k : Unit ->[_] Unit) => k u"


def test_main_expression_is_optional():
    prog = parse_program("effect IO\ntype Unit\nextern u : Unit\n",
                         NameSupply())
    assert prog.main is None


def test_repl_items_cover_all_forms():
    supply = NameSupply()
    scope = {}
    seen = []
    for line in ["effect IO", "type Unit", "extern u : Unit",
                 "let y = fn (x : Unit) => u", "y u"]:
        parser = Parser(line, supply, scope)
        item = parser.parse_repl_item()
        scope = parser.scope
        seen.append(item[0])
    assert seen == ["effect", "type", "extern", "def", "expr"]


def test_repl_scope_is_isolated_until_adopted():
    supply = NameSupply()
    scope = {}
    parser = Parser("effect IO", supply, scope)
    parser.parse_repl_item()
    # the caller's scope is untouched until it adopts parser.scope
    assert (KIND_EFF, "IO") not in scope
    assert (KIND_EFF, "IO") in parser.scope


# -- nesting depth ---------------------------------------------------------------
# Each binder form restores its scope inline, so one more level of nesting
# costs the parser one frame (two for a quantifier: parse_type and
# parse_type_atom). These sizes sit below the recursion limit only while
# that holds.


def test_nested_fn_900_deep_parses():
    prog = _parse("fn (x : Unit) => " * 900 + "x")
    assert isinstance(prog.main, Lam)


def test_nested_forall_eff_450_deep_parses():
    prog = _parse("extern h : " + "forall eff e. " * 450 + "Unit\nh")
    ty, depth = prog.externs[-1][1], 0
    while isinstance(ty, SForallEff):
        ty, depth = ty.body, depth + 1
    assert depth == 450


def test_join_of_1500_atoms_prints_as_written():
    wide = " \\/ ".join(["IO", "(DB \\/ IO)", "_", "pure"] * 375)
    prog = _parse(f"let h = fn (k : Unit ->[{wide}] Unit) => k\nu")
    assert str(prog.defs[0][1].ann.effect) == wide.replace("(", "") \
        .replace(")", "")
    # A join is one flat tuple of operands, so repr, == and hash of it
    # recurse no deeper for more operands. An extern admits no wildcard.
    src = f"extern w : Unit ->[{wide.replace('_', 'DB')}] Unit"
    e1, e2 = (_parse(src).externs[-1][1].effect for _ in range(2))
    assert repr(e1) == repr(e2)
    assert e1 == e2
    assert hash(e1) == hash(e2)
