"""Lexing, parsing, scope resolution and pretty-printing."""
import re

import pytest
from hypothesis import given, settings, strategies as st

from efl.names import KIND_EFF, NameSupply
from efl.syntax import (App, Lam, Parser, SArrow, SForallEff, SourceError,
                        parse_program)
from helpers import expr_str, front_end_sources, nest_source, tokenize
from oracles import RecursiveParser, tokenize_chars, type_is_wildcard_free

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
    for src in front_end_sources():
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


@pytest.mark.parametrize("src,line,col", [
    ("", 1, 1),
    (" \t\r ", 1, 5),
    ("x   ", 1, 5),
    ("x\r\ny\r\n", 3, 1),
    ("x\r\ny", 2, 2),
    ("x\n  ", 2, 3),
    ("x\n   -- end", 2, 4),
    ("  -- only a comment", 1, 3),
])
def test_eof_sits_one_past_the_last_line_or_at_a_closing_comment(src, line,
                                                                  col):
    assert tuple(tokenize(src)[-1]) == ("eof", "", line, col)


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
    rendered = expr_str(prog.main)
    again = _parse(rendered)
    assert expr_str(again.main) == rendered


def test_application_is_left_associative():
    prog = _parse("extern two : Unit ->[] Unit ->[] Unit\ntwo u u")
    main = prog.main
    assert isinstance(main, App) and isinstance(main.fn, App)
    assert expr_str(main) == "two u u"


def test_instantiation_binds_like_an_atom():
    bare = _parse("f [eff IO] u")
    parened = _parse("(f [eff IO]) u")
    assert expr_str(bare.main) == expr_str(parened.main) == "f [eff IO] u"
    assert isinstance(bare.main, App)


def test_application_stops_at_line_break():
    prog = _parse("extern a : Unit ->[] Unit\nlet r = a\nu")
    assert expr_str(prog.defs[-1][1]) == "a"
    assert expr_str(prog.main) == "u"


def test_application_continues_inside_brackets():
    prog = _parse("extern a : Unit ->[] Unit\nlet r = (a\nu)\nr")
    assert expr_str(prog.defs[-1][1]) == "a u"


def test_lambda_body_extends_right():
    prog = _parse("fn (x : Unit) => f [eff IO] x")
    assert isinstance(prog.main, Lam)
    assert expr_str(prog.main) == "fn (x : Unit) => f [eff IO] x"


def test_let_in_is_an_expression():
    prog = _parse("let w = u in f [eff IO] w")
    assert expr_str(prog.main) == "let w = u in f [eff IO] w"


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
    assert expr_str(prog.defs[1][1]) == "u"
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
    assert expr_str(prog.main) == "fn (k : Unit ->[_] Unit) => k u"


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


# -- the recursive parser as oracle ----------------------------------------------


def _parsed(parser_cls, src: str):
    """The program parser_cls makes of src, or its error and place, and the
    uid the supply mints next."""
    supply = NameSupply()
    try:
        out = parser_cls(src, supply).parse_program()
    except SourceError as e:
        out = ("error", str(e), e.line, e.col)
    return out, supply.fresh(KIND_EFF).uid


def _repl_items(parser_cls, src: str):
    """Each line of src as a REPL input, in one scope and one supply."""
    supply, scope, out = NameSupply(), {}, []
    for line in src.splitlines():
        parser = parser_cls(line, supply, scope)
        try:
            out.append(parser.parse_repl_item())
            scope = parser.scope
        except SourceError as e:
            out.append(("error", str(e), e.line, e.col))
    return out, supply.fresh(KIND_EFF).uid


def test_parser_agrees_with_the_recursive_parser_on_programs():
    for src in front_end_sources():
        assert _repl_items(Parser, src) == _repl_items(RecursiveParser, src)
        # Cut short: errors at every kind of place, and minted names.
        for cut in [*range(0, len(src), max(1, len(src) // 60)), len(src)]:
            assert (_parsed(Parser, src[:cut])
                    == _parsed(RecursiveParser, src[:cut]))


_PARSE_PIECES = ["fn (x : Unit) =>", "tfun t =>", "efun e =>", "let y =",
                 "in", "x", "y", "u", "f", "g", "(", ")", "[eff IO]",
                 "[eff _]", "[type Unit]", "[type t]", "[", "]", "\n",
                 "Unit", "->", "->[IO]", "->[_]", "forall eff e.", "extern",
                 "effect", "type", ":", "=", "pure", "\\/", "_"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_PARSE_PIECES), max_size=25))
def test_parser_agrees_with_the_recursive_parser_on_token_soup(pieces):
    src = PRELUDE + " ".join(pieces)
    assert _parsed(Parser, src) == _parsed(RecursiveParser, src)


def _with_an_extern_wildcard(src: str):
    """src with a `_` added to one arrow of one extern's type, for each
    arrow of each extern."""
    lines = src.split("\n")
    for i, line in enumerate(lines):
        if not line.startswith("extern"):
            continue
        for m in re.finditer(r"->(\[?)", line):
            j = m.end()
            wild = ("[_]" if not m.group(1) else "_" if line[j] == "]"
                    else "_ \\/ ")
            lines[i] = line[:j] + wild + line[j:]
            yield "\n".join(lines)
        lines[i] = line


def test_extern_wildcard_count_agrees_with_the_type_walk():
    seen = 0
    for src in front_end_sources():
        for variant in _with_an_extern_wildcard(src):
            got = _parsed(Parser, variant)
            assert got == _parsed(RecursiveParser, variant)
            assert "has a wildcard in its type" in got[0][1]
            seen += 1
        prog = parse_program(src, NameSupply())
        assert all(type_is_wildcard_free(ty) for _, ty in prog.externs)
    assert seen > 500


@pytest.mark.parametrize("tsrc", [
    "(Unit ->[_] Unit) ->[] Unit",
    "Unit ->[] Unit ->[_] Unit",
    "forall eff a. Unit ->[a] Unit ->[_] Unit",
    "Unit ->[IO \\/ (DB \\/ _)] Unit",
], ids=["parameter", "result", "under-forall", "inside-join"])
def test_extern_wildcard_error_names_the_extern(tsrc):
    src = PRELUDE + f"extern w : {tsrc}\nu\n"
    got = _parsed(Parser, src)
    assert got[0] == ("error",
                      "line 7, col 8: extern 'w' has a wildcard in its type",
                      7, 8)
    assert got == _parsed(RecursiveParser, src)


# -- nesting depth ---------------------------------------------------------------
# Application spines, parenthesised applications and arrow chains are read
# in loops. Each binder form restores its scope inline, so one more level
# of binder nesting costs the parser one frame (two for a quantifier:
# parse_type and parse_type_atom). These sizes sit below the recursion
# limit only while that holds.


def test_nest_2000_deep_parses():
    prog = parse_program(nest_source(2000), NameSupply())
    body, depth = prog.defs[0][1].body, 0
    while isinstance(body, App):
        body, depth = body.arg, depth + 1
    assert depth == 2000


def test_2000_parentheses_around_a_head_parse():
    prog = _parse("(" * 2000 + "f" + ")" * 2000 + " [eff IO] u")
    assert expr_str(prog.main) == "f [eff IO] u"


def test_extern_type_with_2000_arrows_parses():
    prog = _parse("extern w : " + "Unit ->[IO] " * 2000 + "Unit\nu")
    ty, arrows = prog.externs[-1][1], 0
    while isinstance(ty, SArrow):
        ty, arrows = ty.result, arrows + 1
    assert arrows == 2000


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
