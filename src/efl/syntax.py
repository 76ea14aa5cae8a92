"""Surface syntax: lexer, parser, and scope resolution for .efl sources.

A program is a prelude of declarations (`effect N`, `type N`,
`extern f : S`) followed by definitions (`let x = e`) and at most one final
expression. A top-level `let` with an `in` clause is the final expression.
Each construct has one production: `Parser.parse_expr` alone parses `let`,
and programs and REPL inputs read their items through it, learning from it
when a `let` had no `in` and so is a definition.

The parser resolves every identifier occurrence to the globally unique Name
minted for its binder, so later passes never deal with strings. Parse and
scope errors carry source positions and map to exit code 2 in the CLI.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .names import KIND_EFF, KIND_EXPR, KIND_TYPE, Name, NameSupply


class SourceError(Exception):
    """A parse or scope error with a source position."""

    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


class SynEffect:
    __slots__ = ()


@dataclass(frozen=True)
class SEVar(SynEffect):
    name: Name

    def __str__(self) -> str:
        return self.name.text


@dataclass(frozen=True)
class SEPure(SynEffect):
    def __str__(self) -> str:
        return "pure"


@dataclass(frozen=True)
class SEWild(SynEffect):
    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class SEJoin(SynEffect):
    """A join of two or more operands, none of them a join."""
    parts: tuple[SynEffect, ...]

    def __str__(self) -> str:
        return " \\/ ".join(map(str, self.parts))


class SynType:
    __slots__ = ()


@dataclass(frozen=True)
class STVar(SynType):
    name: Name

    def __str__(self) -> str:
        return self.name.text


@dataclass(frozen=True)
class SArrow(SynType):
    param: SynType
    effect: SynEffect
    result: SynType

    def __str__(self) -> str:
        lhs = f"({self.param})" if isinstance(self.param, (SArrow, SForallTyp,
                                                           SForallEff)) \
            else str(self.param)
        eff = "" if isinstance(self.effect, SEPure) else str(self.effect)
        return f"{lhs} ->[{eff}] {self.result}"


@dataclass(frozen=True)
class SForallTyp(SynType):
    binder: Name
    body: SynType

    def __str__(self) -> str:
        return f"forall typ {self.binder.text}. {self.body}"


@dataclass(frozen=True)
class SForallEff(SynType):
    binder: Name
    body: SynType

    def __str__(self) -> str:
        return f"forall eff {self.binder.text}. {self.body}"


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: Name

    def __str__(self) -> str:
        return self.name.text


@dataclass(frozen=True)
class Lam(Expr):
    param: Name
    ann: SynType
    body: Expr

    def __str__(self) -> str:
        return f"fn ({self.param.text} : {self.ann}) => {self.body}"


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr

    def __str__(self) -> str:
        return f"{_app_str(self.fn)} {_atom_str(self.arg)}"


@dataclass(frozen=True)
class Let(Expr):
    name: Name
    bound: Expr
    body: Expr

    def __str__(self) -> str:
        return f"let {self.name.text} = {self.bound} in {self.body}"


@dataclass(frozen=True)
class TLam(Expr):
    binder: Name
    body: Expr

    def __str__(self) -> str:
        return f"tfun {self.binder.text} => {self.body}"


@dataclass(frozen=True)
class ELam(Expr):
    binder: Name
    body: Expr

    def __str__(self) -> str:
        return f"efun {self.binder.text} => {self.body}"


@dataclass(frozen=True)
class TyApp(Expr):
    fn: Expr
    arg: SynType

    def __str__(self) -> str:
        return f"{_app_str(self.fn)} [type {self.arg}]"


@dataclass(frozen=True)
class EfApp(Expr):
    fn: Expr
    arg: SynEffect

    def __str__(self) -> str:
        return f"{_app_str(self.fn)} [eff {self.arg}]"


def _atom_str(e: Expr) -> str:
    if isinstance(e, (Var,)):
        return str(e)
    return f"({e})"


def _app_str(e: Expr) -> str:
    if isinstance(e, (Var, App, TyApp, EfApp)):
        return str(e)
    return f"({e})"


@dataclass(frozen=True)
class Program:
    effects: tuple[Name, ...]
    types: tuple[Name, ...]
    externs: tuple[tuple[Name, SynType], ...]
    defs: tuple[tuple[Name, Expr], ...]
    main: Expr | None


def effect_leaves(se: SynEffect) -> tuple[SynEffect, ...]:
    """The operands of a surface effect's join, left to right."""
    return se.parts if isinstance(se, SEJoin) else (se,)


def effect_parts(se: SynEffect) -> tuple[set[Name], bool]:
    """The named variables of a surface effect and whether it has a
    wildcard."""
    leaves = effect_leaves(se)
    return ({leaf.name for leaf in leaves if isinstance(leaf, SEVar)},
            any(isinstance(leaf, SEWild) for leaf in leaves))


def type_is_wildcard_free(st: SynType) -> bool:
    if isinstance(st, SArrow):
        return (type_is_wildcard_free(st.param)
                and not effect_parts(st.effect)[1]
                and type_is_wildcard_free(st.result))
    if isinstance(st, (SForallTyp, SForallEff)):
        return type_is_wildcard_free(st.body)
    return True


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(("fn", "let", "in", "tfun", "efun", "forall", "typ",
                      "eff", "type", "effect", "extern", "pure"))

# One alternation, tried in order at each position; the last branch takes
# any other character, which is an error. A word starts where
# str.isalpha() holds: [^\W\d_] also admits numeric characters such as
# '½', so the lexer rejects a word whose first character is not alphabetic.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<word>[^\W\d_][\w']*)
  | (?P<punct>=>|->|\\/|[()\[\]:.=_])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # "ident", "kw", punctuation text, or "eof"
    text: str
    line: int
    col: int


def _scan(src: str) -> tuple[list[Token], list[int]]:
    """The tokens of src, and the bracket depth before each of them."""
    toks: list[Token] = []
    depth: list[int] = []
    d = 0
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(src):
        group = m.lastgroup
        pos = m.start()
        if group == "newline":
            line += 1
            line_start = end = m.end()
            continue
        if group == "comment":
            # A comment does not advance the column: at end of input the
            # eof token sits where the comment began.
            end = pos
            continue
        end = m.end()
        if group == "blank":
            continue
        text = m.group()
        col = pos - line_start + 1
        if group == "word" and text[0].isalpha():
            kind = "kw" if text in KEYWORDS else "ident"
        elif group == "punct":
            kind = text
        else:
            raise SourceError(f"unexpected character {text[0]!r}", line, col)
        toks.append(Token(kind, text, line, col))
        depth.append(d)
        if kind in ("(", "["):
            d += 1
        elif kind in (")", "]"):
            d -= 1
    toks.append(Token("eof", "", line, end - line_start + 1))
    depth.append(d)
    return toks, depth


# ---------------------------------------------------------------------------
# Parser with scope resolution
# ---------------------------------------------------------------------------


# A scope maps (kind, text) to the Name bound there; a binder form saves
# a copy and restores it where the binding ends.
Scope = dict[tuple[str, str], Name]


class Parser:
    def __init__(self, src: str, supply: NameSupply,
                 scope: Scope | None = None) -> None:
        # Bracket depth before each token: application may not continue
        # across a line break at depth 0, so consecutive top-level items
        # do not glue together.
        self.toks, self.depth = _scan(src)
        self.pos = 0
        self.supply = supply
        self.scope: Scope = dict(scope or {})

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expected(self, what: str) -> SourceError:
        """The error for finding the next token where `what` belongs."""
        t = self.peek()
        found = t.text or "end of input"
        return SourceError(f"expected {what}, found {found!r}", t.line,
                           t.col)

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.peek().kind != kind:
            raise self.expected(what or repr(kind))
        return self.next()

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            raise self.expected(repr(word))
        return self.next()

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == word

    def ident(self) -> Token:
        return self.expect("ident", "identifier")

    # -- scope helpers -----------------------------------------------------

    def bind(self, kind: str, tok: Token) -> Name:
        name = self.supply.fresh(kind, tok.text)
        self.scope[kind, tok.text] = name
        return name

    def lookup(self, kind: str, tok: Token) -> Name:
        if (kind, tok.text) not in self.scope:
            noun = {KIND_TYPE: "type", KIND_EFF: "effect",
                    KIND_EXPR: "variable"}[kind]
            raise SourceError(f"unbound {noun} {tok.text!r}", tok.line,
                              tok.col)
        return self.scope[kind, tok.text]

    # -- effects -----------------------------------------------------------

    def parse_effect(self) -> SynEffect:
        """An effect; a parenthesised join among the operands of a join
        is spliced in, so no operand of a join is itself a join."""
        parts = list(effect_leaves(self.parse_effect_atom()))
        while self.peek().kind == "\\/":
            self.next()
            parts += effect_leaves(self.parse_effect_atom())
        return SEJoin(tuple(parts)) if len(parts) > 1 else parts[0]

    def parse_effect_atom(self) -> SynEffect:
        t = self.peek()
        if t.kind == "_":
            self.next()
            return SEWild()
        if self.at_kw("pure"):
            self.next()
            return SEPure()
        if t.kind == "(":
            self.next()
            e = self.parse_effect()
            self.expect(")")
            return e
        if t.kind == "ident":
            self.next()
            return SEVar(self.lookup(KIND_EFF, t))
        raise self.expected("an effect")

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> SynType:
        lhs = self.parse_type_atom()
        if self.peek().kind == "->":
            self.next()
            eff: SynEffect = SEPure()
            if self.peek().kind == "[":
                self.next()
                if self.peek().kind != "]":
                    eff = self.parse_effect()
                self.expect("]")
            rhs = self.parse_type()
            return SArrow(lhs, eff, rhs)
        return lhs

    def parse_type_atom(self) -> SynType:
        t = self.peek()
        if self.at_kw("forall"):
            self.next()
            kind_tok = self.next()
            kind = {"typ": KIND_TYPE, "eff": KIND_EFF}.get(kind_tok.text)
            if kind is None:
                raise SourceError("expected 'typ' or 'eff' after 'forall'",
                                  kind_tok.line, kind_tok.col)
            saved = dict(self.scope)
            binder = self.bind(kind, self.ident())
            self.expect(".")
            body = self.parse_type()
            self.scope = saved
            if kind == KIND_TYPE:
                return SForallTyp(binder, body)
            return SForallEff(binder, body)
        if t.kind == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if t.kind == "ident":
            self.next()
            return STVar(self.lookup(KIND_TYPE, t))
        raise self.expected("a type")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, toplevel: bool = False):
        """An expression.

        At toplevel, a `let` without `in` is a definition instead: it comes
        back as (the name's token, the bound expression), the name not yet
        bound, so the caller decides when it is minted. Each binder form
        restores the scope inline, adding no frame per nesting level.
        """
        word = self.peek().text  # a keyword never lexes as an identifier
        if word == "fn":
            self.next()
            self.expect("(")
            tok = self.ident()
            self.expect(":")
            ann = self.parse_type()
            self.expect(")")
            self.expect("=>")
            kind = KIND_EXPR
        elif word == "tfun" or word == "efun":
            self.next()
            tok = self.ident()
            self.expect("=>")
            kind = KIND_TYPE if word == "tfun" else KIND_EFF
        elif word == "let":
            self.next()
            tok = self.ident()
            self.expect("=")
            bound = self.parse_expr()
            if toplevel and not self.at_kw("in"):
                return tok, bound
            self.expect_kw("in")
            kind = KIND_EXPR
        else:
            return self.parse_app()
        saved = dict(self.scope)
        name = self.bind(kind, tok)
        body = self.parse_expr()
        self.scope = saved
        if word == "fn":
            return Lam(name, ann, body)
        if word == "let":
            return Let(name, bound, body)
        return (TLam if word == "tfun" else ELam)(name, body)

    def _continues_application(self) -> bool:
        """Juxtaposition stops at a line break outside any brackets."""
        t = self.peek()
        prev = self.toks[self.pos - 1]
        return t.line == prev.line or self.depth[self.pos] > 0

    def parse_app(self) -> Expr:
        out = self.parse_atom_expr()
        while self._continues_application():
            t = self.peek()
            if t.kind == "[":
                self.next()
                nxt = self.next()
                if nxt.text == "type":
                    out = TyApp(out, self.parse_type())
                elif nxt.text == "eff":
                    out = EfApp(out, self.parse_effect())
                else:
                    raise SourceError("expected 'type' or 'eff' after '['",
                                      nxt.line, nxt.col)
                self.expect("]")
                continue
            if t.kind == "ident" or t.kind == "(":
                out = App(out, self.parse_atom_expr())
                continue
            break
        return out

    def parse_atom_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Var(self.lookup(KIND_EXPR, t))
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise self.expected("an expression")

    # -- programs ------------------------------------------------------------

    def parse_decl(self, alone: bool = False):
        """A declaration, if one starts here: ('effect', name, None),
        ('type', name, None) or ('extern', name, syntype); else None.

        With alone, the declaration must end the input. `effect` and `type`
        mint their name before that check and `extern` after it; REPL
        transcripts print uids, so they depend on this order.
        """
        kinds = {"effect": KIND_EFF, "type": KIND_TYPE, "extern": KIND_EXPR}
        t = self.peek()
        if t.kind != "kw" or t.text not in kinds:
            return None
        self.next()
        kind = kinds[t.text]
        tok = self.ident()
        if (kind, tok.text) in self.scope:
            raise SourceError(f"duplicate declaration of {tok.text!r}",
                              tok.line, tok.col)
        if kind != KIND_EXPR:
            name = self.bind(kind, tok)
            if alone:
                self.expect("eof", "end of input")
            return (t.text, name, None)
        self.expect(":")
        ty = self.parse_type()
        if not type_is_wildcard_free(ty):
            raise SourceError(
                f"extern {tok.text!r} has a wildcard in its type",
                tok.line, tok.col)
        if alone:
            self.expect("eof", "end of input")
        return ("extern", self.bind(KIND_EXPR, tok), ty)

    def parse_program(self) -> Program:
        decls: dict[str, list] = {"effect": [], "type": [], "extern": []}
        while (decl := self.parse_decl()) is not None:
            word, name, ty = decl
            decls[word].append(name if ty is None else (name, ty))
        defs: list[tuple[Name, Expr]] = []
        main: Expr | None = None
        while self.peek().kind != "eof":
            item = self.parse_expr(toplevel=True)
            if isinstance(item, Expr):
                main = item
                break
            tok, bound = item
            defs.append((self.bind(KIND_EXPR, tok), bound))
        t = self.peek()
        if t.kind != "eof":
            raise SourceError(f"unexpected {t.text!r} after program end",
                              t.line, t.col)
        return Program(tuple(decls["effect"]), tuple(decls["type"]),
                       tuple(decls["extern"]), tuple(defs), main)

    def parse_repl_item(self):
        """One REPL input.

        Returns one of ('def', name, expr), ('expr', None, expr),
        ('effect', name, None), ('type', name, None),
        ('extern', name, syntype).
        """
        decl = self.parse_decl(alone=True)
        if decl is not None:
            return decl
        item = self.parse_expr(toplevel=True)
        self.expect("eof", "end of input")
        if isinstance(item, Expr):
            return ("expr", None, item)
        tok, bound = item
        return ("def", self.bind(KIND_EXPR, tok), bound)


def parse_program(src: str, supply: NameSupply) -> Program:
    return Parser(src, supply).parse_program()


def parse_expr(src: str, supply: NameSupply,
               scope: Scope | None = None) -> Expr:
    p = Parser(src, supply, scope)
    e = p.parse_expr()
    p.expect("eof", "end of input")
    return e


def parse_type(src: str, supply: NameSupply,
               scope: Scope | None = None) -> SynType:
    p = Parser(src, supply, scope)
    t = p.parse_type()
    p.expect("eof", "end of input")
    return t
