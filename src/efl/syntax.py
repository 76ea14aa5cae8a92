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
from typing import NamedTuple

from .names import KIND_EFF, KIND_EXPR, KIND_TYPE, Name, NameSupply, Value


class SourceError(Exception):
    """A parse or scope error with a source position."""

    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


class SynEffect(Value):
    __slots__ = ()


class SEVar(SynEffect):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name.text


class SEPure(SynEffect):
    __slots__ = ()

    def __str__(self) -> str:
        return "pure"


class SEWild(SynEffect):
    __slots__ = ()

    def __str__(self) -> str:
        return "_"


class SEJoin(SynEffect):
    """A join of two or more operands, none of them a join."""
    __slots__ = ("parts",)

    def __str__(self) -> str:
        return " \\/ ".join(map(str, self.parts))


class SynType(Value):
    __slots__ = ()


class STVar(SynType):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name.text


class SArrow(SynType):
    __slots__ = ("param", "effect", "result")

    def __str__(self) -> str:
        lhs = f"({self.param})" if isinstance(self.param, (SArrow, SForallTyp,
                                                           SForallEff)) \
            else str(self.param)
        eff = "" if isinstance(self.effect, SEPure) else str(self.effect)
        return f"{lhs} ->[{eff}] {self.result}"


class SForallTyp(SynType):
    __slots__ = ("binder", "body")

    def __str__(self) -> str:
        return f"forall typ {self.binder.text}. {self.body}"


class SForallEff(SynType):
    __slots__ = ("binder", "body")

    def __str__(self) -> str:
        return f"forall eff {self.binder.text}. {self.body}"


class Expr(Value):
    __slots__ = ()


class Var(Expr):
    __slots__ = ("name",)


class Lam(Expr):
    __slots__ = ("param", "ann", "body")


class App(Expr):
    __slots__ = ("fn", "arg")


class Let(Expr):
    __slots__ = ("name", "bound", "body")


class TLam(Expr):
    __slots__ = ("binder", "body")


class ELam(Expr):
    __slots__ = ("binder", "body")


class TyApp(Expr):
    __slots__ = ("fn", "arg")


class EfApp(Expr):
    __slots__ = ("fn", "arg")


class Program(Value):
    __slots__ = ("effects", "types", "externs", "defs", "main")


def effect_leaves(se: SynEffect) -> tuple[SynEffect, ...]:
    """The operands of a surface effect's join, left to right."""
    return se.parts if isinstance(se, SEJoin) else (se,)


def effect_parts(se: SynEffect) -> tuple[set[Name], bool]:
    """The named variables of a surface effect and whether it has a
    wildcard."""
    leaves = effect_leaves(se)
    return ({leaf.name for leaf in leaves if isinstance(leaf, SEVar)},
            any(isinstance(leaf, SEWild) for leaf in leaves))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(("fn", "let", "in", "tfun", "efun", "forall", "typ",
                      "eff", "type", "effect", "extern", "pure"))

# Each match is a run of blanks and the piece after it: a comment, a word,
# punctuation, a line break, or any other character, which is an error.
# Blanks at the very end match nothing. A word starts where str.isalpha()
# holds: [^\W\d_] also admits numeric characters such as '½', so the lexer
# rejects a word whose first character is not alphabetic.
_TOKEN = re.compile(r"([ \t\r]*)(--[^\n]*|[^\W\d_][\w']*|=>|->|\\/"
                    r"|[()\[\]:.=_\n]|[^ \t\r])")

# The kind of each piece whose text fixes it: "kw" for a keyword, the text
# itself for punctuation and for a line break.
_KINDS = {**dict.fromkeys(KEYWORDS, "kw"),
          **{p: p for p in ("=>", "->", "\\/", "(", ")", "[", "]", ":", ".",
                            "=", "_", "\n")}}


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
    line, line_start, pos = 1, 0, 0
    kinds, new = _KINDS, tuple.__new__
    pieces = _TOKEN.findall(src)
    for blank, text in pieces:
        pos += len(blank)
        kind = kinds.get(text)
        if kind is None:
            if text[0].isalpha():
                kind = "ident"
            elif text[:2] == "--":
                pos += len(text)
                continue
            else:
                raise SourceError(f"unexpected character {text[0]!r}", line,
                                  pos - line_start + 1)
        elif kind == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        toks.append(new(Token, (kind, text, line, pos - line_start + 1)))
        depth.append(d)
        if kind == "(" or kind == "[":
            d += 1
        elif kind == ")" or kind == "]":
            d -= 1
        pos += len(text)
    # The eof token sits one past the end of the last line, or where a
    # comment that ends the input began.
    end = len(src)
    if pieces and pieces[-1][1][:2] == "--":
        end -= len(pieces[-1][1])
    toks.append(new(Token, ("eof", "", line, end - line_start + 1)))
    depth.append(d)
    return toks, depth


# ---------------------------------------------------------------------------
# Parser with scope resolution
# ---------------------------------------------------------------------------


# A scope maps (kind, text) to the Name bound there; a binder form saves
# a copy and restores it where the binding ends.
Scope = dict[tuple[str, str], Name]

_DECL_KINDS = {"effect": KIND_EFF, "type": KIND_TYPE, "extern": KIND_EXPR}
_BINDER_WORDS = frozenset(("fn", "tfun", "efun", "let"))
_PURE = SEPure()


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
        # The `_` effects read so far: an extern's type may contain none.
        self.wildcards = 0

    # -- token plumbing ----------------------------------------------------
    # The hot productions read self.toks[self.pos] and step self.pos past a
    # token they know is not eof themselves.

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
        if self.toks[self.pos].kind != kind:
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
        name = self.scope.get((kind, tok.text))
        if name is None:
            noun = {KIND_TYPE: "type", KIND_EFF: "effect",
                    KIND_EXPR: "variable"}[kind]
            raise SourceError(f"unbound {noun} {tok.text!r}", tok.line,
                              tok.col)
        return name

    # -- effects -----------------------------------------------------------

    def parse_effect(self) -> SynEffect:
        """An effect; a parenthesised join among the operands of a join
        is spliced in, so no operand of a join is itself a join."""
        parts = list(effect_leaves(self.parse_effect_atom()))
        while self.toks[self.pos].kind == "\\/":
            self.pos += 1
            parts += effect_leaves(self.parse_effect_atom())
        return SEJoin(tuple(parts)) if len(parts) > 1 else parts[0]

    def parse_effect_atom(self) -> SynEffect:
        t = self.toks[self.pos]
        if t.kind == "ident":
            self.pos += 1
            return SEVar(self.lookup(KIND_EFF, t))
        if t.kind == "_":
            self.pos += 1
            self.wildcards += 1
            return SEWild()
        if t.text == "pure":
            self.pos += 1
            return _PURE
        if t.kind == "(":
            self.pos += 1
            e = self.parse_effect()
            self.expect(")")
            return e
        raise self.expected("an effect")

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> SynType:
        """A type. An arrow chain `A ->[e] B ->[e] ...` is read in a loop
        and folded from the right."""
        toks = self.toks
        params: list[tuple[SynType, SynEffect]] = []
        ty = self.parse_type_atom()
        while toks[self.pos].kind == "->":
            self.pos += 1
            eff: SynEffect = _PURE
            if toks[self.pos].kind == "[":
                self.pos += 1
                if toks[self.pos].kind != "]":
                    eff = self.parse_effect()
                self.expect("]")
            params.append((ty, eff))
            ty = self.parse_type_atom()
        for param, eff in reversed(params):
            ty = SArrow(param, eff, ty)
        return ty

    def parse_type_atom(self) -> SynType:
        t = self.toks[self.pos]
        if t.kind == "ident":
            self.pos += 1
            return STVar(self.lookup(KIND_TYPE, t))
        if t.kind == "(":
            self.pos += 1
            ty = self.parse_type()
            self.expect(")")
            return ty
        if t.text == "forall":
            self.pos += 1
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
        raise self.expected("a type")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, toplevel: bool = False):
        """An expression.

        At toplevel, a `let` without `in` is a definition instead: it comes
        back as (the name's token, the bound expression), the name not yet
        bound, so the caller decides when it is minted. Each binder form
        restores the scope inline, adding no frame per nesting level.
        """
        word = self.toks[self.pos].text  # a keyword never lexes as an ident
        if word == "fn":
            self.pos += 1
            self.expect("(")
            tok = self.ident()
            self.expect(":")
            ann = self.parse_type()
            self.expect(")")
            self.expect("=>")
            kind = KIND_EXPR
        elif word == "tfun" or word == "efun":
            self.pos += 1
            tok = self.ident()
            self.expect("=>")
            kind = KIND_TYPE if word == "tfun" else KIND_EFF
        elif word == "let":
            self.pos += 1
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

    def parse_app(self) -> Expr:
        """An application spine: atoms, each an identifier or a
        parenthesised expression, and `[type T]`/`[eff E]` instantiations.

        A parenthesised operand that does not start with a binder form is
        an application itself, parsed by this same loop: the spine waiting
        for it goes on `waiting` (None when it is the spine's first atom),
        so `f (f (... x))` adds no frame per level. Juxtaposition stops at a
        line break outside any brackets.
        """
        toks, depth = self.toks, self.depth
        waiting: list[Expr | None] = []
        out: Expr | None = None
        while True:
            t = toks[self.pos]
            if t.kind == "ident":
                self.pos += 1
                atom = Var(self.lookup(KIND_EXPR, t))
            elif t.kind != "(":
                raise self.expected("an expression")
            elif toks[self.pos + 1].text in _BINDER_WORDS:
                self.pos += 1
                atom = self.parse_expr()
                self.expect(")")
            else:
                self.pos += 1
                waiting.append(out)
                out = None
                continue
            out = atom if out is None else App(out, atom)
            while True:
                t = toks[self.pos]
                if t.line == toks[self.pos - 1].line or depth[self.pos] > 0:
                    if t.kind == "ident" or t.kind == "(":
                        break
                    if t.kind == "[":
                        self.pos += 1
                        out = self.parse_instantiation(out)
                        continue
                if not waiting:
                    return out
                self.expect(")")
                head = waiting.pop()
                out = out if head is None else App(head, out)

    def parse_instantiation(self, fn: Expr) -> Expr:
        """`type T]` or `eff E]` after the `[` applied to fn."""
        t = self.next()
        if t.text == "type":
            out: Expr = TyApp(fn, self.parse_type())
        elif t.text == "eff":
            out = EfApp(fn, self.parse_effect())
        else:
            raise SourceError("expected 'type' or 'eff' after '['",
                              t.line, t.col)
        self.expect("]")
        return out

    # -- programs ------------------------------------------------------------

    def parse_decl(self, alone: bool = False):
        """A declaration, if one starts here: ('effect', name, None),
        ('type', name, None) or ('extern', name, syntype); else None.

        With alone, the declaration must end the input. `effect` and `type`
        mint their name before that check and `extern` after it; REPL
        transcripts print uids, so they depend on this order.
        """
        t = self.toks[self.pos]
        kind = _DECL_KINDS.get(t.text)
        if kind is None:
            return None
        self.pos += 1
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
        wildcards = self.wildcards
        ty = self.parse_type()
        if self.wildcards != wildcards:
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

