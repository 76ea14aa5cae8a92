"""Surface syntax: lexer, parser, and scope resolution for .efl sources.

A program is a prelude of declarations (`effect N`, `type N`,
`extern f : S`) followed by definitions (`let x = e`) and at most one final
expression. A top-level `let` with an `in` clause is the final expression.
Each construct has one production: `Parser.parse_expr` alone parses `let`,
and programs and REPL inputs read their items through it, learning from it
when a `let` had no `in` and so is a definition.

The lexer makes no object per token: it returns parallel lists of token
kinds, texts, line numbers and bracket depths, and the parser reads them by
position, a token being its index. Columns are worked out from the source
only when an error needs one.

The parser resolves every identifier occurrence to the globally unique Name
minted for its binder, so later passes never deal with strings. Parse and
scope errors carry source positions and map to exit code 2 in the CLI.
"""
from __future__ import annotations

import re
from itertools import accumulate, compress, repeat
from operator import itemgetter

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

# A comment runs from `--` to the end of its line. At each place the lexer
# tries a comment first, and no token holds a `-` that a `-` follows, so
# the first `--` of a line always starts a comment.
_COMMENT = re.compile(r"--[^\n]*")

# Each match on a line without comments is a run of blanks and the token
# after it: a word, punctuation, or any other character, which is an error.
# Blanks at the very end match nothing. A word starts where str.isalpha()
# holds: [^\W\d_] also admits numeric characters such as '½', so the lexer
# rejects a word whose first character is not alphabetic.
_TOKEN = re.compile(r"[ \t\r]*([^\W\d_][\w']*|=>|->|\\/|[()\[\]:.=_]"
                    r"|[^ \t\r])")

# The kind of each token whose text fixes it: "kw" for a keyword, the text
# itself for punctuation. Any other token is an "ident".
_KINDS = {**dict.fromkeys(KEYWORDS, "kw"),
          **{p: p for p in ("=>", "->", "\\/", "(", ")", "[", "]", ":", ".",
                            "=", "_")}}
_DEPTH = {"(": 1, "[": 1, ")": -1, "]": -1}
_first = itemgetter(0)


def _lines(src: str) -> list[str]:
    """The lines of src with their comments cut off: every token keeps its
    column, and the last line ends where eof sits."""
    if "--" in src:
        src = _COMMENT.sub("", src)
    return src.split("\n")


def _scan(src: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The tokens of src as parallel lists: kinds ("ident", "kw",
    punctuation text, and "eof" last), texts, line numbers, and the bracket
    depth before each token. Each item is a str or an int; `_columns`
    works out columns, which only an error needs."""
    texts: list[str] = []
    lines: list[int] = []
    findall = _TOKEN.findall
    for n, text in enumerate(_lines(src), 1):
        pieces = findall(text)
        texts += pieces
        lines += repeat(n, len(pieces))
    kinds = list(map(_KINDS.get, texts, repeat("ident")))
    # An ident must start with a letter: test every first character at
    # once, and look for the one at fault only when that fails.
    if not "".join(map(_first, compress(texts, map("ident".__eq__, kinds)))
                   ).isalpha():
        for i, text in enumerate(texts):
            if kinds[i] == "ident" and not text[0].isalpha():
                raise SourceError(f"unexpected character {text[0]!r}",
                                  lines[i], _columns(src)[i])
    depth = list(accumulate(map(_DEPTH.get, kinds, repeat(0)), initial=0))
    kinds.append("eof")
    texts.append("")
    lines.append(n)
    return kinds, texts, lines, depth


def _columns(src: str) -> list[int]:
    """The column of each token `_scan` lists for src, eof last; where
    `_scan` stops at an unexpected character, that character's column."""
    cols: list[int] = []
    for text in _lines(src):
        cols += [m.start(1) + 1 for m in _TOKEN.finditer(text)]
    cols.append(len(text) + 1)
    return cols


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
        # The tokens, read by position. Application may not continue across
        # a line break at bracket depth 0, so consecutive top-level items do
        # not glue together.
        self.src = src
        self.kinds, self.texts, self.lines, self.depth = _scan(src)
        self.pos = 0
        self.supply = supply
        self.scope: Scope = dict(scope or {})
        # The `_` effects read so far: an extern's type may contain none.
        self.wildcards = 0

    # -- token plumbing ----------------------------------------------------
    # A production passes a token by its position. The hot productions
    # step self.pos past a token they know is not eof themselves.

    def next(self) -> int:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos = i + 1
        return i

    def error(self, msg: str, i: int) -> SourceError:
        """The error msg, placed at token i."""
        return SourceError(msg, self.lines[i], _columns(self.src)[i])

    def expected(self, what: str) -> SourceError:
        """The error for finding the next token where `what` belongs."""
        found = self.texts[self.pos] or "end of input"
        return self.error(f"expected {what}, found {found!r}", self.pos)

    def expect(self, kind: str, what: str | None = None) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.expected(what or repr(kind))
        if kind != "eof":
            self.pos = i + 1
        return i

    def expect_kw(self, word: str) -> int:
        if not self.at_kw(word):
            raise self.expected(repr(word))
        return self.next()

    def at_kw(self, word: str) -> bool:
        # a keyword never lexes as an ident
        return self.texts[self.pos] == word

    def ident(self) -> int:
        return self.expect("ident", "identifier")

    # -- scope helpers -----------------------------------------------------

    def bind(self, kind: str, tok: int) -> Name:
        text = self.texts[tok]
        name = self.supply.fresh(kind, text)
        self.scope[kind, text] = name
        return name

    def lookup(self, kind: str, tok: int) -> Name:
        text = self.texts[tok]
        name = self.scope.get((kind, text))
        if name is None:
            noun = {KIND_TYPE: "type", KIND_EFF: "effect",
                    KIND_EXPR: "variable"}[kind]
            raise self.error(f"unbound {noun} {text!r}", tok)
        return name

    # -- effects -----------------------------------------------------------

    def parse_effect(self) -> SynEffect:
        """An effect; a parenthesised join among the operands of a join
        is spliced in, so no operand of a join is itself a join."""
        parts = list(effect_leaves(self.parse_effect_atom()))
        while self.kinds[self.pos] == "\\/":
            self.pos += 1
            parts += effect_leaves(self.parse_effect_atom())
        return SEJoin(tuple(parts)) if len(parts) > 1 else parts[0]

    def parse_effect_atom(self) -> SynEffect:
        i = self.pos
        kind = self.kinds[i]
        if kind == "ident":
            self.pos = i + 1
            return SEVar(self.lookup(KIND_EFF, i))
        if kind == "_":
            self.pos = i + 1
            self.wildcards += 1
            return SEWild()
        if self.texts[i] == "pure":
            self.pos = i + 1
            return _PURE
        if kind == "(":
            self.pos = i + 1
            e = self.parse_effect()
            self.expect(")")
            return e
        raise self.expected("an effect")

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> SynType:
        """A type. An arrow chain `A ->[e] B ->[e] ...` is read in a loop
        and folded from the right."""
        kinds = self.kinds
        params: list[tuple[SynType, SynEffect]] = []
        ty = self.parse_type_atom()
        while kinds[self.pos] == "->":
            self.pos += 1
            eff: SynEffect = _PURE
            if kinds[self.pos] == "[":
                self.pos += 1
                if kinds[self.pos] != "]":
                    eff = self.parse_effect()
                self.expect("]")
            params.append((ty, eff))
            ty = self.parse_type_atom()
        for param, eff in reversed(params):
            ty = SArrow(param, eff, ty)
        return ty

    def parse_type_atom(self) -> SynType:
        i = self.pos
        kind = self.kinds[i]
        if kind == "ident":
            self.pos = i + 1
            return STVar(self.lookup(KIND_TYPE, i))
        if kind == "(":
            self.pos = i + 1
            ty = self.parse_type()
            self.expect(")")
            return ty
        if self.texts[i] == "forall":
            self.pos = i + 1
            tok = self.next()
            kind = {"typ": KIND_TYPE, "eff": KIND_EFF}.get(self.texts[tok])
            if kind is None:
                raise self.error("expected 'typ' or 'eff' after 'forall'",
                                 tok)
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
        word = self.texts[self.pos]  # a keyword never lexes as an ident
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
        kinds, lines, depth = self.kinds, self.lines, self.depth
        waiting: list[Expr | None] = []
        out: Expr | None = None
        while True:
            i = self.pos
            kind = kinds[i]
            if kind == "ident":
                self.pos = i + 1
                atom = Var(self.lookup(KIND_EXPR, i))
            elif kind != "(":
                raise self.expected("an expression")
            elif self.texts[i + 1] in _BINDER_WORDS:
                self.pos = i + 1
                atom = self.parse_expr()
                self.expect(")")
            else:
                self.pos = i + 1
                waiting.append(out)
                out = None
                continue
            out = atom if out is None else App(out, atom)
            while True:
                i = self.pos
                if lines[i] == lines[i - 1] or depth[i] > 0:
                    kind = kinds[i]
                    if kind == "ident" or kind == "(":
                        break
                    if kind == "[":
                        self.pos = i + 1
                        out = self.parse_instantiation(out)
                        continue
                if not waiting:
                    return out
                self.expect(")")
                head = waiting.pop()
                out = out if head is None else App(head, out)

    def parse_instantiation(self, fn: Expr) -> Expr:
        """`type T]` or `eff E]` after the `[` applied to fn."""
        tok = self.next()
        word = self.texts[tok]
        if word == "type":
            out: Expr = TyApp(fn, self.parse_type())
        elif word == "eff":
            out = EfApp(fn, self.parse_effect())
        else:
            raise self.error("expected 'type' or 'eff' after '['", tok)
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
        word = self.texts[self.pos]
        kind = _DECL_KINDS.get(word)
        if kind is None:
            return None
        self.pos += 1
        tok = self.ident()
        text = self.texts[tok]
        if (kind, text) in self.scope:
            raise self.error(f"duplicate declaration of {text!r}", tok)
        if kind != KIND_EXPR:
            name = self.bind(kind, tok)
            if alone:
                self.expect("eof", "end of input")
            return (word, name, None)
        self.expect(":")
        wildcards = self.wildcards
        ty = self.parse_type()
        if self.wildcards != wildcards:
            raise self.error(f"extern {text!r} has a wildcard in its type",
                             tok)
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
        while self.kinds[self.pos] != "eof":
            item = self.parse_expr(toplevel=True)
            if isinstance(item, Expr):
                main = item
                break
            tok, bound = item
            defs.append((self.bind(KIND_EXPR, tok), bound))
        if self.kinds[self.pos] != "eof":
            raise self.error(
                f"unexpected {self.texts[self.pos]!r} after program end",
                self.pos)
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

