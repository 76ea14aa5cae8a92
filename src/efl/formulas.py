"""Propositional formulas over named proposition variables.

These appear as guards on effect atoms, as the output of the to-formula
translation, and as the input language of the SAT solver. Connectives are
binary; the builder functions fold constants so that guards stay small.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from .names import Name, TupleValue, Value, _set


class Formula(Value):
    __slots__ = ()


class _Constant(Formula):
    """T or F, equal to every instance of its own class. Effects hash their
    guards, mostly T, so these hash without a walk over fields."""
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())


class Top(_Constant):
    __slots__ = ()

    def __str__(self) -> str:
        return "T"


class Bot(_Constant):
    __slots__ = ()

    def __str__(self) -> str:
        return "F"


class Prop(TupleValue, Formula):
    """A proposition variable: the one tuple-backed formula, as it holds
    no formula."""
    __slots__ = ()
    _fields = ("name",)

    def __new__(cls, name: Name) -> "Prop":
        return tuple.__new__(cls, (name,))

    def __str__(self) -> str:
        return self.name.text


class _Binary(Formula):
    """A binary connective, compared by structure.

    Its hash is hash((lhs, rhs)), as for every value class, taken once at
    construction from the children's cached hashes, so hashing a formula
    costs O(1) instead of a walk over it.
    """
    __slots__ = ("lhs", "rhs", "_hash")

    def __init__(self, lhs: Formula, rhs: Formula) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "_hash", hash((lhs, rhs)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lhs={self.lhs!r}, rhs={self.rhs!r})"

    def __eq__(self, other: object) -> bool:
        """Structural equality, walked with an explicit stack so that two
        separately built formulas as deep as the program compare. A pair
        of nodes is settled by identity, then by exact class, then by the
        cached hash, before its operands are compared."""
        if not isinstance(other, _Binary):
            return NotImplemented
        stack: list[tuple[Formula, Formula]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Binary):
                if a._hash != b._hash:
                    return False
                stack += ((a.rhs, b.rhs), (a.lhs, b.lhs))
            elif a != b:
                return False
        return True

    def __str__(self) -> str:
        """Fully parenthesized infix, written by one explicit-stack walk so
        that a session formula as deep as the program prints."""
        out = ["("]
        stack: list[Formula | str] = [")", self.rhs, self.OP, self.lhs]
        while stack:
            f = stack.pop()
            if type(f) is str:
                out.append(f)
            elif isinstance(f, _Binary):
                out.append("(")
                stack += (")", f.rhs, f.OP, f.lhs)
            else:
                out.append(str(f))
        return "".join(out)


class And(_Binary):
    __slots__ = ()
    OP = " /\\ "


class Or(_Binary):
    __slots__ = ()
    OP = " \\/ "


class Implies(_Binary):
    __slots__ = ()
    OP = " => "


TOP = Top()
BOT = Bot()


def conj2(a: Formula, b: Formula) -> Formula:
    """Conjunction with unit/absorption folding."""
    if isinstance(a, Top):
        return b
    if isinstance(b, Top):
        return a
    if isinstance(a, Bot) or isinstance(b, Bot):
        return BOT
    if a == b:
        return a
    return And(a, b)


def disj2(a: Formula, b: Formula) -> Formula:
    """Disjunction with unit/absorption folding."""
    if isinstance(a, Bot):
        return b
    if isinstance(b, Bot):
        return a
    if isinstance(a, Top) or isinstance(b, Top):
        return TOP
    if a == b:
        return a
    return Or(a, b)


def impl(a: Formula, b: Formula) -> Formula:
    """Implication with constant folding (a => T and F => b are T)."""
    if isinstance(a, Top):
        return b
    if isinstance(b, Top) or isinstance(a, Bot):
        return TOP
    if a == b:
        return TOP
    return Implies(a, b)


def neg(a: Formula) -> Formula:
    return impl(a, BOT)


def conj(parts: Iterable[Formula]) -> Formula:
    out: Formula = TOP
    for p in parts:
        out = conj2(out, p)
    return out


def evaluate(phi: Formula, rho: Mapping[Name, bool]) -> bool:
    """Classical truth of phi under rho. Lookup is strict: a prop that rho
    does not cover is a bug in the caller, so it raises KeyError."""
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Prop):
        return rho[phi.name]
    if isinstance(phi, And):
        return evaluate(phi.lhs, rho) and evaluate(phi.rhs, rho)
    if isinstance(phi, Or):
        return evaluate(phi.lhs, rho) or evaluate(phi.rhs, rho)
    if isinstance(phi, Implies):
        return (not evaluate(phi.lhs, rho)) or evaluate(phi.rhs, rho)
    raise TypeError(f"not a formula: {phi!r}")
