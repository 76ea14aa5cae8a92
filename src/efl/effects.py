"""Internal effects, types, constraints and schemes.

Effects are kept in a guarded-atom normal form: a finite set of atoms, each an
effect variable paired with a propositional guard, with at most one atom per
variable. The empty set is the pure effect. `effect_of` alone builds it: join,
elimination and substitution hand it their atoms, and the guards of a repeated
variable are or-ed. Atoms whose guard folds to F are dropped; under any
valuation they contribute nothing.

A substitution that changes nothing returns its argument: an effect, type,
constraint, constraint set or scheme that no mapped variable reaches comes
back as the same object, and so does every unchanged subtree of a type. The
result equals a full rebuild either way; the sharing saves the copies and
keeps identity shortcuts such as `declarative.subtype_holds`'s working.
"""
from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .formulas import BOT, TOP, Bot, Formula, Top, conj, conj2, disj2, impl
from .names import KIND_EFF, Name, TupleValue, Value

# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------


class Effect(TupleValue):
    """A set of guarded effect atoms; () is the pure effect."""

    __slots__ = ()
    _fields = ("atoms",)

    def __new__(cls, atoms: tuple[tuple[Name, Formula], ...]) -> "Effect":
        return tuple.__new__(cls, (atoms,))

    @staticmethod
    def var(name: Name) -> "Effect":
        if name.kind != KIND_EFF:
            raise ValueError(f"not an effect name: {name!r}")
        return Effect(((name, TOP),))

    def is_pure(self) -> bool:
        return not self.atoms

    def atom_names(self) -> frozenset[Name]:
        return frozenset(n for n, _ in self.atoms)

    def guard_of(self, name: Name) -> Formula:
        """Guard of `name`'s atom, or F if absent."""
        for n, g in self.atoms:
            if n == name:
                return g
        return BOT

    def __str__(self) -> str:
        if not self.atoms:
            return "pure"
        parts = []
        for name, g in self.atoms:
            if isinstance(g, Top):
                parts.append(name.text)
            else:
                parts.append(f"{name.text} ? {g}")
        return " \\/ ".join(parts)


def effect_of(atoms: Iterable[tuple[Name, Formula]]) -> Effect:
    """The normal form of a join of guarded atoms, the one place it is
    built: the guards of a repeated variable are or-ed left to right in the
    order given, F-guarded atoms dropped and the rest sorted by name."""
    merged: dict[Name, Formula] = {}
    for name, g in atoms:
        merged[name] = disj2(merged[name], g) if name in merged else g
    names = sorted([n for n, g in merged.items() if not isinstance(g, Bot)],
                   key=Name.KEY)
    return Effect(tuple([(n, merged[n]) for n in names]))


PURE = Effect(())


def join(*effects: Effect) -> Effect:
    """Least upper bound: union of atoms, same-variable guards or-ed."""
    return effect_of(atom for e in effects for atom in e.atoms)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type(Value):
    __slots__ = ()

    def __str__(self) -> str:
        """Arrows right-nested, a quantified or arrow parameter in
        parentheses; written by one explicit-stack walk so that a type as
        deep as the program prints. Each pass follows parameters and
        quantifier bodies down to a type variable; what comes after each
        parameter waits on the stack. (Dispatch is on the exact class:
        `isinstance` makes printing a small type half again slower.)"""
        out: list[str] = []
        stack: list[Type | str] = [self]
        while stack:
            t = stack.pop()
            while True:
                kind = type(t)
                if kind is str:
                    out.append(t)
                    break
                if kind is TVar:
                    out.append(t.name.text)
                    break
                if kind is Arrow:
                    stack.append(t.result)
                    stack.append(" ->[] " if t.effect.is_pure()
                                 else f" ->[{t.effect}] ")
                    if type(t.param) in (Arrow, ForallTyp, ForallEff):
                        out.append("(")
                        stack.append(")")
                    t = t.param
                elif kind is ForallTyp:
                    out.append(f"forall typ {t.binder.text}. ")
                    t = t.body
                else:
                    out.append(f"forall eff {t.binder.text}. ")
                    t = t.body
        return "".join(out)


class TVar(Type):
    __slots__ = ("name",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Arrow(Type):
    __slots__ = ("param", "effect", "result")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.param, self.effect, self.result)
                    == (other.param, other.effect, other.result))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.param, self.effect, self.result))


class _Forall(Type):
    """The methods of the two quantifiers. Each lists the fields in its own
    `__slots__`, and an instance of one never equals one of the other."""
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.binder, self.body) == (other.binder, other.body)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.binder, self.body))


class ForallTyp(_Forall):
    __slots__ = ("binder", "body")


class ForallEff(_Forall):
    __slots__ = ("binder", "body")


def map_type(t: Type, eff: Callable[[Effect], Effect],
             tvar: Callable[[TVar], Type]) -> Type:
    """Rebuild t with every arrow effect mapped by eff and every type
    variable by tvar; binders are kept as they are. A node whose children
    all come back as the same objects is returned itself, not rebuilt."""
    if isinstance(t, Arrow):
        param = map_type(t.param, eff, tvar)
        effect = eff(t.effect)
        result = map_type(t.result, eff, tvar)
        if param is t.param and effect is t.effect and result is t.result:
            return t
        return Arrow(param, effect, result)
    if isinstance(t, TVar):
        return tvar(t)
    if isinstance(t, (ForallEff, ForallTyp)):
        body = map_type(t.body, eff, tvar)
        return t if body is t.body else type(t)(t.binder, body)
    raise TypeError(f"not a type: {t!r}")


def walk_type(t: Type) -> list[tuple[Type, frozenset[Name]]]:
    """Every node of t in preorder, each paired with the effect binders of
    the quantifiers enclosing it."""
    out: list[tuple[Type, frozenset[Name]]] = []
    stack: list[tuple[Type, frozenset[Name]]] = [(t, frozenset())]
    while stack:
        node, bound = stack.pop()
        out.append((node, bound))
        if isinstance(node, Arrow):
            stack.append((node.result, bound))
            stack.append((node.param, bound))
        elif isinstance(node, ForallEff):
            stack.append((node.body, bound | {node.binder}))
        elif isinstance(node, ForallTyp):
            stack.append((node.body, bound))
        elif not isinstance(node, TVar):
            raise TypeError(f"not a type: {node!r}")
    return out


def arrow_count(t: Type) -> int:
    """Number of arrow constructors in t (drives constraint-free minting)."""
    return sum(isinstance(node, Arrow) for node, _ in walk_type(t))


# ---------------------------------------------------------------------------
# Constraints and schemes
# ---------------------------------------------------------------------------


class Constraint(TupleValue):
    """A subeffect constraint lhs <= rhs."""

    __slots__ = ()
    _fields = ("lhs", "rhs")

    def __new__(cls, lhs: Effect, rhs: Effect) -> "Constraint":
        return tuple.__new__(cls, (lhs, rhs))

    def __str__(self) -> str:
        rhs = "pure" if self.rhs.is_pure() else str(self.rhs)
        return f"{self.lhs} <: {rhs}"


def constraint_set(items: Iterable[Constraint]) -> frozenset[Constraint]:
    """Build a constraint set, dropping trivial pure-LHS constraints."""
    return frozenset(c for c in items if not c.lhs.is_pure())


def sorted_constraints(omega: Iterable[Constraint]) -> list[Constraint]:
    return sorted(omega, key=str)


def omega_to_formula(omega: Iterable[Constraint], *alphas: Name) -> Formula:
    """Conjunction over omega of (lhs presence => rhs presence) at alpha,
    one conjunct per alpha in order; omega is sorted once for all of them."""
    guards = [(dict(c.lhs.atoms), dict(c.rhs.atoms))
              for c in sorted_constraints(omega)]
    return conj(conj(impl(lhs.get(a, BOT), rhs.get(a, BOT))
                     for lhs, rhs in guards)
                for a in alphas)


class Scheme(Value):
    """A constrained effect scheme: forall binders [constraints] => body."""

    __slots__ = ("binders", "constraints", "body")

    def __str__(self) -> str:
        if not self.binders and not self.constraints:
            return str(self.body)
        names = " ".join(b.text for b in self.binders)
        cs = ", ".join(sorted(map(str, self.constraints)))
        mid = f" [{cs}]" if cs else ""
        return f"forall {names}{mid} => {self.body}"


def mono(t: Type) -> Scheme:
    return Scheme((), frozenset(), t)


# ---------------------------------------------------------------------------
# Substitution (effect variables -> effects; type variables -> types)
# ---------------------------------------------------------------------------

EffSubst = Mapping[Name, Effect]


def subst_effect(theta: EffSubst, e: Effect) -> Effect:
    """Replace atoms by their images, pushing the atom's guard inward.

    e itself when theta maps none of its atoms, and the image itself when
    e is one mapped atom guarded by T: an effect is kept in normal form
    (sorted, one atom per variable, no F guard), so rebuilding either
    would give an equal copy."""
    images = [theta.get(name) for name, _ in e.atoms]
    if not any(images):  # an Effect is always true, even the pure one
        return e
    if len(images) == 1 and isinstance(e.atoms[0][1], Top):
        return images[0]
    # An unmapped atom stands for itself: conj2(T, g) is g.
    return effect_of((n, conj2(h, g))
                     for (name, g), image in zip(e.atoms, images)
                     for n, h in (((name, TOP),) if image is None
                                  else image.atoms))


def _same(x):
    return x


def subst_type(theta: EffSubst, t: Type) -> Type:
    if not theta:
        return t
    # Binder ids are globally unique, so capture is impossible.
    return map_type(t, lambda e: subst_effect(theta, e), _same)


def subst_constraint(theta: EffSubst, c: Constraint) -> Constraint:
    lhs, rhs = subst_effect(theta, c.lhs), subst_effect(theta, c.rhs)
    return c if lhs is c.lhs and rhs is c.rhs else Constraint(lhs, rhs)


def subst_constraints(theta: EffSubst,
                      omega: Iterable[Constraint]) -> frozenset[Constraint]:
    """The substituted set; omega itself when it is a frozenset whose
    members all come back as themselves and none has a pure LHS."""
    out = [subst_constraint(theta, c) for c in omega]
    if (isinstance(omega, frozenset)
            and all(new is old for new, old in zip(out, omega))
            and not any(c.lhs.is_pure() for c in out)):
        return omega
    return constraint_set(out)


def subst_scheme(theta: EffSubst, s: Scheme) -> Scheme:
    constraints = subst_constraints(theta, s.constraints)
    body = subst_type(theta, s.body)
    if constraints is s.constraints and body is s.body:
        return s
    return Scheme(s.binders, constraints, body)


def subst_type_vars(tmap: Mapping[Name, Type], t: Type) -> Type:
    """Substitute type variables (used by explicit type application)."""
    return map_type(t, _same, lambda v: tmap.get(v.name, v))


def open_forall(t: Type, binder: Name) -> Type:
    """The body of the quantified type t, its binder renamed to binder:
    the one step by which two quantified types are compared."""
    if isinstance(t, ForallTyp):
        return subst_type_vars({t.binder: TVar(binder)}, t.body)
    return subst_type({t.binder: Effect.var(binder)}, t.body)


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def free_eff_vars_type(t: Type) -> frozenset[Name]:
    out: set[Name] = set()
    for node, bound in walk_type(t):
        if isinstance(node, Arrow):
            out |= node.effect.atom_names() - bound
    return frozenset(out)


def free_eff_vars_constraints(omega: Iterable[Constraint]) -> frozenset[Name]:
    out: frozenset[Name] = frozenset()
    for c in omega:
        out |= c.lhs.atom_names() | c.rhs.atom_names()
    return out
