"""The declarative side: matching, subeffecting, subtyping, certificates.

Everything here is indexed by a valuation rho, a map from the guard
propositions to booleans: an answer is relative to one choice of guards.
Under rho a constraint set is a set of propositional Horn rules over effect
atoms, and subeffecting is closure under them. A `ReplayScope` is a
constraint set compiled under one valuation: each constraint's guards are
erased once, and one index lists each rule under the atoms of its
right-hand side. Every replay query takes a scope and reads its rho from
it. Each query propagates from its start set by counting down the rules'
missing atoms (Dowling & Gallier, JLP 1984), in time linear in the rules
it touches, and stops once its goal is covered.
`derivation_search_subeffect` in `tests/oracles.py` is the independent
bounded proof search the closure is validated against.

A Certificate records the rule applied at every node of a typing derivation.
`check_certificate` replays it bottom-up against the expression and recomputes
each judgement; it trusts nothing from inference beyond the certificate. One
replay compiles its scope once; a `let` compiles the scheme's constraints
into a new scope over a copy of the enclosing scope's index.
"""
from __future__ import annotations

from typing import Collection, Iterable, Mapping

from .effects import (PURE, Arrow, Constraint, Effect, ForallEff, ForallTyp,
                      Scheme, TVar, Type, open_forall, subst_constraints,
                      subst_effect, subst_scheme, subst_type, subst_type_vars)
from .formulas import evaluate
from .names import Name, Value
from .syntax import (App, EfApp, ELam, Expr, Lam, Let, SArrow, SForallEff,
                     SForallTyp, STVar, SynEffect, SynType, TLam, TyApp, Var,
                     effect_parts)

# ---------------------------------------------------------------------------
# Matching surface annotations against internal types/effects
# ---------------------------------------------------------------------------


def match_effect(se: SynEffect, eff: Effect,
                 rho: Mapping[Name, bool]) -> bool:
    """Does the annotation se describe eff under rho?

    A wildcard component absorbs any leftover atoms; without one the named
    variables must be exactly the atoms of eff (after guard erasure).
    """
    named, wild = effect_parts(se)
    atoms = erased_atoms(eff, rho)
    if wild:
        return named <= atoms
    return named == atoms


def match_type(st: SynType, t: Type, rho: Mapping[Name, bool]) -> bool:
    """Does the annotation st describe the internal type t under rho?"""
    if isinstance(st, STVar):
        return isinstance(t, TVar) and t.name == st.name
    if isinstance(st, SArrow):
        return (isinstance(t, Arrow)
                and match_type(st.param, t.param, rho)
                and match_effect(st.effect, t.effect, rho)
                and match_type(st.result, t.result, rho))
    if isinstance(st, (SForallTyp, SForallEff)):
        kind = ForallTyp if isinstance(st, SForallTyp) else ForallEff
        return (isinstance(t, kind)
                and match_type(st.body, open_forall(t, st.binder), rho))
    raise TypeError(f"not a surface type: {st!r}")


# ---------------------------------------------------------------------------
# Subeffecting / entailment / subtyping under a valuation
# ---------------------------------------------------------------------------


def erased_atoms(e: Effect, rho: Mapping[Name, bool]) -> frozenset[Name]:
    """The atoms of e whose guard holds under rho."""
    return frozenset([n for n, g in e.atoms if evaluate(g, rho)])


def erase_rule(c: Constraint, rho: Mapping[Name, bool]
               ) -> tuple[frozenset[Name], frozenset[Name]]:
    """The Horn rule of c under rho: its erased (LHS, RHS) atoms."""
    return erased_atoms(c.lhs, rho), erased_atoms(c.rhs, rho)


class ReplayScope:
    """A constraint set compiled under one valuation.

    Each constraint l <= r becomes a rule: once every atom of r's erasure is
    covered, so is every atom of l's. `index` lists a rule under each atom
    of its erased RHS, where it counts down as those atoms get covered; a
    rule whose RHS erases to nothing fires unconditionally, from `free`.
    `extend` erases only the constraints it adds, into a copy of the index.
    """

    def __init__(self, omega: Iterable[Constraint],
                 rho: Mapping[Name, bool],
                 parent: "ReplayScope | None" = None) -> None:
        base = parent.index if parent else {}
        index: dict[Name, list[tuple]] = {}
        free = set(parent.free) if parent else set()
        for c in omega:
            lhs, rhs = erase_rule(c, rho)
            if not lhs:
                continue
            if not rhs:
                free |= lhs
                continue
            rule = (rhs, lhs)
            for atom in rhs:
                index.setdefault(atom, [*base.get(atom, ())]).append(rule)
        self.rho = rho
        self.index = base | index
        self.free = frozenset(free)

    def extend(self, omega: Collection[Constraint]) -> "ReplayScope":
        """This scope with omega added; itself if omega is empty."""
        return ReplayScope(omega, self.rho, self) if omega else self

    def covers(self, start: frozenset[Name], goal: frozenset[Name]) -> bool:
        """Is every atom of goal covered once the atoms of start are?
        Propagation stops as soon as it is."""
        missing = set(goal).difference(start, self.free)
        if not missing:
            return True
        queue = [*self.free, *start]
        covered: set[Name] = set()
        # RHS atoms each touched rule still lacks, keyed by the rule object:
        # two constraints may erase to equal rules, each counting alone.
        waiting: dict[int, int] = {}
        index = self.index
        while missing and queue:
            atom = queue.pop()
            if atom in covered:
                continue
            covered.add(atom)
            for rule in index.get(atom, ()):
                need = waiting.get(id(rule), len(rule[0])) - 1
                waiting[id(rule)] = need
                if need == 0:
                    queue.extend(rule[1])
                    missing.difference_update(rule[1])
        return not missing


def subeffect_holds(scope: ReplayScope, e1: Effect, e2: Effect) -> bool:
    """Decide omega |- e1 <= e2 under rho, both compiled into scope.

    After erasing guards everything is a set of atoms and each assumption
    l <= r a Horn rule (see `ReplayScope`). Starting from the atoms of e2,
    fire every rule whose erased RHS is covered to also cover its erased
    LHS, until e1 is covered or nothing more fires. Each step is justified
    by assumption + join + transitivity, and every declarative rule
    preserves coveredness, so this is exactly the subeffect relation.
    """
    rho = scope.rho
    goal, start = erased_atoms(e1, rho), erased_atoms(e2, rho)
    return goal <= start or scope.covers(start, goal)


def entails(scope: ReplayScope, omega2: Iterable[Constraint]) -> bool:
    """omega |- every constraint of omega2, under rho (both in scope)."""
    return all(subeffect_holds(scope, c.lhs, c.rhs) for c in omega2)


def subtype_holds(scope: ReplayScope, t1: Type, t2: Type) -> bool:
    """Structural subtyping: covariant results, contravariant parameters,
    subeffecting on arrows, congruence under quantifiers. Subtyping is
    reflexive under any omega, so a type is a subtype of itself without a
    walk: a certificate shares one type object across many nodes."""
    if t1 is t2:
        return True
    if isinstance(t1, TVar):
        return isinstance(t2, TVar) and t1.name == t2.name
    if isinstance(t1, Arrow):
        return (isinstance(t2, Arrow)
                and subtype_holds(scope, t2.param, t1.param)
                and subeffect_holds(scope, t1.effect, t2.effect)
                and subtype_holds(scope, t1.result, t2.result))
    if isinstance(t1, (ForallTyp, ForallEff)):
        return type(t2) is type(t1) and subtype_holds(
            scope, t1.body, open_forall(t2, t1.binder))
    raise TypeError(f"not a type: {t1!r}")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Cert(Value):
    """A node of a typing derivation. Each concrete class names its rule in
    `RULE` and lists its fields in `__slots__`, each a certificate, an
    effect, a scheme or a type: `subst_cert` and `driver.render_cert` walk
    any node by them, and `check_certificate` checks shapes by `CERT_OF`."""

    __slots__ = ()


class CVar(Cert):
    """Variable lookup; theta instantiates the scheme's bound variables."""

    __slots__ = ("theta",)
    RULE = "var"


class CAbs(Cert):
    __slots__ = ("param_type", "body")
    RULE = "abs"


class CApp(Cert):
    __slots__ = ("fn", "arg")
    RULE = "app"


class CTAbs(Cert):
    __slots__ = ("body",)
    RULE = "tabs"


class CEAbs(Cert):
    __slots__ = ("body",)
    RULE = "eabs"


class CTApp(Cert):
    __slots__ = ("fn", "arg")
    RULE = "tapp"


class CEApp(Cert):
    __slots__ = ("fn", "arg")
    RULE = "eapp"


class CLet(Cert):
    __slots__ = ("scheme", "bound", "body")
    RULE = "let"


class CSub(Cert):
    """Weakening to the recorded type and effect."""

    __slots__ = ("typ", "effect", "inner")
    RULE = "sub"


class CertificateError(Exception):
    def __init__(self, rule: str, msg: str) -> None:
        super().__init__(f"{rule}: {msg}")
        self.rule = rule


# The certificate node that proves each expression form; a `CSub` may
# wrap any of them.
CERT_OF = {Var: CVar, Lam: CAbs, App: CApp, Let: CLet, TLam: CTAbs,
           ELam: CEAbs, TyApp: CTApp, EfApp: CEApp}


def subst_cert(theta: Mapping[Name, Effect], cert: Cert) -> Cert:
    """Apply an effect substitution to every annotation stored in cert.

    A substitution that changes nothing returns its argument: a node whose
    children all come back as the same objects is returned itself."""
    if not theta:
        return cert
    if isinstance(cert, CVar):
        inst = tuple((n, subst_effect(theta, e)) for n, e in cert.theta)
        if all(new is old for (_, new), (_, old) in zip(inst, cert.theta)):
            return cert
        return CVar(inst)
    # Each field is mapped by its kind; a plain loop, as a comprehension
    # would add a frame per certificate level.
    fields, same = [], True
    for f in cert.__slots__:
        old = getattr(cert, f)
        if isinstance(old, Cert):
            new = subst_cert(theta, old)
        elif isinstance(old, Effect):
            new = subst_effect(theta, old)
        elif isinstance(old, Scheme):
            new = subst_scheme(theta, old)
        else:
            new = subst_type(theta, old)
        fields.append(new)
        same = same and new is old
    return cert if same else type(cert)(*fields)


def check_certificate(scope: ReplayScope, gamma: Mapping[Name, Scheme],
                      expr: Expr, cert: Cert) -> tuple[Type, Effect]:
    """Replay the derivation; return the judgement it proves.

    Raises CertificateError naming the first failing rule. The scope's rho
    must cover every guard proposition in its omega, gamma and cert.
    """
    rho = scope.rho
    kind = type(cert)
    if kind is CSub:
        t_in, e_in = check_certificate(scope, gamma, expr, cert.inner)
        if not subtype_holds(scope, t_in, cert.typ):
            raise CertificateError("sub", f"{t_in} is not a subtype of "
                                          f"{cert.typ}")
        if not subeffect_holds(scope, e_in, cert.effect):
            raise CertificateError("sub", f"[{e_in}] is not a subeffect of "
                                          f"[{cert.effect}]")
        return cert.typ, cert.effect
    want = CERT_OF.get(type(expr))
    if want is None:
        raise CertificateError("shape", f"no rule for {type(expr).__name__} "
                                        f"against {kind.__name__}")
    if kind is not want:
        raise CertificateError(want.RULE, "certificate shape mismatch")

    if kind is CVar:
        if expr.name not in gamma:
            raise CertificateError("var", f"unbound variable {expr.name}")
        scheme = gamma[expr.name]
        theta = dict(cert.theta)
        if set(theta) != set(scheme.binders):
            raise CertificateError("var", "instantiation does not cover the "
                                          "scheme's binders")
        inst = subst_constraints(theta, scheme.constraints)
        if not entails(scope, inst):
            raise CertificateError("var", "instantiated scheme constraints "
                                          "not entailed")
        return subst_type(theta, scheme.body), PURE

    if kind is CAbs:
        if not match_type(expr.ann, cert.param_type, rho):
            raise CertificateError("abs", f"annotation {expr.ann} does not "
                                          f"match {cert.param_type}")
        inner = dict(gamma)
        inner[expr.param] = Scheme((), frozenset(), cert.param_type)
        t_body, e_body = check_certificate(scope, inner, expr.body, cert.body)
        return Arrow(cert.param_type, e_body, t_body), PURE

    if kind is CApp:
        t_fn, e_fn = check_certificate(scope, gamma, expr.fn, cert.fn)
        t_arg, e_arg = check_certificate(scope, gamma, expr.arg, cert.arg)
        if not isinstance(t_fn, Arrow):
            raise CertificateError("app", f"applied a non-function: {t_fn}")
        if t_fn.param != t_arg:
            raise CertificateError("app", f"argument type {t_arg} is not "
                                          f"exactly {t_fn.param}")
        if not (e_fn == e_arg == t_fn.effect):
            raise CertificateError("app", "operand, operator and arrow "
                                          "effects differ")
        return t_fn.result, t_fn.effect

    if kind is CLet:
        scheme = cert.scheme
        t1, e1 = check_certificate(scope.extend(scheme.constraints), gamma,
                                   expr.bound, cert.bound)
        if t1 != scheme.body:
            raise CertificateError("let", f"bound type {t1} is not the "
                                          f"scheme body {scheme.body}")
        if not e1.is_pure():
            raise CertificateError("let", "bound expression is not pure")
        inner = dict(gamma)
        inner[expr.name] = scheme
        return check_certificate(scope, inner, expr.body, cert.body)

    if kind is CTAbs or kind is CEAbs:
        t_body, e_body = check_certificate(scope, gamma, expr.body, cert.body)
        if not e_body.is_pure():
            raise CertificateError(kind.RULE, "body is not pure")
        quantifier = ForallTyp if kind is CTAbs else ForallEff
        return quantifier(expr.binder, t_body), PURE

    if kind is CTApp:
        t_fn, e_fn = check_certificate(scope, gamma, expr.fn, cert.fn)
        if not isinstance(t_fn, ForallTyp):
            raise CertificateError("tapp", f"type-applied a non-forall: "
                                           f"{t_fn}")
        if not match_type(expr.arg, cert.arg, rho):
            raise CertificateError("tapp", f"annotation {expr.arg} does not "
                                           f"match {cert.arg}")
        return subst_type_vars({t_fn.binder: cert.arg}, t_fn.body), e_fn

    # kind is CEApp
    t_fn, e_fn = check_certificate(scope, gamma, expr.fn, cert.fn)
    if not isinstance(t_fn, ForallEff):
        raise CertificateError("eapp", f"effect-applied a non-forall: "
                                       f"{t_fn}")
    if not match_effect(expr.arg, cert.arg, rho):
        raise CertificateError("eapp", f"annotation {expr.arg} does not "
                                       f"match [{cert.arg}]")
    return subst_type({t_fn.binder: cert.arg}, t_fn.body), e_fn
