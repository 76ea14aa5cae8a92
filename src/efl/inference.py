"""Effect reconstruction.

Type shapes come from the mandatory annotations; only effects are inferred.
`infer` walks the expression once, minting fresh effect variables for
wildcards and instantiations, collecting subeffect constraints, building a
side formula over guard propositions, and emitting a Certificate for the
derivation it claims. Generalization at `let` happens in one of two modes:

- constrained: bound variables keep a residual constraint set in the scheme;
- constraint-free: the scheme has no constraints, at the price of minting
  2^(arrow count) bound variables and a grid of guard propositions.
"""
from __future__ import annotations

from typing import Mapping

from .declarative import (CAbs, CApp, CEAbs, CEApp, CLet, CSub, CTAbs, CTApp,
                          CVar, Cert, subst_cert)
from .effects import (PURE, Arrow, Constraint, Effect, ForallEff, ForallTyp,
                      Scheme, TVar, Type, arrow_count, constraint_set,
                      effect_of, join, mono, omega_to_formula, open_forall,
                      subst_constraints, subst_effect, subst_type,
                      subst_type_vars)
from .formulas import TOP, Formula, Prop, conj2
from .names import KIND_EFF, KIND_PROP, Name, NameSupply, Value, _set
from .syntax import (App, EfApp, ELam, Expr, Lam, Let, SArrow, SEVar, SEWild,
                     SForallEff, SForallTyp, STVar, SynEffect, SynType, TLam,
                     TyApp, Var, effect_leaves)


class InferError(Exception):
    """Inference failure (CLI exit code 1)."""


class ShapeError(InferError):
    """A type-shape mismatch: wrong constructor where another was needed."""


class GenLimitError(InferError):
    """Constraint-free generalization exceeded the minted-variable cap."""


# The most bound variables one constraint-free generalization may mint.
MAX_GEN_VARS = 2 ** 16


class Config(Value):
    __slots__ = ("mode",)

    def __init__(self, mode: str = "constrained") -> None:
        if mode not in ("constrained", "constraint-free"):
            raise ValueError(f"bad mode: {mode!r}")
        _set(self, "mode", mode)


def purity(e: Effect) -> Constraint:
    return Constraint(e, PURE)


# ---------------------------------------------------------------------------
# Annotation translation
# ---------------------------------------------------------------------------


def tr_effect(se: SynEffect,
              supply: NameSupply) -> tuple[tuple[Name, ...], Effect]:
    """Translate a surface effect; wildcards become fresh variables, minted
    left to right."""
    gen: list[Name] = []
    atoms: list[tuple[Name, Formula]] = []
    for leaf in effect_leaves(se):
        if isinstance(leaf, SEVar):
            atoms.append((leaf.name, TOP))
        elif isinstance(leaf, SEWild):
            gen.append(supply.fresh(KIND_EFF))
            atoms.append((gen[-1], TOP))
    return tuple(gen), effect_of(atoms)


def _rebind_under(alpha: Name, gen: tuple[Name, ...], supply: NameSupply
                 ) -> tuple[tuple[Name, ...], dict[Name, Effect]]:
    """Rebuild each generated variable beta under the effect binder alpha as
    gamma_beta \\/ alpha ? p_beta, minting p_beta then gamma_beta per beta.

    Returns (the gamma's, the substitution)."""
    new_gen = []
    theta: dict[Name, Effect] = {}
    for beta in gen:
        p_b = supply.fresh(KIND_PROP)
        gamma_b = supply.fresh(KIND_EFF)
        new_gen.append(gamma_b)
        theta[beta] = effect_of(((gamma_b, TOP), (alpha, Prop(p_b))))
    return tuple(new_gen), theta


def tr_type(st: SynType,
            supply: NameSupply) -> tuple[tuple[Name, ...], Type]:
    """Translate a surface type to (generated effect vars, type).

    Under an effect quantifier, each effect variable generated in the body is
    rebuilt as "fresh variable joined with the binder guarded by a fresh
    proposition": the proposition decides, per instantiation, whether the
    wildcard includes the quantified variable.
    """
    if isinstance(st, STVar):
        return (), TVar(st.name)
    if isinstance(st, SArrow):
        g1, t1 = tr_type(st.param, supply)
        g0, eff = tr_effect(st.effect, supply)
        g2, t2 = tr_type(st.result, supply)
        return g1 + g0 + g2, Arrow(t1, eff, t2)
    if isinstance(st, SForallTyp):
        g, t = tr_type(st.body, supply)
        return g, ForallTyp(st.binder, t)
    if isinstance(st, SForallEff):
        g1, t = tr_type(st.body, supply)
        new_gen, theta = _rebind_under(st.binder, g1, supply)
        return new_gen, ForallEff(st.binder, subst_type(theta, t))
    raise TypeError(f"not a surface type: {st!r}")


# ---------------------------------------------------------------------------
# Algorithmic subtyping
# ---------------------------------------------------------------------------


def subtype(t1: Type, t2: Type) -> tuple[frozenset, Formula]:
    """Constraints + side formula forcing t1 <= t2; ShapeError if the shapes
    can never match."""
    if isinstance(t1, TVar) and isinstance(t2, TVar):
        if t1.name == t2.name:
            return frozenset(), TOP
        raise ShapeError(f"type mismatch: {t1} vs {t2}")
    if isinstance(t1, Arrow) and isinstance(t2, Arrow):
        o1, f1 = subtype(t2.param, t1.param)
        o2, f2 = subtype(t1.result, t2.result)
        o3 = constraint_set((Constraint(t1.effect, t2.effect),))
        return o1 | o2 | o3, conj2(f1, f2)
    if isinstance(t1, (ForallTyp, ForallEff)) and type(t2) is type(t1):
        alpha = t1.binder
        omega, phi = subtype(t1.body, open_forall(t2, alpha))
        if isinstance(t1, ForallTyp):
            return omega, phi
        # The quantified variable must not be constrained: project it out of
        # the constraints and demand the projection was already implied.
        projected = subst_constraints({alpha: PURE}, omega)
        return projected, conj2(phi, omega_to_formula(omega, alpha))
    raise ShapeError(f"shape mismatch: {t1} vs {t2}")


# ---------------------------------------------------------------------------
# Constraint normalization and separation
# ---------------------------------------------------------------------------


def normalize(omega) -> frozenset:
    """Split every constraint into single-guarded-atom-LHS constraints."""
    out = []
    for c in omega:
        for name, g in c.lhs.atoms:
            out.append(Constraint(Effect(((name, g),)), c.rhs))
    return constraint_set(out)


def separate(delta_g: frozenset, omega) -> tuple[frozenset, frozenset]:
    """Split normalized omega into (kept-in-scheme, propagated).

    Constraints bounding a variable of delta_g stay with the scheme; in the
    rest, delta_g variables on the right are zeroed out, since nothing may
    depend on a bound variable from outside its scheme.
    """
    erase_bound = {d: PURE for d in delta_g}
    kept, propagated = [], []
    for c in normalize(omega):
        name, _ = c.lhs.atoms[0]
        if name in delta_g:
            kept.append(c)
        else:
            propagated.append(Constraint(c.lhs,
                                         subst_effect(erase_bound, c.rhs)))
    return constraint_set(kept), constraint_set(propagated)


# ---------------------------------------------------------------------------
# Inference proper
# ---------------------------------------------------------------------------


class InferResult(Value):
    """What `infer` derived for an expression. The guard propositions it
    minted are recorded in the supply's `props`, not here."""

    __slots__ = ("gen", "type", "effect", "constraints", "formula", "cert")


class Generalized(Value):
    """A generalized binding. `gen` is the variables that outlive the
    scheme, `omega_p` the constraints propagated past it, and `formula` the
    extra conjuncts (constraint-free). The constraint-free grid's guard
    propositions are recorded in the supply's `props`."""

    __slots__ = ("scheme", "gen", "omega_p", "formula", "theta")


def generalized_cert(g: Generalized, cert: Cert) -> Cert:
    """A bound expression's certificate as the binding uses it: substituted
    by the generalization and weakened to (scheme body, pure)."""
    return CSub(g.scheme.body, PURE, subst_cert(g.theta, cert))


def generalize(res: InferResult, supply: NameSupply,
               config: Config) -> Generalized:
    """Close res.type over its generated effect variables."""
    om = constraint_set(set(res.constraints) | {purity(res.effect)})
    if config.mode == "constrained":
        theta: dict[Name, Effect] = {}
        betas, gammas = [], []
        for a in res.gen:
            beta = supply.fresh(KIND_EFF)
            gamma = supply.fresh(KIND_EFF)
            betas.append(beta)
            gammas.append(gamma)
            theta[a] = effect_of(((beta, TOP), (gamma, TOP)))
        kept, propagated = separate(frozenset(gammas),
                                    subst_constraints(theta, om))
        scheme = Scheme(tuple(gammas), kept, subst_type(theta, res.type))
        return Generalized(scheme, tuple(betas), propagated, TOP, theta)

    # Constraint-free mode. With nothing generalized the substitution grid is
    # empty and minting would change nothing, so skip it.
    if not res.gen:
        return Generalized(Scheme((), frozenset(), res.type), (), om, TOP,
                           {})
    n = 2 ** arrow_count(res.type)
    if n > MAX_GEN_VARS:
        raise GenLimitError(
            f"constraint-free generalization wants {n} bound variables "
            f"(cap {MAX_GEN_VARS}); annotate the binding or use "
            f"constrained mode")
    gammas = [supply.fresh(KIND_EFF) for _ in range(n)]
    theta = {}
    betas = []
    for a in res.gen:
        beta = supply.fresh(KIND_EFF)
        grid = [supply.fresh(KIND_PROP) for _ in gammas]
        betas.append(beta)
        theta[a] = effect_of([(beta, TOP)] + [(g, Prop(p))
                                              for g, p in zip(gammas, grid)])
    om1 = subst_constraints(theta, om)
    propagated = subst_constraints({g: PURE for g in gammas}, om1)
    extra = omega_to_formula(om1, *gammas)
    scheme = Scheme(tuple(gammas), frozenset(), subst_type(theta, res.type))
    return Generalized(scheme, tuple(betas), propagated, extra, theta)


def infer(gamma: Mapping[Name, Scheme], expr: Expr, supply: NameSupply,
          config: Config) -> InferResult:
    """Reconstruct effects for expr under gamma.

    Returns the inferred type and effect together with the generated
    variables, propagated constraints, side formula and certificate. Raises
    InferError (ShapeError / GenLimitError) when no typing exists for
    structural reasons; unsatisfiable constraints are the caller's business.
    """
    if isinstance(expr, Var):
        if expr.name not in gamma:
            raise InferError(f"unbound variable {expr.name}")
        scheme = gamma[expr.name]
        deltas = [supply.fresh(KIND_EFF) for _ in scheme.binders]
        theta = {b: Effect.var(d) for b, d in zip(scheme.binders, deltas)}
        return InferResult(
            tuple(deltas), subst_type(theta, scheme.body), PURE,
            subst_constraints(theta, scheme.constraints), TOP,
            CVar(tuple((b, theta[b]) for b in scheme.binders)))

    if isinstance(expr, Lam):
        gen, t1 = tr_type(expr.ann, supply)
        inner = dict(gamma)
        inner[expr.param] = mono(t1)
        r = infer(inner, expr.body, supply, config)
        return InferResult(
            gen + r.gen, Arrow(t1, r.effect, r.type), PURE,
            r.constraints, r.formula, CAbs(t1, r.cert))

    if isinstance(expr, App):
        r1 = infer(gamma, expr.fn, supply, config)
        r2 = infer(gamma, expr.arg, supply, config)
        if not isinstance(r1.type, Arrow):
            raise ShapeError(f"applied a non-function of type {r1.type}")
        arrow = r1.type
        o_sub, f_sub = subtype(r2.type, arrow.param)
        eff = join(r1.effect, r2.effect, arrow.effect)
        target = Arrow(arrow.param, eff, arrow.result)
        return InferResult(
            r1.gen + r2.gen, arrow.result, eff,
            r1.constraints | r2.constraints | o_sub,
            conj2(r1.formula, conj2(r2.formula, f_sub)),
            CApp(CSub(target, eff, r1.cert),
                 CSub(arrow.param, eff, r2.cert)))

    if isinstance(expr, Let):
        r1 = infer(gamma, expr.bound, supply, config)
        g = generalize(r1, supply, config)
        inner = dict(gamma)
        inner[expr.name] = g.scheme
        r2 = infer(inner, expr.body, supply, config)
        return InferResult(
            g.gen + r2.gen, r2.type, r2.effect, g.omega_p | r2.constraints,
            conj2(r1.formula, conj2(g.formula, r2.formula)),
            CLet(g.scheme, generalized_cert(g, r1.cert), r2.cert))

    if isinstance(expr, TLam):
        r = infer(gamma, expr.body, supply, config)
        return InferResult(
            r.gen, ForallTyp(expr.binder, r.type), PURE,
            constraint_set(set(r.constraints) | {purity(r.effect)}),
            r.formula, CTAbs(CSub(r.type, PURE, r.cert)))

    if isinstance(expr, ELam):
        r = infer(gamma, expr.body, supply, config)
        alpha = expr.binder
        om = constraint_set(set(r.constraints) | {purity(r.effect)})
        new_gen, theta = _rebind_under(alpha, r.gen, supply)
        om1 = subst_constraints(theta, om)
        body_type = subst_type(theta, r.type)
        return InferResult(
            new_gen, ForallEff(alpha, body_type), PURE,
            subst_constraints({alpha: PURE}, om1),
            conj2(r.formula, omega_to_formula(om1, alpha)),
            CEAbs(CSub(body_type, PURE, subst_cert(theta, r.cert))))

    if isinstance(expr, TyApp):
        r = infer(gamma, expr.fn, supply, config)
        if not isinstance(r.type, ForallTyp):
            raise ShapeError(f"type application to a non-quantified type "
                             f"{r.type}")
        gen, t2 = tr_type(expr.arg, supply)
        return InferResult(
            r.gen + gen, subst_type_vars({r.type.binder: t2}, r.type.body),
            r.effect, r.constraints, r.formula, CTApp(r.cert, t2))

    if isinstance(expr, EfApp):
        r = infer(gamma, expr.fn, supply, config)
        if not isinstance(r.type, ForallEff):
            raise ShapeError(f"effect application to a non-quantified type "
                             f"{r.type}")
        gen, e2 = tr_effect(expr.arg, supply)
        return InferResult(
            r.gen + gen, subst_type({r.type.binder: e2}, r.type.body),
            r.effect, r.constraints, r.formula, CEApp(r.cert, e2))

    raise TypeError(f"not an expression: {expr!r}")
