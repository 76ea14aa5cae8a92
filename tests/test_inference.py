"""Effect reconstruction: annotation translation, subtyping, generalization."""
import pytest

from efl.declarative import (CApp, CLet, CSub, CVar, ReplayScope,
                             check_certificate)
from efl.effects import (PURE, Arrow, Effect, ForallEff, ForallTyp, Scheme,
                         TVar, join, mono)
from efl.formulas import TOP, Implies, Prop
from efl.inference import (Config, GenLimitError, InferError, ShapeError,
                           generalize, infer, normalize, separate, subtype,
                           tr_effect, tr_type)
from efl.names import KIND_EFF, KIND_EXPR
from helpers import con, parse_expr, parse_type, scope_of
from oracles import cert_props

CONSTRAINED = Config()
CF = Config(mode="constraint-free")


def _ctx(ns, supply):
    """A tiny typing context: u, launch, weaken (effect-polymorphic)."""
    u = TVar(ns.typ("Unit"))
    io = ns.ev("IO")
    scope = scope_of(ns.typ("Unit"), ns.eff("IO"), ns.eff("DB"))
    gamma = {}

    def bind(text, scheme):
        name = supply.fresh(KIND_EXPR, text)
        scope[KIND_EXPR, text] = name
        gamma[name] = scheme

    a = supply.fresh(KIND_EFF, "a")
    bind("u", mono(u))
    bind("launch", mono(Arrow(u, io, u)))
    bind("weaken", mono(ForallEff(a, Arrow(Arrow(u, Effect.var(a), u), PURE,
                                           Arrow(u, Effect.var(a), u)))))
    return u, io, scope, gamma


# -- annotation translation --------------------------------------------------


def test_tr_effect_wildcards_mint_fresh_variables(ns, supply):
    scope = scope_of(ns.typ("Unit"), ns.eff("IO"))
    ann = parse_type("Unit ->[IO \\/ _ \\/ _] Unit", supply, scope).effect
    gen, eff = tr_effect(ann, supply)
    assert len(gen) == 2 and len(set(gen)) == 2
    assert eff.atom_names() == {ns.eff("IO"), *gen}
    assert all(eff.guard_of(g) == TOP for g in gen)


def test_tr_effect_named_and_pure(ns, supply):
    scope = scope_of(ns.typ("Unit"), ns.eff("IO"))
    gen, eff = tr_effect(parse_type("Unit ->[IO] Unit", supply, scope).effect,
                         supply)
    assert gen == () and eff == ns.ev("IO")
    gen, eff = tr_effect(parse_type("Unit ->[] Unit", supply, scope).effect,
                         supply)
    assert gen == () and eff == PURE


def test_tr_type_rewires_wildcards_under_effect_quantifier(ns, supply):
    scope = scope_of(ns.typ("Unit"))
    st = parse_type("forall eff a. Unit ->[_] Unit", supply, scope)
    before = len(supply.props)
    gen, t = tr_type(st, supply)
    props = supply.props[before:]
    assert len(props) == 1 and len(gen) == 1
    assert isinstance(t, ForallEff)
    eff = t.body.effect
    assert eff.atom_names() == {t.binder, gen[0]}
    assert eff.guard_of(t.binder) == Prop(props[0])
    assert eff.guard_of(gen[0]) == TOP


def test_tr_type_no_quantifier_no_guards(ns, supply):
    scope = scope_of(ns.typ("Unit"))
    st = parse_type("Unit ->[_] Unit", supply, scope)
    before = len(supply.props)
    gen, t = tr_type(st, supply)
    assert supply.props[before:] == [] and len(gen) == 1
    assert t.effect == Effect.var(gen[0])


# -- algorithmic subtyping ---------------------------------------------------


def test_subtype_arrow_emits_effect_constraint(ns):
    u = TVar(ns.typ("Unit"))
    x, y = ns.ev("x"), ns.ev("y")
    omega, phi = subtype(Arrow(u, x, u), Arrow(u, y, u))
    assert omega == {con(x, y)}
    assert phi == TOP


def test_subtype_contravariance_flips_constraint(ns):
    u = TVar(ns.typ("Unit"))
    x, y = ns.ev("x"), ns.ev("y")
    t1 = Arrow(Arrow(u, x, u), PURE, u)
    t2 = Arrow(Arrow(u, y, u), PURE, u)
    omega, _ = subtype(t1, t2)
    assert omega == {con(y, x)}


def test_subtype_effect_quantifier_projects_to_formula(ns, supply):
    u = TVar(ns.typ("Unit"))
    a1 = supply.fresh(KIND_EFF, "a1")
    a2 = supply.fresh(KIND_EFF, "a2")
    p, q = ns.p("p"), ns.p("q")
    t1 = ForallEff(a1, Arrow(u, Effect(((a1, p),)), u))
    t2 = ForallEff(a2, Arrow(u, Effect(((a2, q),)), u))
    omega, phi = subtype(t1, t2)
    assert omega == frozenset()
    assert phi == Implies(p, q)


def test_subtype_identical_quantifiers_are_free(ns, supply):
    u = TVar(ns.typ("Unit"))
    a1 = supply.fresh(KIND_EFF, "a1")
    a2 = supply.fresh(KIND_EFF, "a2")
    t1 = ForallEff(a1, Arrow(u, Effect.var(a1), u))
    t2 = ForallEff(a2, Arrow(u, Effect.var(a2), u))
    assert subtype(t1, t2) == (frozenset(), TOP)


def test_subtype_shape_errors(ns):
    u = TVar(ns.typ("Unit"))
    w = TVar(ns.typ("Other"))
    with pytest.raises(ShapeError):
        subtype(u, w)
    with pytest.raises(ShapeError):
        subtype(u, Arrow(u, PURE, u))


def test_subtype_of_quantifiers_of_different_kinds_is_a_shape_error(ns):
    """A type quantifier against an effect quantifier, in both orders, even
    over one body; each kind against itself is still related."""
    u = TVar(ns.typ("Unit"))
    by_typ = ForallTyp(ns.typ("t"), u)
    by_eff = ForallEff(ns.eff("e"), u)
    for t1, t2 in ((by_typ, by_eff), (by_eff, by_typ)):
        with pytest.raises(ShapeError, match="shape mismatch"):
            subtype(t1, t2)
    assert subtype(by_typ, ForallTyp(ns.typ("s"), u)) == (frozenset(), TOP)
    assert subtype(by_eff, ForallEff(ns.eff("f"), u)) == (frozenset(), TOP)


# -- normalization and separation --------------------------------------------


def test_normalize_splits_joined_lhs(ns):
    x, y, z = ns.ev("x"), ns.ev("y"), ns.ev("z")
    c = con(join(x, ns.atom("y", ns.p("p"))), z)
    assert normalize([c]) == {con(x, z), con(ns.atom("y", ns.p("p")), z)}


def test_separate_zeroes_bound_vars_in_propagated_rhs(ns):
    io = ns.ev("IO")
    beta, gamma = ns.eff("beta"), ns.eff("gamma")
    kept, propagated = separate(
        frozenset({gamma}), {con(io, join(Effect.var(beta),
                                          Effect.var(gamma)))})
    assert kept == frozenset()
    assert propagated == {con(io, Effect.var(beta))}


def test_separate_keeps_bounds_on_scheme_variables(ns):
    io = ns.ev("IO")
    gamma = ns.eff("gamma")
    c = con(ns.atom("gamma", ns.p("p")), io)
    kept, propagated = separate(frozenset({gamma}), {c})
    assert kept == {c}
    assert propagated == frozenset()


# -- inference ---------------------------------------------------------------


def test_infer_var_instantiates_scheme(ns, supply):
    u = TVar(ns.typ("Unit"))
    io = ns.ev("IO")
    a = supply.fresh(KIND_EFF, "a")
    v = supply.fresh(KIND_EXPR, "v")
    gamma = {v: Scheme((a,), frozenset({con(Effect.var(a), io)}),
                       Arrow(u, Effect.var(a), u))}
    from efl.syntax import Var
    res = infer(gamma, Var(v), supply, CONSTRAINED)
    assert len(res.gen) == 1
    delta = Effect.var(res.gen[0])
    assert res.type == Arrow(u, delta, u)
    assert res.effect == PURE
    assert res.constraints == {con(delta, io)}
    assert res.cert == CVar(((a, delta),))


def test_infer_lambda_and_application(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    res = infer(gamma, parse_expr("fn (x : Unit) => launch x", supply, scope),
                supply, CONSTRAINED)
    assert res.type == Arrow(u, io, u)
    assert res.effect == PURE
    assert res.constraints == frozenset() and res.formula == TOP
    t, e = check_certificate(ReplayScope(frozenset(), {}), gamma,
                             parse_expr("fn (x : Unit) => launch x", supply,
                                        scope), res.cert)
    # replaying the certificate of a syntactically equal expression works
    assert (t, e) == (res.type, res.effect)


def test_infer_application_joins_effects(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    expr = parse_expr("launch (launch u)", supply, scope)
    res = infer(gamma, expr, supply, CONSTRAINED)
    assert res.type == u and res.effect == io
    assert isinstance(res.cert, CApp)
    assert res.cert.fn == CSub(Arrow(u, io, u), io, res.cert.fn.inner)
    t, e = check_certificate(ReplayScope(frozenset(), {}), gamma,
                             expr, res.cert)
    assert (t, e) == (u, io)


def test_infer_effect_application_with_wildcard(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    expr = parse_expr("(weaken [eff _]) launch", supply, scope)
    res = infer(gamma, expr, supply, CONSTRAINED)
    assert len(res.gen) == 1
    beta = Effect.var(res.gen[0])
    assert res.type == Arrow(u, beta, u)
    assert res.constraints == {con(io, beta)}
    t, e = check_certificate(ReplayScope(res.constraints, {}),
                             gamma, expr, res.cert)
    assert (t, e) == (res.type, res.effect)


def test_generalize_constrained_splits_survivor_and_binder(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    res = infer(gamma, parse_expr("(weaken [eff _]) launch", supply, scope),
                supply, CONSTRAINED)
    g = generalize(res, supply, CONSTRAINED)
    (gam,) = g.scheme.binders
    (beta,) = g.gen
    assert g.scheme.constraints == frozenset()
    assert g.scheme.body == Arrow(u, join(Effect.var(beta), Effect.var(gam)),
                                  u)
    assert g.omega_p == {con(io, Effect.var(beta))}
    assert g.formula == TOP
    assert g.theta[res.gen[0]] == join(Effect.var(beta), Effect.var(gam))


def test_infer_let_generalizes_wildcard(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    expr = parse_expr("let w = (weaken [eff _]) launch in w", supply, scope)
    res = infer(gamma, expr, supply, CONSTRAINED)
    assert isinstance(res.cert, CLet)
    scheme = res.cert.scheme
    assert len(scheme.binders) == 1
    # the propagated bound survives outside the scheme
    (beta, delta) = res.gen
    assert con(io, Effect.var(beta)) in res.constraints
    assert res.type == Arrow(u, join(Effect.var(beta), Effect.var(delta)), u)


def test_infer_effect_abstraction_requires_pure_body(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    res = infer(gamma, parse_expr("efun e => launch u", supply, scope),
                supply, CONSTRAINED)
    assert con(io, PURE) in res.constraints
    res2 = infer(gamma, parse_expr("tfun t => launch u", supply, scope),
                 supply, CONSTRAINED)
    assert con(io, PURE) in res2.constraints


def test_infer_effect_abstraction_rewires_wildcards(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    expr = parse_expr("efun e => fn (k : Unit ->[_] Unit) => k", supply,
                      scope)
    before = len(supply.props)
    res = infer(gamma, expr, supply, CONSTRAINED)
    props = supply.props[before:]
    assert isinstance(res.type, ForallEff)
    param_eff = res.type.body.param.effect
    assert len(res.gen) == 1 and len(props) == 1
    assert param_eff.guard_of(res.type.binder) == Prop(props[0])
    assert param_eff.guard_of(res.gen[0]) == TOP
    assert res.effect == PURE
    rho = dict.fromkeys(cert_props(res.cert), False)
    t, e = check_certificate(ReplayScope(frozenset(), rho), gamma, expr,
                             res.cert)
    assert (t, e) == (res.type, PURE)


def test_infer_shape_errors(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    with pytest.raises(ShapeError, match="non-function"):
        infer(gamma, parse_expr("u u", supply, scope), supply, CONSTRAINED)
    with pytest.raises(ShapeError, match="type application"):
        infer(gamma, parse_expr("u [type Unit]", supply, scope),
              supply, CONSTRAINED)
    with pytest.raises(ShapeError, match="effect application"):
        infer(gamma, parse_expr("u [eff IO]", supply, scope),
              supply, CONSTRAINED)
    with pytest.raises(InferError, match="unbound"):
        from efl.syntax import Var
        infer({}, Var(supply.fresh(KIND_EXPR, "ghost")), supply, CONSTRAINED)


def test_infer_argument_shape_mismatch(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    with pytest.raises(ShapeError, match="shape mismatch"):
        infer(gamma, parse_expr("launch launch", supply, scope),
              supply, CONSTRAINED)


# -- constraint-free mode ----------------------------------------------------


def test_cf_generalize_skips_when_nothing_generated(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    res = infer(gamma, parse_expr("launch", supply, scope), supply, CF)
    before = len(supply.props)
    g = generalize(res, supply, CF)
    assert g.scheme == Scheme((), frozenset(), Arrow(u, io, u))
    assert g.theta == {} and supply.props[before:] == []
    assert g.formula == TOP


def test_cf_generalize_mints_one_binder_per_arrow_subset(ns, supply):
    u, io, scope, gamma = _ctx(ns, supply)
    res = infer(gamma, parse_expr("(weaken [eff _]) launch", supply, scope),
                supply, CF)
    before = len(supply.props)
    g = generalize(res, supply, CF)
    # one arrow in the bound type: 2 grid binders, no kept constraints
    assert len(g.scheme.binders) == 2
    assert g.scheme.constraints == frozenset()
    # one grid proposition per binder
    assert len(supply.props) - before == 2
    (beta,) = g.gen
    assert g.omega_p == {con(io, Effect.var(beta))}


def test_cf_generalization_cap(ns, supply):
    """A 17-arrow annotation asks for at least 2**17 grid binders, over the
    2**16 cap, which is checked before any of them is minted."""
    u, io, scope, gamma = _ctx(ns, supply)
    ann = "Unit ->[_] " * 17 + "Unit"
    expr = parse_expr(f"let w = fn (k : {ann}) => k in w", supply, scope)
    with pytest.raises(GenLimitError,
                       match=r"\(cap 65536\); annotate the binding"):
        infer(gamma, expr, supply, CF)


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        Config(mode="loose")
