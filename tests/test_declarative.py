"""Declarative judgements under a fixed valuation, and certificate replay."""
import random

import pytest

from efl.declarative import (CAbs, CApp, CEAbs, CEApp, CertificateError,
                             CLet, CSub, CTAbs, CTApp, CVar, ReplayScope,
                             check_certificate, entails,
                             match_effect, match_type, subeffect_holds,
                             subst_cert, subtype_holds)
from efl.effects import (PURE, Arrow, Effect, ForallEff, ForallTyp, Scheme,
                         TVar, join, map_type, mono)
from efl.names import KIND_EFF, KIND_EXPR, KIND_PROP, KIND_TYPE, NameSupply
from efl.syntax import (App, EfApp, ELam, Let, SEVar, SForallEff, SForallTyp,
                        STVar, TLam, TyApp, Var)
from helpers import (certificate_valid, con, parse_expr, parse_type, scope_of,
                     types_equivalent)
from oracles import cert_props, random_effect, random_type

RHO0 = {}
EMPTY = ReplayScope((), RHO0)


def _scope(ns, effs=("IO", "DB", "a", "b"), typs=("Unit",)):
    return scope_of(*map(ns.eff, effs), *map(ns.typ, typs))


# -- annotation matching -----------------------------------------------------


def test_match_effect_exact_without_wildcard(ns, supply):
    scope = _scope(ns)
    ann = parse_type("Unit ->[IO] Unit", supply, scope).effect
    assert match_effect(ann, ns.ev("IO"), RHO0)
    assert not match_effect(ann, join(ns.ev("IO"), ns.ev("DB")), RHO0)
    assert not match_effect(ann, PURE, RHO0)


def test_match_effect_wildcard_absorbs_leftovers(ns, supply):
    scope = _scope(ns)
    ann = parse_type("Unit ->[IO \\/ _] Unit", supply, scope).effect
    assert match_effect(ann, ns.ev("IO"), RHO0)
    assert match_effect(ann, join(ns.ev("IO"), ns.ev("DB")), RHO0)
    assert not match_effect(ann, ns.ev("DB"), RHO0)  # IO is required
    bare = parse_type("Unit ->[_] Unit", supply, scope).effect
    assert match_effect(bare, PURE, RHO0)
    assert match_effect(bare, join(ns.ev("IO"), ns.ev("DB")), RHO0)


def test_match_effect_erases_guards_first(ns, supply):
    scope = _scope(ns)
    p = ns.prop("p")
    guarded = ns.atom("IO", ns.p("p"))
    named = parse_type("Unit ->[IO] Unit", supply, scope).effect
    assert match_effect(named, guarded, {p: True})
    assert not match_effect(named, guarded, {p: False})
    wild = parse_type("Unit ->[_] Unit", supply, scope).effect
    assert match_effect(wild, guarded, {p: False})


def test_match_type_structure(ns, supply):
    scope = _scope(ns)
    u = TVar(ns.typ("Unit"))
    ann = parse_type("Unit ->[IO] Unit", supply, scope)
    assert match_type(ann, Arrow(u, ns.ev("IO"), u), RHO0)
    assert not match_type(ann, Arrow(u, PURE, u), RHO0)
    assert not match_type(ann, u, RHO0)


def test_match_type_renames_quantifier_binders(ns, supply):
    scope = _scope(ns)
    u = TVar(ns.typ("Unit"))
    ann = parse_type("forall eff e. Unit ->[e] Unit", supply, scope)
    other = ns.eff("fresh")
    t = ForallEff(other, Arrow(u, Effect.var(other), u))
    assert match_type(ann, t, RHO0)
    # binder positions matter: the body must use the bound variable
    t_wrong = ForallEff(other, Arrow(u, ns.ev("IO"), u))
    assert not match_type(ann, t_wrong, RHO0)


def test_quantifiers_of_different_kinds_never_relate(ns):
    """A type quantifier and an effect quantifier over one body: neither is
    a subtype of the other, and an annotation quantified one way matches no
    type quantified the other way. Each kind against itself still does."""
    u = TVar(ns.typ("Unit"))
    by_typ = ForallTyp(ns.typ("t"), u)
    by_eff = ForallEff(ns.eff("e"), u)
    assert not subtype_holds(EMPTY, by_typ, by_eff)
    assert not subtype_holds(EMPTY, by_eff, by_typ)
    assert subtype_holds(EMPTY, by_typ, ForallTyp(ns.typ("s"), u))
    assert subtype_holds(EMPTY, by_eff, ForallEff(ns.eff("f"), u))
    ann_typ = SForallTyp(ns.typ("s"), STVar(ns.typ("Unit")))
    ann_eff = SForallEff(ns.eff("f"), STVar(ns.typ("Unit")))
    assert not match_type(ann_typ, by_eff, RHO0)
    assert not match_type(ann_eff, by_typ, RHO0)
    assert match_type(ann_typ, by_typ, RHO0)
    assert match_type(ann_eff, by_eff, RHO0)


# -- subeffecting ------------------------------------------------------------


def test_subeffect_reflexive_and_join(ns):
    x, y = ns.ev("x"), ns.ev("y")
    assert subeffect_holds(EMPTY, x, x)
    assert subeffect_holds(EMPTY, PURE, x)
    assert subeffect_holds(EMPTY, x, join(x, y))
    assert not subeffect_holds(EMPTY, join(x, y), x)


def test_subeffect_uses_assumptions(ns):
    io, db = ns.ev("IO"), ns.ev("DB")
    scope = ReplayScope([con(io, db)], RHO0)
    assert subeffect_holds(scope, join(io, db), db)
    assert not subeffect_holds(scope, db, io)


def test_subeffect_chains_transitively(ns):
    x, y, z = ns.ev("x"), ns.ev("y"), ns.ev("z")
    scope = ReplayScope([con(x, y), con(y, z)], RHO0)
    assert subeffect_holds(scope, x, z)
    assert not subeffect_holds(scope, z, x)


def test_subeffect_rule_fires_only_when_rhs_covered(ns):
    x, y, z = ns.ev("x"), ns.ev("y"), ns.ev("z")
    # x <: z cannot help the goal x <: y because z is never covered
    assert not subeffect_holds(ReplayScope([con(x, z)], RHO0), x, y)


def test_subeffect_respects_guards(ns):
    p = ns.prop("p")
    x, y = ns.ev("x"), ns.ev("y")
    omega = [con(ns.atom("x", ns.p("p")), y)]
    on = {p: True}
    off = {p: False}
    assert subeffect_holds(ReplayScope(omega, on), x, y)
    assert not subeffect_holds(ReplayScope(omega, off), x, y)
    # a guarded goal vanishes when its guard is false
    xp = ns.atom("x", ns.p("p"))
    assert subeffect_holds(ReplayScope([], off), xp, PURE)
    assert not subeffect_holds(ReplayScope([], on), xp, PURE)


def test_entails(ns):
    x, y, z = ns.ev("x"), ns.ev("y"), ns.ev("z")
    scope = ReplayScope([con(x, y), con(y, z)], RHO0)
    assert entails(scope, [con(x, z), con(x, y)])
    assert not entails(scope, [con(z, x)])


# -- subtyping ---------------------------------------------------------------


def test_subtype_contravariant_parameters(ns):
    u = TVar(ns.typ("Unit"))
    io, db = ns.ev("IO"), ns.ev("DB")
    wide = Arrow(Arrow(u, join(io, db), u), PURE, u)
    narrow = Arrow(Arrow(u, io, u), PURE, u)
    assert subtype_holds(EMPTY, wide, narrow)
    assert not subtype_holds(EMPTY, narrow, wide)


def test_subtype_covariant_results_and_effects(ns):
    u = TVar(ns.typ("Unit"))
    io, db = ns.ev("IO"), ns.ev("DB")
    assert subtype_holds(EMPTY, Arrow(u, io, u), Arrow(u, join(io, db), u))
    assert not subtype_holds(EMPTY, Arrow(u, join(io, db), u),
                             Arrow(u, io, u))


def test_subtype_renames_effect_binders(ns, supply):
    u = TVar(ns.typ("Unit"))
    a = supply.fresh("eff", "a")
    b = supply.fresh("eff", "b")
    t1 = ForallEff(a, Arrow(u, Effect.var(a), u))
    t2 = ForallEff(b, Arrow(u, Effect.var(b), u))
    assert subtype_holds(EMPTY, t1, t2)
    assert types_equivalent([], RHO0, t1, t2)


def test_types_equivalent_uses_assumptions(ns):
    u = TVar(ns.typ("Unit"))
    x, y = ns.ev("x"), ns.ev("y")
    omega = [con(x, y), con(y, x)]
    assert types_equivalent(omega, RHO0, Arrow(u, x, u), Arrow(u, y, u))
    assert not types_equivalent([], RHO0, Arrow(u, x, u), Arrow(u, y, u))


def test_subtype_of_one_object_agrees_with_an_equal_copy():
    """t <= t is answered without a walk when both sides are one object;
    a walk against an equal but distinct copy must give the same answer."""
    for seed in range(300):
        rng = random.Random(seed)
        supply = NameSupply()
        atoms = [supply.fresh(KIND_EFF, t) for t in ("IO", "DB", "e")]
        tvars = [supply.fresh(KIND_TYPE, t) for t in ("Unit", "Int")]
        props = [supply.fresh(KIND_PROP) for _ in range(3)]
        t = random_type(rng, supply, atoms, tvars, props, [],
                        depth=rng.randint(1, 6))
        copy = map_type(t, lambda e: Effect(e.atoms),
                        lambda v: TVar(v.name))
        assert copy == t and copy is not t
        omega = [con(random_effect(rng, atoms, props),
                     random_effect(rng, atoms, props))
                 for _ in range(rng.randint(0, 4))]
        rho = {p: rng.random() < 0.5 for p in props}
        scope = ReplayScope(omega, rho)
        assert (subtype_holds(scope, t, t)
                == subtype_holds(scope, t, copy)), seed


# -- certificates ------------------------------------------------------------


def _app_setup(ns, supply):
    """gamma with f : Unit ->[IO] Unit and x : Unit; expr `f x`."""
    u = TVar(ns.typ("Unit"))
    io = ns.ev("IO")
    f = supply.fresh(KIND_EXPR, "f")
    x = supply.fresh(KIND_EXPR, "x")
    gamma = {f: mono(Arrow(u, io, u)), x: mono(u)}
    expr = App(Var(f), Var(x))
    return u, io, gamma, expr


def test_certificate_application_replays(ns, supply):
    u, io, gamma, expr = _app_setup(ns, supply)
    cert = CApp(CSub(Arrow(u, io, u), io, CVar(())),
                CSub(u, io, CVar(())))
    t, e = check_certificate(EMPTY, gamma, expr, cert)
    assert t == u and e == io
    assert certificate_valid(frozenset(), RHO0, gamma, expr, cert)


def test_certificate_application_requires_equal_effects(ns, supply):
    u, io, gamma, expr = _app_setup(ns, supply)
    # argument effect left pure: operand/operator/arrow effects must agree
    cert = CApp(CSub(Arrow(u, io, u), io, CVar(())), CVar(()))
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, expr, cert)
    assert exc.value.rule == "app"


def test_certificate_application_requires_exact_argument_type(ns, supply):
    u, io, gamma, expr = _app_setup(ns, supply)
    bad = CApp(CSub(Arrow(Arrow(u, PURE, u), io, u), io, CVar(())),
               CSub(Arrow(u, PURE, u), io, CVar(())))
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, expr, bad)
    assert exc.value.rule == "sub"  # the CSub retype of f is not a supertype


def test_certificate_sub_rejects_non_subeffect(ns, supply):
    u, io, gamma, expr = _app_setup(ns, supply)
    f = expr.fn.name
    shrunk = CSub(Arrow(u, io, u), PURE, CSub(Arrow(u, io, u), io, CVar(())))
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, Var(f), shrunk)
    assert exc.value.rule == "sub"
    assert "subeffect" in str(exc.value)


def test_certificate_shape_mismatch_names_the_rule(ns, supply):
    u, io, gamma, expr = _app_setup(ns, supply)
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, expr, CVar(()))
    assert exc.value.rule == "app"


def test_certificate_lambda_annotation_must_match(ns, supply):
    scope = _scope(ns)
    u = TVar(ns.typ("Unit"))
    expr = parse_expr("fn (x : Unit ->[IO] Unit) => x", supply, scope)
    good = CAbs(Arrow(u, ns.ev("IO"), u), CVar(()))
    t, e = check_certificate(EMPTY, {}, expr, good)
    assert t == Arrow(Arrow(u, ns.ev("IO"), u), PURE,
                      Arrow(u, ns.ev("IO"), u))
    assert e == PURE
    bad = CAbs(u, CVar(()))
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, {}, expr, bad)
    assert exc.value.rule == "abs"


def test_certificate_var_instantiation_checks_constraints(ns, supply):
    u = TVar(ns.typ("Unit"))
    a = ns.eff("a")
    io, db = ns.ev("IO"), ns.ev("DB")
    w = supply.fresh(KIND_EXPR, "w")
    gamma = {w: Scheme((a,), frozenset({con(Effect.var(a), io)}),
                       Arrow(u, Effect.var(a), u))}
    good = CVar(((a, io),))
    t, _ = check_certificate(EMPTY, gamma, Var(w), good)
    assert t == Arrow(u, io, u)
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, Var(w), CVar(((a, db),)))
    assert exc.value.rule == "var"
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, Var(w), CVar(()))
    assert "binders" in str(exc.value)


def test_certificate_let_scopes_scheme_constraints(ns, supply):
    scope = _scope(ns)
    u = TVar(ns.typ("Unit"))
    b = ns.eff("b")
    io = ns.ev("IO")
    k = supply.fresh(KIND_EXPR, "k")
    scope[KIND_EXPR, "k"] = k
    gamma = {k: mono(Arrow(u, io, u))}
    expr = parse_expr("let w = k in w", supply, scope)
    scheme = Scheme((b,), frozenset({con(io, Effect.var(b))}),
                    Arrow(u, Effect.var(b), u))
    cert = CLet(scheme,
                CSub(Arrow(u, Effect.var(b), u), PURE, CVar(())),
                CVar(((b, io),)))
    t, e = check_certificate(EMPTY, gamma, expr, cert)
    assert t == Arrow(u, io, u) and e == PURE
    # without the scheme constraint in scope, the bound retype is invalid
    bare = CLet(Scheme((b,), frozenset(), Arrow(u, Effect.var(b), u)),
                CSub(Arrow(u, Effect.var(b), u), PURE, CVar(())),
                CVar(((b, io),)))
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, expr, bare)
    assert exc.value.rule == "sub"



def _defective_certificates(ns, supply):
    """gamma, and by name certificates that each break one check of
    `check_certificate`: (expression, certificate, the rule that rejects
    it, words of its message). Inference emits none of them."""
    u, i = TVar(ns.typ("Unit")), TVar(ns.typ("Int"))
    io, db = ns.ev("IO"), ns.ev("DB")
    k, x, y, f, w, g, h = (supply.fresh(KIND_EXPR, n) for n in "kxyfwgh")
    t, a = supply.fresh(KIND_TYPE, "t"), supply.fresh(KIND_EFF, "a")
    pure_fn, io_fn = Arrow(u, PURE, u), Arrow(u, io, u)
    gamma = {k: mono(io_fn), x: mono(u), y: mono(pure_fn),
             f: mono(Arrow(pure_fn, PURE, u)),
             g: mono(ForallTyp(t, Arrow(TVar(t), PURE, TVar(t)))),
             h: mono(ForallEff(a, Arrow(u, Effect.var(a), u)))}
    # `k x`, whose effect is IO
    kx = App(Var(k), Var(x))
    kx_cert = CApp(CSub(io_fn, io, CVar(())), CSub(u, io, CVar(())))
    return gamma, {
        "let-impure-bound": (Let(w, kx, Var(w)),
                             CLet(mono(u), kx_cert, CVar(())),
                             "let", "bound expression is not pure"),
        "let-bound-not-scheme-body": (Let(w, Var(x), Var(w)),
                                      CLet(mono(pure_fn), CVar(()), CVar(())),
                                      "let", "is not the scheme body"),
        "tabs-impure-body": (TLam(t, kx), CTAbs(kx_cert),
                             "tabs", "body is not pure"),
        "eabs-impure-body": (ELam(a, kx), CEAbs(kx_cert),
                             "eabs", "body is not pure"),
        "tapp-annotation": (TyApp(Var(g), STVar(u.name)),
                            CTApp(CVar(()), i), "tapp", "does not match"),
        "eapp-annotation": (EfApp(Var(h), SEVar(ns.eff("IO"))),
                            CEApp(CVar(()), db), "eapp", "does not match"),
        # both retypes are valid (Unit ->[] Unit <: Unit ->[IO] Unit), so
        # the exact-parameter check of `app` is the first to fail
        "app-argument-type": (App(Var(f), Var(y)),
                              CApp(CSub(Arrow(pure_fn, PURE, u), PURE,
                                        CVar(())),
                                   CSub(io_fn, PURE, CVar(()))),
                              "app", "is not exactly"),
        "app-non-function": (App(Var(x), Var(x)), CApp(CVar(()), CVar(())),
                             "app", "applied a non-function"),
        "tapp-non-forall": (TyApp(Var(x), STVar(u.name)),
                            CTApp(CVar(()), u), "tapp", "non-forall"),
        "eapp-non-forall": (EfApp(Var(x), SEVar(ns.eff("IO"))),
                            CEApp(CVar(()), io), "eapp", "non-forall"),
        "var-unbound": (Var(w), CVar(()), "var", "unbound variable"),
    }


@pytest.mark.parametrize("defect", [
    "let-impure-bound", "let-bound-not-scheme-body", "tabs-impure-body",
    "eabs-impure-body", "tapp-annotation", "eapp-annotation",
    "app-argument-type", "app-non-function", "tapp-non-forall",
    "eapp-non-forall", "var-unbound"])
def test_each_check_rejects_its_defective_certificate(ns, supply, defect):
    gamma, defects = _defective_certificates(ns, supply)
    expr, cert, rule, words = defects[defect]
    with pytest.raises(CertificateError) as exc:
        check_certificate(EMPTY, gamma, expr, cert)
    assert exc.value.rule == rule
    assert words in str(exc.value)

def test_subst_cert_rewrites_annotations(ns):
    u = TVar(ns.typ("Unit"))
    a, b = ns.eff("a"), ns.eff("b")
    cert = CSub(Arrow(u, Effect.var(a), u), Effect.var(a), CVar(()))
    got = subst_cert({a: Effect.var(b)}, cert)
    assert got == CSub(Arrow(u, Effect.var(b), u), Effect.var(b), CVar(()))


def test_cert_props_collects_guard_propositions(ns):
    u = TVar(ns.typ("Unit"))
    cert = CSub(Arrow(u, ns.atom("a", ns.p("p")), u),
                ns.atom("b", ns.p("q")), CVar(()))
    assert cert_props(cert) == {ns.prop("p"), ns.prop("q")}
