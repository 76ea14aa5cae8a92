"""Independent oracles: derivation search, program generator, scheme tools."""
import random

import pytest

from efl.declarative import ReplayScope, subeffect_holds
from efl.effects import (PURE, Arrow, Effect, ForallEff, Scheme, TVar, join,
                         mono)
from efl.names import KIND_EFF, NameSupply
from efl.inference import subtype
from efl.syntax import parse_program
from helpers import con, props
from oracles import (GEN_PRELUDE, concretize_scheme,
                     derivation_search_subeffect, effect_universe,
                     end_to_end_soundness, gen_program,
                     has_wildcard_under_quantifier, parse_closed_type,
                     random_effect, random_guard, random_type_pair,
                     scheme_more_general, schemes_equivalent)

RHO0 = {}


# -- derivation search ---------------------------------------------------------


def test_search_matches_closure_on_hand_cases(ns):
    x, y, z, w = (ns.ev(t) for t in ("x", "y", "z", "w"))
    cases = [
        ([], x, x, True),
        ([], PURE, x, True),
        ([], x, join(x, y), True),
        ([], join(x, y), x, False),
        ([con(x, y)], x, y, True),
        ([con(x, y)], y, x, False),
        ([con(x, y), con(y, z)], x, z, True),
        ([con(x, z), con(y, z)], join(x, y), z, True),
        ([con(x, join(y, z)), con(y, w), con(z, w)], x, w, True),
        ([con(x, z)], x, y, False),
    ]
    for omega, e1, e2, expected in cases:
        assert subeffect_holds(ReplayScope(omega, RHO0), e1, e2) == expected
        assert derivation_search_subeffect(omega, RHO0, e1, e2) == expected


def test_search_matches_closure_on_guarded_cases(ns):
    p = ns.prop("p")
    x, y = ns.ev("x"), ns.ev("y")
    xp = ns.atom("x", ns.p("p"))
    on, off = {p: True}, {p: False}
    cases = [
        ([], on, xp, x, True),
        ([], off, xp, PURE, True),
        ([], on, xp, PURE, False),
        ([con(x, y)], on, xp, y, True),
        ([con(x, y)], off, xp, y, True),
        ([], on, x, xp, True),
        ([], off, x, xp, False),
    ]
    for omega, rho, e1, e2, expected in cases:
        assert subeffect_holds(ReplayScope(omega, rho), e1, e2) == expected
        assert derivation_search_subeffect(omega, rho, e1, e2) == expected


def test_search_matches_closure_exhaustively_small(ns):
    x, y = ns.ev("x"), ns.ev("y")
    sides = [PURE, x, y, join(x, y)]
    omegas = [[], [con(x, y)], [con(x, y), con(y, x)],
              [con(join(x, y), x)]]
    for omega in omegas:
        for e1 in sides:
            for e2 in sides:
                want = subeffect_holds(ReplayScope(omega, RHO0), e1, e2)
                got = derivation_search_subeffect(omega, RHO0, e1, e2)
                assert got == want, (omega, str(e1), str(e2))


# -- random material -------------------------------------------------------------


def test_random_generators_stay_in_bounds(ns):
    rng = random.Random(7)
    atoms = [ns.eff(t) for t in ("a", "b", "c")]
    guards = [ns.prop(t) for t in ("p", "q")]
    for _ in range(50):
        e = random_effect(rng, atoms, guards)
        assert e.atom_names() <= set(atoms)
        phi = random_guard(rng, guards)
        assert props(phi) <= set(guards)


def test_random_type_pairs_are_shape_compatible(ns):
    rng = random.Random(11)
    supply = NameSupply()
    atoms = [ns.eff(t) for t in ("a", "b")]
    guards = [ns.prop(t) for t in ("p",)]
    for _ in range(50):
        t1, t2 = random_type_pair(rng, supply, atoms, guards)
        omega, phi = subtype(t1, t2)  # must not raise ShapeError
        assert phi is not None


# -- program generator -----------------------------------------------------------


def test_gen_program_is_deterministic():
    assert gen_program(3) == gen_program(3)
    assert gen_program(3, mode="constraint-free") == \
        gen_program(3, mode="constraint-free")
    assert any(gen_program(3) != gen_program(s) for s in range(4, 8))


def test_gen_program_parses_and_checks():
    for seed in range(8):
        src = gen_program(seed)
        assert src.startswith("effect IO")
        assert end_to_end_soundness(src) in ("verified", "unsat")
    for seed in range(4):
        src = gen_program(seed, mode="constraint-free")
        assert end_to_end_soundness(src, "constraint-free") in ("verified",
                                                                "unsat")


def test_wildcard_under_quantifier_metric(supply):
    pos = parse_program(
        GEN_PRELUDE + "let f = fn (h : forall eff a. Int ->[_] Int) => h\nf\n",
        supply)
    assert has_wildcard_under_quantifier(pos)
    pos2 = parse_program(
        GEN_PRELUDE + "efun e => fn (k : Unit ->[_] Unit) => k\n",
        NameSupply())
    assert has_wildcard_under_quantifier(pos2)
    neg = parse_program(
        GEN_PRELUDE + "let f = fn (k : Unit ->[_] Unit) => k\nf\n",
        NameSupply())
    assert not has_wildcard_under_quantifier(neg)


def test_end_to_end_soundness_outcomes():
    ok = GEN_PRELUDE + "let f = fn (u : Unit) => launch u\nf tt\n"
    assert end_to_end_soundness(ok) == "verified"
    bad = GEN_PRELUDE + "let g = tfun t => launch tt\ng\n"
    assert end_to_end_soundness(bad) == "unsat"


# -- scheme comparison -------------------------------------------------------------


def test_effect_universe_enumerates_joins(ns):
    io, db = ns.eff("IO"), ns.eff("DB")
    universe = effect_universe([io, db])
    assert len(universe) == 4
    assert universe[0] == PURE
    assert join(Effect.var(io), Effect.var(db)) in universe
    assert universe == effect_universe([io, db])


def test_two_binders_collapse_to_one(ns, supply):
    u = TVar(ns.typ("Unit"))
    io, db = ns.eff("IO"), ns.eff("DB")
    b, g = supply.fresh(KIND_EFF, "b"), supply.fresh(KIND_EFF, "g")
    two = Scheme((b, g), frozenset(),
                 Arrow(u, join(Effect.var(b), Effect.var(g)), u))
    one = Scheme((b,), frozenset(), Arrow(u, Effect.var(b), u))
    assert schemes_equivalent(two, one, [io, db])


def test_polymorphic_strictly_more_general_than_mono(ns, supply):
    u = TVar(ns.typ("Unit"))
    io = ns.eff("IO")
    b = supply.fresh(KIND_EFF, "b")
    poly = Scheme((b,), frozenset(), Arrow(u, Effect.var(b), u))
    fixed = mono(Arrow(u, Effect.var(io), u))
    assert scheme_more_general(poly, fixed, [io])
    assert not scheme_more_general(fixed, poly, [io])
    assert not schemes_equivalent(poly, fixed, [io])


def test_scheme_constraints_restrict_instances(ns, supply):
    # the binder sits on both sides of an arrow, so instances cannot be
    # subsumed by the bottom instance and the bound genuinely cuts them down
    u = TVar(ns.typ("Unit"))
    io, db = ns.eff("IO"), ns.eff("DB")
    b1 = supply.fresh(KIND_EFF, "b1")
    b2 = supply.fresh(KIND_EFF, "b2")

    def body(v):
        return Arrow(Arrow(u, Effect.var(v), u), Effect.var(v), u)

    free = Scheme((b1,), frozenset(), body(b1))
    bounded = Scheme((b2,), frozenset({con(Effect.var(b2), Effect.var(io))}),
                     body(b2))
    assert scheme_more_general(free, bounded, [io, db])
    assert not scheme_more_general(bounded, free, [io, db])


def test_ambient_constraints_identify_survivors(ns):
    u = TVar(ns.typ("Unit"))
    io, x = ns.eff("IO"), ns.eff("x")
    s1 = mono(Arrow(u, Effect.var(x), u))
    s2 = mono(Arrow(u, Effect.var(io), u))
    ambient = frozenset({con(Effect.var(x), Effect.var(io)),
                         con(Effect.var(io), Effect.var(x))})
    assert schemes_equivalent(s1, s2, [io, x], ambient)
    assert not schemes_equivalent(s1, s2, [io, x])


def test_concretize_scheme_erases_guards_and_substitutes(ns):
    u = TVar(ns.typ("Unit"))
    io = ns.eff("IO")
    beta, g = ns.eff("beta"), ns.eff("g")
    p = ns.prop("p")
    scheme = Scheme((g,),
                    frozenset({con(ns.atom("g", ns.p("p")), Effect.var(io))}),
                    Arrow(u, join(Effect.var(beta), ns.atom("g", ns.p("p"))),
                          u))
    got = concretize_scheme(scheme, {p: False},
                            {beta: Effect.var(io)})
    assert got.body == Arrow(u, Effect.var(io), u)
    assert got.constraints == frozenset()
    assert got.binders == (g,)


def test_parse_closed_type(ns, supply):
    i = ns.typ("Int")
    io = ns.eff("IO")
    t = parse_closed_type("forall eff a. Int ->[a \\/ IO] Int", [i, io],
                          supply)
    assert isinstance(t, ForallEff)
    assert t.body.effect.atom_names() == {t.binder, io}
    with pytest.raises(AssertionError):
        parse_closed_type("Int ->[_] Int", [i, io], supply)
