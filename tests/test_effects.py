"""Guarded-effect algebra: join, guard, substitution, erasure."""
import random

from hypothesis import given, settings, strategies as st

from efl.driver import Discharger, verify_certificates
from efl.effects import (PURE, Arrow, Effect, Scheme, TVar, arrow_count,
                         constraint_set, effect_of, join, mono,
                         omega_to_formula, subst_effect)
from efl.formulas import (BOT, TOP, And, Implies, Or, conj2, disj2,
                          evaluate)
from efl.names import Name, NameSupply
from helpers import (Names, all_valuations, cf_grid_source, chain_source,
                     check_source, con, effect_props, effects_equal,
                     erase_guards, free_eff_vars_scheme, guard, to_formula)
from oracles import (effect_of_map, eliminate_effect_parts, guard_parts,
                     join_parts, omega_to_formula_scan, random_effect,
                     random_guard, subst_effect_parts)


def test_join_merges_same_variable_guards(ns):
    a = ns.eff("a")
    p, q = ns.p("p"), ns.p("q")
    got = join(ns.atom("a", p), ns.atom("a", q))
    assert got == Effect(((a, Or(p, q)),))


def test_join_unit_and_idempotence(ns):
    e = join(ns.ev("a"), ns.atom("b", ns.p("p")))
    assert join(e, PURE) == e
    assert join(PURE, e) == e
    assert join(e, e) == e
    assert join() == PURE


def test_join_sorts_atoms_deterministically(ns):
    e1 = join(ns.ev("b"), ns.ev("a"))
    e2 = join(ns.ev("a"), ns.ev("b"))
    assert e1 == e2
    assert e1.atom_names() == {ns.eff("a"), ns.eff("b")}


def test_guard_conjoins_and_drops_false(ns):
    p = ns.p("p")
    assert guard(ns.ev("a"), p) == ns.atom("a", p)
    assert guard(ns.atom("a", p), TOP) == ns.atom("a", p)
    assert guard(ns.ev("a"), BOT) == PURE
    assert guard(PURE, p) == PURE


def test_guard_composition_order(ns):
    p, q = ns.p("p"), ns.p("q")
    assert guard(ns.atom("a", q), p) == ns.atom("a", And(q, p))


def test_subst_distributes_over_union_image(ns):
    a, b, c = ns.eff("a"), ns.eff("b"), ns.eff("c")
    p = ns.p("p")
    theta = {a: join(Effect.var(b), Effect.var(c))}
    got = subst_effect(theta, ns.atom("a", p))
    assert got == effect_of([(b, p), (c, p)])


def test_subst_pushes_guard_inward(ns):
    a, b = ns.eff("a"), ns.eff("b")
    p, q = ns.p("p"), ns.p("q")
    theta = {a: ns.atom("b", q)}
    got = subst_effect(theta, ns.atom("a", p))
    assert got == Effect(((b, And(q, p)),))


def test_subst_to_pure_erases_atom(ns):
    a = ns.eff("a")
    e = join(ns.atom("a", ns.p("p")), ns.ev("b"))
    assert subst_effect({a: PURE}, e) == ns.ev("b")


def test_subst_of_one_unguarded_mapped_atom_is_its_image(ns):
    a, b = ns.eff("a"), ns.eff("b")
    image = join(ns.atom("b", ns.p("p")), ns.ev("c"))
    theta = {a: image, b: PURE}
    assert subst_effect(theta, ns.ev("a")) is image
    assert subst_effect(theta, ns.ev("b")) is PURE
    guarded = subst_effect(theta, ns.atom("a", ns.p("q")))
    assert guarded == guard(image, ns.p("q")) != image


def test_grid_substitution_does_not_sort_an_image_again(monkeypatch):
    """Checking and replaying a 2^11-variable constraint-free grid makes
    about 31 k `Name.key` calls. Rebuilding the image of each mapped
    one-atom effect, 2^11 atoms sorted again every time, made 61 k."""
    calls = [0]
    key = Name.KEY

    def counted(name):
        calls[0] += 1
        return key(name)
    monkeypatch.setattr(Name, "KEY", counted)
    outcome = check_source(cf_grid_source(5, False), "constraint-free")
    assert outcome.status == "ok"
    verify_certificates(outcome)
    assert calls[0] < 40_000


def test_checking_sorts_names_without_calling_name_key(monkeypatch):
    """`effect_of` and the driver's rigid names sort by `Name.KEY`, the
    value of `Name.key` read in C from the name's tuple. Calling the
    method per atom made 8 118 calls while checking and replaying chain
    x4, x7 and x10."""
    calls = [0]
    key = Name.key

    def counted(name):
        calls[0] += 1
        return key(name)
    monkeypatch.setattr(Name, "key", counted)
    for n in (4, 7, 10):
        outcome = check_source(chain_source(n))
        assert outcome.status == "ok"
        verify_certificates(outcome)
    assert calls[0] == 0
    ns = Names()
    names = [ns.eff(t) for t in "abcd"]
    assert all(Name.KEY(n) == (n.kind, n.uid, n.text) == key(n)
               for n in names + [ns.prop("p"), ns.typ("t")])
    e = effect_of((n, TOP) for n in reversed(names))
    assert [n for n, _ in e.atoms] == sorted(names, key=key) == names


def test_erase_guards(ns):
    p, q = ns.prop("p"), ns.prop("q")
    e = join(ns.atom("a", ns.p("p")), ns.atom("b", ns.p("q")), ns.ev("c"))
    rho = {p: True, q: False}
    assert erase_guards(e, rho) == join(ns.ev("a"), ns.ev("c"))


def test_to_formula(ns):
    e = join(ns.ev("a"), ns.atom("b", ns.p("p")))
    assert to_formula(e, ns.eff("a")) == TOP
    assert to_formula(e, ns.eff("b")) == ns.p("p")
    assert to_formula(e, ns.eff("c")) == BOT


def test_effect_props_and_free_vars(ns):
    e = join(ns.atom("a", ns.p("p")), ns.atom("b", And(ns.p("q"), ns.p("p"))))
    assert effect_props(e) == {ns.prop("p"), ns.prop("q")}
    assert e.atom_names() == {ns.eff("a"), ns.eff("b")}


def test_omega_to_formula_projects_one_variable(ns):
    x, y, z = ns.eff("x"), ns.eff("y"), ns.eff("z")
    p = ns.p("p")
    omega = [con(ns.atom("x", p), Effect.var(y)), con(Effect.var(z),
                                                      Effect.var(x))]
    assert omega_to_formula(omega, x) == Implies(p, BOT)
    assert omega_to_formula(omega, y) == TOP
    assert omega_to_formula(omega, z) == BOT


def test_effects_equal_is_semantic(ns):
    p, q = ns.p("p"), ns.p("q")
    assert effects_equal(ns.atom("a", Or(p, q)), ns.atom("a", Or(q, p)))
    assert effects_equal(ns.atom("a", Implies(p, p)), ns.ev("a"))
    assert not effects_equal(ns.atom("a", p), ns.ev("a"))
    assert not effects_equal(ns.ev("a"), ns.ev("b"))


def test_algebra_guard_distributes_over_join(ns):
    phi = ns.p("p")
    lhs = guard(join(ns.ev("a"), ns.ev("b")), phi)
    rhs = join(guard(ns.ev("a"), phi), guard(ns.ev("b"), phi))
    assert lhs == rhs
    assert effects_equal(lhs, rhs)


def test_algebra_nested_guards_conjoin(ns):
    phi, psi = ns.p("p"), ns.p("q")
    lhs = guard(guard(ns.ev("a"), psi), phi)
    rhs = guard(ns.ev("a"), conj2(psi, phi))
    assert lhs == rhs
    assert effects_equal(lhs, rhs)


def test_algebra_same_atom_guards_disjoin(ns):
    p, q = ns.p("p"), ns.p("q")
    lhs = join(ns.atom("a", p), ns.atom("a", q))
    rhs = ns.atom("a", disj2(p, q))
    assert lhs == rhs
    assert effects_equal(lhs, rhs)


def test_constraint_set_drops_pure_lhs(ns):
    keep = con(ns.ev("a"), ns.ev("b"))
    assert constraint_set([keep, con(PURE, ns.ev("b"))]) == {keep}


def test_constraint_rendering(ns):
    assert str(con(ns.ev("a"), join(ns.ev("b"), ns.ev("c")))) == \
        "a <: b \\/ c"
    assert str(con(ns.ev("a"), PURE)) == "a <: pure"
    assert str(ns.atom("a", ns.p("p"))) == "a ? p"


def test_arrow_count_and_scheme_free_vars(ns):
    u = TVar(ns.typ("Unit"))
    t = Arrow(Arrow(u, ns.ev("a"), u), PURE, Arrow(u, ns.ev("b"), u))
    assert arrow_count(t) == 3
    s = Scheme((ns.eff("a"),), frozenset(), t)
    assert free_eff_vars_scheme(s) == {ns.eff("b")}
    assert mono(t).binders == ()


def _rand_effect(seed):
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.eff(t) for t in ("a", "b", "c")]
    props = [ns.prop(t) for t in ("p", "q")]
    return ns, rng, random_effect(rng, atoms, props)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_prop_join_laws(seed):
    ns, rng, e1 = _rand_effect(seed)
    atoms = [ns.eff(t) for t in ("a", "b", "c")]
    props = [ns.prop(t) for t in ("p", "q")]
    e2 = random_effect(rng, atoms, props)
    e3 = random_effect(rng, atoms, props)
    assert effects_equal(join(e1, join(e2, e3)), join(join(e1, e2), e3))
    assert effects_equal(join(e1, e2), join(e2, e1))
    assert join(e1, e1) == e1
    assert join(e1, PURE) == e1


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_prop_guard_distribution(seed):
    ns, rng, e1 = _rand_effect(seed)
    atoms = [ns.eff(t) for t in ("a", "b", "c")]
    props = [ns.prop(t) for t in ("p", "q")]
    e2 = random_effect(rng, atoms, props)
    phi = random_guard(rng, props)
    assert effects_equal(guard(join(e1, e2), phi),
                         join(guard(e1, phi), guard(e2, phi)))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_prop_erasure_is_join_homomorphism(seed):
    ns, rng, e1 = _rand_effect(seed)
    atoms = [ns.eff(t) for t in ("a", "b", "c")]
    props = [ns.prop(t) for t in ("p", "q")]
    e2 = random_effect(rng, atoms, props)
    names = effect_props(e1) | effect_props(e2)
    for rho in all_valuations(names):
        assert erase_guards(join(e1, e2), rho) == \
            join(erase_guards(e1, rho), erase_guards(e2, rho))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_prop_presence_formula_matches_erasure(seed):
    ns, rng, e = _rand_effect(seed)
    atoms = [ns.eff(t) for t in ("a", "b", "c")]
    names = effect_props(e)
    for rho in all_valuations(names):
        kept = erase_guards(e, rho).atom_names()
        for alpha in atoms:
            assert (alpha in kept) == evaluate(to_formula(e, alpha), rho)


# -- the one builder against the part-by-part builders ----------------------


def _pool(seed):
    ns = Names()
    atoms = [ns.eff(t) for t in ("a", "b", "c", "d", "e")]
    props = [ns.prop(t) for t in ("p", "q", "r")]
    return random.Random(seed), atoms, props


def _same(got, want):
    assert got == want
    assert str(got) == str(want)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_effect_of_agrees_with_merging_part_by_part(seed):
    rng, atoms, props = _pool(seed)
    # repeated variables and F guards included
    pairs = [(rng.choice(atoms), random_guard(rng, props))
             for _ in range(rng.randint(0, 8))]
    _same(effect_of(pairs), join_parts(*(Effect((p,)) for p in pairs)))
    entries = dict(pairs)
    _same(effect_of(entries.items()), effect_of_map(entries))
    parts = [random_effect(rng, atoms, props, max_atoms=4)
             for _ in range(rng.randint(0, 4))]
    _same(join(*parts), join_parts(*parts))
    phi = random_guard(rng, props)
    for e in parts:
        _same(guard(e, phi), guard_parts(e, phi))


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_subst_effect_agrees_with_joining_one_part_per_atom(seed):
    rng, atoms, props = _pool(seed)
    e = random_effect(rng, atoms, props, max_atoms=4)
    # images may share variables with e and with each other, and be pure
    theta = {v: random_effect(rng, atoms, props)
             for v in rng.sample(atoms, k=rng.randint(0, 3))}
    got = subst_effect(theta, e)
    _same(got, subst_effect_parts(theta, e))
    if not e.atom_names() & theta.keys():
        assert got is e
    elif len(e.atoms) == 1 and e.atoms[0][1] == TOP:
        assert got is theta[e.atoms[0][0]]


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_eliminate_effect_agrees_with_joining_one_part_per_atom(seed):
    """Equal effects, and the same membership propositions minted in the
    same order."""
    rng, atoms, props = _pool(seed)
    rigid = tuple(rng.sample(atoms, k=rng.randint(0, 3)))
    d1 = Discharger(rigid, NameSupply())
    d2 = Discharger(rigid, NameSupply())
    for _ in range(4):
        e = random_effect(rng, atoms, props, max_atoms=4)
        _same(d1.eliminate_effect(e), eliminate_effect_parts(d2, e))
    assert list(d1._member.items()) == list(d2._member.items())


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_omega_to_formula_agrees_with_scanning_each_guard(seed):
    rng, atoms, props = _pool(seed)
    omega = [con(random_effect(rng, atoms, props, max_atoms=4),
                 random_effect(rng, atoms, props, max_atoms=4))
             for _ in range(rng.randint(0, 5))]
    alphas = rng.sample(atoms, k=rng.randint(0, 3))
    _same(omega_to_formula(omega, *alphas),
          omega_to_formula_scan(omega, *alphas))
