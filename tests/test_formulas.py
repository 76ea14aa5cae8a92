"""Formula builders, evaluation and equivalence."""
import random

import pytest
from hypothesis import given, strategies as st

from efl.formulas import (BOT, TOP, And, Implies, Or, Prop, conj, conj2,
                          disj2, evaluate, impl, neg)
from efl.names import KIND_PROP, Name
from helpers import (Names, all_valuations, disj, formulas_equivalent, props,
                     tautology)
from oracles import formula_eq_rec, formula_str_rec, props_rec, random_guard


def test_builders_fold_units(ns):
    p = ns.p("p")
    assert conj2(TOP, p) is p
    assert conj2(p, TOP) is p
    assert conj2(p, BOT) == BOT
    assert conj2(BOT, p) == BOT
    assert disj2(BOT, p) is p
    assert disj2(p, BOT) is p
    assert disj2(p, TOP) == TOP
    assert disj2(TOP, p) == TOP
    assert impl(TOP, p) is p
    assert impl(p, TOP) == TOP
    assert impl(BOT, p) == TOP


def test_builders_fold_idempotent(ns):
    p = ns.p("p")
    assert conj2(p, p) is p
    assert disj2(p, p) is p
    assert impl(p, p) == TOP
    assert neg(p) == Implies(p, BOT)


def test_connective_rendering(ns):
    p, q = ns.p("p"), ns.p("q")
    assert str(And(p, q)) == "(p /\\ q)"
    assert str(Or(p, q)) == "(p \\/ q)"
    assert str(Implies(p, q)) == "(p => q)"
    assert str(TOP) == "T"
    assert str(BOT) == "F"


def test_nary_builders(ns):
    p, q, r = ns.p("p"), ns.p("q"), ns.p("r")
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([p, TOP, q]) == And(p, q)
    assert disj([BOT, p]) is p
    got = props(conj([p, q, r]))
    assert got == {ns.prop("p"), ns.prop("q"), ns.prop("r")}


def test_evaluate_and_strictness(ns):
    p, q = ns.p("p"), ns.p("q")
    rho = {ns.prop("p"): True, ns.prop("q"): False}
    assert evaluate(And(p, neg(q)), rho)
    assert not evaluate(Implies(p, q), rho)
    with pytest.raises(KeyError):
        evaluate(ns.p("unseen"), rho)


def test_all_valuations_order(ns):
    names = [ns.prop("a"), ns.prop("b")]
    vals = list(all_valuations(names))
    assert len(vals) == 4
    assert [v[names[0]] for v in vals] == [False, False, True, True]
    assert [v[names[1]] for v in vals] == [False, True, False, True]


def test_equivalence_and_tautology(ns):
    p, q = ns.p("p"), ns.p("q")
    assert formulas_equivalent(Or(p, q), Or(q, p))
    assert formulas_equivalent(Implies(p, q), Or(neg(p), q))
    assert not formulas_equivalent(p, q)
    assert tautology(Or(p, neg(p)))
    assert not tautology(p)
    assert tautology(TOP)
    assert not tautology(BOT)


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return TOP
        if roll < 0.3:
            return BOT
        return rng.choice(atoms)
    a = _random_formula(rng, atoms, depth - 1)
    b = _random_formula(rng, atoms, depth - 1)
    return rng.choice((conj2(a, b), disj2(a, b), impl(a, b)))


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_builders_preserve_semantics(seed):
    """The folding builders agree with the raw connectives pointwise."""
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.p(t) for t in ("p", "q", "r")]
    a = _random_formula(rng, atoms, 3)
    b = _random_formula(rng, atoms, 3)
    names = props(a) | props(b)
    for rho in all_valuations(names):
        assert evaluate(conj2(a, b), rho) == (evaluate(a, rho)
                                              and evaluate(b, rho))
        assert evaluate(disj2(a, b), rho) == (evaluate(a, rho)
                                              or evaluate(b, rho))
        assert evaluate(impl(a, b), rho) == ((not evaluate(a, rho))
                                             or evaluate(b, rho))
        assert evaluate(neg(a), rho) == (not evaluate(a, rho))


def _rebuilt(phi):
    """An equal copy of phi that shares no node with it."""
    if isinstance(phi, Prop):
        return Prop(phi.name)
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_rebuilt(phi.lhs), _rebuilt(phi.rhs))
    return phi


def _as_tuples(phi):
    """phi with each connective replaced by the pair of its operands: its
    hash is the one the plain frozen dataclasses computed recursively."""
    if isinstance(phi, (And, Or, Implies)):
        return (_as_tuples(phi.lhs), _as_tuples(phi.rhs))
    return phi


def _left_chain(n: int):
    """p0 /\\ p1 /\\ ... /\\ p(n-1), nested to the left, n distinct props."""
    names = [Name(f"p{i}", KIND_PROP, i) for i in range(n)]
    out = Prop(names[0])
    for name in names[1:]:
        out = And(out, Prop(name))
    return out, names


def test_connective_hash_is_the_structural_hash():
    ns = Names()
    rng = random.Random(20)
    pool = [ns.prop(t) for t in "pqrst"]
    binary = 0
    for _ in range(600):
        f = random_guard(rng, pool, depth=5)
        copy = _rebuilt(f)
        assert copy == f and hash(copy) == hash(f)
        assert hash(f) == hash(_as_tuples(f))
        if isinstance(f, (And, Or, Implies)):
            binary += 1
            assert copy is not f
            assert hash(f) == hash((f.lhs, f.rhs))
        assert props(f) == props_rec(f)
    assert binary >= 100


def test_connectives_differ_by_kind_not_by_hash(ns):
    p, q = ns.p("p"), ns.p("q")
    assert And(p, q) != Or(p, q) and Or(p, q) != Implies(p, q)
    assert hash(And(p, q)) == hash(Or(p, q)) == hash((p, q))
    assert len({And(p, q), Or(p, q), Implies(p, q), And(p, q)}) == 3


def _height(phi):
    if isinstance(phi, (And, Or, Implies)):
        return 1 + max(_height(phi.lhs), _height(phi.rhs))
    return 0


def _deepest_leaf_replaced(phi, leaf):
    """A copy of phi that shares no node with it and has `leaf` in place of
    its deepest leaf (the leftmost of equally deep ones)."""
    if not isinstance(phi, (And, Or, Implies)):
        return leaf
    if _height(phi.lhs) >= _height(phi.rhs):
        return type(phi)(_deepest_leaf_replaced(phi.lhs, leaf),
                         _rebuilt(phi.rhs))
    return type(phi)(_rebuilt(phi.lhs), _deepest_leaf_replaced(phi.rhs, leaf))


def test_eq_agrees_with_the_recursive_comparison():
    """Unrelated pairs, equal copies that share no node, and copies that
    differ only at the deepest leaf."""
    ns = Names()
    rng = random.Random(22)
    pool = [ns.prop(t) for t in "pqrst"]
    fresh = ns.p("u")
    seen = set()
    for _ in range(600):
        f = random_guard(rng, pool, depth=rng.randint(1, 6))
        g = random_guard(rng, pool, depth=rng.randint(1, 6))
        for a, b in ((f, g), (f, _rebuilt(f)),
                     (f, _deepest_leaf_replaced(f, fresh))):
            expect = formula_eq_rec(a, b)
            assert (a == b) is expect and (b == a) is expect
            assert (a != b) is not expect
            seen.add((expect, isinstance(a, (And, Or, Implies))))
    assert seen == {(True, True), (False, True), (True, False),
                    (False, False)}


def test_eq_is_not_implemented_for_other_objects(ns):
    p, q = ns.p("p"), ns.p("q")
    assert And(p, q).__eq__(p) is NotImplemented
    assert And(p, q).__eq__((p, q)) is NotImplemented
    assert And(p, q) != p and And(p, q) != (p, q)


def test_eq_of_deep_chains():
    a, names = _left_chain(5_000)
    b, _ = _left_chain(5_000)
    assert a == b and not a != b

    def chain_over(first):
        out = first
        for name in names[2:]:
            out = And(out, Prop(name))
        return out
    p0, p1 = Prop(names[0]), Prop(names[1])
    kind = chain_over(Or(p0, p1))
    assert hash(kind) == hash(a) and kind != a and a != kind
    assert chain_over(And(p0, p1)) == a
    # hash(-1) == hash(-2), so these two leaves, and the chains that differ
    # only in them, hash alike: only the leaves themselves tell them apart.
    x, y = (Prop(Name("x", KIND_PROP, uid)) for uid in (-1, -2))
    left, right = chain_over(And(x, p1)), chain_over(And(y, p1))
    assert hash(x) == hash(y) and hash(left) == hash(right)
    assert left != right and right != left


def test_hash_and_props_of_deep_chains():
    chain, names = _left_chain(100_000)
    assert hash(chain) == hash((chain.lhs, chain.rhs))
    assert props(chain) == frozenset(names)


def test_str_agrees_with_the_recursive_printer():
    ns = Names()
    rng = random.Random(21)
    pool = [ns.prop(t) for t in "pqrst"]
    binary = 0
    for _ in range(600):
        f = random_guard(rng, pool, depth=rng.randint(1, 6))
        assert str(f) == formula_str_rec(f)
        binary += isinstance(f, (And, Or, Implies))
    assert binary >= 100


def test_str_of_a_deep_left_chain():
    chain, names = _left_chain(20_000)
    assert str(chain) == ("(" * 19_999 + "p0"
                          + "".join(f" /\\ {n.text})" for n in names[1:]))
