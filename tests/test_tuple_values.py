"""The tuple-backed value classes: `Name`, `Prop`, `Effect`, `Constraint`.

Each is stored as the tuple of its fields and hashed as that tuple, yet
equals only an equal instance of its exact class: never a plain tuple of
its fields nor another tuple-backed class with the same contents, in either
operand order and as a dictionary key. Copy and pickle rebuild an equal
instance of the same class through its constructor, as they do for every
other value class (`names.Value`).
"""
import copy
import pickle

import pytest

from efl.declarative import (CAbs, CApp, CEAbs, CEApp, CLet, CSub, CTAbs,
                             CTApp, CVar)
from efl.effects import (PURE, Arrow, Constraint, Effect, ForallEff,
                         ForallTyp, Scheme, TVar, effect_of)
from efl.formulas import BOT, TOP, And, Implies, Or, Prop
from efl.inference import Config, Generalized, InferResult
from efl.names import (KIND_EFF, KIND_EXPR, KIND_PROP, KIND_TYPE, Name,
                       NameSupply, TupleValue, Value)
from efl.syntax import (App, EfApp, ELam, Lam, Let, Program, SArrow, SEJoin,
                        SEPure, SEVar, SEWild, SForallEff, SForallTyp, STVar,
                        TLam, TyApp, Var)

_supply = NameSupply()
ALPHA = _supply.fresh(KIND_EFF, "alpha")
BETA = _supply.fresh(KIND_EFF, "beta")
P = Prop(_supply.fresh(KIND_PROP))
# alpha guarded by p, beta by T
GUARDED = effect_of(((ALPHA, P), (BETA, TOP)))
SAMPLES = {Name: ALPHA, Prop: P, Effect: GUARDED,
           Constraint: Constraint(GUARDED, Effect.var(BETA))}
IDS = [cls.__name__ for cls in SAMPLES]

T = TVar(_supply.fresh(KIND_TYPE, "t"))
SCHEME = Scheme((ALPHA,), frozenset([SAMPLES[Constraint]]),
                Arrow(T, GUARDED, T))
CERT = CVar(((ALPHA, GUARDED),))
X = Var(_supply.fresh(KIND_EXPR, "x"))
ST, SE = STVar(T.name), SEVar(ALPHA)
# One instance of every other concrete value class.
VALUES = [
    T, SCHEME.body, ForallTyp(T.name, T), ForallEff(ALPHA, T), SCHEME,
    And(P, TOP), Or(P, BOT), Implies(P, And(P, TOP)), TOP, BOT,
    CERT, CAbs(T, CERT), CApp(CERT, CERT), CTAbs(CERT), CEAbs(CERT),
    CTApp(CERT, T), CEApp(CERT, GUARDED), CLet(SCHEME, CERT, CERT),
    CSub(T, GUARDED, CERT),
    X, Lam(X.name, ST, X), App(X, X), Let(X.name, X, X), TLam(T.name, X),
    ELam(ALPHA, X), TyApp(X, ST), EfApp(X, SE),
    ST, SArrow(ST, SE, ST), SForallTyp(T.name, ST), SForallEff(ALPHA, ST),
    SE, SEPure(), SEWild(), SEJoin((SE, SEWild())),
    Program((ALPHA,), (T.name,), ((X.name, ST),), ((X.name, X),), X),
    Config("constraint-free"),
    InferResult((P.name,), (ALPHA,), T, GUARDED, frozenset(), TOP, CERT),
    Generalized(SCHEME, (ALPHA,), (P.name,), frozenset(), TOP,
                {ALPHA: GUARDED}),
]


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in type(x)._fields)


@pytest.mark.parametrize("x", SAMPLES.values(), ids=IDS)
def test_stored_as_its_fields_and_hashed_as_them(x):
    assert tuple(x) == _fields(x)
    assert hash(x) == hash(_fields(x))
    twin = type(x)(*_fields(x))
    assert twin == x and not twin != x and twin is not x
    assert hash(twin) == hash(x) and {x: 1}[twin] == 1


@pytest.mark.parametrize("x", SAMPLES.values(), ids=IDS)
def test_unequal_to_a_plain_tuple_of_its_fields(x):
    plain = tuple(x)
    assert x != plain and plain != x
    assert not x == plain and not plain == x
    assert {x: 1}.get(plain) is None
    assert {plain: 1}.get(x) is None
    assert len({x, plain}) == 2


@pytest.mark.parametrize("x", SAMPLES.values(), ids=IDS)
def test_unequal_to_another_class_with_the_same_contents(x):
    other = type("Other", (TupleValue,), {"__slots__": (),
                                          "_fields": type(x)._fields})
    y = other.__new__(other, x)
    assert tuple(y) == tuple(x) and hash(y) == hash(x)
    assert x != y and y != x and not x == y and not y == x
    assert {x: 1}.get(y) is None and {y: 1}.get(x) is None


def test_prop_is_not_the_effect_holding_its_name():
    n = P.name
    e = Effect(n)  # the 1-tuple (n,), as Prop(n) is
    assert tuple(e) == tuple(P) and hash(e) == hash(P)
    assert P != e and e != P and not P == e and not e == P
    assert {P: 1}.get(e) is None and {e: 1}.get(P) is None


def test_name_refuses_a_bad_kind():
    with pytest.raises(ValueError, match="bad name kind"):
        Name("a", "effect", 1)


def _hash(x):
    """x's hash, or TypeError for a `Generalized`, which holds a dict."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("roundtrip", [
    copy.copy, copy.deepcopy,
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
], ids=["copy", "deepcopy", "pickle", "pickle-2"])
@pytest.mark.parametrize("x", [*SAMPLES.values(), PURE,
                               Constraint(PURE, GUARDED), *VALUES],
                         ids=[*IDS, "pure", "pure-lhs",
                              *(type(x).__name__ for x in VALUES)])
def test_copy_and_pickle_rebuild_an_equal_instance(roundtrip, x):
    y = roundtrip(x)
    assert type(y) is type(x)
    assert y == x and _hash(y) == _hash(x) and repr(y) == repr(x)


def _concrete(cls):
    """The package's classes under cls that it derives no class from."""
    subs = [c for c in cls.__subclasses__() if c.__module__.startswith("efl.")]
    return {c for s in subs for c in _concrete(s)} if subs else {cls}


def test_every_value_class_is_copied_and_pickled():
    tried = {type(x) for x in [*SAMPLES.values(), *VALUES]}
    assert _concrete(Value) | _concrete(TupleValue) == tried
