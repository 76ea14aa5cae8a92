"""The tuple-backed value classes: `Name`, `Prop`, `Effect`, `Constraint`.

Each is stored as the tuple of its fields and hashed as that tuple, yet
equals only an equal instance of its exact class: never a plain tuple of
its fields nor another tuple-backed class with the same contents, in either
operand order and as a dictionary key. Copy and pickle rebuild an equal
instance of the same class through its constructor.
"""
import copy
import pickle

import pytest

from efl.effects import PURE, Constraint, Effect, effect_of
from efl.formulas import TOP, Prop
from efl.names import KIND_EFF, KIND_PROP, Name, NameSupply, TupleValue

_supply = NameSupply()
ALPHA = _supply.fresh(KIND_EFF, "alpha")
BETA = _supply.fresh(KIND_EFF, "beta")
P = Prop(_supply.fresh(KIND_PROP))
# alpha guarded by p, beta by T
GUARDED = effect_of(((ALPHA, P), (BETA, TOP)))
SAMPLES = {Name: ALPHA, Prop: P, Effect: GUARDED,
           Constraint: Constraint(GUARDED, Effect.var(BETA))}
IDS = [cls.__name__ for cls in SAMPLES]


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


@pytest.mark.parametrize("roundtrip", [
    copy.copy, copy.deepcopy,
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
], ids=["copy", "deepcopy", "pickle", "pickle-2"])
@pytest.mark.parametrize("x", [*SAMPLES.values(), PURE,
                               Constraint(PURE, GUARDED)],
                         ids=[*IDS, "pure", "pure-lhs"])
def test_copy_and_pickle_rebuild_an_equal_instance(roundtrip, x):
    y = roundtrip(x)
    assert type(y) is type(x)
    assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
