"""The slotted value classes behave as the dataclasses they replaced.

Every instance of a value class that checking `SOURCES` in both modes
reaches (and of one more with a `forall typ` annotation), through the
outcome, its records, results, certificates, schemes, types, effects,
formulas and names, the parsed program and the config, is
compared with the dataclass mirror of its class (`oracles.dataclass_mirror`)
built from the same field values: the same hash, the same repr, equality
with an equal instance of its own class only, and refused assignment where
the dataclass was frozen.
"""
import pytest

from efl.driver import check_program
from efl.inference import Config
from efl.names import NameSupply
from efl.syntax import parse_program
from helpers import SOURCES
from oracles import DATACLASS_FIELDS, MUTABLE_CLASSES, dataclass_mirror

MODES = ("constrained", "constraint-free")
PER_CLASS = 40  # instances compared per class
# No program of SOURCES annotates a parameter with `forall typ`.
FORALL_TYP = ("type Int\nextern one : Int\nlet apply = "
              "fn (g : forall typ t. t -> t) => g [type Int] one\n")


def _instances() -> dict[type, list]:
    """Up to PER_CLASS instances of each value class, in the order an
    explicit-stack walk over the checked programs first reaches them."""
    found: dict[type, list] = {cls: [] for cls in DATACLASS_FIELDS}
    roots, seen = [], set()
    for mode in MODES:
        for src in [src for _, src in SOURCES] + [FORALL_TYP]:
            supply = NameSupply()
            program = parse_program(src, supply)
            config = Config(mode=mode)
            roots += (program, config, check_program(program, supply, config))
    todo = list(roots)  # roots stay alive, so no id is reused
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        fields = DATACLASS_FIELDS.get(type(x))
        if fields is not None:
            if len(found[type(x)]) < PER_CLASS:
                found[type(x)].append(x)
            todo += (getattr(x, f) for f in fields)
        elif isinstance(x, dict):
            todo += (*x.keys(), *x.values())
        elif isinstance(x, (tuple, list, frozenset, set)):
            todo += x
    return found


INSTANCES = _instances()


def _hash(x):
    """x's hash, or TypeError where x or a field of it is unhashable (a
    mutable record, or a `Generalized` holding its substitution dict)."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_every_value_class_is_reached():
    assert [cls.__name__ for cls, xs in INSTANCES.items() if not xs] == []


@pytest.mark.parametrize("cls", list(DATACLASS_FIELDS),
                         ids=lambda cls: cls.__name__)
def test_value_class_matches_its_dataclass_mirror(cls):
    fields = DATACLASS_FIELDS[cls]
    mirror = dataclass_mirror(cls)
    subclass = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})
    # classes other than cls taking the same fields, such as Or for And
    siblings = [other for other, fs in DATACLASS_FIELDS.items()
                if fs == fields and other is not cls]
    for x in INSTANCES[cls]:
        values = tuple(getattr(x, f) for f in fields)
        twin, dc = cls(*values), mirror(*values)
        assert twin == x and not twin != x
        assert repr(x) == repr(dc)
        assert x != dc and dc != x
        assert x != subclass(*values)
        assert all(x != other(*values) for other in siblings)
        assert _hash(x) == _hash(dc) == _hash(twin)
        if cls in MUTABLE_CLASSES:
            setattr(twin, fields[0], values[0])
            assert twin == x
            continue
        name = fields[0] if fields else "extra"
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert tuple(getattr(x, f) for f in fields) == values
