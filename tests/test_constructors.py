"""The constructor `names.Record` gives a value class from its `__slots__`.

A class that lists fields and writes no `__init__` takes exactly one
positional argument per field, in slot order: one too few or too many
raises `TypeError`, and so does any keyword. Up to three fields the
constructor is straight-line, beyond that one loop; both are covered.
"""
import pytest

from efl import declarative, driver, effects, inference, syntax
from efl.names import Record
from helpers import value_classes

# Every value class of the package whose constructor `Record` made.
BUILT = [cls for cls in value_classes() if "__init__" in vars(cls)
         and cls.__init__.__module__ == Record.__module__]


def test_both_constructor_shapes_are_built():
    """33 classes of the five modules that hold value classes (the two
    quantifiers each get their own), with one to three fields and more."""
    modules = (declarative, driver, effects, inference, syntax)
    assert {cls.__module__ for cls in BUILT} == {m.__name__ for m in modules}
    assert len(BUILT) == 33
    sizes = {len(cls.__slots__) for cls in BUILT}
    assert {1, 2, 3} <= sizes and max(sizes) > 3


@pytest.mark.parametrize("cls", BUILT, ids=lambda c: c.__qualname__)
def test_constructor_takes_each_field_positionally_in_slot_order(cls):
    fields = cls.__slots__
    x = cls(*range(len(fields)))
    assert [getattr(x, f) for f in fields] == list(range(len(fields)))
    for n in (len(fields) - 1, len(fields) + 1):
        with pytest.raises(TypeError):
            cls(*range(n))
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, range(len(fields)))))
