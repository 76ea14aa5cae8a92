"""Globally unique names and the fresh-name supply.

Every binder occurrence in a program, and every variable minted during
inference, gets its own Name with a unique id. A Name compares and hashes
by its text, kind and id together; ids are unique within a run, so two names
of one run are equal exactly when their ids are. Plain dictionary
substitution is therefore capture-avoiding: a substitution can only ever
mention ids that are in scope where it was built.

The module also holds `Record` and `Value`, the bases of the package's
value classes: plain slotted classes that the bases build, compare, hash
and print by the fields in their `__slots__`, as a dataclass would. The
package imports no `dataclasses`: generating and compiling its methods
cost a fresh process most of its import time. The hottest dictionary keys
(`Name`, `Prop`, `Effect`, `Constraint`) are `TupleValue`s instead: stored
as the tuple of their fields, so that they hash in C, to the hash a
`Value` with those fields has.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable

# Sets a field of a frozen instance, bypassing its refusing __setattr__.
_set = object.__setattr__


def _constructor(sets: list[Callable]) -> Callable:
    """An `__init__` storing one positional argument per slot, in order,
    through each slot's descriptor setter, as `_set` would. Up to three
    fields it is straight-line: `efl` builds a node per token and per
    inference step, and a loop over the fields made checking slower."""
    if len(sets) == 1:
        (s0,) = sets

        def __init__(self, a, /) -> None:
            s0(self, a)
    elif len(sets) == 2:
        s0, s1 = sets

        def __init__(self, a, b, /) -> None:
            s0(self, a)
            s1(self, b)
    elif len(sets) == 3:
        s0, s1, s2 = sets

        def __init__(self, a, b, c, /) -> None:
            s0(self, a)
            s1(self, b)
            s2(self, c)
    else:
        def __init__(self, *args) -> None:
            if len(args) != len(sets):
                raise TypeError(f"{type(self).__qualname__}() takes "
                                f"{len(sets)} arguments ({len(args)} given)")
            for s, a in zip(sets, args):
                s(self, a)
    return __init__


class Record:
    """A mutable record: built, compared and printed by the fields its
    class lists in `__slots__`, in that order, and unhashable.

    A class that lists fields and writes no `__init__` is given one that
    takes each field positionally, in that order; a class with
    `__slots__ = ()` inherits its parent's."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("__slots__", ())
        if fields and "__init__" not in cls.__dict__:
            init = _constructor([cls.__dict__[f].__set__ for f in fields])
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A frozen record: hashed as the tuple of its fields, and refusing
    assignment. A hot class writes its own `__eq__` and `__hash__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        """Copy and pickle through the constructor, given the fields."""
        return type(self), self._values()


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


class TupleValue(tuple):
    """A frozen value stored as the tuple of the fields its class lists in
    `_fields`, each read through a property. Its hash is that tuple's,
    taken in C with no Python frame. It equals only an equal instance of
    its exact class, and is unequal to any other tuple in both operand
    orders: Python asks a tuple subclass's `__eq__` first.

    A recursive class (a type, a connective) stays a `Value`: a tuple
    hashes its items recursively in C with no depth check, so hashing a
    deep one could crash the interpreter instead of raising
    `RecursionError`. A tuple-backed value nests a bounded depth: a
    `Constraint` holds effects, which hold names and guards, and a
    connective guard returns its cached hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = tuple.__hash__

    def __init_subclass__(cls) -> None:
        for i, f in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, f, property(itemgetter(i)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def __reduce__(self) -> tuple:
        """Copy and pickle through the constructor, given the fields (ahead
        of `Value.__reduce__` in a class that is both, as `Prop` is)."""
        return type(self), tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

# Name kinds. "eff" covers declared effect constants, effect binders and
# inference-minted effect variables alike; rigidity is a property of the
# context (which names sit in delta), not of the name.
KIND_TYPE = "type"
KIND_EFF = "eff"
KIND_EXPR = "expr"
KIND_PROP = "prop"

# Each kind, and the prefix of a name minted without a text: the prefix
# and the id make up its text.
_PREFIXES = {KIND_TYPE: "t", KIND_EFF: "e", KIND_EXPR: "x", KIND_PROP: "p"}


class Name(TupleValue):
    """An identifier with a kind and a globally unique id."""

    __slots__ = ()
    _fields = ("text", "kind", "uid")
    KEY = itemgetter(1, 2, 0)  # the sort key (kind, id, text), read in C

    def __new__(cls, text: str, kind: str, uid: int) -> "Name":
        if kind not in _PREFIXES:
            raise ValueError(f"bad name kind: {kind!r}")
        return tuple.__new__(cls, (text, kind, uid))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"{self.text}#{self.uid}"

    def key(self) -> tuple[str, int, str]:
        return Name.KEY(self)


class NameSupply:
    """Mints fresh names. One supply per run; ids count up from zero."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def fresh(self, kind: str, text: str | None = None) -> Name:
        uid = self._next
        self._next += 1
        if text is None:
            text = f"{_PREFIXES[kind]}{uid}"
        return Name(text, kind, uid)
