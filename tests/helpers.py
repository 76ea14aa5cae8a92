"""Shared builders for the test suite."""
from __future__ import annotations

import itertools

from efl.effects import Constraint, Effect
from efl.formulas import Formula, Prop, all_valuations, evaluate, props
from efl.names import KIND_EFF, KIND_PROP, KIND_TYPE, Name

_uids = itertools.count(10_000)


class Names:
    """A per-test pool of names: same (kind, text) gives the same Name."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], Name] = {}

    def _get(self, kind: str, text: str) -> Name:
        key = (kind, text)
        if key not in self._cache:
            self._cache[key] = Name(text, kind, next(_uids))
        return self._cache[key]

    def eff(self, text: str) -> Name:
        return self._get(KIND_EFF, text)

    def prop(self, text: str) -> Name:
        return self._get(KIND_PROP, text)

    def typ(self, text: str) -> Name:
        return self._get(KIND_TYPE, text)

    def p(self, text: str) -> Prop:
        return Prop(self.prop(text))

    def ev(self, text: str) -> Effect:
        return Effect.var(self.eff(text))

    def atom(self, text: str, guard) -> Effect:
        return Effect(((self.eff(text), guard),))


def con(lhs: Effect, rhs: Effect) -> Constraint:
    return Constraint(lhs, rhs)


def tautology(phi: Formula) -> bool:
    """Truth-table validity: the oracle for SAT-based entailment checks."""
    return all(evaluate(phi, rho) for rho in all_valuations(props(phi)))
