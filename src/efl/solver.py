"""SAT-based discharge of guard formulas.

A hand-rolled solver is plenty here: discharge formulas mention a few dozen
to a few hundred propositions and are heavy on implications, so unit
propagation does most of the work. Clauses come from an incremental Tseitin
encoding (definitions are shared and survive across queries); the search is
an iterative DPLL over two watched literals per clause. Models are reported
over named propositions only; Tseitin auxiliaries never escape.
"""
from __future__ import annotations

from typing import Iterable

from .effects import Constraint, Effect, omega_to_formula, sorted_constraints
from .formulas import (TOP, And, Bot, Formula, Implies, Or, Prop, Top,
                       Valuation, conj2, disj2, neg, props)
from .inference import normalize
from .names import Name


class _Solver:
    """Incremental clause store with a deterministic watched-literal DPLL.

    Tseitin definitions are added once per distinct subformula and are pure
    definitions (satisfiable under any assignment of their inputs), so
    encoding a formula without asserting its root literal never constrains
    the named propositions. Queries pass the roots they want asserted as
    assumption literals.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.ids: dict[Name, int] = {}
        self._memo: dict[Formula, int] = {}
        self._clauses: list[tuple[int, ...]] = []
        self._pair: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._units: list[int] = []
        self._occ: dict[int, int] = {}
        self._order: list[int] | None = None
        self._unsat = False

    def fresh_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def var_of(self, name: Name) -> int:
        v = self.ids.get(name)
        if v is None:
            v = self.fresh_var()
            self.ids[name] = v
        return v

    def add_clause(self, lits: Iterable[int]) -> None:
        out: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        self._order = None
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            self._units.append(out[0])
            return
        idx = len(self._clauses)
        self._clauses.append(tuple(out))
        self._pair.append([out[0], out[1]])
        self._watches.setdefault(out[0], []).append(idx)
        self._watches.setdefault(out[1], []).append(idx)
        for lit in out:
            self._occ[abs(lit)] = self._occ.get(abs(lit), 0) + 1

    def literal(self, phi: Formula) -> int:
        """Tseitin literal for phi, adding definition clauses as needed."""
        memo = self._memo
        stack = [phi]
        while stack:
            f = stack[-1]
            if f in memo:
                stack.pop()
                continue
            if isinstance(f, Prop):
                memo[f] = self.var_of(f.name)
                stack.pop()
                continue
            if isinstance(f, (Top, Bot)):
                v = self.fresh_var()
                self.add_clause([v] if isinstance(f, Top) else [-v])
                memo[f] = v
                stack.pop()
                continue
            if not isinstance(f, (And, Or, Implies)):
                raise TypeError(f"not a formula: {f!r}")
            a = memo.get(f.lhs)
            if a is None:
                stack.append(f.lhs)
                continue
            b = memo.get(f.rhs)
            if b is None:
                stack.append(f.rhs)
                continue
            v = self.fresh_var()
            if isinstance(f, And):
                self.add_clause([-v, a])
                self.add_clause([-v, b])
                self.add_clause([v, -a, -b])
            elif isinstance(f, Or):
                self.add_clause([-v, a, b])
                self.add_clause([v, -a])
                self.add_clause([v, -b])
            else:
                self.add_clause([-v, -a, b])
                self.add_clause([v, a])
                self.add_clause([v, -b])
            memo[f] = v
            stack.pop()
        return memo[phi]

    def solve(self, assumptions: Iterable[int] = ()) -> dict[int, bool] | None:
        """A model (var -> bool, unassigned vars omitted) or None."""
        if self._unsat:
            return None
        assign: dict[int, bool] = {}
        trail: list[int] = []
        clauses = self._clauses
        pairs = self._pair
        watches = self._watches

        def value(lit: int) -> bool | None:
            v = assign.get(abs(lit))
            return None if v is None else (v if lit > 0 else not v)

        def enqueue(lit: int) -> bool:
            v = value(lit)
            if v is not None:
                return v
            assign[abs(lit)] = lit > 0
            trail.append(lit)
            return True

        def propagate(start: int) -> bool:
            i = start
            while i < len(trail):
                falsified = -trail[i]
                i += 1
                ws = watches.get(falsified)
                if not ws:
                    continue
                keep: list[int] = []
                conflict = False
                for k, ci in enumerate(ws):
                    pair = pairs[ci]
                    if pair[0] == falsified:
                        pair[0], pair[1] = pair[1], pair[0]
                    other = pair[0]
                    if value(other) is True:
                        keep.append(ci)
                        continue
                    moved = False
                    for cand in clauses[ci]:
                        if (cand != other and cand != falsified
                                and value(cand) is not False):
                            pair[1] = cand
                            watches.setdefault(cand, []).append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                    keep.append(ci)
                    ov = value(other)
                    if ov is False:
                        keep.extend(ws[k + 1:])
                        conflict = True
                        break
                    if ov is None:
                        enqueue(other)
                watches[falsified] = keep
                if conflict:
                    return False
            return True

        for lit in self._units:
            if not enqueue(lit):
                return None
        for lit in assumptions:
            if not enqueue(lit):
                return None
        if not propagate(0):
            return None

        if self._order is None:
            self._order = sorted(range(1, self.nvars + 1),
                                 key=lambda v: (-self._occ.get(v, 0), v))
        order = self._order
        decisions: list[tuple[int, int, bool, int]] = []
        cursor = 0
        while True:
            while cursor < len(order) and order[cursor] in assign:
                cursor += 1
            if cursor == len(order):
                return dict(assign)
            var = order[cursor]
            decisions.append((len(trail), var, False, cursor))
            enqueue(-var)
            start = len(trail) - 1
            while not propagate(start):
                while decisions:
                    tlen, dv, flipped, cur = decisions.pop()
                    for lit in trail[tlen:]:
                        del assign[abs(lit)]
                    del trail[tlen:]
                    cursor = cur
                    if not flipped:
                        decisions.append((tlen, dv, True, cur))
                        enqueue(dv)
                        start = tlen
                        break
                else:
                    return None


def sat(phi: Formula) -> Valuation | None:
    """A model of phi over its named propositions, or None if UNSAT."""
    solver = _Solver()
    for p in sorted(props(phi), key=Name.key):
        solver.var_of(p)
    root = solver.literal(phi)
    model = solver.solve((root,))
    if model is None:
        return None
    return Valuation({p: model.get(i, False) for p, i in solver.ids.items()})


# ---------------------------------------------------------------------------
# Discharge and simplification
# ---------------------------------------------------------------------------


def discharge_toplevel(delta_top: Iterable[Name], omega) -> Formula:
    """The formula stating omega holds at every declared effect constant."""
    out: Formula = TOP
    for a in sorted(set(delta_top), key=Name.key):
        out = conj2(out, omega_to_formula(omega, a))
    return out


def simplify_constraints(omega, protected: frozenset) -> frozenset:
    """Smaller constraint set entailing (and entailed by, when every variable
    is protected) the original.

    Drops constraints whose RHS already covers the LHS atom guard-wise,
    merges constraints sharing variable and RHS by or-ing guards, and drops
    constraints bounding an unprotected variable that occurs nowhere else.
    """
    kept: list[Constraint] = []
    for c in sorted_constraints(normalize(omega)):
        v, psi = c.lhs.atoms[0]
        if sat(conj2(psi, neg(c.rhs.guard_of(v)))) is None:
            continue
        kept.append(c)

    groups: dict[tuple[Name, Effect], Formula] = {}
    for c in kept:
        v, psi = c.lhs.atoms[0]
        key = (v, c.rhs)
        groups[key] = disj2(groups[key], psi) if key in groups else psi
    merged = [Constraint(Effect(((v, g),)), rhs)
              for (v, rhs), g in groups.items()]

    occurrences: dict[Name, int] = {}
    for c in merged:
        for n in c.lhs.atom_names() | c.rhs.atom_names():
            occurrences[n] = occurrences.get(n, 0) + 1
    out = []
    for c in merged:
        v, _ = c.lhs.atoms[0]
        if v not in protected and occurrences[v] == 1:
            continue
        out.append(c)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Incremental session
# ---------------------------------------------------------------------------


class SolverSession:
    """Accumulates a conjunction of formulas in one incremental solver.

    Each formula is Tseitin-encoded once and its root literal kept; every
    query solves under the kept roots. A contradictory push reports False
    and leaves the session unchanged.
    """

    def __init__(self) -> None:
        self._formula: Formula = TOP
        self._solver = _Solver()
        self._roots: list[int] = []

    @property
    def formula(self) -> Formula:
        return self._formula

    def admits(self, phi: Formula) -> bool:
        """Whether phi is satisfiable together with the session; commits
        nothing."""
        root = self._solver.literal(phi)
        return self._solver.solve((*self._roots, root)) is not None

    def push(self, phi: Formula) -> bool:
        if not self.admits(phi):
            return False
        self._roots.append(self._solver.literal(phi))
        self._formula = conj2(self._formula, phi)
        return True

    def model(self) -> Valuation | None:
        m = self._solver.solve(tuple(self._roots))
        if m is None:
            return None
        return Valuation({p: m.get(i, False)
                          for p, i in self._solver.ids.items()})
