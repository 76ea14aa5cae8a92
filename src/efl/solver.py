"""The SAT engine: satisfiability and witness models of guard formulas.

It sees formulas only, never effects: `driver` builds the discharge
formulas. `satisfiable` decides one formula in a solver of its own;
`SolverSession` accumulates a session's formulas and reads the witness.

A hand-rolled solver is plenty here: discharge formulas mention a few dozen
to a few hundred propositions and are heavy on implications, so unit
propagation does most of the work. Clauses come from an incremental Tseitin
encoding (definitions are shared and survive across queries); the search is
an iterative DPLL over two watched literals per clause. Models are reported
over named propositions only; Tseitin auxiliaries never escape.

The search runs on one connected component of the clause graph at a time.
Independent definitions share no variable once the unit-fixed Tseitin
constants are set aside, so a push or a REPL `:type` probe re-solves only
the components its clauses and root reach and reuses the cached models of
the rest. The witness does not move: the DPLL returns the lexicographically
least model in its static decision order, and over independent components
that model is the product of each component's least model in the same order
restricted to it.
"""
from __future__ import annotations

from typing import Iterable

from .formulas import TOP, And, Bot, Formula, Implies, Or, Prop, Top, conj2
from .names import Name


class _Component:
    """One connected set of searched clauses: its variables, the literals
    asserted in it (unit clauses and committed roots), its decision order,
    and the model last found for it under the probe literals in `key`
    (key None: stale, model None: no model)."""

    __slots__ = ("vars", "units", "order", "key", "model")

    def __init__(self, var: int) -> None:
        self.vars = [var]
        self.units: list[int] = []
        self.order: list[int] | None = None
        self.key: frozenset[int] | None = None
        self.model: dict[int, bool] | None = None


class _Solver:
    """Incremental clause store with a deterministic watched-literal DPLL,
    solved one connected component at a time.

    Tseitin definitions are added once per distinct subformula and are pure
    definitions (satisfiable under any assignment of their inputs), so
    encoding a formula without asserting its root literal never constrains
    the named propositions. Queries pass the roots they want asserted as
    assumption literals, or commit them for every later query.

    A variable whose unit clause arrives before any searched clause mentions
    it is fixed (the Tseitin `Top`/`Bot` literals are); clauses it satisfies
    are not searched and the literals it falsifies are skipped. The other
    variables are grouped by a union-find over the clauses that remain, and
    each group keeps the model last found for it. A query re-solves only the
    groups that changed or whose probe literals differ; `value` reads the
    merged models.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.ids: dict[Name, int] = {}
        self._memo: dict[Formula, int] = {}
        self._clauses: list[tuple[int, ...]] = []
        self._pair: list[list[int] | None] = []
        self._watches: dict[int, list[int]] = {}
        self._units: list[int] = []  # the unit clauses, as given
        self._occ: dict[int, int] = {}
        self._fixed: dict[int, bool] = {}
        self._parent = [0]
        self._comps: dict[int, _Component] = {}
        # roots of the components a query must look at even when none of
        # its assumptions falls in them: stale ones, and those whose model
        # was found under probe literals or does not exist
        self._recheck: set[int] = set()
        self._unsat = False

    def fresh_var(self) -> int:
        self.nvars += 1
        self._parent.append(self.nvars)
        return self.nvars

    def var_of(self, name: Name) -> int:
        v = self.ids.get(name)
        if v is None:
            v = self.fresh_var()
            self.ids[name] = v
        return v

    # -- components -----------------------------------------------------------

    def _find(self, v: int) -> int:
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def _invalidate(self, root: int) -> None:
        comp = self._comps[root]
        comp.key = comp.order = None
        self._recheck.add(root)

    def _touch(self, v: int) -> int:
        """The root of v's component, made if v has none yet."""
        root = self._find(v)
        if root not in self._comps:
            self._comps[root] = _Component(root)
            self._recheck.add(root)
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge two components, the smaller into the larger; the new
        root. The caller invalidates it."""
        if a == b:
            return a
        comps = self._comps
        if len(comps[a].vars) < len(comps[b].vars):
            a, b = b, a
        self._parent[b] = a
        big, small = comps[a], comps.pop(b)
        big.vars.extend(small.vars)
        big.units.extend(small.units)
        self._recheck.discard(b)
        return a

    def _assert(self, lit: int) -> None:
        """Make lit hold in every model: fixed if its variable is in no
        component yet, else a unit of that component."""
        v = abs(lit)
        fixed = self._fixed.get(v)
        if fixed is not None:
            if fixed != (lit > 0):
                self._unsat = True
            return
        root = self._find(v)
        if root not in self._comps:
            self._fixed[v] = lit > 0
            return
        self._comps[root].units.append(lit)
        self._invalidate(root)

    # -- clauses --------------------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        out: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            self._units.append(out[0])
            self._assert(out[0])
            return
        self._clauses.append(tuple(out))
        # the decision order counts every literal as given, so a variable's
        # place does not depend on which literals the fixed ones drop
        occ, fixed = self._occ, self._fixed
        live: list[int] = []
        satisfied = False
        for lit in out:
            v = abs(lit)
            occ[v] = occ.get(v, 0) + 1
            value = fixed.get(v)
            if value is None:
                live.append(lit)
            elif value == (lit > 0):
                satisfied = True
        if satisfied:
            self._pair.append(None)
            for lit in live:
                root = self._find(abs(lit))
                if root in self._comps:
                    self._invalidate(root)
        elif len(live) < 2:
            self._pair.append(None)
            if live:
                self._assert(live[0])
            else:
                self._unsat = True
        else:
            root = self._touch(abs(live[0]))
            for lit in live[1:]:
                root = self._union(root, self._touch(abs(lit)))
            self._invalidate(root)
            idx = len(self._pair)
            self._pair.append([live[0], live[1]])
            self._watches.setdefault(live[0], []).append(idx)
            self._watches.setdefault(live[1], []).append(idx)

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

    # -- queries --------------------------------------------------------------

    def commit(self, lit: int) -> None:
        """Assert lit in every later query. A component last solved, with a
        model, under exactly this probe literal keeps that model."""
        v = abs(lit)
        if v not in self._fixed:
            root = self._find(v)
            comp = self._comps.get(root)
            if (comp is not None and comp.model is not None
                    and comp.key == frozenset((lit,))):
                comp.units.append(lit)
                comp.key = frozenset()
                self._recheck.discard(root)
                return
        self._assert(lit)

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        """Whether the clauses, the committed literals and the assumptions
        have a model; if so, `value` reads it.

        Each component is solved under the assumptions that fall in it. Its
        cached model is reused unless a clause, unit or commit reached it
        since, or its assumptions differ from the last query's.
        """
        if self._unsat:
            return False
        groups: dict[int, set[int]] = {}
        for lit in assumptions:
            fixed = self._fixed.get(abs(lit))
            if fixed is None:
                groups.setdefault(self._touch(abs(lit)), set()).add(lit)
            elif fixed != (lit > 0):
                return False
        for root in groups.keys() | self._recheck:
            comp = self._comps[root]
            key = frozenset(groups.get(root, ()))
            if comp.key != key:
                comp.key = key
                comp.model = self.solve(comp)
                if key or comp.model is None:
                    self._recheck.add(root)
                else:
                    self._recheck.discard(root)
            if comp.model is None:
                return False
        return True

    def value(self, var: int) -> bool:
        """var in the model of the last satisfiable query; False for a
        variable no clause or assumption has reached."""
        fixed = self._fixed.get(var)
        if fixed is not None:
            return fixed
        comp = self._comps.get(self._find(var))
        return comp is not None and comp.model[var]

    def solve(self, comp: _Component) -> dict[int, bool] | None:
        """The least model of one component under its units and the probe
        literals in comp.key, or None.

        Decisions follow a static order (most occurrences first, then
        variable id), try False first and backtrack chronologically, so the
        model is the lexicographically least one in that order. Components
        share no searched clause, so the least model of all clauses is the
        union of each component's least model under the same order
        restricted to it: solving them apart returns the same witness.
        The fixed variables are assigned from the start and no searched
        clause watches one, so propagation never leaves the component.
        """
        assign = dict(self._fixed)
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

        for lit in (*comp.units, *comp.key):
            if not enqueue(lit):
                return None
        if not propagate(0):
            return None

        if comp.order is None:
            occ = self._occ
            comp.order = sorted(comp.vars, key=lambda v: (-occ.get(v, 0), v))
        order = comp.order
        decisions: list[tuple[int, int, bool, int]] = []
        cursor = 0
        while True:
            while cursor < len(order) and order[cursor] in assign:
                cursor += 1
            if cursor == len(order):
                return assign
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


def satisfiable(phi: Formula) -> bool:
    """Whether phi has a model, decided in a solver of its own."""
    solver = _Solver()
    return solver.satisfiable((solver.literal(phi),))


# ---------------------------------------------------------------------------
# Incremental session
# ---------------------------------------------------------------------------


class SolverSession:
    """Accumulates a conjunction of formulas in one incremental solver.

    Each formula is Tseitin-encoded once and its root literal committed;
    every query solves under the committed roots. A contradictory push
    reports False and leaves the session unchanged.
    """

    def __init__(self) -> None:
        self._formula: Formula = TOP
        self._solver = _Solver()

    @property
    def formula(self) -> Formula:
        return self._formula

    def admits(self, phi: Formula) -> bool:
        """Whether phi is satisfiable together with the session; commits
        nothing."""
        return self._solver.satisfiable((self._solver.literal(phi),))

    def push(self, phi: Formula) -> bool:
        if not self.admits(phi):
            return False
        self._solver.commit(self._solver.literal(phi))
        self._formula = conj2(self._formula, phi)
        return True

    def model(self) -> dict[Name, bool] | None:
        if not self._solver.satisfiable():
            return None
        return {p: self._solver.value(i) for p, i in self._solver.ids.items()}
