"""The SAT engine: satisfiability and witness models of guard formulas.

It sees formulas only, never effects: `driver` builds the discharge
formulas. `satisfiable` decides one formula in a session of its own;
`SolverSession` accumulates a session's formulas and reads the witness.

A hand-rolled solver is plenty here: discharge formulas mention a few dozen
to a few hundred propositions and are heavy on implications, so unit
propagation does most of the work. Clauses come from an incremental Tseitin
encoding (definitions are shared and survive across queries); the search is
an iterative DPLL over two watched literals per clause. Models are reported
over named propositions only; Tseitin auxiliaries never escape.

The encoding folds constants as it goes. `T` and `F` get no variable: their
literals are `TRUE` and `-TRUE`, which no variable has. A connective with a
constant operand, or whose operand literals are equal or opposite, is
settled by its truth table, so a negation `x => F` is the literal `-x`.
Every other connective is a gate over two distinct variables, whose three
clauses `literal` stores in one step. The search keeps literal values in
one list indexed by the literal itself, negative literals from the end,
that lives as long as the solver, so a query costs what it assigns; it
builds the model dict once, when it has found a model.

The search runs on one connected component of the clause graph at a time.
Independent definitions share no variable, so a push or a REPL `:type`
probe re-solves only the components its clauses and root reach and reuses
the cached models of the rest. The witness does not move: the DPLL returns
the lexicographically least model in its static decision order, and over
independent components that model is the product of each component's
least model in the same order restricted to it.
"""
from __future__ import annotations

from typing import Iterable

from .formulas import TOP, And, Bot, Formula, Implies, Or, Prop, Top, conj2
from .names import Name

# The literal of T, beyond any variable; -TRUE is the literal of F.
TRUE = 1 << 62


class _Component:
    """One connected set of searched clauses: its variables, the literals
    asserted in it (committed roots), its decision order, and the model
    last found for it under the probe literals in `key` (key None: stale,
    model None: no model)."""

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

    Clauses enter only as Tseitin gates, added once per distinct
    subformula. A gate is a pure definition (satisfiable under any
    assignment of its inputs), so encoding a formula without asserting its
    root literal never constrains the named propositions. Queries pass the
    roots they want asserted as assumption literals, or commit them for
    every later query.

    The variables are grouped by a union-find over the clauses, and each
    group keeps the model last found for it. A query re-solves only the
    groups that changed or whose probe literals differ; `value` reads the
    merged models.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.ids: dict[Name, int] = {}
        self._memo: dict[Formula, int] = {}
        self._clauses: list[tuple[int, ...]] = []
        self._pair: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._occ: dict[int, int] = {}
        self._lv: list[int] = []  # literal values, for `solve`
        self._parent = [0]
        self._comps: dict[int, _Component] = {}
        # roots of the components a query must look at even when none of
        # its assumptions falls in them: stale ones, and those whose model
        # was found under probe literals or does not exist
        self._recheck: set[int] = set()

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

    # -- clauses --------------------------------------------------------------

    def literal(self, phi: Formula) -> int:
        """Tseitin literal for phi, adding gate clauses as needed; TRUE or
        -TRUE when phi folds to a constant."""
        memo, occ = self._memo, self._occ
        clauses, pairs, watches = self._clauses, self._pair, self._watches
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
                memo[f] = TRUE if isinstance(f, Top) else -TRUE
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
            stack.pop()
            # a => b is -a \/ b, down to the order of the gate's clauses
            conj = isinstance(f, And)
            if isinstance(f, Implies):
                a = -a
            # the unit (T for /\, F for \/) leaves the other operand, and
            # its negation, like a pair of opposite literals, absorbs both
            unit = TRUE if conj else -TRUE
            if a == unit or a == b:
                memo[f] = b
                continue
            if b == unit:
                memo[f] = a
                continue
            if a == -unit or b == -unit or a == -b:
                memo[f] = -unit
                continue
            v = self.fresh_var()
            if conj:
                gate = ((-v, a), (-v, b), (v, -a, -b))
            else:
                gate = ((-v, a, b), (v, -a), (v, -b))
            idx = len(pairs)
            for clause in gate:
                pairs.append([clause[0], clause[1]])
                watches.setdefault(clause[0], []).append(idx)
                watches.setdefault(clause[1], []).append(idx)
                idx += 1
            clauses.extend(gate)
            a, b = abs(a), abs(b)
            occ[v] = 3
            occ[a] = occ.get(a, 0) + 2
            occ[b] = occ.get(b, 0) + 2
            self._invalidate(self._union(
                self._union(self._touch(v), self._touch(a)), self._touch(b)))
            memo[f] = v
        return memo[phi]

    # -- queries --------------------------------------------------------------

    def commit(self, lit: int) -> None:
        """Assert lit, a variable's literal, in every later query. A
        component last solved, with a model, under exactly this probe
        literal keeps that model."""
        root = self._touch(abs(lit))
        comp = self._comps[root]
        comp.units.append(lit)
        if comp.model is not None and comp.key == frozenset((lit,)):
            comp.key = frozenset()
            self._recheck.discard(root)
        else:
            self._invalidate(root)

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        """Whether the clauses, the committed literals and the assumptions
        (variables' literals) have a model; if so, `value` reads it.

        Each component is solved under the assumptions that fall in it. Its
        cached model is reused unless a clause or commit reached it since,
        or its assumptions differ from the last query's.
        """
        groups: dict[int, set[int]] = {}
        for lit in assumptions:
            groups.setdefault(self._touch(abs(lit)), set()).add(lit)
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
        variable no clause, commit or assumption has reached."""
        comp = self._comps.get(self._find(var))
        return comp is not None and comp.model[var]

    def solve(self, comp: _Component) -> dict[int, bool] | None:
        """The least model of one component under its units and the probe
        literals in comp.key, or None.

        Decisions follow a static order (most occurrences first, then
        variable id), try False first and backtrack chronologically, so the
        model is the lexicographically least one in that order. Components
        share no clause, so the least model of all clauses is the union of
        each component's least model under the same order restricted to
        it: solving them apart returns the same witness, and propagation
        never leaves the component.

        Literal values live in one flat list, `lv[lit]` being 1 (true), -1
        (false) or 0 (unassigned): a negative literal indexes it from the
        end, so both polarities of a variable are one lookup each. The list
        outlives the query, all zero between queries, so a query costs its
        own assignments and not one cell per variable of the solver; it is
        reallocated with twice the room it needs when the variables outgrow
        it.
        """
        lv = self._lv
        if len(lv) <= 2 * self.nvars:
            lv = self._lv = [0] * (4 * self.nvars + 1)
        trail: list[int] = []
        try:
            if not self._search(comp, lv, trail):
                return None
            return {abs(lit): lit > 0 for lit in trail}
        finally:
            for lit in trail:
                lv[lit] = lv[-lit] = 0

    def _search(self, comp: _Component, lv: list[int],
                trail: list[int]) -> bool:
        """Extend trail to the least model of comp under its units and
        probe literals, as `solve` describes; whether there is one."""
        clauses = self._clauses
        pairs = self._pair
        watches = self._watches

        def propagate(i: int) -> bool:
            while i < len(trail):
                falsified = -trail[i]
                i += 1
                ws = watches.get(falsified)
                if not ws:
                    continue
                keep: list[int] = []
                for k, ci in enumerate(ws):
                    pair = pairs[ci]
                    if pair[0] == falsified:
                        pair[0], pair[1] = pair[1], pair[0]
                    other = pair[0]
                    ov = lv[other]
                    if ov == 1:
                        keep.append(ci)
                        continue
                    for cand in clauses[ci]:
                        if (cand != other and cand != falsified
                                and lv[cand] != -1):
                            pair[1] = cand
                            watches.setdefault(cand, []).append(ci)
                            break
                    else:
                        keep.append(ci)
                        if ov == -1:
                            keep.extend(ws[k + 1:])
                            watches[falsified] = keep
                            return False
                        lv[other], lv[-other] = 1, -1
                        trail.append(other)
                watches[falsified] = keep
            return True

        for lit in (*comp.units, *comp.key):
            if lv[lit] == -1:
                return False
            if not lv[lit]:
                lv[lit], lv[-lit] = 1, -1
                trail.append(lit)
        if not propagate(0):
            return False

        if comp.order is None:
            occ = self._occ
            comp.order = sorted(comp.vars, key=lambda v: (-occ.get(v, 0), v))
        order = comp.order
        decisions: list[tuple[int, int, bool, int]] = []
        cursor = 0
        while True:
            while cursor < len(order) and lv[order[cursor]]:
                cursor += 1
            if cursor == len(order):
                return True
            var = order[cursor]
            decisions.append((len(trail), var, False, cursor))
            lv[var], lv[-var] = -1, 1
            trail.append(-var)
            start = len(trail) - 1
            while not propagate(start):
                while decisions:
                    tlen, dv, flipped, cur = decisions.pop()
                    for lit in trail[tlen:]:
                        lv[lit] = lv[-lit] = 0
                    del trail[tlen:]
                    cursor = cur
                    if not flipped:
                        decisions.append((tlen, dv, True, cur))
                        lv[dv], lv[-dv] = 1, -1
                        trail.append(dv)
                        start = tlen
                        break
                else:
                    return False


def satisfiable(phi: Formula) -> bool:
    """Whether phi has a model, decided in a session of its own; a bare
    proposition, which has one, without a search."""
    return isinstance(phi, Prop) or SolverSession().admits(phi)


# ---------------------------------------------------------------------------
# Incremental session
# ---------------------------------------------------------------------------


class SolverSession:
    """Accumulates a conjunction of formulas in one incremental solver.

    Each formula is Tseitin-encoded once and its root literal committed;
    every query solves under the committed roots. A formula that folds to
    a constant is answered without a query: the session is always
    satisfiable, so T is admitted and F is not. A contradictory push
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
        root = self._solver.literal(phi)
        if abs(root) == TRUE:
            return root > 0
        return self._solver.satisfiable((root,))

    def push(self, phi: Formula) -> bool:
        if not self.admits(phi):
            return False
        root = self._solver.literal(phi)
        if root != TRUE:
            self._solver.commit(root)
        self._formula = conj2(self._formula, phi)
        return True

    def model(self) -> dict[Name, bool] | None:
        if not self._solver.satisfiable():
            return None
        return {p: self._solver.value(i) for p, i in self._solver.ids.items()}
