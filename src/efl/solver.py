"""The SAT engine: satisfiability and witness models of guard formulas.

It sees formulas only, never effects: `driver` builds the discharge
formulas. `satisfiable` decides one formula in a session of its own;
`SolverSession` accumulates a session's formulas and reads the witness.

A hand-rolled solver is plenty here: discharge formulas mention a few dozen
to a few hundred propositions and are heavy on implications, so unit
propagation does most of the work. Clauses come from an incremental Tseitin
encoding (definitions are shared and survive across queries); the search is
an iterative DPLL. Models are reported over named propositions only; Tseitin
auxiliaries never escape.

The encoding folds constants as it goes. `T` and `F` get no variable: their
literals are `TRUE` and `-TRUE`, which no variable has. A connective with a
constant operand, or whose operand literals are equal or opposite, is
settled by its truth table, so a negation `x => F` is the literal `-x`.
Every other connective is a gate over two distinct variables: `literal`
stores its three clauses, of two or three literals over distinct
variables, and files each under each of its literals. Propagation scans
the clauses of each literal made false; on clauses this short, two watched
literals would watch most literals anyway. The clauses and these
occurrence lists only grow, and a query writes neither. The search keeps
literal values in one list indexed by the literal itself, negative
literals from the end, that lives as long as the solver, so a query costs
what it assigns; it builds the model dict once, when it has found a model.

The search runs on one connected component of the clause graph at a time.
A component is stale or holds its least model under its committed units,
and a query's assumptions are commits that it takes back, so a push or a
REPL `:type` probe re-solves only the components its clauses and root
reach. The witness does not move: the DPLL returns the lexicographically
least model in its static decision order, and over independent components
that model is the product of each component's least model in the same
order restricted to it.
"""
from __future__ import annotations

from typing import Iterable

from .formulas import TOP, And, Bot, Formula, Implies, Or, Prop, Top, conj2
from .names import Name

# The literal of T, beyond any variable; -TRUE is the literal of F.
TRUE = 1 << 62


class _Component:
    """One connected set of searched clauses: its variables, the literals
    committed in it, its decision order, and the model last found for it
    (None: no model). The model is its least model under `units` unless
    the component is stale."""

    __slots__ = ("vars", "units", "order", "model")

    def __init__(self, var: int) -> None:
        self.vars = [var]
        self.units: list[int] = []
        self.order: list[int] | None = None
        self.model: dict[int, bool] | None = None


class _Solver:
    """Incremental clause store, indexed by occurrence lists, with a
    deterministic DPLL solved one connected component at a time.

    Clauses enter only as Tseitin gates, added once per distinct
    subformula. A gate is a pure definition (satisfiable under any
    assignment of its inputs), so encoding a formula without asserting its
    root literal never constrains the named propositions. A root is
    committed for every later query, or as one query's assumption, which
    the query retracts. A query writes no clause and no occurrence list.

    The variables are grouped by a union-find over the clauses, and each
    group keeps the model last found for it. A query re-solves only the
    groups whose clauses or units changed since; `value` reads the merged
    models.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.ids: dict[Name, int] = {}
        self._memo: dict[Formula, int] = {}
        self._clauses: list[tuple[int, ...]] = []
        self._uses: dict[int, list[int]] = {}  # literal -> its clauses
        self._lv: list[int] = []  # literal values, for `solve`
        self._parent = [0]
        self._comps: dict[int, _Component] = {}
        # roots of the components whose clauses or units changed since
        # their model was found, or that have none
        self._stale: set[int] = set()

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

    def _touch(self, v: int) -> int:
        """The root of v's component, made if v has none yet."""
        root = self._find(v)
        if root not in self._comps:
            self._comps[root] = _Component(root)
            self._stale.add(root)
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge two components, the smaller into the larger; the new
        root. The caller marks it stale."""
        if a == b:
            return a
        comps = self._comps
        if len(comps[a].vars) < len(comps[b].vars):
            a, b = b, a
        self._parent[b] = a
        big, small = comps[a], comps.pop(b)
        big.vars.extend(small.vars)
        big.units.extend(small.units)
        self._stale.discard(b)
        return a

    # -- clauses --------------------------------------------------------------

    def literal(self, phi: Formula) -> int:
        """Tseitin literal for phi, adding gate clauses as needed; TRUE or
        -TRUE when phi folds to a constant."""
        memo, clauses, uses = self._memo, self._clauses, self._uses
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
            for clause in gate:
                for lit in clause:
                    uses.setdefault(lit, []).append(len(clauses))
                clauses.append(clause)
            root = self._union(self._union(
                self._touch(v), self._touch(abs(a))), self._touch(abs(b)))
            self._comps[root].order = None
            self._stale.add(root)
            memo[f] = v
        return memo[phi]

    # -- queries --------------------------------------------------------------

    def commit(self, lit: int) -> None:
        """Assert lit, a variable's literal, in every later query until it
        is retracted."""
        root = self._touch(abs(lit))
        self._comps[root].units.append(lit)
        self._stale.add(root)

    def retract(self, lit: int) -> None:
        """Take back lit, the last literal committed in its component."""
        root = self._find(abs(lit))
        self._comps[root].units.pop()
        self._stale.add(root)

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        """Whether the clauses, the committed literals and the assumptions
        (variables' literals) have a model; if so, `value` reads it.

        The assumptions are committed for the query and retracted after
        it, which leaves their components stale. Each stale component is
        solved; the others keep their models.
        """
        assumptions = tuple(assumptions)
        for lit in assumptions:
            self.commit(lit)
        try:
            for root in list(self._stale):
                comp = self._comps[root]
                comp.model = self.solve(comp)
                if comp.model is None:
                    return False
                self._stale.discard(root)
            return True
        finally:
            for lit in reversed(assumptions):
                self.retract(lit)

    def value(self, var: int) -> bool:
        """var in the model of the last satisfiable query; False for a
        variable no clause, commit or assumption has reached."""
        comp = self._comps.get(self._find(var))
        return comp is not None and comp.model[var]

    def solve(self, comp: _Component) -> dict[int, bool] | None:
        """The least model of one component under its units, or None.

        Propagation scans the clauses of each literal made false: it skips
        a satisfied clause and one with two literals unassigned, assigns a
        clause's one unassigned literal, and fails on a clause with none.
        Decisions follow a static order (most clauses holding the variable
        first, then variable id), try False first and backtrack
        chronologically, so the model is the lexicographically least one in
        that order; the order of propagation does not move it. Components
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
        """Extend trail to the least model of comp under its units, as
        `solve` describes; whether there is one."""
        clauses, uses = self._clauses, self._uses

        def propagate(i: int) -> bool:
            while i < len(trail):
                for ci in uses.get(-trail[i], ()):
                    unit = 0
                    for lit in clauses[ci]:
                        if lv[lit] == 1:
                            break
                        if not lv[lit]:
                            if unit:
                                break
                            unit = lit
                    else:
                        if not unit:
                            return False
                        lv[unit], lv[-unit] = 1, -1
                        trail.append(unit)
                i += 1
            return True

        for lit in comp.units:
            if lv[lit] == -1:
                return False
            if not lv[lit]:
                lv[lit], lv[-lit] = 1, -1
                trail.append(lit)
        if not propagate(0):
            return False

        if comp.order is None:
            comp.order = sorted(comp.vars, key=lambda v: (
                -len(uses.get(v, ())) - len(uses.get(-v, ())), v))
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
    proposition or a constant is answered without a session."""
    if isinstance(phi, (Prop, Top)):
        return True
    return not isinstance(phi, Bot) and SolverSession().admits(phi)


# ---------------------------------------------------------------------------
# Incremental session
# ---------------------------------------------------------------------------


class SolverSession:
    """Accumulates a conjunction of formulas in one incremental solver.

    Each formula is Tseitin-encoded once. A push commits its root and
    solves, and retracts the root if that finds no model; a probe
    (`admits`) is a query under the root as its assumption. A formula that
    folds to a constant is answered without a query: the session is always
    satisfiable, so T is admitted and F is not. A contradictory push
    reports False and leaves the session unchanged.
    """

    def __init__(self) -> None:
        self.formula: Formula = TOP
        self._solver = _Solver()

    def admits(self, phi: Formula) -> bool:
        """Whether phi is satisfiable together with the session; commits
        nothing."""
        root = self._solver.literal(phi)
        if abs(root) == TRUE:
            return root > 0
        return self._solver.satisfiable((root,))

    def push(self, phi: Formula) -> bool:
        root = self._solver.literal(phi)
        if root == -TRUE:
            return False
        if root != TRUE:
            self._solver.commit(root)
            if not self._solver.satisfiable():
                self._solver.retract(root)
                return False
        self.formula = conj2(self.formula, phi)
        return True

    def model(self) -> dict[Name, bool] | None:
        if not self._solver.satisfiable():
            return None
        return {p: self._solver.value(i) for p, i in self._solver.ids.items()}
