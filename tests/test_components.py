"""Component-wise solving against the whole-clause-set DPLL.

`_Solver` solves one connected component of its clause graph at a time and
keeps each component's model between queries. `oracles.whole_clause_solve`
is the search it replaced: one DPLL over every clause the solver holds. On
the same clauses the two must give the same verdicts and the same model,
over every variable, for every push, `admits` probe and `model()` call,
and the same `fixed` set. Crafted instances reach the search's backtrack
loop, which the checked programs never do. `oracles.literal_by_clause` is
the Tseitin intake that adds one clause at a time: a gate taken in one
step must leave the solver in the same state.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from efl import driver
from efl.formulas import BOT, TOP, And, Implies, Or, neg, props
from efl.names import Name
from efl.solver import SolverSession, _Solver
from helpers import (SOURCES, Names, chain_source, check_source, fixed,
                     g_example_source)
from oracles import literal_by_clause, whole_clause_solve
from test_repl_golden import CASES, SCRIPTS, transcript


def assert_same_model(solver: _Solver, want: dict[int, bool]) -> None:
    got = {v: solver.value(v) for v in range(1, solver.nvars + 1)}
    assert got == {v: want[v] for v in range(1, solver.nvars + 1)}


class CheckedSession(SolverSession):
    """A SolverSession that compares every answer with the whole-clause-set
    DPLL run on its own clauses, under the roots pushed so far."""

    def __init__(self) -> None:
        super().__init__()
        self.roots: list[int] = []

    def admits(self, phi):
        got = super().admits(phi)
        want = whole_clause_solve(
            self._solver, (*self.roots, self._solver.literal(phi)))
        assert got == (want is not None)
        if got:
            assert_same_model(self._solver, want)
        return got

    def push(self, phi):
        ok = super().push(phi)
        if ok:
            self.roots.append(self._solver.literal(phi))
        return ok

    def model(self):
        got = super().model()
        want = whole_clause_solve(self._solver, self.roots)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_model(self._solver, want)
            assert got == {p: want[i] for p, i
                           in self._solver.ids.items()}
        return got


def oracle_fixed(session: CheckedSession) -> dict[Name, bool]:
    """helpers.fixed, with every probe answered by the whole-clause DPLL."""
    solver, roots = session._solver, session.roots
    model = whole_clause_solve(solver, roots)
    out = {}
    for p in sorted(props(session.formula), key=Name.key):
        i = solver.ids[p]
        value = model[i]
        if whole_clause_solve(solver, (*roots, -i if value else i)) is None:
            out[p] = value
    return out


def assert_fixed_agrees(session: CheckedSession) -> None:
    if session.model() is not None:
        assert fixed(session) == oracle_fixed(session)


# -- random sessions ---------------------------------------------------------


def random_formula(rng, atoms, depth):
    """Like test_solver's generator, but with the constants left unfolded
    inside the connectives, so fixed Tseitin literals drop out of clauses."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        if roll < 0.2:
            return BOT
        return rng.choice(atoms)
    a = random_formula(rng, atoms, depth - 1)
    b = random_formula(rng, atoms, depth - 1)
    return rng.choice((And(a, b), Or(a, b), Implies(a, b)))


def random_session(seed: int) -> None:
    """Pushes and probes over three groups of atoms. Most formulas stay in
    one group, so the groups form separate components; some span two and
    merge them. Probes land in groups already solved, and pushes follow
    into the same groups."""
    ns = Names()
    rng = random.Random(seed)
    groups = [[ns.p(f"{g}{i}") for i in range(3)] for g in "abc"]
    s = CheckedSession()
    for _ in range(rng.randrange(2, 12)):
        group = rng.choice(groups)
        atoms = (group + rng.choice(groups) if rng.random() < 0.2
                 else group)
        phi = random_formula(rng, atoms, 3)
        roll = rng.random()
        if roll < 0.4:
            s.admits(phi)
        else:
            s.push(phi)
        if roll > 0.8:
            assert_fixed_agrees(s)
    s.model()
    assert_fixed_agrees(s)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_sessions_agree_with_whole_clause_dpll(seed):
    random_session(seed)


def test_probe_then_push_into_a_solved_component(ns):
    """A probe solves a component under its root; the next query must
    drop that root again, and a push into the component re-solves it."""
    p, q, r, u, v = (ns.p(t) for t in "pqruv")
    s = CheckedSession()
    assert s.push(Or(p, q)) and s.push(Or(u, v))
    s.model()
    assert s.admits(neg(p)) and s.admits(And(q, Implies(q, r)))
    s.model()
    assert not s.admits(And(Implies(p, BOT), Implies(q, BOT)))
    assert s.push(Implies(q, BOT))
    assert s.model()[ns.prop("p")] is True
    assert s.admits(Or(v, r)) and s.push(Implies(r, p))
    assert_fixed_agrees(s)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_raw_clauses_agree_with_whole_clause_dpll(seed):
    """Clauses over a few variables in any order: units before and after
    the clauses that mention their variable, clauses a unit satisfies or
    shortens, commits, and queries under assumptions."""
    rng = random.Random(seed)
    s = _Solver()
    n = rng.randrange(2, 9)
    for _ in range(n):
        s.fresh_var()
    committed: list[int] = []
    for _ in range(rng.randrange(1, 14)):
        roll = rng.random()
        lit = rng.randrange(1, n + 1) * rng.choice((1, -1))
        if roll < 0.15:
            s.add_clause([lit])
        elif roll < 0.25:
            if rng.random() < 0.5:
                s.satisfiable((lit,))
            s.commit(lit)
            committed.append(lit)
        elif roll < 0.65:
            width = rng.randrange(2, 4)
            s.add_clause([rng.randrange(1, n + 1) * rng.choice((1, -1))
                          for _ in range(width)])
        else:
            assumptions = tuple(
                rng.randrange(1, n + 1) * rng.choice((1, -1))
                for _ in range(rng.randrange(0, 3)))
            want = whole_clause_solve(s, (*committed, *assumptions))
            assert s.satisfiable(assumptions) == (want is not None)
            if want is not None:
                assert_same_model(s, want)
    want = whole_clause_solve(s, committed)
    assert s.satisfiable() == (want is not None)
    if want is not None:
        assert_same_model(s, want)


def solved(clauses: list[tuple[int, ...]]) -> _Solver:
    """A solver holding the clauses, queried once and checked against the
    whole-clause DPLL."""
    s = _Solver()
    for _ in range(max(abs(lit) for c in clauses for lit in c)):
        s.fresh_var()
    for c in clauses:
        s.add_clause(c)
    want = whole_clause_solve(s)
    assert s.satisfiable() == (want is not None)
    if want is not None:
        assert_same_model(s, want)
    return s


def test_pigeonhole_three_into_two_is_unsat():
    """Every decision path ends in a conflict, so the search backtracks
    through all of them before it answers."""
    var = {(i, j): 2 * i + j + 1 for i in range(3) for j in range(2)}
    clauses = [(var[i, 0], var[i, 1]) for i in range(3)]
    clauses += [(-var[i, j], -var[k, j])
                for j in range(2) for i in range(3) for k in range(i + 1, 3)]
    s = solved(clauses)
    assert not s.satisfiable()


def test_conflicts_below_the_first_decision_flip_it():
    """With x1 false the clauses need all eight sign patterns of x2..x4,
    so every branch under it ends in a conflict at level 3 and the first
    decision (x1, all variables tie on occurrences) flips to true."""
    clauses = [(1, 2 * s2, 3 * s3, 4 * s4)
               for s2 in (1, -1) for s3 in (1, -1) for s4 in (1, -1)]
    s = solved(clauses)
    assert [s.value(v) for v in range(1, 5)] == [True, False, False, False]


# -- gate intake in one step ---------------------------------------------------


def assert_same_intake(fast: _Solver, slow: _Solver) -> None:
    assert fast.nvars == slow.nvars
    assert fast._clauses == slow._clauses
    assert fast._units == slow._units
    assert fast._occ == slow._occ
    assert fast._pair == slow._pair
    assert fast._watches == slow._watches
    assert fast._fixed == slow._fixed
    assert fast._recheck == slow._recheck
    assert ([fast._find(v) for v in range(1, fast.nvars + 1)]
            == [slow._find(v) for v in range(1, slow.nvars + 1)])


def assert_same_intake_and_models(formulas, commits) -> None:
    """Each formula through `_Solver.literal` and through the clause-by-
    clause oracle into two solvers, then the same query on both: its root
    committed, or probed."""
    fast, slow = _Solver(), _Solver()
    for phi, commit in zip(formulas, commits):
        root = fast.literal(phi)
        assert literal_by_clause(slow, phi) == root
        assert_same_intake(fast, slow)
        if commit:
            fast.commit(root)
            slow.commit(root)
        probe = () if commit else (root,)
        verdict = fast.satisfiable(probe)
        assert slow.satisfiable(probe) == verdict
        if verdict:
            assert_same_model(fast, {v: slow.value(v)
                                     for v in range(1, slow.nvars + 1)})
        assert_same_intake(fast, slow)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_gate_intake_agrees_with_clause_by_clause(seed):
    ns = Names()
    rng = random.Random(seed)
    groups = [[ns.p(f"{g}{i}") for i in range(3)] for g in "ab"]
    n = rng.randrange(1, 10)
    formulas = [random_formula(rng, rng.choice(groups), 3) for _ in range(n)]
    assert_same_intake_and_models(formulas,
                                  [rng.random() < 0.6 for _ in range(n)])


def test_gates_that_take_the_clause_by_clause_path(ns):
    """Equal inputs, and inputs fixed by a constant or by a committed bare
    proposition, go through `add_clause` one clause at a time."""
    p, q, r = ns.p("p"), ns.p("q"), ns.p("r")
    assert_same_intake_and_models(
        [And(p, p), Or(q, q), Implies(r, r), And(q, TOP),
         Or(BOT, r), p, And(p, q), Implies(r, p), Or(q, r)],
        [False, False, False, True, False, True, True, False, True])


# -- the checker and the REPL --------------------------------------------------


@pytest.fixture
def checked(monkeypatch):
    """The sessions the driver makes while the test runs, each checked."""
    made = []

    def make():
        made.append(CheckedSession())
        return made[-1]

    monkeypatch.setattr(driver, "SolverSession", make)
    return made


FAMILIES = [(f"g_example_x{n}", g_example_source(n)) for n in (1, 3, 8, 20)] \
    + [(f"chain_x{n}", chain_source(n)) for n in (1, 3, 6, 9)]


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
@pytest.mark.parametrize("name,src", SOURCES + FAMILIES,
                         ids=[n for n, _ in SOURCES + FAMILIES])
def test_checker_agrees_with_whole_clause_dpll(checked, name, src, mode):
    outcome = check_source(src, mode)
    (session,) = checked
    if outcome.witness is not None:
        assert_fixed_agrees(session)


@pytest.mark.parametrize("name,mode", CASES,
                         ids=[f"{n}.{m}" for n, m in CASES])
def test_repl_sessions_agree_with_whole_clause_dpll(checked, name, mode):
    """Every answer is checked as it is given. The fixed sets are compared
    where the session has at most 200 propositions: each costs two solves
    per proposition, and the checker test above compares them on every
    program, cf_k_join included."""
    transcript(SCRIPTS[name], mode)
    (session,) = checked
    if len(props(session.formula)) <= 200:
        assert_fixed_agrees(session)


# -- linear work on independent definitions ------------------------------------


def assigned_in_check(monkeypatch, n: int) -> int:
    """Variables in the models the DPLL returns while checking
    g_example x n."""
    total = 0
    solve = _Solver.solve

    def counting(self, *args):
        nonlocal total
        model = solve(self, *args)
        total += len(model) if model else 0
        return model

    monkeypatch.setattr(_Solver, "solve", counting)
    check_source(g_example_source(n))
    monkeypatch.setattr(_Solver, "solve", solve)
    return total


def test_search_work_is_linear_in_independent_definitions(monkeypatch):
    small = assigned_in_check(monkeypatch, 100)
    large = assigned_in_check(monkeypatch, 400)
    assert large <= 4.5 * small, (small, large)
