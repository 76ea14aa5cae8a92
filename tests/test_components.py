"""Component-wise solving against the whole-clause-set DPLL, and the
constant-folding encoding against the reference encoding.

`_Solver` solves one connected component of its clause graph at a time and
keeps each component's model between queries. `oracles.whole_clause_solve`
is the search it replaced: one DPLL over every clause the solver holds,
propagating over two watched literals per clause where the solver scans
occurrence lists. On the same clauses the two must give the same verdicts
and the same model, over every variable, for every push, `admits` probe
and `model()` call, and the same `fixed` set. Crafted instances, each
clause pushed as a chain of `Or`s, reach the search's backtrack loop,
which the checked programs never do. The solver's design rests on two
facts checked here too: every clause it holds has two or three literals
over distinct variables, and no query writes a clause.

`oracles.ReferenceSession` encodes every constant and connective, as the
solver did before its `literal` folded them. A session must give the same
verdict as the reference on every push and probe and, on the programs and
REPL scripts, the same witness; on random formulas that keep constants
inside connectives, its model must satisfy the session formula.
"""
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from efl import driver
from efl.formulas import (BOT, TOP, And, Formula, Implies, Or, Prop,
                          evaluate, neg)
from efl.names import KIND_PROP, Name
from efl.solver import TRUE, SolverSession, _Solver
from helpers import (SOURCES, Names, all_valuations, chain_source,
                     check_source, fixed, g_example_source, props)
from oracles import ReferenceSession, ReferenceSolver, whole_clause_solve
from test_repl_golden import CASES, MODES, SCRIPTS, transcript


def assert_same_model(solver: _Solver, want: dict[int, bool]) -> None:
    got = {v: solver.value(v) for v in range(1, solver.nvars + 1)}
    assert got == {v: want[v] for v in range(1, solver.nvars + 1)}


def clause_store(solver: _Solver):
    """A copy of the clauses and their occurrence lists."""
    return (list(solver._clauses),
            {lit: tuple(cs) for lit, cs in solver._uses.items()})


def assert_query_wrote_no_clause(solver: _Solver, before) -> None:
    """The clause store is as it was before the query, and each component's
    decision order is the one a count of the raw clauses gives."""
    assert clause_store(solver) == before
    count: dict[int, int] = {}
    for c in solver._clauses:
        for lit in c:
            count[abs(lit)] = count.get(abs(lit), 0) + 1
    for comp in solver._comps.values():
        if comp.order is not None:
            assert comp.order == sorted(
                comp.vars, key=lambda v: (-count.get(v, 0), v))


class CheckedSession(SolverSession):
    """A SolverSession that compares every answer with the whole-clause-set
    DPLL run on its own clauses, under the roots pushed so far, and with a
    session over the reference encoding. No query writes the clause store:
    the clauses and occurrence lists after it are those `literal` left
    before it, and the components' decision orders follow the clauses.

    `model()` must satisfy the session formula and, by `witness`, equal the
    reference's model over every named proposition ("all"), over those of
    the pushed formulas ("pushed"), or over none (""). A probe or a
    rejected push leaves its gates behind: in the reference the gate for a
    probe's `p => F` can come first in the decision order and make true a
    proposition that no pushed formula mentions, which the folding
    encoding, with no gate for it, leaves false. It leaves no unit behind:
    after every query each component's units are the roots of the accepted
    pushes that fall in it.
    """

    def __init__(self, witness: str = "all") -> None:
        super().__init__()
        self.roots: list[int] = []
        self.reference = ReferenceSession()
        self.witness = witness

    def assert_units_are_pushed_roots(self) -> None:
        solver = self._solver
        want: dict[int, list[int]] = {root: [] for root in solver._comps}
        for lit in self.roots:
            want[solver._find(abs(lit))].append(lit)
        assert {root: sorted(comp.units) for root, comp
                in solver._comps.items()} == {
            root: sorted(units) for root, units in want.items()}

    def query(self, ask, phi):
        """ask(phi), a probe or a push, answered as the reference and the
        whole-clause DPLL under the roots pushed so far answer it."""
        root = self._solver.literal(phi)  # the gates the query adds
        before = clause_store(self._solver)
        got = ask(phi)
        assert_query_wrote_no_clause(self._solver, before)
        assert got == self.reference.admits(phi)
        if abs(root) != TRUE:
            want = whole_clause_solve(self._solver, (*self.roots, root))
            assert got == (want is not None)
            if got:
                assert_same_model(self._solver, want)
        return got, root

    def admits(self, phi):
        got, _ = self.query(super().admits, phi)
        self.assert_units_are_pushed_roots()
        return got

    def push(self, phi):
        ok, root = self.query(super().push, phi)
        if ok:
            self.reference.commit(phi)
            if root != TRUE:
                self.roots.append(root)
        self.assert_units_are_pushed_roots()
        return ok

    def model(self):
        before = clause_store(self._solver)
        got = super().model()
        assert_query_wrote_no_clause(self._solver, before)
        self.assert_units_are_pushed_roots()
        want = whole_clause_solve(self._solver, self.roots)
        ref = self.reference.model()
        assert (got is None) == (want is None) == (ref is None)
        if got is not None:
            assert_same_model(self._solver, want)
            assert got == {p: want[i] for p, i
                           in self._solver.ids.items()}
            assert evaluate(self.formula, got)
            over = {"all": got, "pushed": props(self.formula),
                    "": ()}[self.witness]
            assert {p: got[p] for p in over} == {p: ref[p] for p in over}
        return got


def oracle_fixed(session: CheckedSession) -> dict[Name, bool]:
    """helpers.fixed, with every probe answered by the whole-clause DPLL."""
    solver, roots = session._solver, session.roots
    model = whole_clause_solve(solver, roots)
    out = {}
    for p in sorted(props(session.formula), key=Name.KEY):
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
    """Like test_solver's generator, with the constants left unfolded
    inside the connectives for the encoding to fold."""
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
    s = CheckedSession(witness="")
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


@settings(max_examples=300)
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


def test_queries_leave_the_session_as_the_accepted_pushes_made_it(ns):
    """A probe takes back its assumption and a rejected push its root, so
    the pushes after them get the verdicts, and `model()` the witness, of
    a reference session that saw only the accepted pushes. The probe of u
    moves the least model of u \\/ v, which the final model must not
    keep; the rejected `q => F` adds no gate, so only its retracted unit
    keeps it from sticking."""
    p, q, r, u, v = (ns.p(t) for t in "pqruv")
    s, fresh = CheckedSession(), ReferenceSession()
    steps = [(Or(p, q), True), (Or(u, v), True), (Implies(p, BOT), True),
             (Implies(q, BOT), False), (Or(neg(q), r), True),
             (And(Implies(r, BOT), Or(p, q)), False), (Implies(r, q), True)]
    for phi, accepted in steps:
        assert s.admits(u)
        assert s.push(phi) is accepted
        if accepted:
            assert fresh.push(phi)
    assert not s.admits(Implies(r, BOT))
    assert s.model() == fresh.model()
    assert s.model()[ns.prop("u")] is False


def clause(variables: list[Prop], lits) -> Formula:
    """The clause over the given DIMACS-style literals, as a right-nested
    chain of `Or`s over variables[v - 1] and their negations."""
    parts = [variables[v - 1] if v > 0 else neg(variables[-v - 1])
             for v in lits]
    return reduce(lambda rest, part: Or(part, rest), reversed(parts))


def new_variables(s: _Solver, n: int) -> list[Prop]:
    """n propositions, given the solver's variables 1..n in order."""
    variables = [Prop(Name(f"x{v}", KIND_PROP, v)) for v in range(1, n + 1)]
    for p in variables:
        s.var_of(p.name)
    return variables


def commit(s: _Solver, phi: Formula, committed: list[int]) -> None:
    root = s.literal(phi)
    if root != TRUE:
        s.commit(root)
        committed.append(root)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_raw_clauses_agree_with_whole_clause_dpll(seed):
    """Clauses over a few variables in any order, each committed as a chain
    of `Or`s: unit clauses before and after the clauses that mention their
    variable, clauses that repeat a literal or hold it with its negation,
    commits after a probe of the same literal, and queries under
    assumptions."""
    rng = random.Random(seed)
    s = _Solver()
    n = rng.randrange(2, 9)
    variables = new_variables(s, n)
    committed: list[int] = []
    for _ in range(rng.randrange(1, 14)):
        roll = rng.random()
        lit = rng.randrange(1, n + 1) * rng.choice((1, -1))
        if roll < 0.15:
            commit(s, clause(variables, [lit]), committed)
        elif roll < 0.25:
            if rng.random() < 0.5:
                s.satisfiable((lit,))
            s.commit(lit)
            committed.append(lit)
        elif roll < 0.65:
            width = rng.randrange(2, 4)
            commit(s, clause(variables,
                             [rng.randrange(1, n + 1) * rng.choice((1, -1))
                              for _ in range(width)]), committed)
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
    """A solver with each clause committed as a chain of `Or`s, queried
    once and checked against the whole-clause DPLL."""
    s = _Solver()
    variables = new_variables(s, max(abs(lit) for c in clauses for lit in c))
    committed: list[int] = []
    for c in clauses:
        commit(s, clause(variables, c), committed)
    want = whole_clause_solve(s, committed)
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


def test_pigeonhole_with_a_shared_hole_is_reached_through_a_flip():
    """The pigeonhole above, but hole 1 may hold pigeon 2 beside another
    pigeon when y holds. Without y every path conflicts as before, so the
    search backtracks through a conflict and flips a decision before it
    reaches the least model; trying True first finds another model, and
    giving up at the first conflict finds none."""
    var = {(i, j): 2 * i + j + 1 for i in range(3) for j in range(2)}
    y = 7
    clauses = [(var[i, 0], var[i, 1]) for i in range(3)]
    clauses += [(-var[i, j], -var[k, j]) + ((y,) if (j, k) == (1, 2) else ())
                for j in range(2) for i in range(3) for k in range(i + 1, 3)]
    s = solved(clauses)
    assert s.satisfiable()
    # pigeon 0 in hole 1, pigeon 1 in hole 0, pigeon 2 in hole 1, y
    assert ([s.value(v) for v in range(1, 8)]
            == [False, True, True, False, False, True, True])


def test_conflicts_below_the_first_decision_flip_it():
    """With x1 false the clauses need all eight sign patterns of x2..x4,
    so every branch under it ends in a conflict at level 3 and the first
    decision flips to true. x1 and x2 lead the decision order: the inner
    `Or`s of the eight chains make two gates over x1, four over x2's
    literals and eight over x3's and x4's, two occurrences each, and the
    tie between x1 and x2 goes to the lower id."""
    clauses = [(1, 2 * s2, 3 * s3, 4 * s4)
               for s2 in (1, -1) for s3 in (1, -1) for s4 in (1, -1)]
    s = solved(clauses)
    assert [s.value(v) for v in range(1, 5)] == [True, False, False, False]


# -- constant folding at intake --------------------------------------------------


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_gate_intake_agrees_with_clause_by_clause(seed):
    """Random formulas, constants left inside the connectives, through the
    folding intake and the clause-by-clause reference encoding: under every
    valuation of the propositions each root takes phi's truth value, in
    both solvers."""
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.p(f"a{i}") for i in range(3)]
    s, ref = _Solver(), ReferenceSolver()
    for _ in range(rng.randrange(1, 6)):
        phi = random_formula(rng, atoms, 3)
        root, ref_root = s.literal(phi), ref.literal(phi)
        for rho in all_valuations(props(phi)):
            lits = [s.ids[p] if rho[p] else -s.ids[p] for p in rho]
            ref_lits = [ref.ids[p] if rho[p] else -ref.ids[p] for p in rho]
            truth = evaluate(phi, rho)
            if abs(root) == TRUE:
                assert (root == TRUE) == truth
            else:
                assert s.satisfiable((*lits, root)) == truth
                assert s.satisfiable((*lits, -root)) == (not truth)
            assert ref.satisfiable((*ref_lits, ref_root)) == truth
            assert ref.satisfiable((*ref_lits, -ref_root)) == (not truth)


def test_constant_and_repeated_operands_fold(ns):
    """A connective with a constant operand, or with equal or opposite
    operand literals, is the literal its truth table gives: no variable,
    no clause. A negation is the negated literal."""
    p, q = ns.p("p"), ns.p("q")
    s = _Solver()
    vp, vq = s.literal(p), s.literal(q)
    cases = [
        (And(p, p), vp), (Or(q, q), vq), (Implies(p, p), TRUE),
        (And(q, TOP), vq), (Or(BOT, q), vq), (Implies(TOP, q), vq),
        (Implies(p, BOT), -vp), (neg(neg(q)), vq), (Implies(BOT, q), TRUE),
        (Implies(p, TOP), TRUE), (And(BOT, q), -TRUE), (Or(TOP, q), TRUE),
        (And(p, neg(p)), -TRUE), (Or(neg(q), q), TRUE),
        (Implies(neg(p), p), vp), (Implies(p, neg(p)), -vp),
    ]
    for phi, want in cases:
        assert s.literal(phi) == want, phi
    assert (s.nvars, s._clauses) == (2, [])
    assert s.literal(Or(And(TOP, p), Implies(q, BOT))) == 3
    assert len(s._clauses) == 3
    session = CheckedSession(witness="pushed")
    for phi, _ in cases:
        session.admits(phi)
        session.push(phi)
    session.model()


# -- the checker and the REPL --------------------------------------------------


@pytest.fixture
def checked(monkeypatch):
    """checked(witness) makes the driver check each session it makes from
    then on, and returns the list of them."""
    made = []

    def watch(witness: str = "all") -> list[CheckedSession]:
        def make():
            made.append(CheckedSession(witness))
            return made[-1]

        monkeypatch.setattr(driver, "SolverSession", make)
        return made

    return watch


FAMILIES = [(f"g_example_x{n}", g_example_source(n)) for n in (1, 3, 8, 20)] \
    + [(f"chain_x{n}", chain_source(n)) for n in (1, 3, 6, 9)]


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
@pytest.mark.parametrize("name,src", SOURCES + FAMILIES,
                         ids=[n for n, _ in SOURCES + FAMILIES])
def test_checker_agrees_with_whole_clause_dpll(checked, name, src, mode):
    made = checked()
    outcome = check_source(src, mode)
    (session,) = made
    if outcome.witness is not None:
        assert_fixed_agrees(session)


@pytest.mark.parametrize("name,mode", CASES,
                         ids=[f"{n}.{m}" for n, m in CASES])
def test_repl_sessions_agree_with_whole_clause_dpll(checked, name, mode):
    """Every answer is checked as it is given, and the witness at the end
    over the propositions of the pushed formulas: the `:type` probes of
    wildcard_tail leave a proposition that only a probe mentions. The fixed
    sets are compared where the session has at most 200 propositions: each
    costs two solves per proposition, and the checker test above compares
    them on every program, cf_k_join included."""
    made = checked("pushed")
    transcript(SCRIPTS[name], mode)
    (session,) = made
    session.model()
    if len(props(session.formula)) <= 200:
        assert_fixed_agrees(session)


def test_every_clause_has_two_or_three_literals_over_distinct_variables(
        monkeypatch):
    """The workload the propagation over occurrence lists is built for, in
    every solver the checker and the REPL make, the simplification probes'
    included; and each literal's occurrence list holds exactly the clauses
    that hold it, in order."""
    made = []
    init = _Solver.__init__

    def recording(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(_Solver, "__init__", recording)
    for mode in MODES:
        for _, src in SOURCES + FAMILIES:
            check_source(src, mode)
    for name, mode in CASES:
        transcript(SCRIPTS[name], mode)
    assert sum(len(s._clauses) for s in made) > 10_000
    for s in made:
        uses: dict[int, list[int]] = {}
        for ci, c in enumerate(s._clauses):
            assert len(c) in (2, 3) and len({abs(lit) for lit in c}) == len(c)
            for lit in c:
                uses.setdefault(lit, []).append(ci)
        assert s._uses == uses


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


# -- one solve per component per push -----------------------------------------


def solves_in_check(monkeypatch, src: str, mode: str):
    """Checking src, the components each accepted non-constant push solves,
    with the component of its root, and the solves in `model()`."""
    solved: list = []
    pushes: list = []
    solve, push, model = _Solver.solve, SolverSession.push, SolverSession.model

    def solving(self, comp):
        solved.append(comp)
        return solve(self, comp)

    def pushing(self, phi):
        s = self._solver
        root = s.literal(phi)
        del solved[:]
        ok = push(self, phi)
        if ok and root != TRUE:
            pushes.append((s._comps[s._find(abs(root))], list(solved)))
        return ok

    def modelling(self):
        del solved[:]
        return model(self)

    monkeypatch.setattr(_Solver, "solve", solving)
    monkeypatch.setattr(SolverSession, "push", pushing)
    monkeypatch.setattr(SolverSession, "model", modelling)
    outcome = check_source(src, mode)
    monkeypatch.undo()
    return pushes, solved if outcome.witness is not None else []


@pytest.mark.parametrize("mode", MODES)
def test_a_push_solves_each_stale_component_once(monkeypatch, mode):
    """Each accepted push solves the components its gates and root reach,
    each once, and leaves none stale, so `check_program`'s final `model()`
    solves nothing. On g_example and chain each definition's push solves
    one component. A push that solved under its root as an assumption
    and then committed it would solve the component again at the next
    query."""
    for name, src in SOURCES + FAMILIES:
        pushes, in_model = solves_in_check(monkeypatch, src, mode)
        assert in_model == []
        for comp, solved in pushes:
            assert any(c is comp for c in solved)
            assert len({id(c) for c in solved}) == len(solved)
        if name.startswith(("g_example_x", "chain_x")):
            n = int(name.rsplit("x", 1)[1])
            assert [len(solved) for _, solved in pushes] == [1] * n
