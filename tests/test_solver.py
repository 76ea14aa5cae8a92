"""SAT backend, top-level discharge and constraint simplification."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from efl import driver, solver
from efl.driver import Discharger, simplify_constraints
from efl.effects import Effect, constraint_set, omega_to_formula
from efl.formulas import (BOT, TOP, And, Implies, Or, Prop, conj2, evaluate,
                          impl, neg, props)
from efl.names import KIND_PROP, Name
from efl.solver import SolverSession, _Solver
from efl.declarative import ReplayScope, subeffect_holds
from helpers import (SOURCES, Names, all_valuations, check_source, con, fixed,
                     formulas_equivalent, g_example_source, memberships, sat,
                     sat_enumerate, tautology)
from oracles import ReferenceSolver, random_guard


# -- sat ----------------------------------------------------------------------


def test_sat_finds_forced_model(ns):
    p, q = ns.p("p"), ns.p("q")
    model = sat(And(p, Implies(p, q)))
    assert model is not None
    assert model[ns.prop("p")] is True and model[ns.prop("q")] is True


def test_sat_reports_unsat(ns):
    p = ns.p("p")
    assert sat(And(p, neg(p))) is None
    assert sat(BOT) is None


def test_sat_constants(ns):
    model = sat(TOP)
    assert model is not None and set(model) == set()


def test_satisfiable_folds_constants_without_a_variable(ns, monkeypatch):
    def refuse(self):
        raise AssertionError("made a variable")
    p = ns.p("p")
    assert solver.satisfiable(p) and not solver.satisfiable(And(p, neg(p)))
    monkeypatch.setattr(_Solver, "fresh_var", refuse)
    assert solver.satisfiable(TOP) and solver.satisfiable(Implies(BOT, TOP))
    assert not solver.satisfiable(BOT)
    assert not solver.satisfiable(Or(And(TOP, BOT), Implies(TOP, BOT)))


def test_satisfiable_answers_constants_and_propositions_without_a_session(
        ns, monkeypatch):
    """`simplify_constraints` probes T for about half of its constraints
    and a bare proposition for most of the rest; neither builds a
    session."""
    monkeypatch.setattr(solver, "SolverSession", None)
    assert solver.satisfiable(TOP) and solver.satisfiable(ns.p("p"))
    assert not solver.satisfiable(BOT)
    with pytest.raises(TypeError):
        solver.satisfiable(Implies(BOT, TOP))


def test_sat_model_covers_exactly_the_props(ns):
    p, q = ns.p("p"), ns.p("q")
    model = sat(Or(p, q))
    assert set(model) == {ns.prop("p"), ns.prop("q")}
    assert evaluate(Or(p, q), model)


def test_sat_enumerate_counts_models(ns):
    p, q = ns.p("p"), ns.p("q")
    models = list(sat_enumerate(Or(p, q)))
    assert len(models) == 3
    assert len({tuple(m.items()) for m in models}) == 3
    assert all(evaluate(Or(p, q), m) for m in models)
    assert len(list(sat_enumerate(Or(p, q), limit=2))) == 2
    assert list(sat_enumerate(BOT)) == []
    assert len(list(sat_enumerate(TOP))) == 1


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        if roll < 0.2:
            return BOT
        return rng.choice(atoms)
    a = _random_formula(rng, atoms, depth - 1)
    b = _random_formula(rng, atoms, depth - 1)
    return rng.choice((And(a, b), Or(a, b), Implies(a, b)))


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_sat_agrees_with_truth_tables(seed):
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.p(t) for t in ("p", "q", "r", "s")]
    phi = _random_formula(rng, atoms, 4)
    names = props(phi)
    brute = any(evaluate(phi, rho) for rho in all_valuations(names))
    model = sat(phi)
    assert solver.satisfiable(phi) == (model is not None) == brute
    if model is not None:
        assert evaluate(phi, model)


def test_tseitin_encodes_a_deep_chain_with_three_clauses_per_and():
    n = 20_000
    chain = Prop(Name("p0", KIND_PROP, 0))
    for i in range(1, n):
        chain = And(chain, Prop(Name(f"p{i}", KIND_PROP, i)))
    s = _Solver()
    root = s.literal(chain)
    assert s.nvars == 2 * n - 1
    assert len(s._clauses) == 3 * (n - 1)
    assert s.literal(chain) == root
    assert len(s._clauses) == 3 * (n - 1)


def test_tseitin_shares_one_variable_between_equal_subformulas(ns):
    p, q, r = ns.p("p"), ns.p("q"), ns.p("r")
    s = _Solver()
    root = s.literal(Or(And(p, Implies(q, r)), Implies(q, r)))
    assert s.nvars == 6 and len(s._clauses) == 9
    assert s.literal(And(Prop(p.name), Implies(q, Prop(r.name)))) == root - 1
    assert s.nvars == 6 and len(s._clauses) == 9


def test_a_negation_is_a_literal_and_only_gates_make_clauses(ns,
                                                            monkeypatch):
    """`p => F` is p's negated literal: no variable of its own, no clause.
    Every other variable of a checked program's session is a gate, with
    its three clauses, and none stands for T or F."""
    s = SolverSession()
    assert s.push(neg(ns.p("p")))
    assert (s._solver.nvars, s._solver._clauses) == (1, [])
    assert s.model() == {ns.prop("p"): False}
    made = []

    def make():
        made.append(SolverSession())
        return made[-1]

    monkeypatch.setattr(driver, "SolverSession", make)
    for n in (1, 5, 20):
        check_source(g_example_source(n))
        inner = made.pop()._solver
        gates = inner.nvars - len(inner.ids)
        assert gates > 0 and len(inner._clauses) == 3 * gates


# -- top-level discharge -------------------------------------------------------


def test_discharge_projects_at_each_constant(ns):
    io, db = ns.eff("IO"), ns.eff("DB")
    omega = [con(Effect.var(io), Effect.var(db))]
    phi = omega_to_formula(omega, io, db)
    # at IO the constraint demands IO's presence on the right: impossible
    assert phi == BOT
    assert sat(phi) is None


def test_discharge_purity_requirement_is_unsat(ns):
    io = ns.eff("IO")
    phi = omega_to_formula([con(Effect.var(io), Effect(()))], io)
    assert sat(phi) is None


def test_discharge_ignores_variable_only_constraints(ns):
    io = ns.eff("IO")
    x, y = ns.ev("x"), ns.ev("y")
    assert omega_to_formula([con(x, y)], io) == TOP


def test_discharger_eliminates_survivors(ns, supply):
    io, db = ns.eff("IO"), ns.eff("DB")
    x = ns.eff("x")
    d = Discharger((io, db), supply)
    phi = d.formula_for({con(Effect.var(x), Effect.var(io))})
    m_db = Prop(d.membership(x, db))
    assert formulas_equivalent(phi, neg(m_db))
    model = sat(phi)
    assert model[d.membership(x, db)] is False


def test_discharger_forces_required_memberships(ns, supply):
    io, db = ns.eff("IO"), ns.eff("DB")
    x = ns.eff("x")
    d = Discharger((io, db), supply)
    phi = d.formula_for({con(Effect.var(io), Effect.var(x))})
    model = sat(phi)
    assert model is not None
    assert model[d.membership(x, io)] is True


def test_discharger_memberships_are_persistent(ns, supply):
    io, db = ns.eff("IO"), ns.eff("DB")
    x = ns.eff("x")
    d = Discharger((io, db), supply)
    assert d.membership(x, io) == d.membership(x, io)
    first = memberships(d)
    d.membership(x, db)
    assert set(first) <= set(memberships(d))


def test_discharger_keeps_rigid_atoms(ns, supply):
    io, db = ns.eff("IO"), ns.eff("DB")
    d = Discharger((io, db), supply)
    assert d.eliminate_effect(Effect.var(io)) == Effect.var(io)


def test_discharger_add_rigid(ns, supply):
    io, db = ns.eff("IO"), ns.eff("DB")
    d = Discharger((io,), supply)
    d.add_rigid(db)
    assert d.rigid == tuple(sorted({io, db}, key=Name.KEY))


# -- simplification ------------------------------------------------------------


def test_simplify_drops_tautological_bounds(ns):
    x, y = ns.eff("x"), ns.eff("y")
    omega = {con(Effect.var(x), Effect((( x, TOP), (y, TOP))))}
    assert simplify_constraints(omega, frozenset({x, y})) == frozenset()
    guarded = {con(ns.atom("x", ns.p("p")), Effect.var(x))}
    assert simplify_constraints(guarded, frozenset({x})) == frozenset()


def test_simplify_merges_same_variable_and_rhs(ns):
    x, z = ns.eff("x"), ns.eff("z")
    p, q = ns.p("p"), ns.p("q")
    omega = {con(ns.atom("x", p), Effect.var(z)),
             con(ns.atom("x", q), Effect.var(z))}
    got = simplify_constraints(omega, frozenset({x, z}))
    assert got == {con(ns.atom("x", Or(p, q)), Effect.var(z))}


def test_simplify_drops_unprotected_singleton_binders(ns):
    x, io = ns.eff("x"), ns.eff("IO")
    omega = {con(Effect.var(x), Effect.var(io))}
    assert simplify_constraints(omega, frozenset()) == frozenset()
    assert simplify_constraints(omega, frozenset({x})) == omega


def test_simplify_keeps_multiply_occurring_variables(ns):
    x, y, io = ns.eff("x"), ns.eff("y"), ns.eff("IO")
    omega = {con(Effect.var(x), Effect.var(io)),
             con(Effect.var(y), Effect.var(x))}
    got = simplify_constraints(omega, frozenset())
    assert got == {con(Effect.var(x), Effect.var(io))}


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_simplify_preserves_entailment_when_protected(seed):
    ns = Names()
    rng = random.Random(seed)
    vars_ = [ns.eff(t) for t in ("x", "y", "z")]
    guards = [ns.prop(t) for t in ("p", "q")]
    omega = set()
    for _ in range(rng.randrange(1, 5)):
        lhs = Effect(((rng.choice(vars_), random_guard(rng, guards)),))
        rhs_vars = rng.sample(vars_, rng.randrange(0, 3))
        rhs = Effect(tuple(sorted(((v, TOP) for v in rhs_vars),
                                  key=lambda a: Name.KEY(a[0]))))
        omega.add(con(lhs, rhs))
    omega = constraint_set(omega)
    simplified = simplify_constraints(omega, frozenset(vars_))
    for rho in all_valuations(guards):
        scope = ReplayScope(simplified, rho)
        for c in omega:
            assert subeffect_holds(scope, c.lhs, c.rhs)
        scope = ReplayScope(omega, rho)
        for c in simplified:
            assert subeffect_holds(scope, c.lhs, c.rhs)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_sat_entailment_agrees_with_truth_tables(seed):
    """The guard-wise redundancy test of simplify_constraints (psi and not g
    is unsatisfiable) agrees with truth-table validity of psi => g."""
    ns = Names()
    rng = random.Random(seed)
    guards = [ns.prop(t) for t in ("p", "q", "r")]
    psi, g = random_guard(rng, guards, 3), random_guard(rng, guards, 3)
    assert (sat(conj2(psi, neg(g))) is None) == tautology(impl(psi, g))


# -- incremental sessions --------------------------------------------------------


def test_session_fixes_forced_literals(ns):
    p, q = ns.p("p"), ns.p("q")
    s = SolverSession()
    assert s.push(Implies(p, q))
    assert dict(fixed(s).items()) == {}
    assert s.push(p)
    assert dict(fixed(s).items()) == {ns.prop("p"): True, ns.prop("q"): True}


def test_session_rejects_contradictions_without_damage(ns):
    p, q = ns.p("p"), ns.p("q")
    s = SolverSession()
    assert s.push(p)
    before = (s.formula, dict(fixed(s).items()))
    assert not s.push(neg(p))
    assert (s.formula, dict(fixed(s).items())) == before
    assert s.push(q)  # the session is still usable
    assert fixed(s)[ns.prop("q")] is True


def test_session_top_and_model(ns):
    p = ns.p("p")
    s = SolverSession()
    assert s.push(TOP)
    assert s.push(p)
    model = s.model()
    assert model is not None and model[ns.prop("p")] is True
    assert not s.push(BOT)
    assert s.model() is not None


def test_session_is_deterministic(ns):
    p, q, r = ns.p("p"), ns.p("q"), ns.p("r")
    seq = [Or(p, q), Implies(q, r), neg(r), Or(q, r)]
    outs = []
    for _ in range(2):
        s = SolverSession()
        trace = []
        for phi in seq:
            ok = s.push(phi)
            model = s.model()
            trace.append((ok, tuple(fixed(s).items()),
                          tuple(model.items()) if model else None))
        outs.append(trace)
    assert outs[0] == outs[1]


def _brute_fixed(phi, names):
    models = [rho for rho in all_valuations(names) if evaluate(phi, rho)]
    out = {}
    for n in names:
        polarities = {m[n] for m in models}
        if len(polarities) == 1:
            out[n] = polarities.pop()
    return out


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_session_fixed_set_matches_brute_force(seed):
    """After any accepted pushes, the fixed set is exactly the set of
    propositions taking a single polarity across all models."""
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.p(t) for t in ("p", "q", "r")]
    s = SolverSession()
    accumulated = TOP
    for _ in range(rng.randrange(1, 6)):
        phi = _random_formula(rng, atoms, 3)
        accepted = s.push(phi)
        brute_sat = any(evaluate(conj2(accumulated, phi), rho)
                        for rho in all_valuations(
                            props(conj2(accumulated, phi))))
        assert accepted == brute_sat
        if accepted:
            accumulated = conj2(accumulated, phi)
        names = props(accumulated)
        expect = _brute_fixed(accumulated, names)
        got = {n: v for n, v in fixed(s).items()}
        assert got == expect


class BackboneSession:
    """The earlier SolverSession design, kept as an oracle: after every
    push it probes each proposition for its second polarity, keeps the
    backbone (the single-polarity ones) as forced literals, and solves
    every later query under the roots plus those literals. A pool of
    models spares most probes: two that disagree on a proposition prove
    it is not fixed. It runs on the reference encoding, which gives every
    constant and connective a variable."""

    def __init__(self):
        self.formula = TOP
        self.solver = ReferenceSolver()
        self.roots = []
        self.fixed = {}

    def assumptions(self):
        lits = list(self.roots)
        for name in sorted(self.fixed, key=Name.KEY):
            v = self.solver.ids[name]
            lits.append(v if self.fixed[name] else -v)
        return lits

    def push(self, phi):
        root = self.solver.literal(phi)
        if not self.solver.satisfiable((*self.assumptions(), root)):
            return False
        self.roots.append(root)
        self.formula = conj2(self.formula, phi)
        pool = [self.model()]
        for p in sorted(props(self.formula), key=Name.KEY):
            values = {m[p] for m in pool}
            if p in self.fixed or len(values) == 2:
                continue
            value = values.pop()
            i = self.solver.ids[p]
            if self.solver.satisfiable((*self.assumptions(),
                                        -i if value else i)):
                pool.append(self._read())
            else:
                self.fixed[p] = value
        return True

    def model(self):
        self.solver.satisfiable(tuple(self.assumptions()))
        return self._read()

    def _read(self):
        return {p: self.solver.value(i) for p, i in self.solver.ids.items()}


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_session_agrees_with_backbone_oracle(seed):
    """Verdicts and fixed set equal those of the design that kept the
    backbone as assumptions, and the model satisfies the session. The
    formulas keep constants inside connectives, which the reference
    encoding gives variables of their own, so the decision orders differ
    and with them, at times, the witness."""
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.p(t) for t in ("p", "q", "r", "s")]
    s, old = SolverSession(), BackboneSession()
    for _ in range(rng.randrange(1, 7)):
        phi = _random_formula(rng, atoms, 3)
        assert s.push(phi) == old.push(phi)
        assert s.formula == old.formula
        assert evaluate(s.formula, s.model())
        assert fixed(s) == old.fixed


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_admits_commits_nothing(seed):
    """admits(psi) answers whether formula and psi are jointly satisfiable;
    a session probed with admits gives the same later verdicts, formula and
    fixed set as one that was not. (Its witness may differ: the probe's
    definitions enter the decision order, as a rejected push's do.)"""
    ns = Names()
    rng = random.Random(seed)
    atoms = [ns.p(t) for t in ("p", "q", "r", "s")]
    probed, plain = SolverSession(), SolverSession()
    for _ in range(rng.randrange(1, 7)):
        for _ in range(rng.randrange(0, 3)):
            psi = _random_formula(rng, atoms, 3)
            before = probed.formula
            assert probed.admits(psi) == \
                (sat(conj2(probed.formula, psi)) is not None)
            assert probed.formula == before
        phi = _random_formula(rng, atoms, 3)
        assert probed.push(phi) == plain.push(phi)
        assert probed.formula == plain.formula
        assert fixed(probed) == fixed(plain)
        assert evaluate(probed.formula, probed.model())


def test_admits_query_contradicting_the_session(ns):
    p, q, r = ns.p("p"), ns.p("q"), ns.p("r")
    s = SolverSession()
    assert s.push(Implies(p, q)) and s.push(p)
    before = s.formula
    # satisfiable alone, unsatisfiable with the session
    assert sat(neg(q)) is not None
    assert sat(conj2(s.formula, neg(q))) is None
    assert not s.admits(neg(q))
    assert s.admits(Or(r, neg(q)))
    assert s.formula == before
    assert s.push(neg(r)) and not s.push(r)
    assert dict(fixed(s).items()) == {ns.prop("p"): True,
                                       ns.prop("q"): True,
                                       ns.prop("r"): False}


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
@pytest.mark.parametrize("name,src", SOURCES, ids=[n for n, _ in SOURCES])
def test_checker_witness_agrees_with_backbone_oracle(monkeypatch, name, src,
                                                     mode):
    new = check_source(src, mode)
    monkeypatch.setattr(driver, "SolverSession", BackboneSession)
    old = check_source(src, mode)
    assert new.stdout() == old.stdout()
    assert (new.exit_code, new.error) == (old.exit_code, old.error)
    assert new.formula == old.formula
    assert new.witness == old.witness
