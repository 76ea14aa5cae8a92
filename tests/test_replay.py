"""Certificate replay on compiled scopes, against the plain closure fixpoint.

`declarative.ReplayScope` erases a constraint set once per valuation and
answers subeffect queries by counter-based Horn propagation; a `let`
extends it by its scheme's constraints. A scope keeps only its compiled
index, so the tests record which constraints each scope was built from.
`oracles.subeffect_fixpoint` is the closure it replaced: every constraint
erased on every query, rules swept until nothing changes. Both must
decide the same queries, give the same replay judgements on real programs,
and reject the same tampered certificates. Each definition must also
replay under the environment it was inferred under.
`driver.total_valuation` reads the propositions inference recorded as
minted; it must agree with the old walk over certificates, schemes, omega
and the session formula wherever that walk reaches, and every proposition
checking mints must be in the record.
"""
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from efl import declarative, driver
from efl.declarative import (CSub, CVar, Cert, CertificateError, ReplayScope,
                             subeffect_holds)
from efl.effects import PURE, Constraint, Effect, join
from efl.formulas import TOP, evaluate, props
from efl.inference import Config
from efl.names import KIND_PROP, NameSupply
from efl.syntax import parse_program
from helpers import (G_BODY, G_HEADER, SOURCES, Names, check_source,
                     g_example_source, memberships, nest_source,
                     spine_source)
from oracles import (cert_props, constraints_props, gen_program,
                     random_effect, random_guard, scheme_props,
                     subeffect_fixpoint, total_valuation_over_formula)

MODES = ["constrained", "constraint-free"]


# -- random queries ----------------------------------------------------------


def _material():
    ns = Names()
    return ([ns.eff(t) for t in "abcdefgh"], [ns.prop(t) for t in "pqr"])


def _random_omega(rng, atoms, props):
    """Random constraints, sometimes with a chain of 4-7 links x0 <= x1 <=
    ... whose last RHS is guarded; returns the constraints and the chain
    (or None)."""
    omega = [Constraint(random_effect(rng, atoms, props),
                        random_effect(rng, atoms, props))
             for _ in range(rng.choice((0, 0, 1, 2, 4, 7, 10)))]
    chain = None
    if rng.random() < 0.4:
        chain = rng.sample(atoms, rng.randint(5, 8))
        omega += [Constraint(Effect.var(x), Effect.var(y))
                  for x, y in zip(chain, chain[1:-1])]
        omega.append(Constraint(Effect.var(chain[-2]),
                                Effect(((chain[-1],
                                         random_guard(rng, props)),))))
        rng.shuffle(omega)
    return omega, chain


def _random_rho(rng, props):
    return {p: rng.random() < 0.5 for p in props}


# The constraints compiled into each scope built while `_track` is on,
# its parent's included.
_COMPILED: dict[ReplayScope, set[Constraint]] = {}


def _track(m):
    """Record in `_COMPILED` the constraints of every scope built while
    the monkeypatch context m lasts."""
    _COMPILED.clear()
    init = ReplayScope.__init__

    def recording_init(self, omega, rho, parent=None):
        omega = list(omega)
        init(self, omega, rho, parent)
        _COMPILED[self] = _COMPILED.get(parent, set()) | set(omega)

    m.setattr(ReplayScope, "__init__", recording_init)


def _constraints(scope):
    """The constraints compiled into scope, as `_track` recorded them."""
    return _COMPILED[scope]


def _assert_compiled(scope, omega, rho):
    """scope's index lists each rule of omega under rho once per
    constraint and RHS atom, and nothing else; its free atoms are the LHS
    atoms of the rules whose RHS erases to nothing."""
    listed, free = Counter(), set()
    for c in omega:
        lhs, rhs = declarative.erase_rule(c, rho)
        if lhs and not rhs:
            free |= lhs
        elif lhs:
            listed.update((atom, (rhs, lhs)) for atom in rhs)
    assert Counter((atom, rule) for atom, rules in scope.index.items()
                   for rule in rules) == listed
    assert scope.free == free


def _erases_rhs_only(omega, rho):
    return any(declarative.erased_atoms(c.lhs, rho)
               and not declarative.erased_atoms(c.rhs, rho) for c in omega)


def _agree(scope, omega, rho, atoms, props, rng):
    """Every single-atom and a few random queries, against the fixpoint."""
    for e2 in [PURE] + [random_effect(rng, atoms, props) for _ in range(3)]:
        for e1 in ([Effect.var(a) for a in atoms]
                   + [random_effect(rng, atoms, props) for _ in range(3)]):
            want = subeffect_fixpoint(omega, rho, e1, e2)
            assert subeffect_holds(scope, e1, e2) == want, \
                ([str(c) for c in omega], rho, str(e1), str(e2))


def test_closure_agrees_with_fixpoint_on_random_cases():
    atoms, props = _material()
    rng = random.Random(4)
    seen = Counter()
    for _ in range(300):
        omega, chain = _random_omega(rng, atoms, props)
        rho = _random_rho(rng, props)
        _agree(ReplayScope(omega, rho), omega, rho, atoms, props, rng)
        e1, e2 = (random_effect(rng, atoms, props) for _ in range(2))
        assert (subeffect_holds(ReplayScope(omega, rho), e1, e2)
                == subeffect_fixpoint(omega, rho, e1, e2))
        seen["empty omega"] += not omega
        seen["RHS erases to nothing"] += _erases_rhs_only(omega, rho)
        if chain is not None:
            # The chain's ends are related only through every link.
            seen["chain"] += subeffect_holds(ReplayScope(omega, rho),
                                             Effect.var(chain[0]),
                                             Effect.var(chain[-1]))
    assert min(seen[k] for k in ("empty omega", "RHS erases to nothing",
                                 "chain")) >= 30, seen


def test_scope_extended_twice_agrees_with_fixpoint_on_the_union(
        monkeypatch):
    _track(monkeypatch)
    atoms, props = _material()
    rng = random.Random(5)
    crossings = 0
    for _ in range(200):
        omega, chain = _random_omega(rng, atoms, props)
        rho = _random_rho(rng, props)
        cut1, cut2 = sorted(rng.randint(0, len(omega)) for _ in range(2))
        parts = [omega[:cut1], omega[cut1:cut2], omega[cut2:]]
        if omega and rng.random() < 0.3:
            parts[2].append(rng.choice(omega))  # already in the parent
        base = ReplayScope(parts[0], rho)
        once = base.extend(parts[1])
        twice = once.extend(parts[2])
        _assert_compiled(base, parts[0], rho)
        _assert_compiled(once, parts[0] + parts[1], rho)
        _assert_compiled(twice, parts[0] + parts[1] + parts[2], rho)
        # Query the scopes in a random order: no answer may depend on
        # which scope was queried or built before.
        layers = [(base, parts[0]), (once, parts[0] + parts[1]),
                  (twice, omega)]
        rng.shuffle(layers)
        for scope, union in layers:
            _agree(scope, union, rho, atoms, props, rng)
        if chain is not None and 0 < cut1 < cut2 < len(omega):
            crossings += subeffect_holds(twice, Effect.var(chain[0]),
                                         Effect.var(chain[-1]))
    assert crossings >= 10


def test_extend_without_new_constraints_is_the_same_scope(ns):
    c = Constraint(ns.ev("x"), ns.ev("y"))
    scope = ReplayScope([c], {})
    assert scope.extend([]) is scope


def test_equal_erased_rules_count_apart(ns):
    x, y, z = ns.ev("x"), ns.ev("y"), ns.ev("z")
    q = ns.prop("q")
    rho = {q: True}
    # Two constraints that erase to the same rule y, z => x: covering y
    # must not count as covering z.
    omega = [Constraint(x, join(y, z)), Constraint(ns.atom("x", ns.p("q")),
                                                  join(y, z))]
    scope = ReplayScope(omega, rho)
    assert not subeffect_holds(scope, x, y)
    assert subeffect_holds(scope, x, join(y, z))


def test_rule_with_pure_rhs_fires_unconditionally(ns):
    x, y, z = ns.ev("x"), ns.ev("y"), ns.ev("z")
    p = ns.prop("p")
    rho = {p: False}
    # y <= z?p erases to y <= pure under rho, so y is always covered.
    omega = [Constraint(y, ns.atom("z", ns.p("p"))), Constraint(x, y)]
    scope = ReplayScope(omega, rho)
    assert subeffect_holds(scope, y, PURE)
    assert subeffect_holds(scope, x, PURE)
    assert not subeffect_holds(scope, z, PURE)
    assert subeffect_holds(scope.extend([Constraint(z, y)]), z, PURE)


# -- replay of real programs -------------------------------------------------


def _replay(outcome, monkeypatch, closure):
    """Verify outcome with `closure` as declarative.subeffect_holds: the
    judgements of every top-level replay, every query with its answer,
    and the (rule, message) of the CertificateError, if any."""
    judgements, queries = [], []
    check, error = driver.check_certificate, None

    def recording_check(*args):
        out = check(*args)
        judgements.append(out)
        return out

    def recording_query(scope, e1, e2):
        out = closure(scope, e1, e2)
        queries.append((e1, e2, out))
        return out

    with monkeypatch.context() as m:
        _track(m)
        m.setattr(driver, "check_certificate", recording_check)
        m.setattr(declarative, "subeffect_holds", recording_query)
        try:
            driver.verify_certificates(outcome)
        except CertificateError as ex:
            error = (ex.rule, str(ex))
    return judgements, queries, error


def _fixpoint_query(scope, e1, e2):
    return subeffect_fixpoint(_constraints(scope), scope.rho, e1, e2)


def _both(outcome, monkeypatch):
    new = _replay(outcome, monkeypatch, subeffect_holds)
    old = _replay(outcome, monkeypatch, _fixpoint_query)
    assert new == old
    return new


def _fields(node):
    """The fields of a value-class instance by name, in the order of its
    class's `__slots__`, which is also the order its constructor takes."""
    return {f: getattr(node, f) for f in node.__slots__}


def _replace(node, **changes):
    """A copy of node with the given fields changed."""
    return type(node)(*{**_fields(node), **changes}.values())


def _nodes(cert):
    yield cert
    for child in _fields(cert).values():
        if isinstance(child, Cert):
            yield from _nodes(child)


def _swap(cert, old, new):
    if cert is old:
        return new
    return _replace(cert, **{f: _swap(child, old, new)
                             for f, child in _fields(cert).items()
                             if isinstance(child, Cert)})


def _tampered(outcome, per_kind=4):
    """Copies of outcome, each with one certificate node tampered: a CSub
    weakened by dropping an atom of its effect, or a CVar with its last
    instantiation dropped. Yields (kind, copy), at most per_kind of each
    kind, taken from the records last to first."""
    made = Counter()
    for i, rec in reversed(list(enumerate(outcome.records))):
        for node in _nodes(rec.res.cert):
            if isinstance(node, CSub) and node.effect.atoms:
                kind = "sub"
                bad = _replace(node, effect=Effect(node.effect.atoms[1:]))
            elif isinstance(node, CVar) and node.theta:
                kind, bad = "var", CVar(node.theta[:-1])
            else:
                continue
            if made[kind] == per_kind:
                continue
            made[kind] += 1
            res = _replace(rec.res, cert=_swap(rec.res.cert, node, bad))
            records = list(outcome.records)
            records[i] = _replace(rec, res=res)
            yield kind, _replace(outcome, records=records)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,src", SOURCES, ids=[n for n, _ in SOURCES])
def test_replay_agrees_with_fixpoint_on_programs(monkeypatch, name, src,
                                                 mode):
    outcome = check_source(src, mode)
    if outcome.status != "ok":
        return
    judgements, _, error = _both(outcome, monkeypatch)
    assert error is None
    assert len(judgements) == len(outcome.records) + (outcome.main is not None)


# (tamper kind, rule that rejects it) seen on the generated families
TAMPER_FAILURES = {"g_example_x8": {("sub", "sub"), ("sub", "app")},
                   "chain_x5": {("sub", "app"), ("var", "var")}}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,src", SOURCES, ids=[n for n, _ in SOURCES])
def test_tampered_certificates_fail_alike(monkeypatch, name, src, mode):
    outcome = check_source(src, mode)
    if outcome.status != "ok":
        return
    seen = set()
    for kind, copy in _tampered(outcome):
        _, _, error = _both(copy, monkeypatch)
        seen.add((kind, error and error[0]))
    if name in TAMPER_FAILURES:
        assert seen == TAMPER_FAILURES[name]


def let_nest_source(n):
    """One definition whose bound expression nests n - 1 lets, each in the
    bound expression of the next and each binding a copy of g, so that
    every let brings scheme constraints of its own."""
    body = G_BODY
    for i in range(1, n):
        body = f"let g{i} = {body} in {G_BODY}"
    return G_HEADER + f"let top = {body}\n"


def test_deep_let_nest_replays_layer_by_layer(monkeypatch):
    outcome = check_source(let_nest_source(30))
    assert outcome.status == "ok"
    _both(outcome, monkeypatch)
    erasures = Counter()
    erase = declarative.erase_rule

    def counting(c, rho):
        erasures[c] += 1
        return erase(c, rho)

    with monkeypatch.context() as m:
        _track(m)
        m.setattr(declarative, "erase_rule", counting)
        driver.verify_certificates(outcome)
    # outcome.omega, the definition's scheme, then one scope per let
    assert len(_COMPILED) == 31
    assert set(erasures.values()) == {1}


# -- erasure stays linear ----------------------------------------------------


def _erasures(monkeypatch, n):
    outcome = check_source(g_example_source(n))
    calls = Counter()
    erase = declarative.erase_rule

    def counting(c, rho):
        calls[c] += 1
        return erase(c, rho)

    with monkeypatch.context() as m:
        m.setattr(declarative, "erase_rule", counting)
        driver.verify_certificates(outcome)
    assert outcome.omega
    assert all(calls[c] == 1 for c in outcome.omega)
    return sum(calls.values())


def test_each_constraint_is_erased_once_per_replay(monkeypatch):
    ten, twenty = _erasures(monkeypatch, 10), _erasures(monkeypatch, 20)
    assert twenty / ten < 2.5, (ten, twenty)


# -- what a replay starts from -----------------------------------------------

# SOURCES, plus a name defined twice and a program that ends in a let-in
ENV_SOURCES = SOURCES + [
    ("defined_twice",
     G_HEADER + f"let g = {G_BODY}\nlet g = {G_BODY}\nlet k = g\n"),
    ("ends_in_let_in", G_HEADER + f"let g = {G_BODY}\nlet y = g in y\n"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,src", ENV_SOURCES,
                         ids=[n for n, _ in ENV_SOURCES])
def test_each_replay_starts_from_the_inference_environment(monkeypatch, name,
                                                           src, mode):
    """The environment driver.infer is given for each definition and for
    the final expression is the one check_certificate gets for it."""
    inferred, replayed = [], []
    infer, check = driver.infer, driver.check_certificate

    def recording_infer(gamma, *args):
        inferred.append(dict(gamma))
        return infer(gamma, *args)

    def recording_check(scope, gamma, *args):
        replayed.append(dict(gamma))
        return check(scope, gamma, *args)

    with monkeypatch.context() as m:
        m.setattr(driver, "infer", recording_infer)
        m.setattr(driver, "check_certificate", recording_check)
        outcome = check_source(src, mode)
        if outcome.status != "ok":
            assert name in dict(SOURCES)  # the two added ones are accepted
            return
        driver.verify_certificates(outcome)
    assert len(inferred) == len(outcome.records) + (outcome.main is not None)
    assert [list(g) for g in replayed] == [list(g) for g in inferred]
    assert replayed == inferred


# SOURCES, a spine and a nest 50 deep, and a batch of random programs
DOMAIN_SOURCES = SOURCES + [("spine_x50", spine_source(50)),
                            ("nest_x50", nest_source(50)),
                            ("random", None)]


def _programs(src, mode, count):
    """src alone, or `count` random programs of the mode when src is None."""
    if src is not None:
        return [src]
    return [gen_program(seed, mode=mode) for seed in range(count)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,src", DOMAIN_SOURCES,
                         ids=[n for n, _ in DOMAIN_SOURCES])
def test_total_valuation_is_unchanged_without_the_formula_walk(name, src,
                                                               mode):
    """The minted-proposition record covers what the old walk over the
    certificates, schemes, omega and session formula found, with the same
    values. What it adds is False and read by none of them."""
    for source in _programs(src, mode, 100):
        outcome = check_source(source, mode)
        if outcome.status != "ok":
            continue
        certs = [driver.wrapped_cert(rec) for rec in outcome.records]
        rho = driver.total_valuation(outcome)
        oracle = total_valuation_over_formula(outcome, certs)
        assert all(rho[p] == v for p, v in oracle.items())
        read = props(outcome.formula) | constraints_props(outcome.omega)
        for rec, cert in zip(outcome.records, certs):
            read |= cert_props(cert) | scheme_props(rec.gen.scheme)
        if outcome.main is not None:
            read |= cert_props(outcome.main.cert)
        extra = set(rho) - set(oracle)
        assert not any(rho[p] for p in extra)
        assert extra.isdisjoint(read)


def test_total_valuation_defaults_only_what_the_witness_misses(ns):
    """Minted propositions the witness misses read False; the witness's
    own values win over that default, True ones included, and it keeps
    the propositions nobody minted. Any other proposition stays uncovered,
    so evaluating it raises."""
    a, b, c, d, m = (ns.prop(t) for t in "abcdm")
    rec = SimpleNamespace(res=SimpleNamespace(props=(a, b)),
                          gen=SimpleNamespace(props=(c,)))
    outcome = driver.CheckOutcome("ok", [], None, 0, {}, frozenset(), TOP,
                                  {a: True, b: False, m: True}, [rec],
                                  SimpleNamespace(props=(d,)), None, None)
    rho = driver.total_valuation(outcome)
    assert rho == {a: True, b: False, c: False, d: False, m: True}
    assert evaluate(ns.p("a"), rho) and not evaluate(ns.p("c"), rho)
    with pytest.raises(KeyError):
        evaluate(ns.p("unseen"), rho)
    outcome.witness = None
    assert driver.total_valuation(outcome) == dict.fromkeys((a, b, c, d),
                                                            False)


def _minted_props(monkeypatch, src, mode):
    """The outcome of checking src and every proposition the supply minted
    while checking it."""
    minted = []
    fresh = NameSupply.fresh

    def recording(self, kind, text=None):
        name = fresh(self, kind, text)
        if kind == KIND_PROP:
            minted.append(name)
        return name

    supply = NameSupply()
    program = parse_program(src, supply)
    with monkeypatch.context() as m:
        m.setattr(NameSupply, "fresh", recording)
        outcome = driver.check_program(program, supply, Config(mode=mode))
    return outcome, minted


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,src", DOMAIN_SOURCES,
                         ids=[n for n, _ in DOMAIN_SOURCES])
def test_every_minted_proposition_is_recorded(monkeypatch, name, src, mode):
    """Each proposition minted while checking an accepted program is in
    its records' or final expression's `props`, or is a membership
    proposition of the discharger, which the witness maps."""
    for source in _programs(src, mode, 200):
        outcome, minted = _minted_props(monkeypatch, source, mode)
        if outcome.status != "ok":
            continue
        recorded = set(memberships(outcome.discharger))
        for rec in outcome.records:
            recorded |= set(rec.res.props) | set(rec.gen.props)
        if outcome.main is not None:
            recorded |= set(outcome.main.props)
        assert set(minted) <= recorded


def test_spine_replay_walks_each_shared_type_once():
    """Each of spine x300's argument nodes carries the rest of the spine's
    type, the same object its parent checks against, so subtyping is
    answered without walking it. Calls are counted by a profile hook, which
    adds no frame to replay's recursion."""
    n = 300
    outcome = check_source(spine_source(n))
    assert outcome.status == "ok"
    code = declarative.subtype_holds.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        driver.verify_certificates(outcome)
    finally:
        sys.setprofile(None)
    assert 0 < calls < 10 * n
