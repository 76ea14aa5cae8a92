"""The identity-preserving substitutions against the rebuild-always ones.

`efl.effects` and `efl.declarative` return a substitution's argument itself
when nothing in it changes. Every substitution that checking and replay make
on the corpus, the generated families and the benchmark's seed-1 random
programs is compared here with the rebuild-always oracle of
`tests/oracles.py`: equal results, equal printed forms, and the input object
itself whenever the substitution's domain misses every name the input
mentions.
"""
import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import efl.declarative
import efl.driver
import efl.effects
import efl.inference
from efl.declarative import Cert
from efl.driver import render_cert, verify_certificates
from efl.effects import (Arrow, Constraint, Effect, Scheme, TVar, Type,
                         sorted_constraints, subst_type, subst_type_vars,
                         walk_type)
from efl.names import KIND_EFF, KIND_PROP, KIND_TYPE, NameSupply
from helpers import SOURCES, check_source, nest_source, spine_source
from oracles import (names_in_type_rec, random_effect, random_type,
                     subst_cert_rebuild, subst_constraints_rebuild,
                     subst_effect_rebuild, subst_scheme_rebuild,
                     subst_type_rec, subst_type_vars_rec)

MODES = ("constrained", "constraint-free")
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (efl.effects, efl.declarative, efl.inference, efl.driver)
ORACLES = {"subst_effect": subst_effect_rebuild,
           "subst_type": subst_type_rec,
           "subst_type_vars": subst_type_vars_rec,
           "subst_constraints": subst_constraints_rebuild,
           "subst_scheme": subst_scheme_rebuild,
           "subst_cert": subst_cert_rebuild}


def _random_programs(seed: int, per_mode: int = 250, size: int = 20):
    """(mode, source) for the random programs of the benchmark's
    `small-programs` workload, drawn as `bench/worker.py` draws them."""
    spec = importlib.util.spec_from_file_location(
        "bench_families", BENCH / "families.py")
    families = sys.modules.setdefault(spec.name,
                                      importlib.util.module_from_spec(spec))
    spec.loader.exec_module(families)
    for mode in MODES:
        rng = random.Random(f"{seed}/{mode}")
        for _ in range(per_mode):
            yield mode, families.random_program(rng, mode, size)


def _mentioned(x) -> set:
    """Every name in x that a substitution could map: effect atoms, type
    variables and binders, through certificates and constraint sets (a
    type's guard propositions come along). The value classes are matched
    before plain tuples: an `Effect` and a `Constraint` are tuples too."""
    out: set = set()
    todo = [x]
    while todo:
        x = todo.pop()
        if isinstance(x, Effect):
            out.update(n for n, _ in x.atoms)
        elif isinstance(x, Type):
            out |= names_in_type_rec(x)
        elif isinstance(x, Scheme):
            out.update(x.binders)
            todo += (x.body, *x.constraints)
        elif isinstance(x, Cert):
            todo.extend(getattr(x, f) for f in x.__slots__)
        elif isinstance(x, Constraint):
            todo += (x.lhs, x.rhs)
        elif isinstance(x, tuple):
            todo.extend(e for _, e in x)
        else:
            todo += tuple(x)
    return out


def _shown(x) -> str:
    if isinstance(x, Cert):
        return render_cert(x)
    if isinstance(x, (Effect, Type, Scheme)):
        return str(x)
    return "\n".join(map(str, sorted_constraints(x)))


def _checked(name, fast, calls: Counter):
    oracle = ORACLES[name]

    def run(theta, x):
        got, want = fast(theta, x), oracle(theta, x)
        assert got == want, name
        assert _shown(got) == _shown(want), name
        if not set(theta) & _mentioned(x):
            assert got is x, name
            calls[name, "missed"] += 1
        calls[name] += 1
        return got
    return run


def _install_checks(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for module in MODULES:
        for name in ORACLES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    _checked(name, getattr(module, name),
                                             calls))
    return calls


def _check_and_replay(src: str, mode: str) -> None:
    outcome = check_source(src, mode)
    if outcome.exit_code == 0:
        verify_certificates(outcome)


def test_substitutions_agree_with_rebuild_always_oracle(monkeypatch):
    calls = _install_checks(monkeypatch)
    sources = [s for _, s in SOURCES] + [nest_source(30), spine_source(30)]
    for mode in MODES:
        for src in sources:
            _check_and_replay(src, mode)
    for mode, src in _random_programs(seed=1):
        _check_and_replay(src, mode)
    for name in ORACLES:
        assert calls[name] > calls[name, "missed"], name
    # Type application is rare in these programs; the random types below
    # cover subst_type_vars missing its input.
    assert all(calls[name, "missed"] > 0
               for name in ORACLES if name != "subst_type_vars")


def test_random_types_keep_every_subtree_a_substitution_misses():
    supply = NameSupply()
    atoms = [supply.fresh(KIND_EFF, t) for t in ("IO", "DB", "e")]
    tvars = [supply.fresh(KIND_TYPE, t) for t in ("Unit", "Int")]
    props = [supply.fresh(KIND_PROP) for _ in range(3)]
    outside_eff = supply.fresh(KIND_EFF, "z")
    outside_typ = supply.fresh(KIND_TYPE, "Z")
    hit = 0
    for seed in range(300):
        rng = random.Random(seed)
        minted: list = []
        t = random_type(rng, supply, atoms, tvars, props, minted,
                        depth=rng.randint(1, 6))
        assert subst_type({outside_eff: Effect.var(atoms[0])}, t) is t
        assert subst_type_vars({outside_typ: TVar(tvars[0])}, t) is t
        v = rng.choice(atoms + minted)
        theta = {v: random_effect(rng, atoms, props)}
        got = subst_type(theta, t)
        assert got == subst_type_rec(theta, t), seed
        for (new, _), (old, _) in zip(walk_type(got), walk_type(t)):
            if v not in _mentioned(old):
                hit += 1
                assert new is old, seed
    assert hit > 0


def _arrows_built_by_replay(monkeypatch, outcome) -> int:
    """Arrow nodes constructed while replaying outcome's certificates,
    counted by wrapping the constructor for the replay only."""
    built = 0
    init = Arrow.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    with monkeypatch.context() as m:
        m.setattr(Arrow, "__init__", counting_init)
        verify_certificates(outcome)
    return built


def test_replay_builds_at_most_half_the_arrows_of_the_oracle(monkeypatch):
    """spine×100 replays its long arrow type once per argument, through
    substitutions that miss it. The sharing pins the gain as a count."""
    outcome = check_source(spine_source(100))
    assert outcome.exit_code == 0
    shared = _arrows_built_by_replay(monkeypatch, outcome)
    with monkeypatch.context() as m:
        for module in (efl.declarative, efl.driver):
            for name, oracle in ORACLES.items():
                if hasattr(module, name):
                    m.setattr(module, name, oracle)
        rebuilt = _arrows_built_by_replay(m, outcome)
    assert rebuilt > 0 and shared <= rebuilt // 2, (shared, rebuilt)
