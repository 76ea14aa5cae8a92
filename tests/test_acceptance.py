"""Release acceptance gate: one test per criterion, one PASS/FAIL line each.

Every criterion is checked at its stated tolerance (run with ``pytest -s``
to see the verdict lines; the assertions carry the same verdicts).

  1. Generated-program soundness harness (500 constrained + 200
     constraint-free programs, <= 60 s).
  2. Subeffect decision procedure agrees with bounded derivation search on
     an exhaustive small grid (~10^4 judgements, zero disagreements).
  3. Guard-erasure/formula bridge on 1000 random (effect, valuation, atom)
     triples.
  4. Reference programs behave exactly as documented (rank-2 incomparable
     instantiations, the call-now-or-later scheme, constraint separation,
     constraint-free counterexamples, the purity restriction).
  5. Subtyping soundness and annotation-translation soundness on 500 random
     instances each.
  6. SAT engine agrees with truth tables on 2000 random formulas; session
     replay on 200 random push sequences.
  7. Checking the program corpus twice produces byte-identical output.
"""
from __future__ import annotations

import random
import time
from collections import Counter
from pathlib import Path

from efl.cli import main
from efl.declarative import (ReplayScope, match_type, subeffect_holds,
                             subtype_holds)
from efl.driver import check_program, verify_certificates
from efl.effects import (PURE, Arrow, Constraint, Effect, Scheme, TVar,
                         constraint_set, join, omega_to_formula,
                         subst_constraints)
from efl.formulas import (BOT, TOP, And, Bot, Implies, Or, Prop, Top,
                          conj2, disj2, evaluate)
from efl.inference import Config, ShapeError, separate, subtype, tr_type
from efl.names import KIND_EFF, KIND_PROP, KIND_TYPE, Name, NameSupply
from efl.solver import SolverSession
from efl.syntax import (SArrow, SEJoin, SEPure, SEVar, SEWild, SForallEff,
                        SForallTyp, STVar, parse_program)
from helpers import (all_valuations, erase_guards, fixed,
                     free_eff_vars_scheme, props, sat, sat_enumerate,
                     to_formula)
from oracles import (concretize_scheme, constraints_props,
                     derivation_search_subeffect, end_to_end_soundness,
                     gen_program, has_wildcard_under_quantifier,
                     parse_closed_type, random_effect, random_type_pair,
                     scheme_admits_instances, schemes_equivalent, type_props)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def _verdict(criterion: str, failures: list[str]) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{criterion}: " + " | ".join(failures)


def _check_file(name: str, mode: str = "constrained"):
    supply = NameSupply()
    program = parse_program((PROGRAMS / name).read_text(), supply)
    return program, check_program(program, supply, Config(mode=mode)), supply


# ---------------------------------------------------------------------------
# 1. Soundness harness over generated programs
# ---------------------------------------------------------------------------


def test_criterion_1_generated_program_soundness():
    failures: list[str] = []
    start = time.perf_counter()
    outcomes: Counter[str] = Counter()
    with_wildcard = 0
    for seed in range(500):
        source = gen_program(seed, size=30, mode="constrained")
        outcomes[end_to_end_soundness(source, mode="constrained")] += 1
        if has_wildcard_under_quantifier(parse_program(source, NameSupply())):
            with_wildcard += 1
    for seed in range(1000, 1200):
        source = gen_program(seed, size=30, mode="constraint-free")
        outcomes[end_to_end_soundness(source, mode="constraint-free")] += 1
    elapsed = time.perf_counter() - start

    if elapsed >= 60:
        failures.append(f"budget exceeded: {elapsed:.1f}s >= 60s")
    if set(outcomes) - {"verified", "unsat"}:
        failures.append(f"unexpected outcomes: {dict(outcomes)}")
    # The harness only exercises soundness when a healthy share of programs
    # is actually accepted (and their certificates replayed).
    if outcomes["verified"] < 100:
        failures.append(f"too few accepted programs: {dict(outcomes)}")
    fraction = with_wildcard / 500
    if fraction < 0.30:
        failures.append(f"wildcard-under-quantifier fraction {fraction:.2f}")
    print(f"[acceptance]   700 programs in {elapsed:.1f}s; "
          f"outcomes {dict(outcomes)}; wildcard fraction {fraction:.2f}")
    _verdict("1 generated-program soundness", failures)


# ---------------------------------------------------------------------------
# 2. Subeffect oracle agreement on the exhaustive small grid
# ---------------------------------------------------------------------------


def test_criterion_2_subeffect_oracle_agreement():
    failures: list[str] = []
    supply = NameSupply()
    x, y, z = (supply.fresh(KIND_EFF, t) for t in "xyz")
    p, q = (supply.fresh(KIND_PROP, t) for t in "pq")
    ex, ey, ez = Effect.var(x), Effect.var(y), Effect.var(z)
    fp, fq = Prop(p), Prop(q)
    atom = lambda v, g: Effect(((v, g),))  # noqa: E731

    plain = [PURE, ex, ey, ez, join(ex, ey)]
    guarded = [atom(x, fp), atom(y, fq), join(atom(x, fp), ey),
               atom(x, disj2(fp, fq))]
    sides = plain + guarded
    constraints = [Constraint(l, r) for l in plain[1:] for r in plain]
    rng = random.Random(0)
    pair_idx = sorted(rng.sample([(i, j) for i in range(len(constraints))
                                  for j in range(i + 1, len(constraints))],
                                 20))
    omegas = ([frozenset()] + [frozenset({c}) for c in constraints]
              + [frozenset({constraints[i], constraints[j]})
                 for i, j in pair_idx])
    rhos = list(all_valuations([p, q]))

    total = disagreements = saturation_breaks = 0
    for omega in omegas:
        for e1 in sides:
            for e2 in sides:
                for rho in rhos:
                    got = subeffect_holds(ReplayScope(omega, rho), e1, e2)
                    want = derivation_search_subeffect(omega, rho, e1, e2,
                                                       depth=6)
                    total += 1
                    if got != want:
                        disagreements += 1
                    # Empirical saturation: nothing new becomes derivable
                    # between depth 5 and depth 6.
                    if total % 5 == 0 and derivation_search_subeffect(
                            omega, rho, e1, e2, depth=5) != want:
                        saturation_breaks += 1
    if total < 10_000:
        failures.append(f"grid too small: {total}")
    if disagreements:
        failures.append(f"{disagreements} disagreements out of {total}")
    if saturation_breaks:
        failures.append(f"{saturation_breaks} depth-5/depth-6 differences")
    print(f"[acceptance]   {total} judgements, {disagreements} disagreements")
    _verdict("2 subeffect oracle agreement", failures)


# ---------------------------------------------------------------------------
# 3. Guard erasure / presence formula bridge
# ---------------------------------------------------------------------------


def test_criterion_3_guard_erasure_formula_bridge():
    failures: list[str] = []
    supply = NameSupply()
    atoms = [supply.fresh(KIND_EFF, t) for t in "xyz"]
    guard_props = [supply.fresh(KIND_PROP, t) for t in "pq"]
    rng = random.Random(3)
    rhos = list(all_valuations(guard_props))
    candidates = atoms + [supply.fresh(KIND_EFF, "absent")]
    bad = 0
    for _ in range(1000):
        e = random_effect(rng, atoms, guard_props)
        rho = rng.choice(rhos)
        alpha = rng.choice(candidates)
        present = any(v == alpha for v, _ in erase_guards(e, rho).atoms)
        if present != evaluate(to_formula(e, alpha), rho):
            bad += 1
    if bad:
        failures.append(f"{bad}/1000 triples disagree")
    _verdict("3 guard-erasure formula bridge", failures)


# ---------------------------------------------------------------------------
# 4. Reference program behaviors
# ---------------------------------------------------------------------------


def _rank2_instantiations(failures: list[str]) -> None:
    """The rank-2 argument admits two incomparable instantiations —
    separately reachable, never simultaneously — and rejects a third."""
    program, outcome, supply = _check_file("g_example.efl")
    if outcome.status != "ok":
        failures.append(f"g_example status {outcome.status}")
        return
    scheme = next(r.gen.scheme for r in outcome.records
                  if r.name.text == "g")
    names = list(program.effects) + list(program.types)
    t_later = parse_closed_type(
        "(forall eff a. Int ->[a] Int) ->[DB] Int", names, supply)
    t_now = parse_closed_type(
        "(forall eff a. Int ->[IO] Int) ->[IO \\/ DB] Int", names, supply)
    t_bad = parse_closed_type(
        "(forall eff a. Int ->[DB] Int) ->[DB] Int", names, supply)
    admits = lambda targets: scheme_admits_instances(  # noqa: E731
        scheme, outcome.formula, targets, outcome.discharger.rigid, supply,
        outcome.discharger)
    if not admits([t_later]):
        failures.append("g: polymorphic-callback instance unreachable")
    if not admits([t_now]):
        failures.append("g: IO-callback instance unreachable")
    if admits([t_later, t_now]):
        failures.append("g: incomparable instances admitted simultaneously")
    if admits([t_bad]):
        failures.append("g: DB-callback instance wrongly admitted")


def _call_now_or_later_scheme(failures: list[str]) -> None:
    """Under some enumerated discharge witness, the inferred scheme is
    mutually instantiable with  forall a [a <: IO] =>
    Bool ->[] (Unit ->[a] Unit) ->[a \\/ DB] Unit."""
    program, outcome, supply = _check_file("call_now_or_later.efl")
    if outcome.status != "ok":
        failures.append(f"call_now_or_later status {outcome.status}")
        return
    scheme = next(r.gen.scheme for r in outcome.records
                  if r.name.text == "callNowOrLater")
    io = next(n for n in program.effects if n.text == "IO")
    db = next(n for n in program.effects if n.text == "DB")
    unit = TVar(next(n for n in program.types if n.text == "Unit"))
    bool_t = TVar(next(n for n in program.types if n.text == "Bool"))
    alpha = supply.fresh(KIND_EFF, "alpha")
    a = Effect.var(alpha)
    target = Scheme(
        (alpha,), frozenset({Constraint(a, Effect.var(io))}),
        Arrow(bool_t, PURE,
              Arrow(Arrow(unit, a, unit), join(a, Effect.var(db)), unit)))

    discharger = outcome.discharger
    survivors = sorted(free_eff_vars_scheme(scheme) - set(discharger.rigid),
                       key=Name.KEY)
    formula_props = props(outcome.formula)
    equivalent_under_some_witness = False
    for model in sat_enumerate(outcome.formula, limit=64):
        witness = dict.fromkeys(formula_props, False) | model
        inst = {}
        for sv in survivors:
            value = PURE
            for c in discharger.rigid:
                member = discharger.membership(sv, c)
                if member in witness and witness[member]:
                    value = join(value, Effect.var(c))
            inst[sv] = value
        concrete = concretize_scheme(scheme, witness, inst)
        if schemes_equivalent(concrete, target, [io, db], frozenset()):
            equivalent_under_some_witness = True
            break
    if not equivalent_under_some_witness:
        failures.append("callNowOrLater: no witness makes the scheme "
                        "equivalent to the intended one")


def _separation_example(failures: list[str]) -> None:
    """Separating {g} out of {IO <: b \\/ g} keeps nothing in the scheme and
    propagates IO <: b."""
    supply = NameSupply()
    io = supply.fresh(KIND_EFF, "IO")
    beta = supply.fresh(KIND_EFF, "b")
    gamma = supply.fresh(KIND_EFF, "g")
    kept, propagated = separate(
        frozenset({gamma}),
        frozenset({Constraint(Effect.var(io),
                              join(Effect.var(beta), Effect.var(gamma)))}))
    if kept != frozenset():
        failures.append(f"separate kept {sorted(map(str, kept))}")
    if propagated != frozenset({Constraint(Effect.var(io),
                                           Effect.var(beta))}):
        failures.append(f"separate propagated {sorted(map(str, propagated))}")


def _constraint_free_counterexamples(failures: list[str]) -> None:
    """Constraint-free mode accepts both programs that defeat the simpler
    per-variable and bounded-binder instantiation strategies."""
    for name in ("cf_equal_vars.efl", "cf_k_join.efl"):
        _, outcome, _ = _check_file(name, mode="constraint-free")
        if outcome.status != "ok":
            failures.append(f"{name} constraint-free status {outcome.status}")
            continue
        try:
            verify_certificates(outcome)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{name} certificates: {exc}")
    # The defeated per-variable strategy, in miniature: generalizing x and y
    # under {x <: y, y <: x} with one binder per variable extracts an
    # unsatisfiable formula, while the implemented per-arrow-position grid
    # accepts (cf_equal_vars.efl exercises exactly this correlation).
    supply = NameSupply()
    x, y, gx, gy = (supply.fresh(KIND_EFF, t) for t in ("x", "y", "gx", "gy"))
    theta = {x: Effect.var(gx), y: Effect.var(gy)}
    omega = constraint_set(subst_constraints(
        theta, frozenset({Constraint(Effect.var(x), Effect.var(y)),
                          Constraint(Effect.var(y), Effect.var(x))})))
    naive = conj2(omega_to_formula(omega, gx), omega_to_formula(omega, gy))
    if sat(naive) is not None:
        failures.append("per-variable strategy unexpectedly satisfiable")


def _purity_restriction(failures: list[str]) -> None:
    _, outcome, _ = _check_file("purity_violation.efl")
    if outcome.status != "unsat" or outcome.exit_code != 1:
        failures.append(f"purity_violation: status {outcome.status}, "
                        f"exit {outcome.exit_code}")
    supply = NameSupply()
    io = supply.fresh(KIND_EFF, "IO")
    phi = omega_to_formula(frozenset({Constraint(Effect.var(io), PURE)}), io)
    if sat(phi) is not None:
        failures.append("IO <: pure discharged satisfiable")


def test_criterion_4_reference_program_behaviors():
    failures: list[str] = []
    _rank2_instantiations(failures)
    _call_now_or_later_scheme(failures)
    _separation_example(failures)
    _constraint_free_counterexamples(failures)
    _purity_restriction(failures)
    _verdict("4 reference program behaviors", failures)


# ---------------------------------------------------------------------------
# 5. Subtyping soundness and annotation-translation soundness
# ---------------------------------------------------------------------------


def test_criterion_5_subtype_and_translation_soundness():
    failures: list[str] = []

    # Algorithmic subtyping is sound: whenever its side formula holds, the
    # declarative subtyping relation holds under the emitted constraints.
    supply = NameSupply()
    atoms = [supply.fresh(KIND_EFF, t) for t in "xyz"]
    guard_props = [supply.fresh(KIND_PROP, t) for t in "pq"]
    rng = random.Random(5)
    satisfied = unsound = 0
    for _ in range(500):
        t1, t2 = random_type_pair(rng, supply, atoms, guard_props)
        try:
            omega, phi = subtype(t1, t2)
        except ShapeError:
            failures.append(f"shape-compatible pair rejected: {t1} vs {t2}")
            continue
        relevant = sorted(props(phi) | constraints_props(omega)
                          | type_props(t1) | type_props(t2), key=Name.KEY)
        for rho in all_valuations(relevant):
            if not evaluate(phi, rho):
                continue
            satisfied += 1
            if not subtype_holds(ReplayScope(omega, rho), t1, t2):
                unsound += 1
    if unsound:
        failures.append(f"{unsound} unsound subtype results")
    if satisfied < 200:
        failures.append(f"only {satisfied} satisfied side formulas")

    # Translating a source annotation always yields a type that matches the
    # annotation, under every valuation of the minted propositions.
    base_types = [Name("Unit", KIND_TYPE, 0), Name("Int", KIND_TYPE, 1)]
    checked = skipped = mismatches = 0
    for i in range(500):
        gen_rng = random.Random(5000 + i)
        st = _random_syn_type(gen_rng, supply, list(atoms), list(base_types),
                              depth=3)
        before = len(supply.props)
        _, t = tr_type(st, supply)
        minted = supply.props[before:]
        unique = sorted(set(minted), key=Name.KEY)
        if len(unique) > 8:
            skipped += 1
            continue
        checked += 1
        for rho in all_valuations(unique):
            if not match_type(st, t, rho):
                mismatches += 1
                break
    if mismatches:
        failures.append(f"{mismatches} translated types fail to match")
    if checked < 450:
        failures.append(f"only {checked} annotations checked "
                        f"({skipped} skipped)")
    print(f"[acceptance]   {satisfied} subtype valuations, "
          f"{checked} annotations")
    _verdict("5 subtyping and translation soundness", failures)


def _random_syn_effect(rng: random.Random, eff_names: list[Name]):
    parts = []
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(SEWild())
        elif eff_names:
            parts.append(SEVar(rng.choice(eff_names)))
    if not parts:
        return SEPure()
    return SEJoin(tuple(parts)) if len(parts) > 1 else parts[0]


def _random_syn_type(rng: random.Random, supply: NameSupply,
                     eff_names: list[Name], typ_names: list[Name],
                     depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return STVar(rng.choice(typ_names))
    if roll < 0.75:
        return SArrow(
            _random_syn_type(rng, supply, eff_names, typ_names, depth - 1),
            _random_syn_effect(rng, eff_names),
            _random_syn_type(rng, supply, eff_names, typ_names, depth - 1))
    if roll < 0.9:
        binder = supply.fresh(KIND_EFF, "h")
        return SForallEff(binder, _random_syn_type(
            rng, supply, eff_names + [binder], typ_names, depth - 1))
    binder = supply.fresh(KIND_TYPE, "t")
    return SForallTyp(binder, _random_syn_type(
        rng, supply, eff_names, typ_names + [binder], depth - 1))


# ---------------------------------------------------------------------------
# 6. SAT engine agreement with truth tables; session replay
# ---------------------------------------------------------------------------


def _random_formula(rng: random.Random, atoms: list[Name], depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        if roll < 0.2:
            return BOT
        return Prop(rng.choice(atoms))
    a = _random_formula(rng, atoms, depth - 1)
    b = _random_formula(rng, atoms, depth - 1)
    return rng.choice((And, Or, Implies))(a, b)


def _truth_table(phi, order: list[Name]) -> int:
    """Truth table of phi as a bit mask over 2**len(order) valuations;
    valuation index i assigns order[j] the bit (i >> j) & 1."""
    size = 1 << len(order)
    full = (1 << size) - 1
    masks = {}
    for j, name in enumerate(order):
        block = (1 << (1 << j)) - 1
        mask = 0
        for start in range(1 << j, size, 1 << (j + 1)):
            mask |= block << start
        masks[name] = mask

    def table(g) -> int:
        if isinstance(g, Top):
            return full
        if isinstance(g, Bot):
            return 0
        if isinstance(g, Prop):
            return masks[g.name]
        if isinstance(g, And):
            return table(g.lhs) & table(g.rhs)
        if isinstance(g, Or):
            return table(g.lhs) | table(g.rhs)
        if isinstance(g, Implies):
            return (full ^ table(g.lhs)) | table(g.rhs)
        raise TypeError(f"not a formula: {g!r}")

    return table(phi)


def test_criterion_6_sat_engine_agreement():
    failures: list[str] = []
    pool = [Name(f"v{i}", KIND_PROP, 900_000 + i) for i in range(12)]
    rng = random.Random(6)
    sat_errors = model_errors = 0
    for _ in range(2000):
        width = rng.randint(1, 12)
        phi = _random_formula(rng, pool[:width], depth=rng.randint(1, 4))
        order = sorted(props(phi), key=Name.KEY)
        tab = _truth_table(phi, order)
        model = sat(phi)
        if (model is not None) != (tab != 0):
            sat_errors += 1
            continue
        if model is not None and order:
            index = sum(1 << j for j, name in enumerate(order)
                        if name in model and model[name])
            if not (tab >> index) & 1:
                model_errors += 1
    if sat_errors:
        failures.append(f"{sat_errors} satisfiability disagreements")
    if model_errors:
        failures.append(f"{model_errors} models that do not satisfy")

    # Session replay: incremental pushes agree with from-scratch brute
    # force, and fixed literals are exactly the single-polarity props.
    session_pool = [Name(f"s{i}", KIND_PROP, 910_000 + i) for i in range(6)]
    replay_errors = 0
    for run in range(200):
        run_rng = random.Random(6000 + run)
        session = SolverSession()
        accumulated = TOP
        for _ in range(run_rng.randint(1, 6)):
            width = run_rng.randint(1, 4)
            phi = _random_formula(run_rng,
                                  run_rng.sample(session_pool, width),
                                  depth=3)
            candidate = conj2(accumulated, phi)
            order = sorted(props(candidate), key=Name.KEY)
            tab = _truth_table(candidate, order)
            accepted = session.push(phi)
            if accepted != (tab != 0):
                replay_errors += 1
                break
            if not accepted:
                continue
            accumulated = candidate
            models = [rho for rho in all_valuations(order)
                      if evaluate(accumulated, rho)]
            forced = {}
            for name in order:
                values = {rho[name] for rho in models}
                if len(values) == 1:
                    forced[name] = values.pop()
            if dict(fixed(session).items()) != forced:
                replay_errors += 1
                break
    if replay_errors:
        failures.append(f"{replay_errors} session replays diverged")
    _verdict("6 SAT engine agreement", failures)


# ---------------------------------------------------------------------------
# 7. Reproducible output on the program corpus
# ---------------------------------------------------------------------------


def test_criterion_7_reproducible_output(capsys):
    failures: list[str] = []
    corpus = sorted(PROGRAMS.glob("*.efl"))
    assert corpus, "program corpus missing"
    for path in corpus:
        for mode in ("constrained", "constraint-free"):
            snapshots = []
            for _ in range(2):
                _, outcome, _ = _check_file(path.name, mode=mode)
                snapshots.append((outcome.status, outcome.stdout(),
                                  outcome.error, outcome.exit_code,
                                  str(outcome.formula), outcome.witness))
            if snapshots[0] != snapshots[1]:
                failures.append(f"{path.name} [{mode}] differs across runs")
        cli_runs = []
        for _ in range(2):
            code = main(["check", str(path), "--verify", "--dump-formula",
                         "--dump-cert"])
            out = capsys.readouterr()
            cli_runs.append((code, out.out, out.err))
        if cli_runs[0] != cli_runs[1]:
            failures.append(f"{path.name} CLI output differs across runs")
    _verdict("7 reproducible output", failures)
