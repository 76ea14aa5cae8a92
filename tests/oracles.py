"""Independent oracles and random generators backing the test suite.

Nothing here is used by the checker itself. The derivation search re-decides
subeffecting by bounded proof search over the declarative rules, written
against the same data types but sharing no logic with the closure procedure
it cross-checks. The program generator emits well-shaped source text (shapes
are correct by construction; effects are left to inference), and the
end-to-end harness asserts that whatever inference accepts, the certificate
checker confirms under the witness valuation. `subeffect_fixpoint` is the
plain closure fixpoint that the compiled replay scopes are compared against.
The recursive walks over `Type` at the end are the reference that
`effects.map_type`, `effects.walk_type` and their callers are compared
against; `props_rec` is the same for `formulas.props`, `formula_str_rec`
for the printing of formulas, `type_str_rec` and `render_cert_rec` for the
printing of types and certificates, and `tokenize_chars`, the
character-at-a-time lexer, for the regex lexer (`helpers.tokenize`).
`RecursiveParser` is the parser with one call per atom, parenthesis and
arrow, and `type_is_wildcard_free` the walk it checks an extern's type
with: the reference for the looping `efl.syntax.Parser` and its count of
wildcards.
`subst_cert_per_class` and `render_cert_per_class` are
`declarative.subst_cert` and `driver.render_cert` as they were before both
read a certificate's fields from its class's `__slots__` and `RULE`: one
branch per certificate class. They are the reference for the node-table
walks.
`subst_type_rec` and `subst_type_vars_rec` also rebuild every node, as
`map_type` did before it returned unchanged nodes themselves; with
`subst_effect_rebuild`, `subst_constraints_rebuild`, `subst_scheme_rebuild`
and `subst_cert_rebuild` they are the rebuild-always substitutions that the
identity-preserving ones in `efl.effects` and `efl.declarative` are compared
against.
`total_valuation_over_formula` is `driver.total_valuation` as it was when
it walked the certificates, schemes and omega for their guard propositions
(`cert_props`, `scheme_props`, `constraints_props`, `type_props`) and also
defaulted every proposition of the session formula.
`whole_clause_solve` is `solver._Solver.solve` as it was before it ran one
component at a time: one DPLL over every clause a solver holds.
`ReferenceSolver` is the Tseitin encoding as it was before `literal`
folded constants: a variable for each `T` and `F`, fixed by a unit clause,
a gate for every connective, each clause through `add_clause`, and the
whole clause set solved by `whole_clause_solve`. `ReferenceSession` is
`solver.SolverSession` over it: the reference for the verdicts and the
witness of the folding encoding.
`effect_of_map`, `join_parts`, `guard_parts`, `subst_effect_parts` and
`eliminate_effect_parts` build effects as `efl.effects` and `efl.driver`
did before `effects.effect_of` took a list of guarded atoms: each merges
its own parts, and a substitution or elimination joins one effect per atom.
They are the reference for the one-call builders, as
`omega_to_formula_scan`, which scans a constraint's atoms once per guard it
reads, is for `effects.omega_to_formula`.
`DATACLASS_FIELDS` lists the fields each value class had when it was a
dataclass, and `dataclass_mirror` builds that dataclass again: the
reference for the hand-written slotted classes' equality, hash and repr.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, make_dataclass
from typing import Iterable, Mapping

from efl.declarative import (CAbs, CApp, CEAbs, CEApp, CLet, CSub, CTAbs,
                             CTApp, CVar, Cert, ReplayScope, entails,
                             subtype_holds)
from efl.driver import (CheckOutcome, DefRecord, Discharger, check_program,
                        verify_certificates)
from efl.effects import (PURE, Arrow, Constraint, Effect, ForallEff, ForallTyp,
                         Scheme, TVar, Type, constraint_set,
                         free_eff_vars_constraints, free_eff_vars_type,
                         map_type, subst_constraints, subst_effect,
                         subst_scheme, subst_type, walk_type)
from efl.formulas import (BOT, TOP, And, Bot, Formula, Implies, Or, Prop,
                          Top, conj, conj2, disj2, evaluate, impl)
from efl.inference import (Config, Generalized, InferResult, ShapeError,
                            subtype, tr_type)
from efl.names import KIND_EFF, KIND_EXPR, KIND_TYPE, Name, NameSupply
from efl.solver import _Solver
from efl.syntax import (KEYWORDS, EfApp, ELam, Expr, Lam, Let, Program,
                        SArrow, SEJoin, SEPure, SEVar, SEWild, SForallEff,
                        SForallTyp, STVar, SynEffect, SynType, TLam, TyApp,
                        App, Parser, SourceError, Var, effect_parts,
                        parse_program)
from helpers import effect_props, erase_guards, props, sat, scope_of

# ---------------------------------------------------------------------------
# Bounded derivation search for subeffecting
# ---------------------------------------------------------------------------


def derivation_search_subeffect(omega: Iterable[Constraint],
                                rho: Mapping[Name, bool],
                                e1: Effect, e2: Effect,
                                depth: int = 6) -> bool:
    """Decide omega |- e1 <= e2 under rho by bounded search over the
    declarative rules: reflexivity, the assumption axiom, bottom, the join
    rules, the three guard rules, and transitivity through assumption sides.
    """
    omega = list(omega)
    midpoints: list[Effect] = [PURE]
    for c in omega:
        for side in (c.lhs, c.rhs):
            if side not in midpoints:
                midpoints.append(side)
    memo: dict[tuple[Effect, Effect, int], bool] = {}

    def search(l: Effect, r: Effect, d: int) -> bool:
        if l.is_pure():
            return True
        if l == r:
            return True
        key = (l, r, d)
        if key in memo:
            return memo[key]
        memo[key] = False  # cut cycles pessimistically
        result = _search_steps(l, r, d)
        memo[key] = result
        return result

    def _search_steps(l: Effect, r: Effect, d: int) -> bool:
        if d <= 0:
            return False
        for c in omega:
            if c.lhs == l and c.rhs == r:
                return True
        if len(l.atoms) == 1:
            v, g = l.atoms[0]
            if not isinstance(g, Top):
                if not evaluate(g, rho):
                    return True  # guard is false: l erases to pure
                if search(Effect.var(v), r, d - 1):
                    return True  # peel the guard (it only shrinks l)
        if len(r.atoms) == 1:
            v, g = r.atoms[0]
            if not isinstance(g, Top) and evaluate(g, rho):
                if search(l, Effect.var(v), d - 1):
                    return True  # guard true on the right: peel it
        if len(l.atoms) >= 2:
            n = len(l.atoms)
            for mask in range(1, 2 ** n - 1):
                a = Effect(tuple(at for i, at in enumerate(l.atoms)
                                 if mask >> i & 1))
                b = Effect(tuple(at for i, at in enumerate(l.atoms)
                                 if not mask >> i & 1))
                if search(a, r, d - 1) and search(b, r, d - 1):
                    return True
        if len(r.atoms) >= 2:
            n = len(r.atoms)
            for mask in range(1, 2 ** n - 1):
                s = Effect(tuple(at for i, at in enumerate(r.atoms)
                                 if mask >> i & 1))
                if search(l, s, d - 1):
                    return True
        for m in midpoints:
            if m == l or m == r:
                continue
            if search(l, m, d - 1) and search(m, r, d - 1):
                return True
        return False

    return search(e1, e2, depth)


def subeffect_fixpoint(omega: Iterable[Constraint], rho: Mapping[Name, bool],
                       e1: Effect, e2: Effect) -> bool:
    """Decide omega |- e1 <= e2 under rho by the plain closure fixpoint:
    erase every constraint, then sweep the rules until nothing new is
    covered. The reference `declarative.subeffect_holds` is compared with."""
    goal = erase_guards(e1, rho).atom_names()
    covered = set(erase_guards(e2, rho).atom_names())
    rules = [(erase_guards(c.lhs, rho).atom_names(),
              erase_guards(c.rhs, rho).atom_names()) for c in omega]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if rhs <= covered and not lhs <= covered:
                covered |= lhs
                changed = True
    return goal <= covered


def covers_by_propagation(scope: ReplayScope, start: frozenset[Name],
                          goal: frozenset[Name]) -> bool:
    """`ReplayScope.covers` without its one-rule step: forward propagation
    from start and the scope's free atoms, counting down each rule's
    missing RHS atoms over `scope.index` (Dowling & Gallier, JLP 1984),
    until goal is covered or nothing more fires."""
    missing = set(goal).difference(start, scope.free)
    queue = [*scope.free, *start]
    covered: set[Name] = set()
    waiting: dict[int, int] = {}
    while missing and queue:
        atom = queue.pop()
        if atom in covered:
            continue
        covered.add(atom)
        for rule in scope.index.get(atom, ()):
            need = waiting.get(id(rule), len(rule[0])) - 1
            waiting[id(rule)] = need
            if need == 0:
                queue.extend(rule[1])
                missing.difference_update(rule[1])
    return not missing


# ---------------------------------------------------------------------------
# Random formulas / effects / types (for property and bridge tests)
# ---------------------------------------------------------------------------


def random_guard(rng: random.Random, props: list[Name],
                 depth: int = 2) -> Formula:
    if depth == 0 or not props or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.4 or not props:
            return TOP if roll < 0.25 else (BOT if roll < 0.4 else TOP)
        return Prop(rng.choice(props))
    a = random_guard(rng, props, depth - 1)
    b = random_guard(rng, props, depth - 1)
    return rng.choice((conj2(a, b), disj2(a, b), impl(a, b)))


def random_effect(rng: random.Random, atoms: list[Name], props: list[Name],
                  max_atoms: int = 3) -> Effect:
    chosen = rng.sample(atoms, k=rng.randint(0, min(max_atoms, len(atoms))))
    out = PURE
    for v in chosen:
        out = join_parts(out, Effect(((v, random_guard(rng, props)),)))
    return out


def random_type_pair(rng: random.Random, supply: NameSupply,
                     atoms: list[Name], props: list[Name],
                     depth: int = 2) -> tuple[Type, Type]:
    """Two structurally compatible types with independently random effects."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        base = Name("Base", KIND_TYPE, 0)
        return TVar(base), TVar(base)
    if roll < 0.75:
        p1, p2 = random_type_pair(rng, supply, atoms, props, depth - 1)
        r1, r2 = random_type_pair(rng, supply, atoms, props, depth - 1)
        return (Arrow(p1, random_effect(rng, atoms, props), r1),
                Arrow(p2, random_effect(rng, atoms, props), r2))
    b1 = supply.fresh(KIND_EFF, "q")
    b2 = supply.fresh(KIND_EFF, "q")
    inner_atoms1 = atoms + [b1]
    inner_atoms2 = atoms + [b2]
    s1, s2 = random_type_pair(rng, supply, atoms, props, depth - 1)
    # Decorate each body over its own binder by a shared recipe: swap the
    # binder into a shared slot so shapes stay compatible.
    t1 = _sprinkle_binder(rng, s1, b1, props)
    t2 = _sprinkle_binder(rng, s2, b2, props)
    return ForallEff(b1, t1), ForallEff(b2, t2)


def _sprinkle_binder(rng: random.Random, t: Type, binder: Name,
                     props: list[Name]) -> Type:
    if isinstance(t, Arrow):
        eff = t.effect
        if rng.random() < 0.5:
            eff = join_parts(eff,
                             Effect(((binder, random_guard(rng, props)),)))
        return Arrow(_sprinkle_binder(rng, t.param, binder, props), eff,
                     _sprinkle_binder(rng, t.result, binder, props))
    if isinstance(t, (ForallTyp, ForallEff)):
        return type(t)(t.binder, _sprinkle_binder(rng, t.body, binder, props))
    return t


# ---------------------------------------------------------------------------
# Program generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SBase:
    name: str


@dataclass(frozen=True)
class _SArrow:
    param: "object"
    result: "object"


@dataclass(frozen=True)
class _SForallE:
    body: "object"


_UNIT = _SBase("Unit")
_INT = _SBase("Int")

GEN_PRELUDE = """\
effect IO
effect DB
type Unit
type Int
extern tt : Unit
extern one : Int
extern launch : Unit ->[IO] Unit
extern query : Unit ->[DB] Unit
extern inc : Int ->[] Int
extern seq : Unit ->[] Unit ->[] Unit
extern both : (Unit ->[IO \\/ DB] Unit) ->[IO \\/ DB] Unit
extern pass : forall eff h. (Unit ->[h] Unit) ->[] (Unit ->[h] Unit)
extern twice : forall eff h. (Unit ->[h] Unit) ->[h] Unit
"""

_ARROW_UU = _SArrow(_UNIT, _UNIT)

# (name, shape, latent effects known pure when called)
_PRELUDE_ENV: list[tuple[str, object, bool]] = [
    ("tt", _UNIT, True),
    ("one", _INT, True),
    ("launch", _ARROW_UU, False),
    ("query", _ARROW_UU, False),
    ("inc", _SArrow(_INT, _INT), True),
    ("seq", _SArrow(_UNIT, _SArrow(_UNIT, _UNIT)), True),
    ("both", _SArrow(_ARROW_UU, _UNIT), False),
    ("pass", _SForallE(_SArrow(_ARROW_UU, _ARROW_UU)), True),
    ("twice", _SForallE(_SArrow(_ARROW_UU, _UNIT)), False),
]


def _shape_arrows(s: object) -> int:
    if isinstance(s, _SArrow):
        return 1 + _shape_arrows(s.param) + _shape_arrows(s.result)
    if isinstance(s, _SForallE):
        return _shape_arrows(s.body)
    return 0


class _Gen:
    def __init__(self, rng: random.Random, size: int, mode: str) -> None:
        self.rng = rng
        self.size = size
        self.mode = mode
        self.counter = 0
        self.eff_scope: list[str] = []

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    # -- shapes ------------------------------------------------------------

    def shape(self, depth: int = 2) -> object:
        roll = self.rng.random()
        if depth == 0 or roll < 0.35:
            return _UNIT if self.rng.random() < 0.8 else _INT
        if roll < 0.72:
            return _SArrow(self.shape(depth - 1), self.shape(depth - 1))
        return _SForallE(_SArrow(self.shape(depth - 1),
                                 self.shape(depth - 1)))

    def def_shape(self) -> object:
        while True:
            s = self.shape()
            if self.mode == "constraint-free" and _shape_arrows(s) > 3:
                continue
            return s

    # -- annotations ---------------------------------------------------------

    def syn_effect(self) -> str:
        roll = self.rng.random()
        if roll < 0.5:
            return "_"
        if roll < 0.7:
            return ""
        pool = ["IO", "DB"] + self.eff_scope
        picks = self.rng.sample(pool, k=min(len(pool),
                                            self.rng.randint(1, 2)))
        return " \\/ ".join(picks)

    def syn_type(self, s: object) -> str:
        if isinstance(s, _SBase):
            return s.name
        if isinstance(s, _SArrow):
            lhs = self.syn_type(s.param)
            if isinstance(s.param, (_SArrow, _SForallE)):
                lhs = f"({lhs})"
            return f"{lhs} ->[{self.syn_effect()}] {self.syn_type(s.result)}"
        if isinstance(s, _SForallE):
            h = self.fresh("h")
            self.eff_scope.append(h)
            body = self.syn_type(s.body)
            self.eff_scope.pop()
            return f"forall eff {h}. {body}"
        raise TypeError(f"not a shape: {s!r}")

    # -- expressions ---------------------------------------------------------

    def leaf(self, s: object, env: list, pure: bool) -> str:
        have = [n for n, sh, _ in env if sh == s]
        if have and self.rng.random() < 0.7:
            return self.rng.choice(have)
        if s == _UNIT:
            if not pure and self.rng.random() < 0.5:
                return self.rng.choice(("(launch tt)", "(query tt)"))
            return "tt"
        if s == _INT:
            return "one" if self.rng.random() < 0.6 else "(inc one)"
        if isinstance(s, _SArrow):
            x = self.fresh("x")
            body = self.leaf(s.result,
                             env + [(x, s.param, True)], False)
            return f"(fn ({x} : {self.syn_type(s.param)}) => {body})"
        if isinstance(s, _SForallE):
            h = self.fresh("h")
            self.eff_scope.append(h)
            body = self.leaf(s.body, env, True)
            self.eff_scope.pop()
            return f"(efun {h} => {body})"
        raise TypeError(f"not a shape: {s!r}")

    def expr(self, s: object, env: list, budget: int, pure: bool) -> str:
        rng = self.rng
        if budget <= 2:
            return self.leaf(s, env, pure)
        options = ["leaf", "let"]
        if isinstance(s, _SArrow):
            options += ["lam", "lam"]
        if isinstance(s, _SForallE):
            options += ["efun", "efun"]
        if isinstance(s, (_SBase,)):
            options += ["app", "app", "eapp-call"]
        choice = rng.choice(options)

        if choice == "lam":
            x = self.fresh("x")
            ann = self.syn_type(s.param)
            body = self.expr(s.result, env + [(x, s.param, True)],
                             budget - 2, False)
            return f"(fn ({x} : {ann}) => {body})"

        if choice == "efun":
            h = self.fresh("h")
            self.eff_scope.append(h)
            body = self.expr(s.body, env, budget - 2, True)
            self.eff_scope.pop()
            return f"(efun {h} => {body})"

        if choice == "let":
            x = self.fresh("x")
            s1 = self.def_shape()
            bound = self.expr(s1, env, budget // 2, True)
            body = self.expr(s, env + [(x, s1, True)],
                             budget - budget // 2 - 1, pure)
            return f"(let {x} = {bound} in {body})"

        if choice == "app":
            # Either call a known arrow from the environment or synthesize a
            # lambda and call it immediately.
            candidates = [(n, sh) for n, sh, ok in env
                          if isinstance(sh, _SArrow) and sh.result == s
                          and (ok or not pure)]
            if candidates and rng.random() < 0.65:
                name, sh = rng.choice(candidates)
                arg = self.expr(sh.param, env, budget - 2, pure)
                return f"({name} {arg})"
            x = self.fresh("x")
            s1 = self.shape(1)
            body = self.expr(s, env + [(x, s1, True)],
                             budget // 2, pure)
            arg = self.expr(s1, env, budget - budget // 2 - 2, pure)
            return f"((fn ({x} : {self.syn_type(s1)}) => {body}) {arg})"

        if choice == "eapp-call":
            foralls = [(n, sh) for n, sh, ok in env
                       if isinstance(sh, _SForallE)
                       and isinstance(sh.body, _SArrow)
                       and sh.body.result == s and (ok or not pure)]
            if foralls:
                name, sh = rng.choice(foralls)
                arg = self.expr(sh.body.param, env, budget - 3, pure)
                return f"(({name} [eff {self._eapp_arg()}]) {arg})"
            return self.leaf(s, env, pure)

        return self.leaf(s, env, pure)

    def _eapp_arg(self) -> str:
        roll = self.rng.random()
        if roll < 0.3:
            return "_"
        if roll < 0.45:
            return "pure"
        pool = ["IO", "DB"] + self.eff_scope
        picks = self.rng.sample(pool,
                                k=min(len(pool), self.rng.randint(1, 2)))
        return " \\/ ".join(picks)

    def program(self) -> str:
        rng = self.rng
        env = list(_PRELUDE_ENV)
        parts = [GEN_PRELUDE]
        for _ in range(rng.randint(1, 2)):
            name = self.fresh("d")
            s = self.def_shape()
            src = self.expr(s, env, self.size, True)
            parts.append(f"let {name} = {src}")
            env.append((name, s, False))
        final_shape = _UNIT if rng.random() < 0.7 else _INT
        parts.append(self.expr(final_shape, env, self.size // 2, False))
        return "\n".join(parts) + "\n"


def gen_program(seed: int, size: int = 20, mode: str = "constrained") -> str:
    """Deterministic random well-shaped program as source text."""
    return _Gen(random.Random(seed), size, mode).program()


# ---------------------------------------------------------------------------
# Wildcard-under-quantifier metric
# ---------------------------------------------------------------------------


def _syn_effect_has_wild(se: SynEffect) -> bool:
    if isinstance(se, SEWild):
        return True
    if isinstance(se, SEJoin):
        return any(map(_syn_effect_has_wild, se.parts))
    return False


def _syn_type_wild_under(st: SynType, under: bool) -> bool:
    if isinstance(st, SArrow):
        if under and _syn_effect_has_wild(st.effect):
            return True
        return (_syn_type_wild_under(st.param, under)
                or _syn_type_wild_under(st.result, under))
    if isinstance(st, SForallEff):
        return _syn_type_wild_under(st.body, True)
    if isinstance(st, SForallTyp):
        return _syn_type_wild_under(st.body, under)
    return False


def _expr_wild_under(e: Expr, under: bool) -> bool:
    if isinstance(e, Lam):
        return (_syn_type_wild_under(e.ann, under)
                or _expr_wild_under(e.body, under))
    if isinstance(e, ELam):
        return _expr_wild_under(e.body, True)
    if isinstance(e, TLam):
        return _expr_wild_under(e.body, under)
    if isinstance(e, App):
        return _expr_wild_under(e.fn, under) or _expr_wild_under(e.arg, under)
    if isinstance(e, Let):
        return (_expr_wild_under(e.bound, under)
                or _expr_wild_under(e.body, under))
    if isinstance(e, TyApp):
        return (_expr_wild_under(e.fn, under)
                or _syn_type_wild_under(e.arg, under))
    if isinstance(e, EfApp):
        return (_expr_wild_under(e.fn, under)
                or (under and _syn_effect_has_wild(e.arg)))
    return False


def has_wildcard_under_quantifier(program: Program) -> bool:
    """True if any wildcard sits under an effect quantifier (annotation under
    a forall-eff, or anything inside an efun body)."""
    exprs = [e for _, e in program.defs]
    if program.main is not None:
        exprs.append(program.main)
    return any(_expr_wild_under(e, False) for e in exprs)


# ---------------------------------------------------------------------------
# End-to-end soundness harness
# ---------------------------------------------------------------------------


def end_to_end_soundness(source: str, mode: str = "constrained") -> str:
    """Check one generated program; returns "verified" or "unsat".

    Raises AssertionError if a well-shaped program hits a shape error, or if
    an accepted program's certificates fail to verify.
    """
    supply = NameSupply()
    program = parse_program(source, supply)
    outcome = check_program(program, supply, Config(mode=mode))
    if outcome.status == "infer-error":
        raise AssertionError(
            f"shape error on a well-shaped program: {outcome.error}\n"
            f"--- source ---\n{source}")
    if outcome.status == "unsat":
        return "unsat"
    verify_certificates(outcome)
    return "verified"


# ---------------------------------------------------------------------------
# Scheme comparison tools
# ---------------------------------------------------------------------------


def effect_universe(base: list[Name]) -> list[Effect]:
    """All joins of subsets of base (2^n effects, deterministic order)."""
    out = []
    n = len(base)
    for mask in range(2 ** n):
        e = PURE
        for i in range(n):
            if mask >> i & 1:
                e = join_parts(e, Effect.var(base[i]))
        out.append(e)
    return out


def scheme_more_general(s1: Scheme, s2: Scheme, base: list[Name],
                        ambient: frozenset = frozenset()) -> bool:
    """Every instance of s2 is a weakening of an instance of s1.

    Brute force over instantiations of s1's binders into joins of `base` and
    s2's (skolemized) binders; `ambient` holds constraints both sides may
    assume (e.g. top-level bounds on surviving variables). Intended for small
    guard-free schemes. A binder of s1 that occurs nowhere in it is left
    alone: no instantiation of it changes the instance. One that s2 binds
    too is tried at itself first.
    """
    scope = ReplayScope(frozenset(ambient) | s2.constraints, {})
    universe = effect_universe(sorted(set(base) | set(s2.binders),
                                      key=Name.KEY))
    occurring = (free_eff_vars_type(s1.body)
                 | free_eff_vars_constraints(s1.constraints))
    live = [b for b in s1.binders if b in occurring]

    def candidates(b: Name) -> list[Effect]:
        if b not in s2.binders:
            return universe
        own = Effect.var(b)
        return [own] + [e for e in universe if e != own]

    for combo in itertools.product(*map(candidates, live)):
        theta = dict(zip(live, combo))
        if not entails(scope, subst_constraints(theta, s1.constraints)):
            continue
        if subtype_holds(scope, subst_type(theta, s1.body), s2.body):
            return True
    return False


def schemes_equivalent(s1: Scheme, s2: Scheme, base: list[Name],
                       ambient: frozenset = frozenset()) -> bool:
    return (scheme_more_general(s1, s2, base, ambient)
            and scheme_more_general(s2, s1, base, ambient))


def erase_guards_type(t: Type, rho: Mapping[Name, bool]) -> Type:
    """Erase guards in every effect position of t under rho."""
    return map_type(t, lambda e: erase_guards(e, rho), lambda v: v)


def concretize_scheme(scheme: Scheme, rho: Mapping[Name, bool],
                      inst: Mapping[Name, Effect]) -> Scheme:
    """Substitute surviving variables and erase guards under rho."""
    body = erase_guards_type(subst_type(inst, scheme.body), rho)
    om = []
    for c in scheme.constraints:
        lhs = erase_guards(subst_effect(inst, c.lhs), rho)
        rhs = erase_guards(subst_effect(inst, c.rhs), rho)
        om.append(Constraint(lhs, rhs))
    return Scheme(scheme.binders, constraint_set(om), body)


def scheme_admits_instances(scheme: Scheme, side: Formula,
                            targets: list[Type], rigid: Iterable[Name],
                            supply: NameSupply,
                            discharger: Discharger | None = None) -> bool:
    """Satisfiable to instantiate the scheme at every target simultaneously
    (with subtyping in both directions, i.e. type equivalence).

    Pass the discharger that produced `side` so surviving variables are
    eliminated against the same membership propositions."""
    if discharger is None:
        discharger = Discharger(tuple(rigid), supply)
    phi = side
    for target in targets:
        theta = {b: Effect.var(supply.fresh(KIND_EFF))
                 for b in scheme.binders}
        body = subst_type(theta, scheme.body)
        try:
            o1, f1 = subtype(body, target)
            o2, f2 = subtype(target, body)
        except ShapeError:
            return False
        om = subst_constraints(theta, scheme.constraints) | o1 | o2
        phi = conj2(phi, conj2(f1, conj2(f2, discharger.formula_for(om))))
    return sat(phi) is not None


def parse_closed_type(src: str, names: Iterable[Name],
                      supply: NameSupply) -> Type:
    """Parse a wildcard-free type against the given declared names."""
    parser = Parser(src, supply, scope_of(*names))
    st = parser.parse_type()
    parser.expect("eof", "end of input")
    gen, t = tr_type(st, supply)
    assert not gen, "type was not wildcard-free"
    return t


# ---------------------------------------------------------------------------
# Recursive Type walks: the reference for map_type/walk_type and their callers
# ---------------------------------------------------------------------------


def random_type(rng: random.Random, supply: NameSupply, atoms: list[Name],
                tvars: list[Name], props: list[Name], minted: list[Name],
                depth: int = 4) -> Type:
    """A random type with guarded arrow effects and nested `forall eff` /
    `forall typ`. Effects draw on the atoms in scope and sometimes on a
    binder minted elsewhere (in `minted`), so a binder can also occur
    outside its quantifier."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return TVar(rng.choice(tvars))
    if roll < 0.6:
        pool = atoms + rng.sample(minted, k=min(1, len(minted)))
        return Arrow(
            random_type(rng, supply, atoms, tvars, props, minted, depth - 1),
            random_effect(rng, pool, props),
            random_type(rng, supply, atoms, tvars, props, minted, depth - 1))
    if roll < 0.85:
        b = supply.fresh(KIND_EFF, "q")
        minted.append(b)
        return ForallEff(b, random_type(rng, supply, atoms + [b], tvars,
                                        props, minted, depth - 1))
    b = supply.fresh(KIND_TYPE, "t")
    return ForallTyp(b, random_type(rng, supply, atoms, tvars + [b], props,
                                    minted, depth - 1))


def subst_type_rec(theta: Mapping[Name, Effect], t: Type) -> Type:
    if isinstance(t, TVar):
        return t
    if isinstance(t, Arrow):
        return Arrow(subst_type_rec(theta, t.param),
                     subst_effect_rebuild(theta, t.effect),
                     subst_type_rec(theta, t.result))
    if isinstance(t, ForallTyp):
        return ForallTyp(t.binder, subst_type_rec(theta, t.body))
    if isinstance(t, ForallEff):
        return ForallEff(t.binder, subst_type_rec(theta, t.body))
    raise TypeError(f"not a type: {t!r}")


def subst_type_vars_rec(tmap: Mapping[Name, Type], t: Type) -> Type:
    if isinstance(t, TVar):
        return tmap.get(t.name, t)
    if isinstance(t, Arrow):
        return Arrow(subst_type_vars_rec(tmap, t.param), t.effect,
                     subst_type_vars_rec(tmap, t.result))
    if isinstance(t, ForallTyp):
        return ForallTyp(t.binder, subst_type_vars_rec(tmap, t.body))
    if isinstance(t, ForallEff):
        return ForallEff(t.binder, subst_type_vars_rec(tmap, t.body))
    raise TypeError(f"not a type: {t!r}")


def type_props_rec(t: Type) -> frozenset[Name]:
    if isinstance(t, TVar):
        return frozenset()
    if isinstance(t, Arrow):
        return (type_props_rec(t.param) | effect_props(t.effect)
                | type_props_rec(t.result))
    if isinstance(t, (ForallTyp, ForallEff)):
        return type_props_rec(t.body)
    raise TypeError(f"not a type: {t!r}")


def free_eff_vars_type_rec(t: Type) -> frozenset[Name]:
    if isinstance(t, TVar):
        return frozenset()
    if isinstance(t, Arrow):
        return (free_eff_vars_type_rec(t.param) | t.effect.atom_names()
                | free_eff_vars_type_rec(t.result))
    if isinstance(t, ForallTyp):
        return free_eff_vars_type_rec(t.body)
    if isinstance(t, ForallEff):
        return free_eff_vars_type_rec(t.body) - {t.binder}
    raise TypeError(f"not a type: {t!r}")


def arrow_count_rec(t: Type) -> int:
    if isinstance(t, Arrow):
        return 1 + arrow_count_rec(t.param) + arrow_count_rec(t.result)
    if isinstance(t, (ForallTyp, ForallEff)):
        return arrow_count_rec(t.body)
    return 0


def names_in_type_rec(t: Type) -> set[Name]:
    """Every name a displayed type mentions: type variables, binders, effect
    atoms and guard propositions."""
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, Arrow):
        return (names_in_type_rec(t.param) | set(t.effect.atom_names())
                | effect_props(t.effect) | names_in_type_rec(t.result))
    if isinstance(t, (ForallTyp, ForallEff)):
        return {t.binder} | names_in_type_rec(t.body)
    raise TypeError(f"not a type: {t!r}")


def props_rec(phi: Formula) -> frozenset[Name]:
    if isinstance(phi, Prop):
        return frozenset((phi.name,))
    if isinstance(phi, (And, Or, Implies)):
        return props_rec(phi.lhs) | props_rec(phi.rhs)
    return frozenset()


def formula_eq_rec(a: Formula, b: Formula) -> bool:
    """Structural equality by recursion, as the dataclass `__eq__` of the
    connectives compared: same class, then equal fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (And, Or, Implies)):
        return formula_eq_rec(a.lhs, b.lhs) and formula_eq_rec(a.rhs, b.rhs)
    return a == b


def formula_str_rec(phi: Formula) -> str:
    if isinstance(phi, And):
        return f"({formula_str_rec(phi.lhs)} /\\ {formula_str_rec(phi.rhs)})"
    if isinstance(phi, Or):
        return f"({formula_str_rec(phi.lhs)} \\/ {formula_str_rec(phi.rhs)})"
    if isinstance(phi, Implies):
        return f"({formula_str_rec(phi.lhs)} => {formula_str_rec(phi.rhs)})"
    return str(phi)


def type_str_rec(t: Type) -> str:
    if isinstance(t, TVar):
        return t.name.text
    if isinstance(t, Arrow):
        lhs = type_str_rec(t.param)
        if isinstance(t.param, (Arrow, ForallTyp, ForallEff)):
            lhs = f"({lhs})"
        eff = "" if t.effect.is_pure() else str(t.effect)
        return f"{lhs} ->[{eff}] {type_str_rec(t.result)}"
    if isinstance(t, ForallTyp):
        return f"forall typ {t.binder.text}. {type_str_rec(t.body)}"
    if isinstance(t, ForallEff):
        return f"forall eff {t.binder.text}. {type_str_rec(t.body)}"
    raise TypeError(f"not a type: {t!r}")


def render_cert_rec(c: Cert) -> str:
    if isinstance(c, CVar):
        inst = ", ".join(f"{n.text} := {e}" for n, e in c.theta)
        return f"(var {{{inst}}})"
    if isinstance(c, CAbs):
        return f"(abs {type_str_rec(c.param_type)} {render_cert_rec(c.body)})"
    if isinstance(c, CApp):
        return f"(app {render_cert_rec(c.fn)} {render_cert_rec(c.arg)})"
    if isinstance(c, CTAbs):
        return f"(tabs {render_cert_rec(c.body)})"
    if isinstance(c, CEAbs):
        return f"(eabs {render_cert_rec(c.body)})"
    if isinstance(c, CTApp):
        return f"(tapp {render_cert_rec(c.fn)} {type_str_rec(c.arg)})"
    if isinstance(c, CEApp):
        return f"(eapp {render_cert_rec(c.fn)} [{c.arg}])"
    if isinstance(c, CLet):
        return (f"(let {c.scheme} {render_cert_rec(c.bound)} "
                f"{render_cert_rec(c.body)})")
    if isinstance(c, CSub):
        return (f"(sub {type_str_rec(c.typ)} [{c.effect}] "
                f"{render_cert_rec(c.inner)})")
    raise TypeError(f"not a certificate: {c!r}")


def constraints_props(omega: Iterable[Constraint]) -> frozenset[Name]:
    out: frozenset[Name] = frozenset()
    for c in omega:
        out |= effect_props(c.lhs) | effect_props(c.rhs)
    return out


def type_props(t: Type) -> frozenset[Name]:
    out: set[Name] = set()
    for node, _ in walk_type(t):
        if isinstance(node, Arrow):
            out |= effect_props(node.effect)
    return frozenset(out)


def scheme_props(s: Scheme) -> frozenset[Name]:
    return type_props(s.body) | constraints_props(s.constraints)


def cert_props(cert: Cert) -> frozenset[Name]:
    """Guard propositions mentioned anywhere in the certificate."""
    if isinstance(cert, CVar):
        out: frozenset[Name] = frozenset()
        for _, e in cert.theta:
            out |= effect_props(e)
        return out
    if isinstance(cert, CAbs):
        return type_props(cert.param_type) | cert_props(cert.body)
    if isinstance(cert, CApp):
        return cert_props(cert.fn) | cert_props(cert.arg)
    if isinstance(cert, (CTAbs, CEAbs)):
        return cert_props(cert.body)
    if isinstance(cert, CTApp):
        return cert_props(cert.fn) | type_props(cert.arg)
    if isinstance(cert, CEApp):
        return cert_props(cert.fn) | effect_props(cert.arg)
    if isinstance(cert, CLet):
        return (scheme_props(cert.scheme) | cert_props(cert.bound)
                | cert_props(cert.body))
    if isinstance(cert, CSub):
        return (type_props(cert.typ) | effect_props(cert.effect)
                | cert_props(cert.inner))
    raise TypeError(f"not a certificate: {cert!r}")


def total_valuation_over_formula(outcome: CheckOutcome,
                                 certs: list) -> dict[Name, bool]:
    all_props: set[Name] = set(props(outcome.formula))
    all_props |= constraints_props(outcome.omega)
    for rec, cert in zip(outcome.records, certs):
        all_props |= cert_props(cert)
        all_props |= scheme_props(rec.gen.scheme)
    if outcome.main is not None:
        all_props |= cert_props(outcome.main.cert)
    return dict.fromkeys(all_props, False) | (outcome.witness or {})


# ---------------------------------------------------------------------------
# Effect builders merging part by part: the reference for `effects.effect_of`
# ---------------------------------------------------------------------------


def effect_of_map(entries: Mapping[Name, Formula]) -> Effect:
    """Build an effect from a var->guard map, dropping F-guarded atoms."""
    atoms = tuple(sorted(((n, g) for n, g in entries.items()
                          if not isinstance(g, Bot)),
                         key=lambda a: Name.KEY(a[0])))
    return Effect(atoms)


def join_parts(*effects: Effect) -> Effect:
    """Least upper bound: union of atoms, same-variable guards or-ed."""
    merged: dict[Name, Formula] = {}
    for e in effects:
        for name, g in e.atoms:
            if name in merged:
                merged[name] = disj2(merged[name], g)
            else:
                merged[name] = g
    return effect_of_map(merged)


def guard_parts(e: Effect, phi: Formula) -> Effect:
    """Guard every atom of e by phi (conjoined onto existing guards)."""
    return effect_of_map({n: conj2(g, phi) for n, g in e.atoms})


def subst_effect_parts(theta: Mapping[Name, Effect], e: Effect) -> Effect:
    """The join of one part per atom: the atom alone when theta leaves it,
    else its image guarded by the atom's guard; e itself when theta maps
    none of its atoms."""
    images = [theta.get(name) for name, _ in e.atoms]
    if not any(images):
        return e
    return join_parts(*(Effect((atom,)) if image is None
                        else guard_parts(image, atom[1])
                        for atom, image in zip(e.atoms, images)))


def eliminate_effect_parts(d: Discharger, e: Effect) -> Effect:
    """`Discharger.eliminate_effect` as the join of one single-atom effect
    per rigid atom and per (survivor, constant) pair."""
    rigid = set(d.rigid)
    parts = []
    for v, g in e.atoms:
        if v in rigid:
            parts.append(Effect(((v, g),)))
        else:
            for c in d.rigid:
                parts.append(Effect(
                    ((c, conj2(g, Prop(d.membership(v, c)))),)))
    return join_parts(*parts)


def omega_to_formula_scan(omega: Iterable[Constraint],
                          *alphas: Name) -> Formula:
    """`effects.omega_to_formula` reading each guard with `Effect.guard_of`,
    one scan of a side's atoms per constraint and alpha."""
    cs = sorted(omega, key=str)
    return conj(conj(impl(c.lhs.guard_of(a), c.rhs.guard_of(a)) for c in cs)
                for a in alphas)


# ---------------------------------------------------------------------------
# Rebuild-always substitutions: the reference for the identity fast paths
# ---------------------------------------------------------------------------


def subst_effect_rebuild(theta: Mapping[Name, Effect], e: Effect) -> Effect:
    return join_parts(*(guard_parts(theta[name], g) if name in theta
                        else Effect(((name, g),)) for name, g in e.atoms))


def subst_constraints_rebuild(theta: Mapping[Name, Effect],
                              omega: Iterable[Constraint]
                              ) -> frozenset[Constraint]:
    return constraint_set(Constraint(subst_effect_rebuild(theta, c.lhs),
                                     subst_effect_rebuild(theta, c.rhs))
                          for c in omega)


def subst_scheme_rebuild(theta: Mapping[Name, Effect], s: Scheme) -> Scheme:
    return Scheme(s.binders, subst_constraints_rebuild(theta, s.constraints),
                  subst_type_rec(theta, s.body))


def subst_cert_rebuild(theta: Mapping[Name, Effect], cert: Cert) -> Cert:
    def eff(e: Effect) -> Effect:
        return subst_effect_rebuild(theta, e)

    def typ(t: Type) -> Type:
        return subst_type_rec(theta, t)

    def sub(c: Cert) -> Cert:
        return subst_cert_rebuild(theta, c)

    if isinstance(cert, CVar):
        return CVar(tuple((n, eff(e)) for n, e in cert.theta))
    if isinstance(cert, CAbs):
        return CAbs(typ(cert.param_type), sub(cert.body))
    if isinstance(cert, CApp):
        return CApp(sub(cert.fn), sub(cert.arg))
    if isinstance(cert, (CTAbs, CEAbs)):
        return type(cert)(sub(cert.body))
    if isinstance(cert, CTApp):
        return CTApp(sub(cert.fn), typ(cert.arg))
    if isinstance(cert, CEApp):
        return CEApp(sub(cert.fn), eff(cert.arg))
    if isinstance(cert, CLet):
        return CLet(subst_scheme_rebuild(theta, cert.scheme), sub(cert.bound),
                    sub(cert.body))
    if isinstance(cert, CSub):
        return CSub(typ(cert.typ), eff(cert.effect), sub(cert.inner))
    raise TypeError(f"not a certificate: {cert!r}")


# Per-class certificate walks: the reference for the node-table ones
# ---------------------------------------------------------------------------


def _rebuilt(cert: Cert, *children) -> Cert:
    """cert itself if every child is the field it replaces, in the order of
    its class's `__slots__`, else a new node of its class."""
    if all(new is getattr(cert, f)
           for new, f in zip(children, cert.__slots__)):
        return cert
    return type(cert)(*children)


def subst_cert_per_class(theta: Mapping[Name, Effect], cert: Cert) -> Cert:
    """`declarative.subst_cert` written out per certificate class, returning
    every node whose children all come back unchanged itself."""
    if not theta:
        return cert
    if isinstance(cert, CVar):
        inst = tuple((n, subst_effect(theta, e)) for n, e in cert.theta)
        if all(new is old for (_, new), (_, old) in zip(inst, cert.theta)):
            return cert
        return CVar(inst)
    if isinstance(cert, CAbs):
        return _rebuilt(cert, subst_type(theta, cert.param_type),
                        subst_cert_per_class(theta, cert.body))
    if isinstance(cert, CApp):
        return _rebuilt(cert, subst_cert_per_class(theta, cert.fn),
                        subst_cert_per_class(theta, cert.arg))
    if isinstance(cert, (CTAbs, CEAbs)):
        return _rebuilt(cert, subst_cert_per_class(theta, cert.body))
    if isinstance(cert, CTApp):
        return _rebuilt(cert, subst_cert_per_class(theta, cert.fn),
                        subst_type(theta, cert.arg))
    if isinstance(cert, CEApp):
        return _rebuilt(cert, subst_cert_per_class(theta, cert.fn),
                        subst_effect(theta, cert.arg))
    if isinstance(cert, CLet):
        return _rebuilt(cert, subst_scheme(theta, cert.scheme),
                        subst_cert_per_class(theta, cert.bound),
                        subst_cert_per_class(theta, cert.body))
    if isinstance(cert, CSub):
        return _rebuilt(cert, subst_type(theta, cert.typ),
                        subst_effect(theta, cert.effect),
                        subst_cert_per_class(theta, cert.inner))
    raise TypeError(f"not a certificate: {cert!r}")


def render_cert_per_class(c: Cert) -> str:
    """`driver.render_cert` written out per certificate class: the same
    explicit-stack walk, each class pushing its own pieces."""
    out: list[str] = []
    stack: list[Cert | str] = [c]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif isinstance(node, CVar):
            inst = ", ".join(f"{n.text} := {e}" for n, e in node.theta)
            out.append(f"(var {{{inst}}})")
        elif isinstance(node, CAbs):
            stack += (")", node.body, f"(abs {node.param_type} ")
        elif isinstance(node, CApp):
            stack += (")", node.arg, " ", node.fn, "(app ")
        elif isinstance(node, CTAbs):
            stack += (")", node.body, "(tabs ")
        elif isinstance(node, CEAbs):
            stack += (")", node.body, "(eabs ")
        elif isinstance(node, CTApp):
            stack += (f" {node.arg})", node.fn, "(tapp ")
        elif isinstance(node, CEApp):
            stack += (f" [{node.arg}])", node.fn, "(eapp ")
        elif isinstance(node, CLet):
            stack += (")", node.body, " ", node.bound, f"(let {node.scheme} ")
        elif isinstance(node, CSub):
            stack += (")", node.inner, f"(sub {node.typ} [{node.effect}] ")
        else:
            raise TypeError(f"not a certificate: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Whole-clause-set DPLL
# ---------------------------------------------------------------------------


def whole_clause_solve(solver: _Solver | ReferenceSolver,
                       assumptions: Iterable[int] = ()) -> dict[int, bool] | None:
    """A model of every clause of solver together with the assumptions
    (var -> bool over variables 1..nvars), or None.

    The same static decision order as the solver (most occurrences first,
    then variable id), False first, chronological backtracking, so the
    model is the lexicographically least one in that order. Reads the
    clauses as given and keeps its own watch lists, so the solver's state
    is left as it was.
    """
    clauses = solver._clauses
    pairs = [[c[0], c[1]] for c in clauses]
    watches: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        watches.setdefault(c[0], []).append(ci)
        watches.setdefault(c[1], []).append(ci)
    assign: dict[int, bool] = {}
    trail: list[int] = []

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

    for lit in assumptions:
        if not enqueue(lit):
            return None
    if not propagate(0):
        return None

    order = sorted(range(1, solver.nvars + 1),
                   key=lambda v: (-solver._occ.get(v, 0), v))
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


class ReferenceSolver:
    """The clause store and Tseitin intake `solver._Solver` had before its
    `literal` folded constants, with the whole-clause DPLL for a search.

    `literal` makes a variable for every `T` and `F` and fixes it by a unit
    clause, and a three-clause gate for every connective, whatever its
    operands. `add_clause` drops a repeated literal and a tautology, and
    keeps a unit clause apart: with the committed roots, the units are
    assigned before the search, which is what `_fixed` did for the
    solver. A query is one `whole_clause_solve` under them.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.ids: dict[Name, int] = {}
        self._memo: dict[Formula, int] = {}
        self._clauses: list[tuple[int, ...]] = []
        self._occ: dict[int, int] = {}
        self._fixed: list[int] = []  # unit clauses and committed roots
        self._unsat = False
        self._model: dict[int, bool] | None = None

    def fresh_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def var_of(self, name: Name) -> int:
        if name not in self.ids:
            self.ids[name] = self.fresh_var()
        return self.ids[name]

    def add_clause(self, lits: Iterable[int]) -> None:
        out: list[int] = []
        for lit in lits:
            if -lit in out:
                return
            if lit not in out:
                out.append(lit)
        if not out:
            self._unsat = True
        elif len(out) == 1:
            self._fixed.append(out[0])
        else:
            self._clauses.append(tuple(out))
            for lit in out:
                self._occ[abs(lit)] = self._occ.get(abs(lit), 0) + 1

    def literal(self, phi: Formula) -> int:
        """The Tseitin literal for phi, a variable; its definition clauses
        added one at a time."""
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
                gate = ([-v, a], [-v, b], [v, -a, -b])
            elif isinstance(f, Or):
                gate = ([-v, a, b], [v, -a], [v, -b])
            else:
                gate = ([-v, -a, b], [v, a], [v, -b])
            for clause in gate:
                self.add_clause(clause)
            memo[f] = v
            stack.pop()
        return memo[phi]

    def commit(self, lit: int) -> None:
        self._fixed.append(lit)

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        self._model = None if self._unsat else whole_clause_solve(
            self, (*self._fixed, *assumptions))
        return self._model is not None

    def value(self, var: int) -> bool:
        return self._model[var]


class ReferenceSession:
    """`solver.SolverSession` over `ReferenceSolver`: every formula encoded
    and every query solved, constants included."""

    def __init__(self) -> None:
        self.formula: Formula = TOP
        self.solver = ReferenceSolver()

    def admits(self, phi: Formula) -> bool:
        return self.solver.satisfiable((self.solver.literal(phi),))

    def push(self, phi: Formula) -> bool:
        if not self.admits(phi):
            return False
        self.commit(phi)
        return True

    def commit(self, phi: Formula) -> None:
        """Add phi, already admitted, to the session."""
        self.solver.commit(self.solver.literal(phi))
        self.formula = conj2(self.formula, phi)

    def model(self) -> dict[Name, bool] | None:
        if not self.solver.satisfiable():
            return None
        return {p: self.solver.value(i) for p, i in self.solver.ids.items()}


# ---------------------------------------------------------------------------
# Character-at-a-time lexer
# ---------------------------------------------------------------------------

_PUNCT = ("=>", "->", "\\/", "(", ")", "[", "]", ":", ".", "=", "_")


def tokenize_chars(src: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token of src, ending with eof."""
    toks: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append((p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise SourceError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Recursive parser
# ---------------------------------------------------------------------------


def type_is_wildcard_free(st: SynType) -> bool:
    if isinstance(st, SArrow):
        return (type_is_wildcard_free(st.param)
                and not effect_parts(st.effect)[1]
                and type_is_wildcard_free(st.result))
    if isinstance(st, (SForallTyp, SForallEff)):
        return type_is_wildcard_free(st.body)
    return True


class RecursiveParser(Parser):
    """`efl.syntax.Parser` as it was before it read application spines,
    parenthesised operands and arrow chains in loops: one call per atom,
    per parenthesis and per arrow, and an extern's type checked for
    wildcards by a walk after it is parsed."""

    def parse_type(self) -> SynType:
        lhs = self.parse_type_atom()
        if self.kinds[self.pos] == "->":
            self.next()
            eff: SynEffect = SEPure()
            if self.kinds[self.pos] == "[":
                self.next()
                if self.kinds[self.pos] != "]":
                    eff = self.parse_effect()
                self.expect("]")
            rhs = self.parse_type()
            return SArrow(lhs, eff, rhs)
        return lhs

    def _continues_application(self) -> bool:
        i = self.pos
        return self.lines[i] == self.lines[i - 1] or self.depth[i] > 0

    def parse_app(self) -> Expr:
        out = self.parse_atom_expr()
        while self._continues_application():
            kind = self.kinds[self.pos]
            if kind == "[":
                self.next()
                out = self.parse_instantiation(out)
                continue
            if kind == "ident" or kind == "(":
                out = App(out, self.parse_atom_expr())
                continue
            break
        return out

    def parse_atom_expr(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind == "ident":
            return Var(self.lookup(KIND_EXPR, self.next()))
        if kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise self.expected("an expression")

    def parse_decl(self, alone: bool = False):
        kinds = {"effect": KIND_EFF, "type": KIND_TYPE, "extern": KIND_EXPR}
        word = self.texts[self.pos]
        if self.kinds[self.pos] != "kw" or word not in kinds:
            return None
        self.next()
        kind = kinds[word]
        tok = self.ident()
        text = self.texts[tok]
        if (kind, text) in self.scope:
            raise self.error(f"duplicate declaration of {text!r}", tok)
        if kind != KIND_EXPR:
            name = self.bind(kind, tok)
            if alone:
                self.expect("eof", "end of input")
            return (word, name, None)
        self.expect(":")
        ty = self.parse_type()
        if not type_is_wildcard_free(ty):
            raise self.error(f"extern {text!r} has a wildcard in its type",
                             tok)
        if alone:
            self.expect("eof", "end of input")
        return ("extern", self.bind(KIND_EXPR, tok), ty)


# ---------------------------------------------------------------------------
# Dataclass mirrors of the value classes
# ---------------------------------------------------------------------------

# Each value class and its fields in declaration order, as its dataclass
# declared them. And, Or and Implies inherited theirs from one dataclass,
# _Binary, whose cached hash was neither compared nor shown.
DATACLASS_FIELDS: dict[type, tuple[str, ...]] = {
    Name: ("text", "kind", "uid"),
    Top: (), Bot: (), Prop: ("name",), And: ("lhs", "rhs"),
    Or: ("lhs", "rhs"), Implies: ("lhs", "rhs"),
    Effect: ("atoms",), TVar: ("name",),
    Arrow: ("param", "effect", "result"), ForallTyp: ("binder", "body"),
    ForallEff: ("binder", "body"), Constraint: ("lhs", "rhs"),
    Scheme: ("binders", "constraints", "body"),
    SEVar: ("name",), SEPure: (), SEWild: (), SEJoin: ("parts",),
    STVar: ("name",), SArrow: ("param", "effect", "result"),
    SForallTyp: ("binder", "body"), SForallEff: ("binder", "body"),
    Var: ("name",), Lam: ("param", "ann", "body"), App: ("fn", "arg"),
    Let: ("name", "bound", "body"), TLam: ("binder", "body"),
    ELam: ("binder", "body"), TyApp: ("fn", "arg"), EfApp: ("fn", "arg"),
    Program: ("effects", "types", "externs", "defs", "main"),
    CVar: ("theta",), CAbs: ("param_type", "body"), CApp: ("fn", "arg"),
    CTAbs: ("body",), CEAbs: ("body",), CTApp: ("fn", "arg"),
    CEApp: ("fn", "arg"), CLet: ("scheme", "bound", "body"),
    CSub: ("typ", "effect", "inner"),
    Config: ("mode",),
    InferResult: ("gen", "type", "effect", "constraints", "formula", "cert"),
    Generalized: ("scheme", "gen", "omega_p", "formula", "theta"),
    DefRecord: ("name", "expr", "res", "gen"),
    CheckOutcome: ("status", "stdout_lines", "error", "exit_code", "externs",
                   "omega", "formula", "witness", "records", "main",
                   "main_expr", "discharger", "props"),
}

# The two that were plain, mutable dataclasses; the rest were frozen.
MUTABLE_CLASSES = frozenset((DefRecord, CheckOutcome))


def dataclass_mirror(cls: type) -> type:
    """The dataclass cls was: its name and fields, frozen unless it is
    mutable, with the `__repr__` that Name wrote for itself."""
    namespace = {"__repr__": Name.__repr__} if cls is Name else {}
    return make_dataclass(cls.__name__, DATACLASS_FIELDS[cls],
                          frozen=cls not in MUTABLE_CLASSES,
                          namespace=namespace)
