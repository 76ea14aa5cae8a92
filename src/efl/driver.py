"""Whole-program checking: the pipeline behind `efl check` and the REPL.

Definitions are inferred in order, each one generalized like a let binding,
its propagated constraints discharged over the declared effect constants and
pushed into an incremental SAT session. Effect variables that escape to the
top level (instantiation variables of earlier definitions) are eliminated
before discharge: each one is re-expressed as a guarded join over the rigid
constants with fresh persistent "membership" propositions, so the solver gets
to pick which constants the variable stands for. On success the session's
model is the witness valuation under which every emitted certificate must
replay. `TopLevel` holds this state; `check_program` feeds it a program's
items and the REPL one input at a time.
"""
from __future__ import annotations

import itertools
import re

from .declarative import (CVar, Cert, CertificateError, ReplayScope,
                          check_certificate)
from .effects import (Constraint, Effect, Scheme, Type, constraint_set,
                      free_eff_vars_constraints, effect_of, free_eff_vars_type,
                      mono, omega_to_formula, sorted_constraints, subst_scheme)
from .formulas import Formula, Prop, conj2, disj2, neg
from .inference import (Config, InferError, InferResult, generalize,
                        generalized_cert, infer, normalize, tr_type)
from .names import KIND_EFF, KIND_PROP, Name, NameSupply, Record
from .solver import SolverSession, satisfiable
from .syntax import Expr, Program, SynType


class Discharger:
    """Eliminates surviving effect variables and discharges constraint sets.

    Membership propositions are persistent: the same (variable, constant)
    pair always maps to the same proposition, so constraints pushed across
    several definitions agree on what the shared survivors mean.
    """

    def __init__(self, rigid: tuple[Name, ...], supply: NameSupply) -> None:
        self.rigid = tuple(sorted(set(rigid), key=Name.KEY))
        self.supply = supply
        self._member: dict[tuple[Name, Name], Name] = {}

    def add_rigid(self, name: Name) -> None:
        """Admit a new constant (REPL use). Formulas already pushed keep the
        elimination they were given; only later discharges see the newcomer."""
        self.rigid = tuple(sorted(set(self.rigid) | {name}, key=Name.KEY))

    def membership(self, var: Name, const: Name) -> Name:
        key = (var, const)
        if key not in self._member:
            self._member[key] = self.supply.fresh(
                KIND_PROP, f"m_{var.text}_{const.text}")
        return self._member[key]

    def eliminate_effect(self, e: Effect) -> Effect:
        rigid = set(self.rigid)
        atoms = []
        for v, g in e.atoms:
            if v in rigid:
                atoms.append((v, g))
            else:
                atoms.extend((c, conj2(g, Prop(self.membership(v, c))))
                             for c in self.rigid)
        return effect_of(atoms)

    def eliminate(self, omega) -> frozenset:
        return constraint_set(
            Constraint(self.eliminate_effect(c.lhs),
                       self.eliminate_effect(c.rhs))
            for c in omega)

    def formula_for(self, omega) -> Formula:
        """Discharge omega over the rigid constants, survivors eliminated."""
        return omega_to_formula(self.eliminate(omega), *self.rigid)


# ---------------------------------------------------------------------------
# Display helpers
# ---------------------------------------------------------------------------


# The words of a printed scheme. Every name text, whether the lexer read it or
# the supply minted it, is one such word; the printers' only other words are
# forall, typ, eff, pure, T and F, which no display letter can equal.
_WORD = re.compile(r"[\w']+")


def _display_letters() -> itertools.chain:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return itertools.chain(alphabet,
                           (f"{c}{i}" for i in itertools.count(1)
                            for c in alphabet))


def simplify_constraints(omega, protected: frozenset) -> frozenset:
    """Smaller constraint set entailing (and entailed by, when every variable
    is protected) the original.

    Drops constraints whose RHS already covers the LHS atom guard-wise,
    merges constraints sharing variable and RHS by or-ing guards, and drops
    constraints bounding an unprotected variable that occurs nowhere else.
    """
    kept: list[Constraint] = []
    for c in sorted_constraints(normalize(omega)):
        v, psi = c.lhs.atoms[0]
        if satisfiable(conj2(psi, neg(c.rhs.guard_of(v)))):
            kept.append(c)

    groups: dict[tuple[Name, Effect], Formula] = {}
    for c in kept:
        v, psi = c.lhs.atoms[0]
        key = (v, c.rhs)
        groups[key] = disj2(groups[key], psi) if key in groups else psi
    merged = [Constraint(Effect(((v, g),)), rhs)
              for (v, rhs), g in groups.items()]

    occurrences: dict[Name, int] = {}
    for c in merged:
        for n in c.lhs.atom_names() | c.rhs.atom_names():
            occurrences[n] = occurrences.get(n, 0) + 1
    out = []
    for c in merged:
        v, _ = c.lhs.atoms[0]
        if v not in protected and occurrences[v] == 1:
            continue
        out.append(c)
    return frozenset(out)


def display_scheme(s: Scheme, simplify: bool = True) -> str:
    """Human form: constraints simplified, binders renamed a, b, c, ..."""
    if simplify:
        body_vars = free_eff_vars_type(s.body)
        omega = simplify_constraints(s.constraints, body_vars)
        live = body_vars | free_eff_vars_constraints(omega)
        binders = [b for b in s.binders if b in live]
    else:
        omega = s.constraints
        binders = list(s.binders)
    # Binders stay out: under --no-simplify a dead one would add a word.
    used_texts = set(_WORD.findall(str(Scheme((), omega, s.body))))
    rename: dict[Name, Effect] = {}
    letters = _display_letters()
    fresh_uid = itertools.count(10 ** 9)
    for b in binders:
        text = next(t for t in letters if t not in used_texts)
        used_texts.add(text)
        rename[b] = Effect.var(Name(text, KIND_EFF, next(fresh_uid)))
    shown = subst_scheme(rename, Scheme(tuple(rename[b].atoms[0][0]
                                              for b in binders), omega,
                                        s.body))
    return str(shown)


def display_type_and_effect(t: Type, e: Effect) -> str:
    eff = "" if e.is_pure() else str(e)
    return f"{t} @ [{eff}]"


def render_cert(c: Cert) -> str:
    """Deterministic s-expression form of a certificate (for --dump-cert):
    `(RULE field ...)`, the fields in `__slots__` order and an effect in
    brackets. One explicit-stack walk writes it, so that a certificate as
    deep as the program prints."""
    out: list[str] = []
    stack: list[Cert | str] = [c]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif type(node) is CVar:
            inst = ", ".join(f"{n.text} := {e}" for n, e in node.theta)
            out.append(f"(var {{{inst}}})")
        else:
            stack.append(")")
            for f in reversed(node.__slots__):
                x = getattr(node, f)
                if not isinstance(x, Cert):
                    x = f"[{x}]" if isinstance(x, Effect) else str(x)
                stack += (x, " ")
            stack.append(f"({node.RULE}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Whole-program checking
# ---------------------------------------------------------------------------


class DefRecord(Record):
    __slots__ = ("name", "expr", "res", "gen")


class CheckOutcome(Record):
    """What checking a program found. `status` is "ok", "unsat" or
    "infer-error"; `props` is every guard proposition the run's supply
    minted, in order."""

    __slots__ = ("status", "stdout_lines", "error", "exit_code", "externs",
                 "omega", "formula", "witness", "records", "main",
                 "main_expr", "discharger", "props")

    def stdout(self) -> str:
        return "".join(line + "\n" for line in self.stdout_lines)


def prepare_definition(gamma: dict, name: Name, expr: Expr,
                       supply: NameSupply, config: Config,
                       discharger: Discharger) -> tuple[DefRecord, Formula]:
    """Infer + generalize one definition; the returned formula is what must
    be pushed for it to be accepted. Raises InferError."""
    res = infer(gamma, expr, supply, config)
    gen = generalize(res, supply, config)
    phi = conj2(res.formula,
                conj2(gen.formula, discharger.formula_for(gen.omega_p)))
    return DefRecord(name, expr, res, gen), phi


def prepare_expression(gamma: dict, expr: Expr, supply: NameSupply,
                       config: Config,
                       discharger: Discharger) -> tuple[InferResult, Formula]:
    """Infer a top-level expression (no generalization, effects allowed)."""
    res = infer(gamma, expr, supply, config)
    phi = conj2(res.formula, discharger.formula_for(res.constraints))
    return res, phi


class TopLevel:
    """The state a sequence of top-level items builds up: the environment
    gamma, the discharger, the solver session and the accumulated omega.

    `efl check` feeds it a program's items in order and `efl repl` one input
    at a time. An input it rejects, by InferError or by a None result for
    unsatisfiable constraints, leaves gamma, omega and the session formula
    as they were.
    """

    def __init__(self, rigid: tuple[Name, ...], supply: NameSupply,
                 config: Config) -> None:
        self.supply = supply
        self.config = config
        self.discharger = Discharger(rigid, supply)
        self.session = SolverSession()
        self.gamma: dict[Name, Scheme] = {}
        self.omega: set[Constraint] = set()

    def add_extern(self, name: Name, st: SynType) -> Type:
        _, t = tr_type(st, self.supply)
        self.gamma[name] = mono(t)
        return t

    def add_definition(self, name: Name, expr: Expr) -> DefRecord | None:
        rec, phi = prepare_definition(self.gamma, name, expr, self.supply,
                                      self.config, self.discharger)
        if not self.session.push(phi):
            return None
        self.omega |= rec.gen.omega_p
        self.gamma[name] = rec.gen.scheme
        return rec

    def add_expression(self, expr: Expr) -> InferResult | None:
        res, phi = prepare_expression(self.gamma, expr, self.supply,
                                      self.config, self.discharger)
        if not self.session.push(phi):
            return None
        self.omega |= res.constraints
        return res

    def type_of(self, expr: Expr) -> InferResult | None:
        """Infer expr as add_expression would, committing nothing."""
        res, phi = prepare_expression(self.gamma, expr, self.supply,
                                      self.config, self.discharger)
        return res if self.session.admits(phi) else None


def check_program(program: Program, supply: NameSupply, config: Config,
                  display_simplify: bool = True) -> CheckOutcome:
    """Infer, generalize, discharge and report every definition in order."""
    top = TopLevel(program.effects, supply, config)
    for name, st in program.externs:
        top.add_extern(name, st)
    externs = dict(top.gamma)
    lines: list[str] = []
    records: list[DefRecord] = []

    def outcome(status: str = "ok", error: str | None = None,
                main: InferResult | None = None) -> CheckOutcome:
        return CheckOutcome(
            status, lines, error, 0 if error is None else 1, externs,
            frozenset(top.omega), top.session.formula,
            None if error else top.session.model(), records, main,
            program.main, top.discharger, tuple(supply.props))

    for name, expr in program.defs:
        try:
            rec = top.add_definition(name, expr)
        except InferError as ex:
            return outcome("infer-error",
                           f"error: in definition '{name.text}': {ex}")
        if rec is None:
            return outcome(
                "unsat",
                f"error: effect constraints unsatisfiable at definition "
                f"'{name.text}'")
        records.append(rec)
        lines.append(f"{name.text} : "
                     f"{display_scheme(rec.gen.scheme, display_simplify)}")

    if program.main is None:
        return outcome()
    try:
        res = top.add_expression(program.main)
    except InferError as ex:
        return outcome("infer-error", f"error: in final expression: {ex}")
    if res is None:
        return outcome("unsat", "error: effect constraints unsatisfiable in "
                                "the final expression")
    lines.append("it : " + display_type_and_effect(res.type, res.effect))
    return outcome(main=res)


def total_valuation(outcome: CheckOutcome) -> dict[Name, bool]:
    """The witness extended with False over every proposition the run's
    supply minted. Replay reads no other: every proposition is minted by
    `NameSupply.fresh`, which records it."""
    return dict.fromkeys(outcome.props, False) | (outcome.witness or {})


def wrapped_cert(rec: DefRecord) -> Cert:
    """The definition's certificate as used at top level."""
    return generalized_cert(rec.gen, rec.res.cert)


def verify_certificates(outcome: CheckOutcome) -> None:
    """Replay every certificate under the witness; CertificateError on any
    mismatch. Only meaningful for an "ok" outcome.

    Each definition replays under the externs and the definitions before
    it: every `let` binds a freshly minted Name, so none shadows another."""
    scope = ReplayScope(outcome.omega, total_valuation(outcome))
    gamma = dict(outcome.externs)
    for rec in outcome.records:
        scheme = rec.gen.scheme
        check_certificate(scope.extend(scheme.constraints), gamma, rec.expr,
                          wrapped_cert(rec))
        gamma[rec.name] = scheme
    if outcome.main is not None:
        t, e = check_certificate(scope, gamma, outcome.main_expr,
                                 outcome.main.cert)
        if t != outcome.main.type or e != outcome.main.effect:
            raise CertificateError(
                "toplevel", "final expression's certificate derives a "
                            "different judgement than reported")
