"""Shared builders for the test suite."""
from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from efl.declarative import (CertificateError, ReplayScope, check_certificate,
                             subtype_holds)
from efl.driver import CheckOutcome, Discharger, check_program
from efl.effects import (Constraint, Effect, Scheme, effect_of,
                         free_eff_vars_constraints, free_eff_vars_type)
from efl.formulas import (BOT, TOP, Formula, Prop, conj2, disj2, evaluate,
                          neg, props)
from efl.inference import Config
from efl.names import (KIND_EFF, KIND_PROP, KIND_TYPE, Name, NameSupply,
                       Record)
from efl.solver import SolverSession
from efl.syntax import (App, EfApp, ELam, Expr, Lam, Let, Parser, Scope,
                        SynType, TLam, TyApp, Var, _columns, _scan,
                        parse_program)

_uids = itertools.count(10_000)


class Names:
    """A per-test pool of names: same (kind, text) gives the same Name."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], Name] = {}

    def _get(self, kind: str, text: str) -> Name:
        key = (kind, text)
        if key not in self._cache:
            self._cache[key] = Name(text, kind, next(_uids))
        return self._cache[key]

    def eff(self, text: str) -> Name:
        return self._get(KIND_EFF, text)

    def prop(self, text: str) -> Name:
        return self._get(KIND_PROP, text)

    def typ(self, text: str) -> Name:
        return self._get(KIND_TYPE, text)

    def p(self, text: str) -> Prop:
        return Prop(self.prop(text))

    def ev(self, text: str) -> Effect:
        return Effect.var(self.eff(text))

    def atom(self, text: str, guard) -> Effect:
        return Effect(((self.eff(text), guard),))


def value_classes() -> list[type]:
    """Every `Record` subclass that a module of the package defines, by
    name."""
    todo, out = [Record], []
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("efl."):
            out.append(cls)
    return sorted(out, key=lambda c: c.__qualname__)


def scope_of(*names: Name) -> dict[tuple[str, str], Name]:
    """A parser scope binding each name's text to it."""
    return {(n.kind, n.text): n for n in names}


def con(lhs: Effect, rhs: Effect) -> Constraint:
    return Constraint(lhs, rhs)


def tautology(phi: Formula) -> bool:
    """Truth-table validity: the oracle for SAT-based entailment checks."""
    return all(evaluate(phi, rho) for rho in all_valuations(props(phi)))


def all_valuations(names: Iterable[Name]) -> Iterator[dict[Name, bool]]:
    """Every valuation over `names`, in a deterministic order."""
    order = sorted(set(names), key=Name.KEY)
    for bits in itertools.product((False, True), repeat=len(order)):
        yield dict(zip(order, bits))


def formulas_equivalent(a: Formula, b: Formula) -> bool:
    """Truth-table equivalence (intended for small guard formulas)."""
    names = props(a) | props(b)
    return all(evaluate(a, rho) == evaluate(b, rho)
               for rho in all_valuations(names))


def disj(parts: Iterable[Formula]) -> Formula:
    out: Formula = BOT
    for p in parts:
        out = disj2(out, p)
    return out


def to_formula(e: Effect, alpha: Name) -> Formula:
    """Presence of alpha in e, as a formula over the guards' props."""
    return e.guard_of(alpha)


class Token(NamedTuple):
    kind: str  # "ident", "kw", punctuation text, or "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """The tokens of src as one record each: the lexer's parallel lists,
    zipped with the columns that `_columns` works out for an error."""
    kinds, texts, lines, depth = _scan(src)
    cols = _columns(src)
    assert len(cols) == len(kinds) == len(texts) == len(lines) == len(depth)
    return list(map(Token, kinds, texts, lines, cols))


def guard(e: Effect, phi: Formula) -> Effect:
    """Guard every atom of e by phi (conjoined onto existing guards)."""
    return effect_of((n, conj2(g, phi)) for n, g in e.atoms)


# -- expressions: parsed alone and printed back ------------------------------


def parse_expr(src: str, supply: NameSupply,
               scope: Scope | None = None) -> Expr:
    p = Parser(src, supply, scope)
    e = p.parse_expr()
    p.expect("eof", "end of input")
    return e


def parse_type(src: str, supply: NameSupply,
               scope: Scope | None = None) -> SynType:
    p = Parser(src, supply, scope)
    t = p.parse_type()
    p.expect("eof", "end of input")
    return t


def expr_str(e: Expr) -> str:
    """Source text that parses back to e: an operand that is not a
    variable, and an operator that is not an application spine, in
    parentheses."""
    if isinstance(e, Var):
        return e.name.text
    if isinstance(e, Lam):
        return f"fn ({e.param.text} : {e.ann}) => {expr_str(e.body)}"
    if isinstance(e, Let):
        return (f"let {e.name.text} = {expr_str(e.bound)} in "
                f"{expr_str(e.body)}")
    if isinstance(e, (TLam, ELam)):
        word = "tfun" if isinstance(e, TLam) else "efun"
        return f"{word} {e.binder.text} => {expr_str(e.body)}"
    fn = expr_str(e.fn)
    if not isinstance(e.fn, (Var, App, TyApp, EfApp)):
        fn = f"({fn})"
    if isinstance(e, TyApp):
        return f"{fn} [type {e.arg}]"
    if isinstance(e, EfApp):
        return f"{fn} [eff {e.arg}]"
    arg = expr_str(e.arg)
    return f"{fn} {arg}" if isinstance(e.arg, Var) else f"{fn} ({arg})"


def free_eff_vars_scheme(s: Scheme) -> frozenset[Name]:
    inner = free_eff_vars_type(s.body) | free_eff_vars_constraints(
        s.constraints)
    return inner - set(s.binders)


def fixed(session: SolverSession) -> dict[Name, bool]:
    """The propositions of the session formula that take one polarity in
    every model (its backbone), each with that polarity.

    One model, then one probe per proposition for a model that flips it.
    """
    model = session.model()
    out = {}
    for p in sorted(props(session.formula), key=Name.KEY):
        i = session._solver.ids[p]
        flip = -i if model[p] else i
        if not session._solver.satisfiable((flip,)):
            out[p] = model[p]
    return out


def effect_props(e: Effect) -> frozenset[Name]:
    """The guard propositions of e's atoms."""
    out: frozenset[Name] = frozenset()
    for _, g in e.atoms:
        out |= props(g)
    return out


def erase_guards(e: Effect, rho: Mapping[Name, bool]) -> Effect:
    """Keep the atoms whose guard holds under rho, with guard T."""
    return effect_of((n, TOP) for n, g in e.atoms if evaluate(g, rho))


def effects_equal(e1: Effect, e2: Effect) -> bool:
    """Semantic equality: same erased atoms under every valuation."""
    names = effect_props(e1) | effect_props(e2)
    return all(erase_guards(e1, rho) == erase_guards(e2, rho)
               for rho in all_valuations(names))


def types_equivalent(omega, rho: Mapping[Name, bool], t1, t2) -> bool:
    scope = ReplayScope(omega, rho)
    return subtype_holds(scope, t1, t2) and subtype_holds(scope, t2, t1)


def certificate_valid(omega: frozenset, rho: Mapping[Name, bool],
                      gamma: Mapping, expr, cert) -> bool:
    try:
        check_certificate(ReplayScope(omega, rho), gamma, expr, cert)
        return True
    except CertificateError:
        return False


def memberships(d: Discharger) -> list[Name]:
    """The discharger's membership propositions, by (variable, constant)."""
    return [d._member[k] for k in sorted(d._member,
                                         key=lambda k: (Name.KEY(k[0]),
                                                        Name.KEY(k[1])))]


def sat(phi: Formula) -> dict[Name, bool] | None:
    """A model of phi over its named propositions, or None if UNSAT."""
    session = SolverSession()
    for p in sorted(props(phi), key=Name.KEY):
        session._solver.var_of(p)
    return session.model() if session.push(phi) else None


def sat_enumerate(phi: Formula, limit: int = 64) -> Iterator[dict[Name, bool]]:
    """Up to `limit` distinct models over phi's propositions."""
    session = SolverSession()
    names = sorted(props(phi), key=Name.KEY)
    for p in names:
        session._solver.var_of(p)
    if not session.push(phi):
        return
    for _ in range(limit):
        rho = session.model()
        yield rho
        block = disj(neg(Prop(p)) if rho[p] else Prop(p) for p in names)
        if not session.push(block):
            return


# -- programs: the corpus and four generated families ------------------------

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
G_HEADER = ("effect IO\neffect DB\ntype Int\n"
            "extern f : (Int ->[IO] Int) ->[DB] Int\n")
G_BODY = ("fn (h : forall eff a. Int ->[_] Int) => "
          "(h [eff _]) (f (h [eff _]))")


def g_example_source(n: int) -> str:
    """The header of g_example.efl and n independent copies of g."""
    return G_HEADER + "".join(f"let g{i} = {G_BODY}\n" for i in range(n))


def chain_source(n: int) -> str:
    """The same header and n definitions, each using the one before."""
    defs = [f"let g0 = {G_BODY}"] + [
        f"let g{i} = fn (h : forall eff a. Int ->[_] Int) => "
        f"g{i - 1} (efun b => fn (x : Int) => (h [eff _]) x)"
        for i in range(1, n)]
    return G_HEADER + "\n".join(defs) + "\n"


def nest_source(n: int) -> str:
    """f (f (... x)), n applications deep."""
    body = "x"
    for _ in range(n):
        body = f"f ({body})"
    return ("effect IO\ntype Int\nextern f : Int ->[IO] Int\n"
            f"let r = fn (x : Int) => {body}\n")


def wild_nest_source(n: int) -> str:
    """g (g (... x)), n applications deep, of a parameter g whose arrow
    carries a wildcard effect."""
    body = "x"
    for _ in range(n):
        body = f"g ({body})"
    return ("type Int\nlet r = fn (g : Int ->[_] Int) => "
            f"fn (x : Int) => {body}\n")


def spine_source(n: int) -> str:
    """k u u ... u: one application spine with n arguments."""
    k_type = " -> ".join(["Unit"] * (n + 1))
    return (f"type Unit\nextern u : Unit\nextern k : {k_type}\n"
            f"k{' u' * n}\n")


def cf_grid_source(k: int, constrained: bool) -> str:
    """A binding whose constraint-free grid has 2^(2k+1) variables and no
    constraint, `fn (g : A) => g` with A a chain of k wildcard arrows; or,
    constrained, one with 2^(k+3) variables whose wildcard `reg` bounds by
    IO, `fn (g : Int ->[_] Int) => fn (h : A) => reg g`."""
    arrows = "Int" + " ->[_] Int" * k
    if not constrained:
        return f"type Int\nlet f = fn (g : {arrows}) => g\n"
    return ("effect IO\ntype Int\nextern reg : (Int ->[IO] Int) ->[] Int\n"
            f"let f = fn (g : Int ->[_] Int) => fn (h : {arrows}) => reg g\n")


# (name, source): every corpus program, g_example x8 and chain x5
SOURCES = ([(p.stem, p.read_text()) for p in sorted(PROGRAMS.glob("*.efl"))]
           + [("g_example_x8", g_example_source(8)),
              ("chain_x5", chain_source(5))])


def front_end_sources() -> list[str]:
    """The programs the lexer and parser are compared with their oracles
    on: SOURCES, larger g_example and chain programs, random programs in
    both modes, and nest and spine programs small enough for the
    recursive oracles."""
    from oracles import gen_program  # oracles imports this module
    return ([src for _, src in SOURCES]
            + [g_example_source(40), chain_source(12)]
            + [gen_program(seed, mode=mode) for seed in range(40)
               for mode in ("constrained", "constraint-free")]
            + [nest_source(n) for n in (1, 50, 200)]
            + [spine_source(n) for n in (1, 50, 200)])


def check_source(src: str, mode: str = "constrained") -> CheckOutcome:
    supply = NameSupply()
    return check_program(parse_program(src, supply), supply,
                         Config(mode=mode))
