"""Workload generators: the scaled program families and random programs.

Every generator returns source text and depends only on its arguments, so
one seed always gives the same inputs. Nothing here imports `efl`: the
inputs do not depend on the checker they measure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# The declarations of programs/g_example.efl.
G_HEADER = """\
effect IO
effect DB
type Int
extern f : (Int ->[IO] Int) ->[DB] Int
"""

G_BODY = "fn (h : forall eff a. Int ->[_] Int) => (h [eff _]) (f (h [eff _]))"


def chain_body(prev: str) -> str:
    return (f"fn (h : forall eff a. Int ->[_] Int) => "
            f"{prev} (efun b => fn (x : Int) => (h [eff _]) x)")


def g_example(n: int, stem: str = "g") -> str:
    """g_example×N: N independent copies of g sharing only the header."""
    defs = "".join(f"let {stem}{i} = {G_BODY}\n" for i in range(1, n + 1))
    return G_HEADER + defs


def chain(n: int, stem: str = "g") -> str:
    """chain×N: g0 as in g_example, then each g_i calls g_{i-1}."""
    lines = [f"let {stem}0 = {G_BODY}"]
    lines += [f"let {stem}{i} = {chain_body(f'{stem}{i - 1}')}"
              for i in range(1, n + 1)]
    return G_HEADER + "\n".join(lines) + "\n"


NEST_ANSWER = "r : Int ->[IO] Int"
SPINE_ANSWER = "it : Unit @ []"


def nest(n: int) -> str:
    """nest×N: f (f (... x)), N applications deep."""
    body = "x"
    for _ in range(n):
        body = f"f ({body})"
    return ("effect IO\ntype Int\nextern f : Int ->[IO] Int\n"
            f"let r = fn (x : Int) => {body}\n")


def spine(n: int) -> str:
    """spine×N: k u u ... u, one application spine with N arguments."""
    k_type = " -> ".join(["Unit"] * (n + 1))
    return (f"type Unit\nextern u : Unit\nextern k : {k_type}\n"
            f"k{' u' * n}\n")


# ---------------------------------------------------------------------------
# Random well-shaped programs
# ---------------------------------------------------------------------------
#
# Shapes are types without effects: "U" (Unit), "I" (Int), ("->", p, r) and
# ("E", arrow) for `forall eff`. Expressions are built to a target shape,
# every quantified value is instantiated before it is applied, and let-bound
# expressions are generated pure, so no program can fail on shape; effect
# annotations are random, so some programs are rejected for unsatisfiable
# effect constraints, which is a verdict like any other.

RANDOM_PRELUDE = """\
effect IO
effect DB
type Unit
type Int
extern unit : Unit
extern zero : Int
extern succ : Int ->[] Int
extern io : Unit ->[IO] Unit
extern db : Unit ->[DB] Unit
extern then : Unit ->[] Unit ->[] Unit
extern guarded : (Unit ->[IO \\/ DB] Unit) ->[IO \\/ DB] Unit
extern wrap : forall eff w. (Unit ->[w] Unit) ->[] (Unit ->[w] Unit)
extern rep : forall eff w. (Unit ->[w] Unit) ->[w] Unit
"""

U, I = "U", "I"
UU = ("->", U, U)

# name, shape, whether calling it is pure
_PRELUDE_ENV = (
    ("unit", U, True), ("zero", I, True), ("succ", ("->", I, I), True),
    ("io", UU, False), ("db", UU, False),
    ("then", ("->", U, ("->", U, U)), True),
    ("guarded", ("->", UU, U), False),
    ("wrap", ("E", ("->", UU, UU)), True),
    ("rep", ("E", ("->", UU, U)), False),
)


def _arrows(s) -> int:
    if s[0] == "->":
        return 1 + _arrows(s[1]) + _arrows(s[2])
    if s[0] == "E":
        return _arrows(s[1])
    return 0


@dataclass
class _Random:
    rng: random.Random
    mode: str
    counter: int = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def shape(self, depth: int):
        r = self.rng.random()
        if depth == 0 or r < 0.4:
            return U if self.rng.random() < 0.75 else I
        arrow = ("->", self.shape(depth - 1), self.shape(depth - 1))
        return ("E", arrow) if r > 0.75 else arrow

    def def_shape(self):
        # Constraint-free mode mints 2^arrows binders per generalization;
        # past three arrows it rejects the definition by design.
        while True:
            s = self.shape(2)
            if self.mode == "constrained" or _arrows(s) <= 3:
                return s

    def effect(self, evars: list[str], wild: bool = True) -> str:
        r = self.rng.random()
        if wild and r < 0.45:
            return "_"
        if r < 0.65:
            return ""
        pool = ["IO", "DB"] + evars
        return " \\/ ".join(self.rng.sample(pool, self.rng.randint(1, min(2, len(pool)))))

    def annotation(self, s, evars: list[str]) -> str:
        if s == U:
            return "Unit"
        if s == I:
            return "Int"
        if s[0] == "E":
            v = self.fresh("v")
            return f"forall eff {v}. {self.annotation(s[1], evars + [v])}"
        lhs = self.annotation(s[1], evars)
        if s[1][0] in ("->", "E"):
            lhs = f"({lhs})"
        return f"{lhs} ->[{self.effect(evars)}] {self.annotation(s[2], evars)}"

    def leaf(self, s, env, evars, pure: bool) -> str:
        names = [n for n, sh, _ in env if sh == s]
        if names and self.rng.random() < 0.65:
            return self.rng.choice(names)
        if s == U:
            if not pure and self.rng.random() < 0.5:
                return self.rng.choice(("(io unit)", "(db unit)"))
            return "unit"
        if s == I:
            return self.rng.choice(("zero", "(succ zero)"))
        if s[0] == "E":
            v = self.fresh("v")
            return f"(efun {v} => {self.leaf(s[1], env, evars + [v], True)})"
        x = self.fresh("x")
        body = self.leaf(s[2], env + [(x, s[1], True)], evars, False)
        return f"(fn ({x} : {self.annotation(s[1], evars)}) => {body})"

    def expr(self, s, env, evars, budget: int, pure: bool) -> str:
        if budget <= 2:
            return self.leaf(s, env, evars, pure)
        rng = self.rng
        kinds = ["leaf", "let"]
        if s[0] == "->":
            kinds += ["lam", "lam"]
        elif s[0] == "E":
            kinds += ["efun", "efun"]
        else:
            kinds += ["call", "call", "ecall"]
        kind = rng.choice(kinds)
        if kind == "lam":
            x = self.fresh("x")
            ann = self.annotation(s[1], evars)
            body = self.expr(s[2], env + [(x, s[1], True)], evars,
                             budget - 2, False)
            return f"(fn ({x} : {ann}) => {body})"
        if kind == "efun":
            v = self.fresh("v")
            body = self.expr(s[1], env, evars + [v], budget - 2, True)
            return f"(efun {v} => {body})"
        if kind == "let":
            x = self.fresh("x")
            s1 = self.def_shape()
            bound = self.expr(s1, env, evars, budget // 2, True)
            body = self.expr(s, env + [(x, s1, True)], evars,
                             budget - budget // 2 - 1, pure)
            return f"(let {x} = {bound} in {body})"
        if kind == "call":
            fns = [(n, sh) for n, sh, ok in env
                   if sh[0] == "->" and sh[2] == s and (ok or not pure)]
            if fns and rng.random() < 0.65:
                name, sh = rng.choice(fns)
                arg = self.expr(sh[1], env, evars, budget - 2, pure)
                return f"({name} {arg})"
            x = self.fresh("x")
            s1 = self.shape(1)
            body = self.expr(s, env + [(x, s1, True)], evars, budget // 2, pure)
            arg = self.expr(s1, env, evars, budget - budget // 2 - 2, pure)
            return f"((fn ({x} : {self.annotation(s1, evars)}) => {body}) {arg})"
        if kind == "ecall":
            polys = [(n, sh) for n, sh, ok in env
                     if sh[0] == "E" and sh[1][2] == s and (ok or not pure)]
            if polys:
                name, sh = rng.choice(polys)
                inst = self.effect(evars) or "pure"
                arg = self.expr(sh[1][1], env, evars, budget - 3, pure)
                return f"(({name} [eff {inst}]) {arg})"
        return self.leaf(s, env, evars, pure)

    def program(self, size: int) -> str:
        env = list(_PRELUDE_ENV)
        parts = [RANDOM_PRELUDE]
        for _ in range(self.rng.randint(1, 3)):
            name = self.fresh("d")
            s = self.def_shape()
            parts.append(f"let {name} = {self.expr(s, env, [], size, True)}")
            env.append((name, s, False))
        main = U if self.rng.random() < 0.7 else I
        parts.append(self.expr(main, env, [], size // 2, False))
        return "\n".join(parts) + "\n"


def random_program(rng: random.Random, mode: str, size: int) -> str:
    """One random well-shaped program drawn from rng."""
    return _Random(rng, mode).program(size)
