"""Spans around the checker's public functions, recorded from outside it.

Each wrapper is installed where the caller looks the function up: a module
attribute of the calling module (`driver.infer` and `cli.infer` are separate
bindings), a method on its class, or, for the REPL's parser, a method on the
one instance the REPL creates. Recursive calls inside a module go through
that module's own binding, which is left alone, so a wrapper adds one frame
per outside call and the recursion limits the workloads hit stay where they
are. A function that a later version of the checker removes is skipped, and
its metrics read as zero.

Spans (name, start, end, parent, operation) live in flat arrays while the
run lasts and are written out once, when it ends.
"""
from __future__ import annotations

import array
import functools
import json
import time
from pathlib import Path

# span name -> the (module, attribute path) bindings that carry it
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.entry": (("cli", "main"), ("cli", "Repl.handle")),
    "syntax.parse": (("cli", "parse_program"),),
    "inference.infer": (("driver", "infer"), ("cli", "infer")),
    "inference.generalize": (("driver", "generalize"),
                             ("inference", "generalize")),
    "driver.pipeline": (("cli", "check_program"),
                        ("cli", "prepare_definition"),
                        ("cli", "prepare_expression"),
                        ("driver", "prepare_definition"),
                        ("driver", "prepare_expression"),
                        ("driver", "verify_certificates")),
    "driver.discharge": (("driver", "Discharger.formula_for"),),
    "driver.display": (("driver", "display_scheme"),
                       ("cli", "display_scheme")),
    "driver.valuation": (("driver", "total_valuation"),),
    "solver.push": (("solver", "SolverSession.push"),),
    "solver.refix": (("solver", "SolverSession._refix"),),
    "solver.solve": (("solver", "_Solver.solve"),),
    "solver.tseitin": (("solver", "_Solver.literal"),),
    "solver.model": (("solver", "SolverSession.model"),),
    "solver.sat": (("cli", "sat"),),
    "solver.simplify": (("driver", "simplify_constraints"),
                        ("cli", "simplify_constraints")),
    "declarative.replay": (("driver", "check_certificate"),),
    "declarative.subeffect": (("declarative", "subeffect_holds"),),
}

# The REPL's parser entry points, wrapped per instance (see module doc).
PARSER_ENTRIES = ("parse_repl_item", "parse_expr")

OP = "bench.op"  # root span of one operation, opened by the workload


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.op_index = -1
        self.sessions: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_index)
            self.start.append(clock())
            self.end.append(0.0)
            self.current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.current = parent
        return traced

    def operation(self, fn, *args):
        """Run fn(*args) as one operation under a root span."""
        self.op_index += 1
        return self.wrap(OP, fn)(*args)

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> list[str]:
        """Wrap every binding that exists; returns the ones that do not."""
        missing = []
        for name, bindings in SPANS.items():
            for mod, path in bindings:
                owner = modules[mod]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or attr not in vars(owner):
                    missing.append(f"{mod}.{path}")
                    continue
                self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))
        self._track_sessions(modules["solver"])
        self._wrap_repl_parser(modules["cli"])
        return missing

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _track_sessions(self, solver) -> None:
        """Remember each solver session, to read its clause count later."""
        cls = getattr(solver, "SolverSession", None)
        if cls is None or "__init__" not in vars(cls):
            return
        init = vars(cls)["__init__"]

        def __init__(session, *args, **kwargs):
            init(session, *args, **kwargs)
            self.sessions.append(session)
        self._patch(cls, "__init__", __init__)

    def _wrap_repl_parser(self, cli) -> None:
        parser_cls = getattr(cli, "Parser", None)
        if parser_cls is None:
            return
        entries = [e for e in PARSER_ENTRIES if hasattr(parser_cls, e)]
        make = self.wrap("syntax.parse", parser_cls)

        def entry(parser, method):
            def call(*args, **kwargs):
                # Inner calls reach the class's own methods, unwrapped.
                for e in entries:
                    del parser.__dict__[e]
                try:
                    return method(*args, **kwargs)
                finally:
                    bind(parser)
            return self.wrap("syntax.parse", call)

        def bind(parser):
            for e in entries:
                setattr(parser, e, entry(parser, getattr(parser_cls, e)
                                         .__get__(parser)))

        def new_parser(*args, **kwargs):
            parser = make(*args, **kwargs)
            bind(parser)
            return parser
        self._patch(cli, "Parser", new_parser)

    # -- reading -------------------------------------------------------------

    def take_clauses(self) -> int:
        """Clauses held by the largest session made since the last call.

        Call it when those sessions have ended; it lets them go.
        """
        best = 0
        for s in self.sessions:
            solver = getattr(s, "_solver", None)
            held = (len(getattr(solver, "_clauses", ()))
                    + len(getattr(solver, "_units", ())))
            best = max(best, held)
        self.sessions.clear()
        return best

    def mark(self) -> int:
        return len(self.start)

    def summary(self, lo: int, hi: int) -> dict:
        """Self time and call count per span name, spans lo..hi-1.

        Also counts the solve calls made inside a push, for solves/push.
        """
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        solve = self._ids.get("solver.solve")
        push = self._ids.get("solver.push")
        in_push = 0
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            self_s[name] = (self_s.get(name, 0.0)
                            + self.end[i] - self.start[i] - child[i - lo])
            calls[name] = calls.get(name, 0) + 1
            if self.name_id[i] == solve:
                p = self.parent[i]
                while p >= lo and self.name_id[p] != push:
                    p = self.parent[p]
                in_push += p >= lo
        return {"self_s": self_s, "calls": calls, "solves_in_push": in_push}

    def write(self, path: Path, meta: dict) -> None:
        """All spans as JSON lines: one header line, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({**meta, "fields": [
                "name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.start)):
                out.write(json.dumps([self.names[self.name_id[i]],
                                      round(self.start[i], 9),
                                      round(self.end[i], 9),
                                      self.parent[i], self.op[i]]) + "\n")
