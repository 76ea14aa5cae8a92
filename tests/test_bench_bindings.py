"""The bindings `bench/trace.py` wraps and reads still exist in `efl`.

The tracer skips a span whose binding is gone and reads the solver's clause
lists with a default, so a rename would make a per-layer metric read zero
(lower, "better") instead of failing. These tests read the span table as
the tracer does and fail on such a rename instead.
"""
import importlib.util
import sys
from pathlib import Path

from efl import cli, declarative, driver, inference, solver
from efl.formulas import And, Or
from helpers import Names

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"
MODULES = {"cli": cli, "declarative": declarative, "driver": driver,
           "inference": inference, "solver": solver}
# spans whose function is no longer in the package; their metrics read zero
DEAD = {("solver", "SolverSession._refix"), ("cli", "sat")}
# bindings `cli` no longer imports; the `driver` bindings of the same spans
# are the ones its REPL and `check` reach
STALE = {("cli", "infer"), ("cli", "prepare_definition"),
         ("cli", "prepare_expression")}


def load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = sys.modules.setdefault(spec.name,
                                   importlib.util.module_from_spec(spec))
    spec.loader.exec_module(trace)
    return trace


def resolves(module: str, path: str) -> bool:
    """Whether `Tracer.install` finds the binding to wrap."""
    owner = MODULES[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner is not None and attr in vars(owner)


def test_every_span_binding_resolves_but_the_known_dead():
    trace = load_trace()
    bindings = {b for spans in trace.SPANS.values() for b in spans}
    assert {b for b in bindings if not resolves(*b)} == DEAD | STALE
    for spans in trace.SPANS.values():
        assert set(spans) <= DEAD or any(resolves(*b) for b in spans)
    assert all(hasattr(cli.Parser, e) for e in trace.PARSER_ENTRIES)


def test_the_clause_counter_reads_the_solver_lists():
    """`Tracer.take_clauses` counts a session's `_solver._clauses`. It also
    adds `_solver._units`, with an empty default: the solver keeps no unit
    clauses, as every clause it holds is one of a gate's three."""
    p, q = (Names().p(t) for t in "pq")
    session = solver.SolverSession()
    assert "__init__" in vars(solver.SolverSession)
    assert session.push(And(p, Or(p, q)))
    s = session._solver
    assert type(s._clauses) is list and not hasattr(s, "_units")
    assert len(s._clauses) == 6
    tracer = load_trace().Tracer()
    tracer.sessions.append(session)
    assert tracer.take_clauses() == len(s._clauses)
