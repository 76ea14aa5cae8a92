"""Run one benchmark workload in this process and print its result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

`bench/run.py` starts one of these per workload; it is single-threaded and
serves one client in a closed loop: each input is handed to the checker
only after the previous verdict is in. A run is whole rounds of the same
operations. Round 0 warms up; rounds follow until the time is spent. Every
round's outputs are checked against properties the method must have (see
README.md); the checks run outside the timed regions.

The last line of standard output is one JSON object: correct, attempted,
failed, and either the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1).
"""
from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
from checks import (WrongAnswer, canonical, check_witness,  # noqa: E402
                    documented_exit, holds)
from speed import Speed  # noqa: E402
from trace import Tracer  # noqa: E402

from efl import cli, declarative, driver, inference, solver  # noqa: E402
from efl.declarative import CertificateError  # noqa: E402

MODULES = {"cli": cli, "declarative": declarative, "driver": driver,
           "inference": inference, "solver": solver}
MODES = ("constrained", "constraint-free")
clock = time.perf_counter


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Result:
    label: str
    failed: str | None = None   # exception that ended the operation
    code: int | None = None     # exit code (program checks)
    out: str = ""               # stdout, or the REPL's answer
    err: str = ""
    outcome: object = None      # driver.CheckOutcome of an accepted program
    check_s: float = 0.0
    verify_s: float = 0.0
    check_at: tuple[float, float] = (0.0, 0.0)   # clock() at start, end
    verify_at: tuple[float, float] = (0.0, 0.0)

    @property
    def latency_s(self) -> float:
        return self.check_s + self.verify_s


class Checker:
    """Runs `efl check FILE` in process, then replays what it accepted."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.speed = Speed()
        self._captured: list = []
        check_program = cli.check_program

        def capture(*args, **kwargs):
            outcome = check_program(*args, **kwargs)
            self._captured.append(outcome)
            return outcome
        cli.check_program = capture

    def write(self, name: str, src: str) -> Path:
        path = self.workdir / name
        path.write_text(src)
        return path

    def check(self, label: str, path: Path, mode: str) -> Result:
        res = Result(label)
        out, err = io.StringIO(), io.StringIO()
        self._captured.clear()
        try:
            t0 = clock()
            with redirect_stdout(out), redirect_stderr(err):
                res.code = cli.main(["--mode", mode, "check", str(path)])
            res.check_at = (t0, clock())
            res.check_s = res.check_at[1] - t0
        except Exception as ex:  # a crash of the checker fails this operation
            res.failed = f"{type(ex).__name__} in check"
            return res
        res.out, res.err = out.getvalue(), err.getvalue()
        if res.code != 0:
            return res
        if not self._captured:
            raise WrongAnswer("efl check no longer reaches "
                              "cli.check_program; the benchmark needs "
                              "its outcome")
        res.outcome = self._captured[-1]
        try:
            self.speed.between()
            t0 = clock()
            driver.verify_certificates(res.outcome)
            res.verify_at = (t0, clock())
            res.verify_s = res.verify_at[1] - t0
        except CertificateError as ex:
            raise WrongAnswer(f"{label}: certificate does not replay: {ex}")
        except Exception as ex:
            res.failed = f"{type(ex).__name__} in replay"
        return res


def accepted(res: Result) -> list[str]:
    """stdout lines of an accepted program whose witness satisfies its
    session formula."""
    if res.code != 0 or res.err:
        raise WrongAnswer(f"{res.label}: exit {res.code}, {res.err.strip()!r}")
    check_witness(res.outcome.formula, res.outcome.witness)
    return res.out.splitlines()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A fixed list of operations per round, and the checks on a round."""

    def __init__(self, seed: int, checker: Checker) -> None:
        self.rng = random.Random(seed)
        self.checker = checker
        self.speed = checker.speed

    def run_round(self, trace: Tracer | None) -> list[Result]:
        raise NotImplementedError

    def check(self, results: list[Result]) -> None:
        raise NotImplementedError

    def primary(self, results: list[Result]) -> list[Result]:
        """The operations whose latencies make op_ms_p50/p90."""
        return results

    def plantable(self, res: Result) -> bool:
        """Whether the checks read this operation's scheme output."""
        return True

    def _checks(self, jobs, trace: Tracer | None) -> list[Result]:
        run = self.checker.check
        results = []
        for job in jobs:
            self.speed.between()
            results.append(run(*job) if trace is None
                           else trace.operation(run, *job))
        return results


class Ladder(Workload):
    """One family at several sizes, constrained mode, checked and replayed."""

    family = None
    sizes: tuple[int, ...] = ()

    def __init__(self, seed: int, checker: Checker) -> None:
        super().__init__(seed, checker)
        self.stem = self.rng.choice(("g", "d", "w", "def", "top"))
        self.paths = {n: checker.write(f"{self.name}-{n}.efl",
                                       self.family(n, self.stem))
                      for n in self.sizes}

    def run_round(self, trace):
        order = list(self.sizes)
        self.rng.shuffle(order)
        results = self._checks([(f"{self.name}x{n}", self.paths[n],
                                 "constrained") for n in order], trace)
        by_size = dict(zip(order, results))
        return [by_size[n] for n in self.sizes]


class ManyDefs(Ladder):
    name = "many-defs"
    family = staticmethod(families.g_example)
    sizes = (15, 30, 60)

    def __init__(self, seed, checker):
        super().__init__(seed, checker)
        src = (ROOT / "programs" / "g_example.efl").read_text()
        alone = checker.check("g_example", checker.write("g.efl", src),
                              "constrained")
        (line,) = accepted(alone)
        self.scheme = canonical(line.split(" : ", 1)[1])

    def check(self, results):
        for res, n in zip(results, self.sizes):
            lines = accepted(res)
            if len(lines) != n:
                raise WrongAnswer(f"{res.label}: {len(lines)} lines")
            for i, line in enumerate(lines, 1):
                name, _, scheme = line.partition(" : ")
                if name != f"{self.stem}{i}" or canonical(scheme) != self.scheme:
                    raise WrongAnswer(f"{res.label}: {line!r} is not g's "
                                      f"scheme up to renaming")


class Rank2Chain(Ladder):
    name = "rank2-chain"
    family = staticmethod(families.chain)
    sizes = (4, 7, 10)

    def check(self, results):
        longest = accepted(results[-1])
        for res, n in zip(results, self.sizes):
            lines = accepted(res)
            if len(lines) != n + 1 or (canonical("\n".join(lines))
                                       != canonical("\n".join(longest[:n + 1]))):
                raise WrongAnswer(f"{res.label} is not, up to renaming, the "
                                  f"first {n + 1} lines of chain x"
                                  f"{self.sizes[-1]}")


class SmallPrograms(Workload):
    """Corpus and random programs in both modes, and deep programs."""

    name = "small-programs"
    random_per_mode = 250
    random_size = 20
    nest_sizes = (50, 100, 200, 400)
    spine_sizes = (50, 100, 200, 400, 800)

    def __init__(self, seed, checker):
        super().__init__(seed, checker)
        self.jobs = []
        self.expect = {}
        for path in sorted((ROOT / "programs").glob("*.efl")):
            src = path.read_text()
            for mode in MODES:
                label = f"{path.stem}/{mode}"
                self.jobs.append((label, path, mode))
                self.expect[label] = ("corpus", documented_exit(src))
        for mode in MODES:
            rng = random.Random(f"{seed}/{mode}")
            for i in range(self.random_per_mode):
                label = f"random{i}/{mode}"
                src = families.random_program(rng, mode, self.random_size)
                self.jobs.append((label, checker.write(f"r{i}-{mode}.efl",
                                                       src), mode))
                self.expect[label] = ("random", None)
        for family, sizes, answer in (
                (families.nest, self.nest_sizes, families.NEST_ANSWER),
                (families.spine, self.spine_sizes, families.SPINE_ANSWER)):
            for n in sizes:
                label = f"{family.__name__}x{n}"
                self.jobs.append((label, checker.write(f"{label}.efl",
                                                       family(n)),
                                  "constrained"))
                self.expect[label] = ("deep", answer)

    def run_round(self, trace):
        return self._checks(self.jobs, trace)

    def check(self, results):
        for res in results:
            if res.failed:
                continue
            kind, want = self.expect[res.label]
            if kind == "corpus" and res.code != want:
                raise WrongAnswer(f"{res.label}: exit {res.code}, header "
                                  f"documents {want}")
            if kind == "random" and res.code != 0 and not (
                    res.code == 1 and ("unsatisfiable" in res.err or
                                       "generalization wants" in res.err)):
                raise WrongAnswer(f"{res.label}: exit {res.code}, "
                                  f"{res.err.strip()}")
            if kind == "deep" and res.out.splitlines() != [want]:
                raise WrongAnswer(f"{res.label}: {res.out!r}, want {want!r}")
            if res.code == 0:
                accepted(res)

    def plantable(self, res):
        return res.label.startswith("nest")


REPL_PRELUDE = (
    "effect IO", "effect DB", "type Int", "type Unit", "type Bool",
    "extern f : (Int ->[IO] Int) ->[DB] Int",
    "extern tick : Int ->[IO] Int",
    "extern tt : Unit", "extern tru : Bool",
    "extern launch : Unit ->[IO] Unit",
    "extern queryDb : Unit ->[DB] Unit",
    "extern register : (Unit ->[IO] Unit) ->[] Unit",
    "extern seq2 : Unit ->[] Unit ->[] Unit",
    "extern ite : forall eff a. Bool ->[] (Unit ->[a] Unit) ->[] "
    "(Unit ->[a] Unit) ->[a] Unit",
    "extern handle : forall eff a. (Unit ->[a] Unit) ->[] "
    "(Unit ->[a \\/ DB] Unit)",
)

# definition kind -> (body, uses: bare expressions over the definition)
REPL_DEFS = {
    "rank2": (families.G_BODY, (
        "{d} (efun a => fn (x : Int) => x)",
        "{d} (efun a => fn (x : Int) => tick x)")),
    "chain": (None, (
        "{d} (efun a => fn (x : Int) => x)",)),
    "later": ("fn (b : Bool) => fn (k : Unit ->[_] Unit) => seq2 (register k)"
              " ((ite [eff _]) b k (fn (u : Unit) => queryDb u))", (
                  "{d} tru launch",
                  "{d} tru (fn (u : Unit) => u)")),
    "handled": ("(handle [eff _]) launch", ("{d} tt",)),
    "twice": ("efun a => fn (g : Unit ->[a] Unit) => fn (u : Unit) => "
              "g (g u)", ("(({d} [eff IO]) launch) tt",
                          "(({d} [eff pure]) (fn (u : Unit) => u)) tt")),
}


class ReplSession(Workload):
    """One REPL session: definitions, bare expressions, :type and
    :constraints; plus the batch check of the same definitions."""

    name = "repl-session"
    # The kinds of definitions in order, repeated. The order is fixed so
    # that the session, and so the cost of each input, grows the same way
    # for every seed; the seed picks the expressions over each definition.
    pattern = ("rank2", "chain", "later", "chain", "handled", "rank2",
               "twice", "chain")
    repeats = 3

    def __init__(self, seed, checker):
        super().__init__(seed, checker)
        script = list(REPL_PRELUDE)
        defs: list[str] = []
        last_rank2 = None
        for i, kind in enumerate(self.pattern * self.repeats):
            name = f"d{i}"
            body = (families.chain_body(last_rank2) if kind == "chain"
                    else REPL_DEFS[kind][0])
            if kind in ("rank2", "chain"):
                last_rank2 = name
            defs.append(f"let {name} = {body}")
            use = self.rng.choice(REPL_DEFS[kind][1]).format(d=name)
            script += [defs[-1], f":type {use}", use]
            if kind == "twice":
                script.append(":constraints")
        self.script = script
        self.batch = checker.write("session.efl",
                                   "\n".join((*REPL_PRELUDE, *defs)) + "\n")

    def run_round(self, trace):
        # The session is dropped before the batch check, so that check
        # runs on a heap of its own, as `efl check` would.
        return self._session(trace) + self._checks(
            [("batch", self.batch, "constrained")], trace)

    def _session(self, trace) -> list[Result]:
        repl = cli.Repl(inference.Config(mode="constrained"))
        results = []
        for line in self.script:
            self.speed.between()
            res = Result(line)
            try:
                t0 = clock()
                res.out = (repl.handle(line) if trace is None
                           else trace.operation(repl.handle, line)) or ""
                res.check_at = (t0, clock())
                res.check_s = res.check_at[1] - t0
            except Exception as ex:  # a crash fails this input
                res.failed = type(ex).__name__
            results.append(res)
        return results

    def primary(self, results):
        return results[:-1]

    def plantable(self, res):
        return res.label.startswith("let ")

    def check(self, results):
        *inputs, batch = results
        want = accepted(batch)
        got = [r.out for r in inputs if r.label.startswith("let ")]
        if canonical("\n".join(got)) != canonical("\n".join(want)):
            raise WrongAnswer("REPL definitions differ from the batch check")
        for query, expr in zip(inputs, inputs[1:]):
            if not query.label.startswith(":type "):
                continue
            if expr.label != query.label[len(":type "):] or \
                    canonical("it : " + query.out) != canonical(expr.out):
                raise WrongAnswer(f"{query.label!r} answered {query.out!r}, "
                                  f"the expression {expr.out!r}")
        for res in inputs:
            if res.out.startswith(("error", "parse error")):
                raise WrongAnswer(f"{res.label!r}: {res.out}")


WORKLOADS = {w.name: w for w in (ManyDefs, Rank2Chain, SmallPrograms,
                                 ReplSession)}


# ---------------------------------------------------------------------------
# Planted wrong answers (to show the checks catch them)
# ---------------------------------------------------------------------------


def plant(kind: str, workload: Workload, results: list[Result]) -> None:
    """Corrupt one checked output of an otherwise good round."""
    for res in results:
        if kind == "scheme" and workload.plantable(res) and "IO" in res.out:
            res.out = res.out.replace("IO", "DB", 1)
            return
        if kind == "witness" and res.outcome is not None:
            rho = dict(res.outcome.witness.items())
            for name in sorted(rho, key=lambda n: n.key()):
                rho[name] = not rho[name]
                if not holds(res.outcome.formula, rho):
                    res.outcome.witness = type(res.outcome.witness)(rho)
                    return
                rho[name] = not rho[name]
    raise SystemExit(f"no output to plant a wrong {kind} in")


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


LAYER_TIMES = ("syntax.parse", "inference.infer", "inference.generalize",
               "driver.pipeline", "driver.discharge", "driver.display",
               "driver.valuation", "solver.push", "solver.refix",
               "solver.solve", "solver.tseitin", "solver.model", "solver.sat",
               "solver.simplify", "declarative.replay",
               "declarative.subeffect", "cli.entry")


def layer_metrics(tracer: Tracer, spans: list[tuple[int, int, int, float]],
                  untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-round medians of the per-layer figures, and the tracing overhead
    (median traced round against median untraced round). Times are scaled
    to nominal speed like the end-to-end ones."""
    per_round = []
    for lo, hi, clauses, scale in spans:
        s = tracer.summary(lo, hi)
        self_s, calls = s["self_s"], s["calls"]
        pushes = calls.get("solver.push", 0)
        row = {f"{name}_s": scale * self_s.get(name, 0.0)
               for name in LAYER_TIMES}
        row["solver.solve_calls"] = calls.get("solver.solve", 0)
        row["solver.solves_per_push"] = (s["solves_in_push"] / pushes
                                         if pushes else 0.0)
        row["declarative.subeffect_calls"] = calls.get(
            "declarative.subeffect", 0)
        row["solver.clauses"] = clauses
        per_round.append(row)
    out = {}
    for key in per_round[0]:
        unit = ("s" if key.endswith("_s") else
                "ratio" if key.endswith("per_push") else "count")
        out[key] = {"value": statistics.median(r[key] for r in per_round),
                    "unit": unit}
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    out["trace.overhead_pct"] = {"value": 100 * (overhead - 1), "unit": "%"}
    return out


def typical_round(measured: list[list[Result]]) -> list[Result]:
    """One round made of each operation's median times over the measured
    rounds (every round runs the same operations in the same order). A slow
    spell of the machine that the scaling misjudges touches an operation in
    a few rounds, and the median leaves those out. An operation that failed
    in every round stays failed."""
    typical = []
    for runs in zip(*measured):
        ok = [r for r in runs if r.failed is None]
        typical.append(Result(
            runs[0].label, failed=None if ok else runs[0].failed,
            code=ok[0].code if ok else None,
            check_s=statistics.median(r.check_s for r in ok) if ok else 0.0,
            verify_s=statistics.median(r.verify_s for r in ok) if ok else 0.0))
    return typical


def end_to_end(workload: Workload, measured: list[list[Result]]) -> dict:
    typical = typical_round(measured)
    ms = [1000 * r.latency_s for r in workload.primary(typical)
          if r.failed is None]
    typical = [r for r in typical if r.failed is None]
    values = {
        "check_s": ("s", sum(r.check_s for r in typical
                             if r.code is not None)),
        "verify_s": ("s", sum(r.verify_s for r in typical)),
        "op_ms_p50": ("ms", statistics.median(ms)),
        "op_ms_p90": ("ms", quantile(ms, 0.9)),
        "peak_rss_mb": ("MB", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    return {k: {"value": v, "unit": unit} for k, (unit, v) in values.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("scheme", "witness"),
                    help="corrupt one output of the first round; the run "
                         "must then report correct: false")
    args = ap.parse_args(argv)

    correct = True
    attempted = failed = 0
    # Round 0 warms up. A traced run alternates untraced and traced rounds
    # after it, so that both see the same machine and give the overhead.
    rounds: list[list[Result]] = []
    traced_rounds: list[bool] = []
    tracer = Tracer() if args.trace else None
    spans: list[tuple[int, int, int, float]] = []
    failures: set[str] = set()
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        checker = Checker(Path(tmp))
        start = clock()
        try:
            workload = WORKLOADS[args.workload](args.seed, checker)
            while (len(rounds) < (3 if tracer else 1)
                   or clock() - start < args.seconds):
                traced = tracer is not None and len(rounds) % 2 == 0 \
                    and len(rounds) > 0
                speed = workload.speed
                speed.sample(2)
                if traced:
                    tracer.install(MODULES)
                    lo = tracer.mark()
                    try:
                        results = workload.run_round(tracer)
                    finally:
                        tracer.uninstall()
                    hi = tracer.mark()
                else:
                    results = workload.run_round(None)
                # From here on, times are at nominal speed (speed.py).
                speed.sample(2)
                ok = [r for r in results if r.failed is None]
                scales = [speed.scale(*r.check_at) for r in ok]
                for r, factor in zip(ok, scales):
                    r.check_s *= factor
                    if r.verify_s:
                        r.verify_s *= speed.scale(*r.verify_at)
                if traced:
                    spans.append((lo, hi, tracer.take_clauses(),
                                  statistics.median(scales)))
                if args.plant and not rounds:
                    plant(args.plant, workload, results)
                attempted += len(results)
                failed += sum(r.failed is not None for r in results)
                failures |= {f"{r.label}: {r.failed}" for r in results
                             if r.failed}
                workload.check(results)
                for r in results:
                    r.outcome = None  # let this round's sessions go
                rounds.append(results)
                traced_rounds.append(traced)
        except WrongAnswer as ex:
            print(f"wrong answer: {ex}", file=sys.stderr)
            correct = False
    for line in sorted(failures):
        print(f"failed: {line}", file=sys.stderr)
    print(f"rounds: {len(rounds)}", file=sys.stderr)
    reference = checker.speed.durations
    if reference:
        print(f"reference task: median {1000 * statistics.median(reference):.2f}"
              f" ms over {len(reference)} samples", file=sys.stderr)

    metrics = {}
    if tracer is None and rounds:
        metrics = end_to_end(workload, rounds[1:] or rounds)
    elif spans:
        round_s = [sum(r.latency_s for r in results) for results in rounds]
        metrics = layer_metrics(
            tracer, spans,
            [t for t, on in zip(round_s[1:], traced_rounds[1:]) if not on],
            [t for t, on in zip(round_s, traced_rounds) if on])
        tracer.write(BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
