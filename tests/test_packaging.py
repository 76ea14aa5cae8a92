"""The shipped package holds what `efl check`/`efl repl` load, and no more."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import efl
from efl import cli, driver, inference
from efl.declarative import CERT_OF, Cert, CSub, CVar, subst_cert
from efl.effects import (PURE, Arrow, Constraint, Effect, ForallEff,
                         ForallTyp, Scheme, TVar, Type)
from efl.formulas import And, Bot, Implies, Or, Prop, Top
from efl.names import KIND_EFF, KIND_TYPE, Name, NameSupply, Record
from helpers import SOURCES, check_source, value_classes

PACKAGE = Path(efl.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

_PROBE = """
import json, sys
import efl.cli
import efl
loaded = sorted(m for m in sys.modules if m == "efl" or m.startswith("efl."))
exported = [n for n in vars(efl)
            if not n.startswith("_") and f"efl.{n}" not in sys.modules]
slow = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps({"loaded": loaded, "exported": exported, "slow": slow}))
"""


def test_cli_import_loads_every_module_and_the_package_exports_nothing():
    """A fresh `import efl.cli` loads every module of the package, and
    neither `dataclasses` nor `inspect`: generating a dataclass's methods
    at every start cost a fresh process most of its import time. The
    package itself holds its modules and no re-exported name: every user
    imports the module that defines what it needs."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    report = json.loads(out.stdout)
    files = {"efl" if f.stem == "__init__" else f"efl.{f.stem}"
             for f in PACKAGE.glob("*.py")}
    assert set(report["loaded"]) == files
    assert report["exported"] == []
    assert report["slow"] == []


def test_solver_imports_only_formulas_and_names():
    """The SAT engine sees formulas only: of the package it imports
    `formulas` and `names`, nothing else."""
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.add(node.module or "")
            elif node.module and node.module.split(".")[0] == "efl":
                imported.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] for a in node.names
                            if a.name.split(".")[0] == "efl")
    assert imported == {"formulas", "names"}


def test_bench_calls_resolve_as_the_bench_makes_them(monkeypatch, capsys):
    """What `bench/worker.py` and `bench/checks.py` use of the package:
    `cli.main` reaches `check_program` through the `cli` binding, the REPL
    handles lines, certificates replay, the session formula is built from
    the six formula classes alone, and the witness rebuilds from its
    items."""
    seen = []
    real = cli.check_program

    def capture(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(cli, "check_program", capture)
    src = PACKAGE.parents[1] / "programs" / "g_example.efl"
    assert cli.main(["--mode", "constrained", "check", str(src)]) == 0
    assert capsys.readouterr().out
    (outcome,) = seen
    driver.verify_certificates(outcome)

    kinds, todo, done = set(), [outcome.formula], set()
    while todo:
        f = todo.pop()
        if id(f) in done:
            continue
        done.add(id(f))
        kinds.add(type(f))
        if isinstance(f, (And, Or, Implies)):
            todo += (f.lhs, f.rhs)
    assert Prop in kinds
    assert kinds <= {Top, Bot, Prop, And, Or, Implies}

    w = outcome.witness
    assert w and type(w)(dict(w.items())) == w

    repl = cli.Repl(inference.Config(mode="constrained"))
    for line in ("effect IO", "type Unit", "extern u : Unit",
                 "extern launch : Unit ->[IO] Unit",
                 "let f = fn (x : Unit) => launch x", ":type f u", "f u",
                 ":constraints"):
        out = repl.handle(line)
        assert out and not out.startswith(("error", "parse error")), out


def test_source_lines_fit_in_79_columns():
    long = [f"{f.name}:{i}" for f in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(f.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


def _unread_imports(path: Path) -> list[str]:
    """Names that `path` imports and never reads. A name listed in
    `__all__` or written in a string annotation counts as read."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    read: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
        annotations += (getattr(node, "annotation", None),
                        getattr(node, "returns", None))
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read.update(n.id for n in ast.walk(ast.parse(c.value))
                            if isinstance(n, ast.Name))
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    """No module of the package or of the tests imports a name it never
    reads; such an import hides what a module really depends on."""
    unread = [entry for f in sorted(PACKAGE.glob("*.py"))
              + sorted(TESTS.glob("*.py")) for entry in _unread_imports(f)]
    assert unread == []


def _unused_definitions() -> list[str]:
    """Module-level functions and classes of the package that no code of
    the package reads outside their own definition. An import counts only
    where the importing module reads the name, and a method of the same
    name does not count: the package reads its modules' names unqualified."""
    defined: dict[str, str] = {}
    used: set[tuple[str, str, str | None]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined[owner] = path.name
            used.update((node.id, path.name, owner)
                        for node in ast.walk(stmt)
                        if isinstance(node, ast.Name)
                        and not isinstance(node.ctx, ast.Store))
    return [f"{module}:{name}" for name, module in sorted(defined.items())
            if not any(n == name and (m != module or o != name)
                       for n, m, o in used)]


def test_every_module_level_definition_is_used_by_the_package():
    """Code that only the tests call lives under `tests/`, not in the
    shipped package."""
    assert _unused_definitions() == []


def _certificate_classes() -> list[type]:
    """The concrete certificate classes: every leaf below `Cert`."""
    todo, out = [Cert], []
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if not cls.__subclasses__():
            out.append(cls)
    return sorted(out, key=lambda c: c.__name__)


def _certificates_reached() -> dict[type, Cert]:
    """The first node of each certificate class that a walk over the
    certificates of checking `SOURCES` in both modes reaches."""
    found: dict[type, Cert] = {}
    for mode in ("constrained", "constraint-free"):
        for _, src in SOURCES:
            outcome = check_source(src, mode)
            todo = [rec.res.cert for rec in outcome.records]
            if outcome.main is not None:
                todo.append(outcome.main.cert)
            while todo:
                node = todo.pop()
                found.setdefault(type(node), node)
                todo += (x for x in (getattr(node, f) for f in node.__slots__)
                         if isinstance(x, Cert))
    return found


def test_every_certificate_class_has_a_rule_and_walks():
    """Each concrete certificate class names its rule, is the node of one
    expression form (a `CSub` wraps any of them), is reached by checking
    `SOURCES`, and prints and takes a substitution through the field-kind
    walks: a node with a field of a kind the walks do not know fails
    here."""
    supply = NameSupply()
    alpha = supply.fresh(KIND_EFF, "alpha")
    beta = supply.fresh(KIND_EFF, "beta")
    binder = supply.fresh(KIND_EFF, "b")
    unit = TVar(supply.fresh(KIND_TYPE, "Unit"))
    eff = Effect.var(alpha)
    typ = Arrow(unit, eff, unit)
    leaf = CVar(((binder, eff),))
    # One field of each kind, by the kind of the field in a node checking
    # builds; each mentions alpha. An effect is a tuple, so it comes first.
    samples = ((Cert, leaf), (Effect, eff), (Type, typ),
               (Scheme, Scheme((), frozenset({Constraint(eff, PURE)}), typ)),
               (tuple, ((binder, eff),)))
    classes = _certificate_classes()
    assert set(CERT_OF.values()) == set(classes) - {CSub}
    reached = _certificates_reached()
    assert set(reached) == set(classes)
    for cls in classes:
        assert "RULE" in vars(cls), cls
        fields = [getattr(reached[cls], f) for f in cls.__slots__]
        node = cls(*(next(s for kind, s in samples if isinstance(x, kind))
                     for x in fields))
        assert driver.render_cert(node).startswith(f"({cls.RULE} "), cls
        moved = subst_cert({alpha: Effect.var(beta)}, node)
        shown = driver.render_cert(moved)
        assert type(moved) is cls and "alpha" not in shown, shown
        assert "beta" in shown


def test_hot_keys_hash_in_c_and_recursive_values_are_not_tuples():
    """The four hottest dictionary keys hash as a tuple does, with no
    Python frame. A type or a connective is no tuple: a tuple's hash
    recurses in C with no depth check, so a deep one could crash the
    interpreter instead of raising `RecursionError`. `Top` and `Bot` are no
    tuple either: an empty tuple is false."""
    assert [cls.__name__ for cls in (Name, Prop, Effect, Constraint)
            if cls.__hash__ is not tuple.__hash__] == []
    assert [cls.__name__ for cls in (Arrow, ForallTyp, ForallEff, And, Or,
                                     Implies, Top, Bot)
            if issubclass(cls, tuple)] == []


def test_only_binary_and_config_write_a_constructor():
    """Every other value class is built by the constructor `Record` makes
    from its `__slots__`, so how a value is built from its fields is
    decided once, in `names`. `_Binary` caches its hash and `Config`
    checks its mode and has a default."""
    written = [cls.__name__ for cls in value_classes()
               if "__init__" in vars(cls)
               and cls.__init__.__module__ != Record.__module__]
    assert written == ["Config", "_Binary"]
