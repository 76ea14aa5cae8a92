"""Command line interface: `efl check FILE` and `efl repl`.

Exit codes: 0 = accepted, 1 = type/effect error (shape mismatch, an
unsatisfiable constraint system, or a certificate that fails verification),
2 = parse or scope error, or a file that cannot be read (missing, unreadable,
or not UTF-8), 3 = a program nested too deeply for the checker's recursion.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .declarative import CertificateError
from .driver import (TopLevel, check_program, display_scheme,
                     display_type_and_effect, render_cert,
                     simplify_constraints, verify_certificates, wrapped_cert)
from .inference import Config, InferError
from .names import NameSupply
from .syntax import Parser, SourceError, parse_program


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="efl",
        description="Type-and-effect checker with effect inference, "
                    "effect guards and SAT-backed constraint discharge.")
    p.add_argument("--mode", choices=("constrained", "constraint-free"),
                   default="constrained",
                   help="let-generalization strategy (default: constrained)")
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("check", help="check a .efl file")
    c.add_argument("file", help="path to the source file")
    c.add_argument("--verify", action="store_true",
                   help="re-validate every certificate under the witness")
    c.add_argument("--dump-cert", action="store_true",
                   help="print each definition's typing certificate")
    c.add_argument("--dump-formula", action="store_true",
                   help="print the accumulated discharge formula")
    c.add_argument("--no-simplify", action="store_true",
                   help="report schemes without constraint simplification")
    sub.add_parser("repl", help="interactive session reading stdin")
    return p


# Built once per process: building costs about as much as checking a small
# program, and parse_args leaves the parser as it found it.
_ARG_PARSER = build_arg_parser()


def cmd_check(args: argparse.Namespace) -> int:
    try:
        src = Path(args.file).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as ex:
        print(f"error: cannot read {args.file}: {ex}", file=sys.stderr)
        return 2
    supply = NameSupply()
    try:
        program = parse_program(src, supply)
    except SourceError as ex:
        print(f"error: {args.file}: {ex}", file=sys.stderr)
        return 2
    outcome = check_program(program, supply, Config(mode=args.mode),
                            display_simplify=not args.no_simplify)
    sys.stdout.write(outcome.stdout())
    if args.dump_formula:
        print(f"formula: {outcome.formula}")
    if args.dump_cert:
        for rec in outcome.records:
            print(f"cert {rec.name.text}: {render_cert(wrapped_cert(rec))}")
        if outcome.main is not None:
            print(f"cert it: {render_cert(outcome.main.cert)}")
    if outcome.error is not None:
        print(outcome.error, file=sys.stderr)
        return outcome.exit_code
    if args.verify:
        try:
            verify_certificates(outcome)
        except CertificateError as ex:
            print(f"error: certificate verification failed: {ex}",
                  file=sys.stderr)
            return 1
        print("certificates: verified")
    return 0


class Repl:
    """Interactive session; accepted inputs extend the environment, rejected
    ones leave it untouched."""

    def __init__(self, config: Config) -> None:
        self.supply = NameSupply()
        self.scope = {}
        self.top = TopLevel((), self.supply, config)

    def handle(self, line: str) -> str | None:
        """Process one input line; returns the text to print, or None for
        a blank or comment-only line.

        Error columns count from the start of the input line: the text is
        parsed where it stands, a `:type` command blanked out. An input
        nested too deeply for the checker's recursion is answered with an
        error, and the session goes on."""
        line = line.rstrip()
        command = line.lstrip()
        if not command or command.startswith("--"):
            return None
        if command in (":quit", ":q"):
            raise EOFError
        if command == ":constraints":
            protected = frozenset(self.top.discharger.rigid)
            simplified = simplify_constraints(frozenset(self.top.omega),
                                              protected)
            if not simplified:
                return "(no constraints)"
            return "\n".join(sorted(map(str, simplified)))
        try:
            if command.split(maxsplit=1)[0] == ":type":
                end = line.index(":type") + len(":type")
                return self._show_type(" " * end + line[end:])
            if command.startswith(":"):
                return f"error: unknown command {command.split()[0]!r}"
            return self._handle_item(line)
        except RecursionError:
            return "error: input nested too deeply"

    def _show_type(self, src: str) -> str:
        try:
            parser = Parser(src, self.supply, self.scope)
            expr = parser.parse_expr()
            parser.expect("eof", "end of input")
            res = self.top.type_of(expr)
        except SourceError as ex:
            return f"parse error: {ex}"
        except InferError as ex:
            return f"error: {ex}"
        if res is None:
            return "error: effect constraints unsatisfiable"
        return display_type_and_effect(res.type, res.effect)

    def _handle_item(self, line: str) -> str:
        try:
            parser = Parser(line, self.supply, self.scope)
            kind, name, payload = parser.parse_repl_item()
        except SourceError as ex:
            return f"parse error: {ex}"
        rejected = "error: effect constraints unsatisfiable; input rejected"
        try:
            if kind == "expr":
                res = self.top.add_expression(payload)
                if res is None:
                    return rejected
                return "it : " + display_type_and_effect(res.type, res.effect)
            if kind == "def":
                rec = self.top.add_definition(name, payload)
                if rec is None:
                    return rejected
                out = f"{name.text} : {display_scheme(rec.gen.scheme)}"
            elif kind == "extern":
                out = f"{name.text} : {self.top.add_extern(name, payload)}"
            else:
                if kind == "effect":
                    self.top.discharger.add_rigid(name)
                out = f"{kind} {name.text}"
        except InferError as ex:
            return f"error: {ex}"
        self.scope = parser.scope
        return out


def cmd_repl(args: argparse.Namespace) -> int:
    repl = Repl(Config(mode=args.mode))
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("efl> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        try:
            out = repl.handle(line)
        except EOFError:
            break
        if out is not None:
            print(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _ARG_PARSER.parse_args(argv)
    if args.command == "check":
        try:
            return cmd_check(args)
        except RecursionError:
            print(f"error: {args.file}: program nested too deeply",
                  file=sys.stderr)
            return 3
    return cmd_repl(args)


if __name__ == "__main__":
    sys.exit(main())
