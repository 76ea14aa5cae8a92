"""Output checks kept apart from the checker they judge.

Nothing here calls into `efl`: formulas and valuations are read through
their public fields, so a fault in the checker's own evaluator or printer
cannot hide a wrong answer.
"""
from __future__ import annotations

import re


class WrongAnswer(Exception):
    """An output that violates a property the method must have."""


def holds(phi, rho: dict) -> bool:
    """Truth of formula phi under rho (name -> bool), without recursion.

    The session formula is a left-deep `And` chain as long as the program,
    so a recursive walk would hit the interpreter's recursion limit. Shared
    subformulas are evaluated once (memo keyed by object identity; hashing
    a deep formula would itself recurse).
    """
    memo: dict[int, bool] = {}
    stack = [phi]
    while stack:
        f = stack[-1]
        if id(f) in memo:
            stack.pop()
            continue
        kind = type(f).__name__
        if kind in ("Top", "Bot"):
            memo[id(f)] = kind == "Top"
        elif kind == "Prop":
            if f.name not in rho:
                raise WrongAnswer(f"witness does not cover {f.name.text}")
            memo[id(f)] = rho[f.name]
        elif kind in ("And", "Or", "Implies"):
            pending = [g for g in (f.lhs, f.rhs) if id(g) not in memo]
            if pending:
                stack.extend(pending)
                continue
            a, b = memo[id(f.lhs)], memo[id(f.rhs)]
            memo[id(f)] = (a and b if kind == "And" else
                           a or b if kind == "Or" else (not a) or b)
        else:
            raise WrongAnswer(f"not a formula node: {kind}")
        stack.pop()
    return memo[id(phi)]


def check_witness(formula, witness) -> None:
    """The witness valuation must satisfy the session formula."""
    if witness is None:
        raise WrongAnswer("accepted program has no witness")
    if not holds(formula, dict(witness.items())):
        raise WrongAnswer("witness does not satisfy the session formula")


# Generated names are e<uid> (effect variables) and p<uid> (propositions),
# also inside membership propositions such as m_e12_IO.
_GENERATED = re.compile(r"(?<![A-Za-z0-9])([ep])(\d+)(?![0-9])")


def canonical(text: str) -> str:
    """text with generated names renamed in order of first occurrence.

    Two texts are equal up to one consistent renaming of generated names
    exactly when their canonical forms are equal.
    """
    seen: dict[str, str] = {}

    def rename(m: re.Match) -> str:
        name = m.group(0)
        if name not in seen:
            seen[name] = f"{m.group(1).upper()}{len(seen)}"
        return seen[name]

    return _GENERATED.sub(rename, text)


_REJECTS = re.compile(r"\b(rejects?|rejected|rejection|unsatisfiable)\b")


def documented_exit(src: str) -> int:
    """The verdict a corpus program's header comment documents.

    A header that says the program is rejected (or its constraints are
    unsatisfiable) documents exit code 1; any other header documents
    acceptance.
    """
    header = []
    for line in src.splitlines():
        if not line.startswith("--"):
            break
        header.append(line[2:])
    return 1 if _REJECTS.search(" ".join(header)) else 0
