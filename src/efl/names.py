"""Globally unique names and the fresh-name supply.

Every binder occurrence in a program, and every variable minted during
inference, gets its own Name with a unique id. A Name compares and hashes
by its text, kind and id together; ids are unique within a run, so two names
of one run are equal exactly when their ids are. Plain dictionary
substitution is therefore capture-avoiding: a substitution can only ever
mention ids that are in scope where it was built.
"""
from __future__ import annotations

from dataclasses import dataclass

# Name kinds. "eff" covers declared effect constants, effect binders and
# inference-minted effect variables alike; rigidity is a property of the
# context (which names sit in delta), not of the name.
KIND_TYPE = "type"
KIND_EFF = "eff"
KIND_EXPR = "expr"
KIND_PROP = "prop"

# Each kind, and the prefix of a name minted without a text: the prefix
# and the id make up its text.
_PREFIXES = {KIND_TYPE: "t", KIND_EFF: "e", KIND_EXPR: "x", KIND_PROP: "p"}


@dataclass(frozen=True)
class Name:
    """An identifier with a kind and a globally unique id."""

    text: str
    kind: str
    uid: int

    def __post_init__(self) -> None:
        if self.kind not in _PREFIXES:
            raise ValueError(f"bad name kind: {self.kind!r}")

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"{self.text}#{self.uid}"

    def key(self) -> tuple[str, int, str]:
        """Deterministic sort key (kind, id, text)."""
        return (self.kind, self.uid, self.text)


class NameSupply:
    """Mints fresh names. One supply per run; ids count up from zero."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def fresh(self, kind: str, text: str | None = None) -> Name:
        uid = self._next
        self._next += 1
        if text is None:
            text = f"{_PREFIXES[kind]}{uid}"
        return Name(text, kind, uid)
