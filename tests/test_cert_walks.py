"""The node-table certificate walks against the per-class ones.

`declarative.subst_cert` and `driver.render_cert` read a certificate node's
fields from its class's `__slots__` and its rule name from `RULE`.
`subst_cert_per_class` and `render_cert_per_class` in `tests/oracles.py`
are the same walks written out one branch per class. On the corpus and on
random programs in both modes, the two substitute to equal certificates
that keep the same nodes of their input, and print byte for byte alike.
"""
import re
from collections import Counter

import pytest

from efl.declarative import Cert, subst_cert
from efl.driver import render_cert, wrapped_cert
from helpers import SOURCES, check_source
from oracles import gen_program, render_cert_per_class, subst_cert_per_class


def _sources(mode: str) -> list[str]:
    return ([src for _, src in SOURCES]
            + [gen_program(seed, mode=mode) for seed in range(150)])


def _compare_subst(theta, cert: Cert, seen: Counter) -> None:
    """Equal results, and a node of cert comes back itself from one walk
    exactly when it does from the other."""
    got, want = subst_cert(theta, cert), subst_cert_per_class(theta, cert)
    assert got == want
    todo = [(got, want, cert)]
    while todo:
        g, w, old = todo.pop()
        assert (g is old) == (w is old)
        seen["kept" if g is old else "rebuilt"] += 1
        if isinstance(old, Cert) and g is not old:
            todo += [(getattr(g, f), getattr(w, f), getattr(old, f))
                     for f in old.__slots__]


def _compare_render(cert: Cert, seen: Counter) -> None:
    text = render_cert(cert)
    assert text == render_cert_per_class(cert)
    seen.update(re.findall(r"\((var|abs|app|tabs|eabs|tapp|eapp|let|sub) ",
                           text))


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
def test_node_table_walks_agree_with_per_class_walks(mode):
    seen: Counter = Counter()
    for src in _sources(mode):
        outcome = check_source(src, mode)
        for rec in outcome.records:
            cert = wrapped_cert(rec)
            _compare_subst(rec.gen.theta, rec.res.cert, seen)
            # The wrapped certificate is already substituted: the walks
            # give back most of it, or all of it, itself.
            _compare_subst(rec.gen.theta, cert, seen)
            _compare_render(cert, seen)
        if outcome.main is not None:
            _compare_render(outcome.main.cert, seen)
    # Every rule is printed, and the substitutions both keep and rebuild.
    assert all(seen[rule] for rule in ("var", "abs", "app", "tabs", "eabs",
                                       "tapp", "eapp", "let", "sub"))
    assert seen["kept"] and seen["rebuilt"]
