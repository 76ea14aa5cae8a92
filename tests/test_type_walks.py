"""`map_type`/`walk_type`, their callers and the printers of types and
certificates against the recursive walks."""
import random

import pytest

from efl.driver import _WORD, render_cert, wrapped_cert
from efl.effects import (PURE, Arrow, ForallEff, ForallTyp, TVar, arrow_count,
                         free_eff_vars_type, subst_type, subst_type_vars,
                         walk_type)
from efl.names import KIND_EFF, KIND_PROP, KIND_TYPE, NameSupply
from helpers import (PRINTER_WORDS, SOURCES, check_source, nest_source,
                     spine_source)
from oracles import (arrow_count_rec, free_eff_vars_type_rec,
                     names_in_type_rec, random_effect, random_type,
                     render_cert_rec, subst_type_rec, subst_type_vars_rec,
                     type_props, type_props_rec, type_str_rec)


def _case(seed: int):
    """A random type, an effect substitution and a type-variable map over
    its names, bound ones included."""
    rng = random.Random(seed)
    supply = NameSupply()
    atoms = [supply.fresh(KIND_EFF, t) for t in ("IO", "DB", "e")]
    tvars = [supply.fresh(KIND_TYPE, t) for t in ("Unit", "Int")]
    props = [supply.fresh(KIND_PROP) for _ in range(3)]
    minted = []
    t = random_type(rng, supply, atoms, tvars, props, minted,
                    depth=rng.randint(1, 6))
    effs = atoms + minted
    theta = {v: random_effect(rng, effs, props)
             for v in rng.sample(effs, k=rng.randint(0, len(effs)))}
    bound = [node.binder for node, _ in walk_type(t)
             if isinstance(node, ForallTyp)]
    tmap = {v: random_type(rng, supply, atoms, tvars, props, [], depth=2)
            for v in rng.sample(tvars + bound, k=rng.randint(0, 2))}
    return t, theta, tmap


def test_type_walks_agree_with_recursive_reference():
    for seed in range(400):
        t, theta, tmap = _case(seed)
        assert subst_type(theta, t) == subst_type_rec(theta, t), seed
        assert subst_type_vars(tmap, t) == subst_type_vars_rec(tmap, t), seed
        assert type_props(t) == type_props_rec(t), seed
        assert free_eff_vars_type(t) == free_eff_vars_type_rec(t), seed
        assert arrow_count(t) == arrow_count_rec(t), seed
        assert (set(_WORD.findall(str(t))) - PRINTER_WORDS
                == {n.text for n in names_in_type_rec(t)}), seed
        assert str(t) == type_str_rec(t), seed


@pytest.mark.parametrize("mode", ["constrained", "constraint-free"])
def test_printers_agree_with_recursive_reference_on_programs(mode):
    """Every certificate, scheme body and final type checking reports on
    the corpus and the generated families prints as the recursive
    printers print it."""
    sources = [s for _, s in SOURCES] + [nest_source(30), spine_source(30)]
    printed = 0
    for src in sources:
        outcome = check_source(src, mode)
        certs = [(wrapped_cert(rec), rec.gen.scheme.body)
                 for rec in outcome.records]
        if outcome.main is not None:
            certs.append((outcome.main.cert, outcome.main.type))
        for cert, t in certs:
            assert render_cert(cert) == render_cert_rec(cert)
            assert str(t) == type_str_rec(t)
            printed += 1
    assert printed > len(sources)


def test_random_types_cover_every_case():
    """The generated cases reach nested quantifiers of both kinds, guarded
    effects and effect binders that occur outside their quantifier."""
    seen = set()
    for seed in range(400):
        t, _, _ = _case(seed)
        nodes = [node for node, _ in walk_type(t)]
        seen.update(type(node) for node in nodes)
        quantified = [node for node in nodes
                      if isinstance(node, (ForallEff, ForallTyp))]
        if any(isinstance(q.body, (ForallEff, ForallTyp))
               for q in quantified):
            seen.add("nested")
        if type_props(t):
            seen.add("guarded")
        binders = {q.binder for q in quantified if isinstance(q, ForallEff)}
        if binders & free_eff_vars_type(t):
            seen.add("escaping")
    assert seen >= {Arrow, TVar, ForallEff, ForallTyp, "nested", "guarded",
                    "escaping"}


def test_walk_type_lists_nodes_in_preorder_with_binders_in_scope(ns):
    a, b, c = ns.eff("a"), ns.eff("b"), ns.eff("c")
    u = TVar(ns.typ("Unit"))
    inner = Arrow(u, ns.ev("a"), u)
    body = Arrow(inner, ns.ev("b"), u)
    t = ForallEff(a, ForallEff(b, body))
    walked = walk_type(t)
    assert [node for node, _ in walked] == [t, t.body, body, inner, u, u, u]
    assert [bound for _, bound in walked] == [
        frozenset(), {a}, {a, b}, {a, b}, {a, b}, {a, b}, {a, b}]
    assert free_eff_vars_type(Arrow(u, ns.ev("c"), t)) == {c}


def test_walks_are_not_limited_by_nesting_depth(ns):
    t = TVar(ns.typ("Unit"))
    for _ in range(20000):
        t = Arrow(t, ns.atom("a", ns.p("p")), TVar(ns.typ("Unit")))
    assert arrow_count(t) == 20000
    assert type_props(t) == {ns.prop("p")}
    assert free_eff_vars_type(t) == {ns.eff("a")}
    tail = f" ->[{ns.atom('a', ns.p('p'))}] Unit"
    assert str(t) == "(" * 19999 + "Unit" + (tail + ")") * 19999 + tail
    right = TVar(ns.typ("Unit"))
    for _ in range(20000):
        right = Arrow(TVar(ns.typ("Unit")), PURE, right)
    right = ForallTyp(ns.typ("t"), ForallEff(ns.eff("e"), right))
    assert str(right) == ("forall typ t. forall eff e. "
                          + " ->[] ".join(["Unit"] * 20001))
