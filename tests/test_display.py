"""The scheme `efl check` prints for a definition, against the one it stores.

`driver.display_scheme` simplifies the stored scheme's constraints, drops
the binders that are then dead, and renames the rest to display letters
a, b, c, ... that avoid every word of the scheme printed without binders.
Each check here reads the displayed scheme before renaming through the
code `display_scheme` runs, by recording the arguments of its
`subst_scheme` call and the text its `_WORD.findall` call reads:

- the words the letters avoid are exactly the texts of the names the
  printed scheme mentions, as the recursive name walk finds them, apart
  from the printers' own words; and no letter is one of them;
- the displayed scheme means the stored one (ROADMAP item 10): under up
  to eight models of the session formula, extended over the scheme's own
  guard propositions, the two constraint sets entail each other, and,
  with guards erased and the top-level omega as ambient,
  `oracles.schemes_equivalent` holds;
- in constraint-free mode, where schemes carry no constraints, the display
  only drops the binders that do not occur in the body.
"""
from efl import driver
from efl.declarative import ReplayScope, entails
from efl.effects import (Constraint, Scheme, constraint_set,
                         free_eff_vars_constraints, free_eff_vars_type)
from efl.formulas import Prop, conj, conj2, disj2, neg
from efl.inference import Config, normalize
from efl.names import Name, NameSupply
from efl.syntax import parse_program
from helpers import (PRINTER_WORDS, SOURCES, chain_source, effect_props,
                     erase_guards, free_eff_vars_scheme, g_example_source,
                     props, sat_enumerate)
from oracles import (concretize_scheme, gen_program, names_in_type_rec,
                     scheme_props, schemes_equivalent)

MODES = ("constrained", "constraint-free")
# g_example with name texts that end in a prime: a word rule that splits
# "b'" would keep the letter b out of use
PRIMED = g_example_source(1).replace("IO", "b'")
# One instance of h, at a wildcard w, bounds w by IO under two guards, and
# calls it: the display merges the two constraints on w's binder, which the
# call keeps alive
MERGED = ("effect IO\ntype Int\n"
          "extern use : (Int ->[IO] Int ->[IO] Int) ->[] Int\n"
          "let g = fn (h : forall eff a. Int ->[a] Int ->[_] Int ->[_] Int) "
          "=> fn (x : Int) => use ((h [eff _]) x)\n")


class _Display:
    """What `display_scheme` worked from for one definition: the text whose
    words the letters avoid, the displayed scheme before renaming (its
    binders the stored ones kept, in order) and the letter of each."""

    def __init__(self, text, shown, letters):
        self.text, self.shown, self.letters = text, shown, letters


def _check(src: str, mode: str, monkeypatch, simplify: bool = True):
    """Check src as `efl check` does, recording each definition's
    display. Returns the outcome and one _Display per accepted
    definition, in order."""
    texts, shown = [], []
    subst, words = driver.subst_scheme, driver._WORD

    class RecordingWords:
        def findall(self, text):
            texts.append(text)
            return words.findall(text)

    def recording_subst(rename, scheme):
        shown.append((Scheme(tuple(rename), scheme.constraints, scheme.body),
                      [e.atoms[0][0].text for e in rename.values()]))
        return subst(rename, scheme)

    with monkeypatch.context() as m:
        m.setattr(driver, "_WORD", RecordingWords())
        m.setattr(driver, "subst_scheme", recording_subst)
        supply = NameSupply()
        outcome = driver.check_program(parse_program(src, supply), supply,
                                       Config(mode=mode), simplify)
    assert len(texts) == len(shown) == len(outcome.records)
    return outcome, [_Display(t, s, letters)
                     for t, (s, letters) in zip(texts, shown)]


def _name_texts(s: Scheme) -> set[str]:
    """The texts of the names s mentions outside its binder list: the
    recursive walk of the body, and each constraint side's atoms and guard
    propositions."""
    names = names_in_type_rec(s.body)
    for c in s.constraints:
        for e in (c.lhs, c.rhs):
            names |= e.atom_names() | effect_props(e)
    return {n.text for n in names}


def _programs(seeds: int, mode: str = "constrained") -> list[str]:
    return ([src for _, src in SOURCES] + [PRIMED]
            + [gen_program(seed, mode=mode) for seed in range(seeds)])


def test_display_letters_avoid_exactly_the_printed_words(monkeypatch):
    displays = 0
    for mode in MODES:
        for simplify in (True, False):
            for src in _programs(60, mode):
                _, shown = _check(src, mode, monkeypatch, simplify)
                for d in shown:
                    s = d.shown
                    texts = _name_texts(s)
                    assert len(set(d.letters)) == len(d.letters)
                    assert not set(d.letters) & texts, d.text
                    assert (set(driver._WORD.findall(d.text)) - PRINTER_WORDS
                            == texts), d.text
                    assert d.text == str(Scheme((), s.constraints, s.body))
                    displays += 1
    assert displays >= 400


def _valuations(outcome, scheme: Scheme, limit: int = 8):
    """Up to `limit` models of the session formula over its propositions
    and the guard propositions of `scheme`, which it may leave free; every
    other proposition the run minted is False."""
    free = conj(disj2(Prop(p), neg(Prop(p))) for p in sorted(
        scheme_props(scheme) - props(outcome.formula), key=Name.KEY))
    return [dict.fromkeys(outcome.props, False) | model
            for model in sat_enumerate(conj2(outcome.formula, free), limit)]


def _erased(omega, rho) -> frozenset:
    return constraint_set(Constraint(erase_guards(c.lhs, rho),
                                     erase_guards(c.rhs, rho))
                          for c in omega)


def test_printed_scheme_means_the_stored_one(monkeypatch):
    """Every accepted definition in constrained mode, under each valuation
    of `_valuations`:

    - its displayed constraints and its stored ones entail each other,
      apart from the stored constraints on a variable the display no
      longer mentions, as `simplify_constraints` promises;
    - with at most 3 stored binders and 6 atoms besides them, the displayed
      scheme is `schemes_equivalent` to the stored one, guards erased, with
      the erased top-level omega as ambient. At least 800 definitions are
      compared, and in at least 30 of those simplification drops or merges
      a constraint.

    Only MERGED has a display that merges guards. Its merged constraint
    bounds a variable that occurs only in the latent effect of the result,
    where an instance may take it pure, so only the entailment sees a
    wrong merge: a scheme in which it matters has four binders."""
    sources = (_programs(600) + [MERGED]
               + [g_example_source(n) for n in (2, 3)]
               + [chain_source(n) for n in (2, 3, 4)])
    compared = simplified = 0
    for src in sources:
        outcome, shown = _check(src, "constrained", monkeypatch)
        done = set()
        for rec, d in zip(outcome.records, shown):
            stored = rec.gen.scheme
            mentioned = (free_eff_vars_type(stored.body)
                         | free_eff_vars_constraints(d.shown.constraints))
            bounds = [c for c in normalize(stored.constraints)
                      if c.lhs.atoms[0][0] in mentioned]
            cases = []
            for rho in _valuations(outcome, stored):
                assert entails(ReplayScope(d.shown.constraints, rho),
                               bounds), (rec.name, stored)
                assert entails(ReplayScope(stored.constraints, rho),
                               d.shown.constraints), (rec.name, stored)
                pair = (concretize_scheme(d.shown, rho, {}),
                        concretize_scheme(stored, rho, {}))
                base = sorted(set(outcome.discharger.rigid)
                              | free_eff_vars_scheme(pair[0])
                              | free_eff_vars_scheme(pair[1]), key=Name.KEY)
                cases.append((*pair, tuple(base),
                              _erased(outcome.omega, rho)))
            if len(stored.binders) > 3 or any(len(c[2]) > 6 for c in cases):
                continue
            for case in cases:
                if case not in done:
                    done.add(case)
                    assert schemes_equivalent(*case), (rec.name, stored)
            compared += 1
            simplified += d.shown.constraints != normalize(stored.constraints)
    assert compared >= 800
    assert simplified >= 30


def test_constraint_free_display_only_prunes_binders(monkeypatch):
    sources = _programs(150, "constraint-free")
    displays = 0
    for src in sources:
        outcome, shown = _check(src, "constraint-free", monkeypatch)
        for rec, d in zip(outcome.records, shown):
            stored = rec.gen.scheme
            live = free_eff_vars_type(stored.body)
            assert stored.constraints == d.shown.constraints == frozenset()
            assert d.shown.body is stored.body
            assert d.shown.binders == tuple(b for b in stored.binders
                                            if b in live)
            displays += 1
    assert displays >= 200
