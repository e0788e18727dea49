"""Three-valued labelling of vertex classes by state formulas.

A verdict at a class quantifies over every concrete vertex of that class:
holds means the formula is true at all of them, fails means false at all of
them, unknown covers both genuine mixtures and the engines' honest refusals.
Every subformula is labelled by a pair of class id sets, the classes where it
surely holds and those where it possibly holds (the first within the
second): holds is the first set, fails lies outside the second, unknown is
the gap. Negation complements and swaps the pair and conjunction intersects
it, so a decided conjunct masks an undecided one. Probabilistic operators
read their operands' pairs and dispatch on the threshold: one-step masses
are exact rationals, untils with threshold 0 or 1 go to the qualitative
engines, and everything else reads the until's one certified enclosure from
`solve_until`, whose values are absolute probabilities exactly for the axiom
rule's classes; the almost-sure engine reads the same one. `label_formula`
keys its verdicts by creation site, through the analysis's `names`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .formulas import And, Atom, Formula, FormulaError, Next, Not, TT, Until
from .model import CanonicalVertex, Grammar
from .polysys import decide_threshold
from .qualitative import next_qualitative, until_almost_sure, until_positive
from .quantitative import solve_until
from .validation import Analysis, analyse

ZERO = Fraction(0)
ONE = Fraction(1)

# (surely, possibly): the classes where a formula holds at every vertex, and
# the classes where it may hold at some vertex
Pair = tuple[frozenset[int], frozenset[int]]


class Verdict(NamedTuple):
    status: str  # "holds" | "fails" | "unknown"
    interval: tuple[Fraction, Fraction] | None


def classes_for_colours(an: Analysis, names: frozenset[str] | None) -> frozenset[int]:
    """Reachable classes carrying at least one of the colours; None means all."""
    if names is None:
        return frozenset(an.reachable)
    return frozenset(c for c, vc in enumerate(an.classes) if vc.colours & names)


def _label(an: Analysis, f: Formula) -> Pair:
    if isinstance(f, TT):
        every = frozenset(an.reachable)
        return every, every
    if isinstance(f, Atom):
        g = an.grammar
        vertices = set(an.rules[g.axiom].rhs.vertices)
        if f.name in g.colour_names and f.name in vertices:
            raise FormulaError(
                f"atom {f.name} is both a colour and an axiom-rule vertex; rename one"
            )
        if f.name in g.colour_names:
            members = classes_for_colours(an, frozenset({f.name}))
        elif f.name in vertices:
            members = frozenset({an.ids[g.axiom, f.name]})
        else:
            raise FormulaError(
                f"atom {f.name} is neither a colour ({sorted(g.colour_names)}) "
                f"nor an axiom-rule vertex ({sorted(map(str, vertices))})"
            )
        return members, members
    if isinstance(f, Not):
        surely, possibly = _label(an, f.sub)
        every = frozenset(an.reachable)
        return every - possibly, every - surely
    if isinstance(f, And):
        (u1, o1), (u2, o2) = _label(an, f.left), _label(an, f.right)
        return u1 & u2, o1 & o2
    if isinstance(f, Next):
        surely, possibly = _label(an, f.sub)
        verdicts = next_qualitative(an, surely, f.cmp, f.rho, over=possibly)
        return (frozenset(c for c, v in verdicts.items() if v == "holds"),
                frozenset(c for c, v in verdicts.items() if v != "fails"))
    if isinstance(f, Until):
        return _until(an, f)[0]
    raise TypeError(f)


def _until(an: Analysis, f: Until) -> tuple[Pair, dict[int, tuple[Fraction, Fraction]]]:
    """The until's pair, and the probability interval of each class that the
    enclosure or a certified 0 / 1 gave one."""
    (u1, o1), (u2, o2) = _label(an, f.left), _label(an, f.right)
    every = frozenset(an.reachable)
    # a threshold every probability passes, or none does
    trivial = decide_threshold((ZERO, ONE), f.cmp, f.rho)
    if trivial != "unknown":
        return (every, every) if trivial == "holds" else (frozenset(), frozenset()), {}

    if f.rho == 0 or f.rho == 1:
        # > 0 and >= 1 ask the engine; <= 0 and < 1 are their negations
        engine = until_positive if f.rho == 0 else until_almost_sure
        lower = engine(an, u1, u2)
        upper = lower if (u1, u2) == (o1, o2) else engine(an, o1, o2)
        surely = frozenset(c for c, v in lower.items() if v == "holds")
        possibly = frozenset(c for c, v in upper.items() if v != "fails")
        if f.cmp in ("<=", "<"):
            return (every - possibly, every - surely), {}
        return (surely, possibly), {}

    lo_enc, hi_enc = solve_until(an, u1, u2), solve_until(an, o1, o2)
    axiom = an.grammar.axiom
    intervals = {c: (lo_enc.lo[c], hi_enc.hi[c])
                 for c in an.reachable if an.names[c].rule == axiom}
    # deeper classes: absolute probabilities depend on the instance's
    # surroundings, but certified 0 / 1 still decide any threshold
    deeper = [c for c in an.reachable if c not in intervals]
    if deeper:
        pos = until_positive(an, o1, o2)
        one = until_almost_sure(an, u1, u2)
        for c in deeper:
            if pos[c] == "fails":
                intervals[c] = (ZERO, ZERO)
            elif one[c] == "holds":
                intervals[c] = (ONE, ONE)
    verdicts = {c: decide_threshold(i, f.cmp, f.rho) for c, i in intervals.items()}
    return (frozenset(c for c, v in verdicts.items() if v == "holds"),
            every - {c for c, v in verdicts.items() if v == "fails"}), intervals


def _verdicts(an: Analysis, formula: Formula) -> list[Verdict]:
    """One verdict per class id. Only a top-level until's verdicts carry
    intervals."""
    if isinstance(formula, Until):
        (surely, possibly), intervals = _until(an, formula)
    else:
        (surely, possibly), intervals = _label(an, formula), {}
    return [Verdict("holds" if c in surely else "unknown" if c in possibly else "fails",
                    intervals.get(c)) for c in an.reachable]


def label_formula(g: Grammar, formula: Formula) -> dict[CanonicalVertex, Verdict]:
    """One verdict per reachable class, keyed by its creation site in the
    analysis's order."""
    an = analyse(g)
    return dict(zip(an.names, _verdicts(an, formula)))
