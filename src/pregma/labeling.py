"""Three-valued labelling of vertex classes by state formulas.

A verdict at a class quantifies over every concrete vertex of that class:
holds means the formula is true at all of them, fails means false at all of
them, unknown covers both genuine mixtures and the engines' honest refusals.
Boolean connectives run three-valued, which lets a decided conjunct mask an
undecided one. Probabilistic operators dispatch on the threshold: one-step
masses are exact rationals, untils with threshold 0 or 1 go to the
qualitative engines, and everything else reads the until's one certified
enclosure from `solve_until`, whose values are absolute probabilities
exactly for the axiom rule's classes. That enclosure is solved at
min(eps, 1e-9), so the almost-sure engine reads the same one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .formulas import And, Atom, Formula, FormulaError, Next, Not, TT, Until
from .model import CanonicalVertex, Grammar
from .polysys import decide_threshold
from .qualitative import (ALMOST_SURE_EPS, next_qualitative, until_almost_sure,
                          until_positive)
from .quantitative import solve_until, win_key
from .validation import Analysis, analyse

ZERO = Fraction(0)
ONE = Fraction(1)

# a verdict per class: "holds" | "fails" | "unknown"
Verdicts = dict[CanonicalVertex, str]

_NEGATED = {"holds": "fails", "fails": "holds", "unknown": "unknown"}


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "unknown"
    interval: tuple[Fraction, Fraction] | None = None


def classes_for_colours(
    an: Analysis, names: frozenset[str] | None
) -> frozenset[CanonicalVertex]:
    """Reachable classes carrying at least one of the colours; None means all."""
    if names is None:
        return frozenset(an.reachable)
    return frozenset(c for c in an.reachable if an.classes[c].colours & names)


class _Evaluator:
    def __init__(self, an: Analysis, eps: Fraction):
        self.an = an
        self.g = an.grammar
        # one solve per until serves its thresholds and its almost-sure verdicts
        self.eps = min(eps, ALMOST_SURE_EPS)
        self.cans = an.reachable
        self.colour_names = self.g.colour_names
        self.axiom_vertices = set(an.rules[self.g.axiom].rhs.vertices)

    # each eval returns a verdict per class, plus per-class probability
    # intervals when the node was solved quantitatively
    def eval(self, f: Formula) -> tuple[Verdicts, dict]:
        if isinstance(f, TT):
            return {c: "holds" for c in self.cans}, {}
        if isinstance(f, Atom):
            return self._atom(f.name), {}
        if isinstance(f, Not):
            sub, _ = self.eval(f.sub)
            return {c: _NEGATED[v] for c, v in sub.items()}, {}
        if isinstance(f, And):
            left, _ = self.eval(f.left)
            right, _ = self.eval(f.right)
            out: Verdicts = {}
            for c in self.cans:
                a, b = left[c], right[c]
                if a == "fails" or b == "fails":
                    out[c] = "fails"
                elif a == "holds" and b == "holds":
                    out[c] = "holds"
                else:
                    out[c] = "unknown"
            return out, {}
        if isinstance(f, Next):
            return self._next(f), {}
        if isinstance(f, Until):
            return self._until(f)
        raise TypeError(f)

    def _atom(self, name: str) -> Verdicts:
        is_colour = name in self.colour_names
        is_vertex = name in self.axiom_vertices
        if is_colour and is_vertex:
            raise FormulaError(
                f"atom {name} is both a colour and an axiom-rule vertex; rename one"
            )
        if is_colour:
            members = classes_for_colours(self.an, frozenset({name}))
        elif is_vertex:
            members = frozenset({CanonicalVertex(self.g.axiom, name)})
        else:
            raise FormulaError(
                f"atom {name} is neither a colour ({sorted(self.colour_names)}) "
                f"nor an axiom-rule vertex ({sorted(map(str, self.axiom_vertices))})"
            )
        return {c: "holds" if c in members else "fails" for c in self.cans}

    @staticmethod
    def _split(verdicts: Mapping[CanonicalVertex, str]):
        under = frozenset(c for c, v in verdicts.items() if v == "holds")
        over = frozenset(c for c, v in verdicts.items() if v != "fails")
        return under, over

    def _next(self, f: Next) -> Verdicts:
        sub, _ = self.eval(f.sub)
        under, over = self._split(sub)
        return next_qualitative(self.an, under, f.cmp, f.rho, over=over)

    def _until(self, f: Until) -> tuple[Verdicts, dict]:
        left, _ = self.eval(f.left)
        right, _ = self.eval(f.right)
        u1, o1 = self._split(left)
        u2, o2 = self._split(right)
        # a threshold every probability passes, or none does
        trivial = decide_threshold((ZERO, ONE), f.cmp, f.rho)
        if trivial != "unknown":
            return {c: trivial for c in self.cans}, {}

        if f.rho == 0 or f.rho == 1:
            return self._until_qualitative(f, u1, o1, u2, o2), {}
        return self._until_quantitative(f, u1, o1, u2, o2)

    def _until_qualitative(self, f: Until, u1, o1, u2, o2):
        # remaining qualitative cases: > 0, <= 0, >= 1, < 1
        if f.rho == 0:
            engine = until_positive
            negated = f.cmp == "<="
        else:
            engine = until_almost_sure
            negated = f.cmp == "<"
        lower = engine(self.an, u1, u2)
        upper = lower if (u1, u2) == (o1, o2) else engine(self.an, o1, o2)
        out: Verdicts = {}
        for c in self.cans:
            if lower[c] == "holds":
                verdict = "holds"
            elif upper[c] == "fails":
                verdict = "fails"
            else:
                verdict = "unknown"
            out[c] = _NEGATED[verdict] if negated else verdict
        return out

    def _until_quantitative(self, f: Until, u1, o1, u2, o2):
        lo_enc = solve_until(self.an, u1, u2, self.eps)
        hi_enc = lo_enc if (u1, u2) == (o1, o2) else solve_until(self.an, o1, o2, self.eps)
        intervals: dict[CanonicalVertex, tuple[Fraction, Fraction]] = {}
        out: Verdicts = {}
        for c in self.cans:
            if c.rule == self.g.axiom:
                intervals[c] = (lo_enc.lo[win_key(c)], hi_enc.hi[win_key(c)])
                out[c] = decide_threshold(intervals[c], f.cmp, f.rho)
            else:
                out[c] = "unknown"

        # deeper classes: absolute probabilities depend on the instance's
        # surroundings, but certified 0 / 1 still decide any threshold
        zero_one_needed = [c for c in self.cans if c.rule != self.g.axiom]
        if zero_one_needed:
            pos = until_positive(self.an, o1, o2)
            one = until_almost_sure(self.an, u1, u2)
            for c in zero_one_needed:
                if pos[c] == "fails":
                    intervals[c] = (ZERO, ZERO)
                elif one[c] == "holds":
                    intervals[c] = (ONE, ONE)
                else:
                    continue
                out[c] = decide_threshold(intervals[c], f.cmp, f.rho)
        return out, intervals


def label_formula(
    g: Grammar,
    formula: Formula,
    eps: Fraction = Fraction(1, 10**6),
) -> dict[CanonicalVertex, Verdict]:
    ev = _Evaluator(analyse(g), eps)
    statuses, intervals = ev.eval(formula)
    return {c: Verdict(statuses[c], intervals.get(c)) for c in ev.cans}
