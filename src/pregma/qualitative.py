"""Qualitative verdicts per vertex class: positive probability, probability
one, and exact one-step mass.

Class-level answers here mean "for every concrete vertex of this class".
Where a property genuinely depends on the surroundings above a vertex's
level, the verdict degrades to unknown rather than guessing; each decided
answer is backed either by exact rational arithmetic or by the until's one
certified enclosure from `quantitative.solve_until`.

Classes are the analysis's ids, and every class set is a set of ids. The
recurring subtlety is descending through an input: which vertex the walk
lands on depends on where the class's context rule was instantiated. The
grammar's analysis gives every step's landing place as the set of classes
it can be: per occurrence, the set for each input (`bindings`), and across
occurrences, every class that can end up at an input (`refs`); "for all
occurrences" arguments then give sound universal verdicts, "for some
occurrence" sound existential ones. One-step successors are read from the
analysis's per-context fragments, each target a class set too. The until
engines read the shared assembly's positive keys (pins at 1 included) and
each class's positive descents, (j, variable) pairs, and never compute a
variable id; each of their class sets is one fixpoint (`_fixpoint`), whose
soundness rests on one induction over the level of a concrete vertex.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .polysys import decide_threshold
from .quantitative import shared_assembly, solve_until
from .validation import Analysis

ZERO = Fraction(0)
ONE = Fraction(1)


def successor_table(an: Analysis) -> dict[int, list[tuple[Fraction, frozenset[int]]]]:
    """One-step successors of each reachable class, with exact probabilities.

    Read off the class's node in its context's fragment, whose out-arcs
    already include those gained from the child copy the class is attached
    to. Each target is the set of classes the vertex reached can be: a
    class c is {c}, and an arc into the context's own input j reaches
    `refs[(rule, j)]`, every class a parent can glue there. An absorbing
    sink is its own successor.
    """
    mu = an.grammar.mu
    table: dict[int, list[tuple[Fraction, frozenset[int]]]] = {}
    for name, frag in an.fragments.items():
        for node in frag.starts:
            succs = []
            for label, key in frag.out[node.key]:
                hit = frag.nodes[key]
                succs.append((mu[label], an.refs[name, hit.input_index]
                              if hit.kind == "input" else frozenset({hit.can})))
            if not succs and node.can in an.absorbing:
                succs.append((ONE, frozenset({node.can})))
            table[node.can] = succs
    return table


def next_qualitative(an: Analysis, targets: frozenset[int], cmp: str, rho: Fraction,
                     over: frozenset[int] | None = None) -> dict[int, str]:
    """Per-class verdict for: one step lands in `targets` with mass cmp rho.

    One-step mass is a single exact rational per class, so any threshold is
    decidable here up to ref targets whose occurrences disagree. For a
    target set known only up to bounds, `targets` is the classes surely in
    it and `over` (default: `targets`) the classes possibly in it."""
    over = targets if over is None else over
    out: dict[int, str] = {}
    for c, succs in successor_table(an).items():
        mass_lo = ZERO
        mass_hi = ZERO
        for p, sites in succs:
            if sites <= targets:
                mass_lo += p
                mass_hi += p
            elif sites & over:
                mass_hi += p
        out[c] = decide_threshold((mass_lo, mass_hi), cmp, rho)
    return out


def _fixpoint(an: Analysis, start: Iterable[int],
              member: Callable[[int, set[int]], bool]) -> set[int]:
    """Re-test every reachable class against the set, updating it in place,
    until no class changes. For a monotone test this is the least fixpoint
    when started from no class and the greatest when started from all.

    Every fixpoint S is sound, by induction over the level of a concrete
    vertex v of class c. A walk that leaves v's level does so through an
    input of v's rule copy and lands on a vertex created at a lower level;
    the test sees that vertex only through the classes it can be
    (`an.bindings`, `an.refs`), and the axiom's classes, on level 0, have
    no inputs. Two kinds of test follow:
    - "c passes and every class it reads in S has the property at every
      vertex, so c has it at every vertex": then every member of S has the
      property at every vertex; the greatest fixpoint is the tightest.
    - "v has the property, so c passes once S holds the classes of v's
      landing vertices that have it": then S holds every class with such a
      vertex; the least fixpoint is the tightest.
    """
    s = set(start)
    changed = True
    while changed:
        changed = False
        for c in an.reachable:
            if member(c, s) != (c in s):
                s ^= {c}
                changed = True
    return s


def until_positive(an: Analysis, phi1: frozenset[int], phi2: frozenset[int]) -> dict[int, str]:
    """Is P(phi1 until phi2) positive: holds (for every instance), fails (for
    none), or unknown.

    `may` holds every class with a vertex of positive probability: winning
    mass on its own level, or a positive descent onto an input where some
    occurrence may put a member. `bad` holds every class with a vertex of
    probability 0: no winning mass, and one occurrence that may put a
    member at the input of every positive descent. Both are least
    fixpoints.
    """
    assembly = shared_assembly(an, phi1, phi2)
    pos, down = assembly.system.positive_variables(), assembly.descents
    rule = [can.rule for can in an.names]

    def can_be_zero(c: int, s: set[int]) -> bool:
        if c in pos:
            return False
        return not down[c] or any(all(b[j - 1] & s for j, _ in down[c])
                                  for b in an.bindings.get(rule[c], []))

    may = _fixpoint(an, (), lambda c, s: c in pos or any(
        an.refs[rule[c], j] & s for j, _ in down[c]))
    bad = _fixpoint(an, (), can_be_zero)
    return {c: "fails" if c not in may else "holds" if c not in bad else "unknown"
            for c in an.reachable}


def until_almost_sure(an: Analysis, phi1: frozenset[int], phi2: frozenset[int],
                      ) -> dict[int, str]:
    """Is P(phi1 until phi2) equal to one: holds / fails / unknown per class.

    `certain` holds classes with probability one at every vertex: the lower
    bounds of the winning and positive descending mass sum to one, and
    every class that can sit at a positive descent's input is certain.
    `candidates` holds every class with a vertex of probability one: the
    upper bounds sum to one or more, and each positive descent may land on
    a candidate. `certain` is a greatest fixpoint and `candidates` a least
    one, each the tightest of its kind. In the gap (for example mass one in
    the limit but never certified) the answer stays unknown.
    """
    enc = solve_until(an, phi1, phi2)
    assembly = shared_assembly(an, phi1, phi2)
    pos, down = assembly.system.positive_variables(), assembly.descents
    rule = [can.rule for can in an.names]

    def mass(bound: dict[int, Fraction], c: int) -> Fraction:
        return sum((bound[k] for _, k in down[c]), bound[c] if c in pos else ZERO)

    sure = {c for c in an.reachable if mass(enc.lo, c) >= 1}
    maybe = {c for c in an.reachable if mass(enc.hi, c) >= 1}
    certain = _fixpoint(an, an.reachable, lambda c, s: c in sure and all(
        an.refs[rule[c], j] <= s for j, _ in down[c]))
    candidates = _fixpoint(an, (), lambda c, s: c in maybe and all(
        not an.refs[rule[c], j] or an.refs[rule[c], j] & s for j, _ in down[c]))
    return {c: "holds" if c in certain else "unknown" if c in candidates else "fails"
            for c in an.reachable}
