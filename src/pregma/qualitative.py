"""Qualitative verdicts per vertex class: positive probability, probability
one, and exact one-step mass.

Class-level answers here mean "for every concrete vertex of this class".
Where a property genuinely depends on the surroundings above a vertex's
level, the verdict degrades to unknown rather than guessing; each decided
answer is backed either by exact rational arithmetic or by a certified
enclosure from the quantitative solver.

The recurring subtlety is descending through an input: which vertex the walk
lands on depends on where the class's context rule was instantiated. The
grammar's analysis lists what every occurrence binds to each input
(`bindings`) and every class that can end up there (`refs`); "for all
occurrences" arguments then give sound universal verdicts, "for some
occurrence" sound existential ones. One-step successors are read from the
analysis's per-context fragments. The until engines read which of the
shared assembled system's variables are positive, and each of their class
sets is one fixpoint (`_fixpoint`), whose soundness rests on one induction
over the level of a concrete vertex.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .model import CanonicalVertex
from .polysys import Key, decide_threshold
from .quantitative import dec_key, shared_assembly, solve_until, win_key
from .validation import Analysis, Binding

ZERO = Fraction(0)
ONE = Fraction(1)

# width and round budget of the enclosure behind the almost-sure verdicts
_ALMOST_SURE_EPS = Fraction(1, 10**9)
_ALMOST_SURE_ROUNDS = 4000


def _sites(an: Analysis, target: Binding) -> frozenset[CanonicalVertex]:
    """The classes a target can be: a class itself, or every class that can
    sit at input j for ("ref", rule, j)."""
    if isinstance(target, CanonicalVertex):
        return frozenset({target})
    return an.refs[target[1:]]


def successor_table(an: Analysis) -> dict[CanonicalVertex, list[tuple[Fraction, Binding]]]:
    """One-step successors of each reachable class, with exact probabilities.

    Read off the class's node in its context's fragment, whose out-arcs
    already include those gained from the child copy the class is glued
    onto. An arc into one of the context's own inputs becomes a ref
    ("ref", rule, j) to whatever the context's parent glued there. An
    absorbing sink is its own successor.
    """
    table: dict[CanonicalVertex, list[tuple[Fraction, Binding]]] = {}
    for name, frag in an.fragments.items():
        for node in frag.starts:
            succs: list[tuple[Fraction, Binding]] = []
            for label, key in frag.out[node.key]:
                hit = frag.nodes[key]
                target = ("ref", name, hit.input_index) if hit.kind == "input" else hit.can
                succs.append((an.mu[label], target))
            if not succs and node.can in an.absorbing:
                succs.append((ONE, node.can))
            table[node.can] = succs
    return table


def _membership3(an: Analysis, target: Binding,
                 inside: frozenset[CanonicalVertex]) -> bool | None:
    sites = _sites(an, target)
    if sites <= inside:
        return True
    if not (sites & inside):
        return False
    return None


def next_qualitative(
    an: Analysis,
    targets: frozenset[CanonicalVertex],
    cmp: str,
    rho: Fraction,
    over: frozenset[CanonicalVertex] | None = None,
) -> dict[CanonicalVertex, str]:
    """Per-class verdict for: one step lands in `targets` with mass cmp rho.

    One-step mass is a single exact rational per class, so any threshold is
    decidable here up to ref targets whose occurrences disagree. For a
    target set known only up to bounds, `targets` is the classes surely in
    it and `over` (default: `targets`) the classes possibly in it."""
    over = targets if over is None else over
    out: dict[CanonicalVertex, str] = {}
    for can, succs in successor_table(an).items():
        mass_lo = ZERO
        mass_hi = ZERO
        for p, target in succs:
            if _membership3(an, target, targets) is True:
                mass_lo += p
                mass_hi += p
            elif _membership3(an, target, over) is not False:
                mass_hi += p
        out[can] = decide_threshold((mass_lo, mass_hi), cmp, rho)
    return out


def _fixpoint(
    an: Analysis,
    start: Iterable[CanonicalVertex],
    member: Callable[[CanonicalVertex, set[CanonicalVertex]], bool],
) -> set[CanonicalVertex]:
    """Re-test every reachable class against the set, updating it in place,
    until no class changes. For a monotone test this is the least fixpoint
    when started from no class and the greatest when started from all.

    Every fixpoint S is sound, by induction over the level of a concrete
    vertex v of class c. A walk that leaves v's level does so through an
    input of v's rule copy and lands on a vertex created at a lower level;
    the test sees that vertex only through the classes it can be (`_sites`,
    `an.refs`), and the axiom's classes, on level 0, have no inputs. Two
    kinds of test follow:
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


def _positive(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> tuple[frozenset[Key], dict[CanonicalVertex, list[int]]]:
    """The keys of the until's variables that are above 0, pins included,
    and each reachable class's positive descents: the inputs its walks
    leave the level through with positive probability."""
    assembly = shared_assembly(an, phi1, phi2)
    pos = assembly.system.positive_variables() | {
        k for k, v in assembly.pins.items() if v > 0}
    return pos, {c: [j for j in range(1, len(an.rules[c.rule].inputs) + 1)
                     if dec_key(c, j) in pos] for c in an.reachable}


def until_positive(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> dict[CanonicalVertex, str]:
    """Is P(phi1 until phi2) positive: holds (for every instance), fails (for
    none), or unknown.

    `may` holds every class with a vertex of positive probability: winning
    mass on its own level, or a positive descent onto an input where some
    occurrence may put a member. `bad` holds every class with a vertex of
    probability 0: no winning mass, and one occurrence that may put a
    member at the input of every positive descent. Both are least
    fixpoints.
    """
    pos, down = _positive(an, phi1, phi2)

    def can_be_zero(c: CanonicalVertex, s: set[CanonicalVertex]) -> bool:
        if win_key(c) in pos:
            return False
        return not down[c] or any(all(_sites(an, b[j - 1]) & s for j in down[c])
                                  for b in an.bindings.get(c.rule, []))

    may = _fixpoint(an, (), lambda c, s: win_key(c) in pos or any(
        an.refs[(c.rule, j)] & s for j in down[c]))
    bad = _fixpoint(an, (), can_be_zero)
    return {c: "fails" if c not in may else "holds" if c not in bad else "unknown"
            for c in an.reachable}


def until_almost_sure(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> dict[CanonicalVertex, str]:
    """Is P(phi1 until phi2) equal to one: holds / fails / unknown per class.

    `certain` holds classes with probability one at every vertex: the lower
    bounds of the winning and positive descending mass sum to one, and
    every class that can sit at a positive descent's input is certain.
    `candidates` holds every class with a vertex of probability one: the
    upper bounds sum to one or more, and each positive descent may land on
    a candidate. Both are greatest fixpoints. In the gap (for example mass
    one in the limit but never certified) the answer stays unknown.
    """
    enc = solve_until(an, phi1, phi2, eps=_ALMOST_SURE_EPS, watch="all",
                      max_rounds=_ALMOST_SURE_ROUNDS)
    pos, down = _positive(an, phi1, phi2)

    def mass(bound: dict[Key, Fraction], c: CanonicalVertex) -> Fraction:
        keys = [win_key(c)] + [dec_key(c, j) for j in down[c]]
        return sum((bound[k] for k in keys if k in pos), ZERO)

    sure = {c for c in an.reachable if mass(enc.lo, c) >= 1}
    maybe = {c for c in an.reachable if mass(enc.hi, c) >= 1}
    certain = _fixpoint(an, an.reachable, lambda c, s: c in sure and all(
        an.refs[(c.rule, j)] <= s for j in down[c]))
    candidates = _fixpoint(an, an.reachable, lambda c, s: c in maybe and all(
        not an.refs[(c.rule, j)] or an.refs[(c.rule, j)] & s for j in down[c]))
    return {c: "holds" if c in certain else "unknown" if c in candidates else "fails"
            for c in an.reachable}
