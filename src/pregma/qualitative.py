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
occurrence" sound existential ones. Every engine here takes that analysis:
one-step successors are read from its per-context fragments, and the until
engines read the assembled system they share with the quantitative solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import CanonicalVertex
from .polysys import decide_threshold
from .quantitative import dec_key, shared_assembly, solve_until, win_key
from .validation import Analysis

ZERO = Fraction(0)
ONE = Fraction(1)

SELF = ("self",)

# width and round budget of the enclosure behind the almost-sure verdicts
_ALMOST_SURE_EPS = Fraction(1, 10**9)
_ALMOST_SURE_ROUNDS = 4000

# a successor target: a class, ("ref", rule, j) for "whatever the context's
# parent glued onto input j", or SELF for an absorbing sink's self-loop
Target = object


def successor_table(an: Analysis) -> dict[CanonicalVertex, list[tuple[Fraction, Target]]]:
    """One-step successors of each reachable class, with exact probabilities.

    Read off the class's node in its context's fragment, whose out-arcs
    already include those gained from the child copy the class is glued
    onto. An arc into one of the context's own inputs becomes a ref to
    whatever the context's parent glued there. Absorbing sinks get a
    self-loop.
    """
    table: dict[CanonicalVertex, list[tuple[Fraction, Target]]] = {}
    for name, frag in an.fragments.items():
        for node in frag.starts:
            succs: list[tuple[Fraction, Target]] = []
            for label, key in frag.out[node.key]:
                hit = frag.nodes[key]
                target = ("ref", name, hit.input_index) if hit.kind == "input" else hit.can
                succs.append((an.mu[label], target))
            if not succs and node.can in an.absorbing:
                succs.append((ONE, SELF))
            table[node.can] = succs
    return table


def _membership3(
    an: Analysis,
    can: CanonicalVertex,
    target: Target,
    inside: frozenset[CanonicalVertex],
) -> bool | None:
    if target == SELF:
        return can in inside
    if isinstance(target, CanonicalVertex):
        return target in inside
    sites = an.refs[target[1:]]
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
            if _membership3(an, can, target, targets) is True:
                mass_lo += p
                mass_hi += p
            elif _membership3(an, can, target, over) is not False:
                mass_hi += p
        out[can] = decide_threshold((mass_lo, mass_hi), cmp, rho)
    return out


@dataclass
class PositivityTables:
    win_plus: frozenset[CanonicalVertex]
    dec_plus: dict[CanonicalVertex, frozenset[int]]


def _positivity(an: Analysis,
                phi1: frozenset[CanonicalVertex],
                phi2: frozenset[CanonicalVertex]) -> PositivityTables:
    assembly = shared_assembly(an, phi1, phi2)
    positive = assembly.system.positive_variables() | {
        k for k, v in assembly.pins.items() if v > 0}
    win_plus = set()
    dec_plus: dict[CanonicalVertex, set[int]] = {}
    for key in positive:
        if key[0] == "win":
            win_plus.add(key[1])
        else:
            dec_plus.setdefault(key[1], set()).add(key[2])
    return PositivityTables(
        frozenset(win_plus),
        {c: frozenset(js) for c, js in dec_plus.items()},
    )


def _bound(target, classes: set[CanonicalVertex], refs: set[tuple[str, int]]) -> bool:
    """Is a binding's target among the classes, or a ref among the refs?"""
    if isinstance(target, CanonicalVertex):
        return target in classes
    return target[1:] in refs


def until_positive(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> dict[CanonicalVertex, str]:
    """Is P(phi1 until phi2) positive: holds (for every instance), fails (for
    none), or unknown.

    The existential side is exact reachability. The universal side certifies
    "no instance can fail" through a least fixpoint of failure witnesses:
    a class can fail only by having no winning mass on its own level and
    some occurrence whose every reachable input continues a failure. That
    argument is inductive over a concrete ancestry, which always bottoms out
    at the axiom, so missing witnesses really do mean "always positive".
    """
    pos = _positivity(an, phi1, phi2)
    reachable = an.reachable
    ruled = {c.rule for c in reachable}
    inputs = [key for key in an.refs if key[0] in ruled]

    def ref_follows(key: tuple[str, int], classes, refs) -> bool:
        """Does some occurrence bind input key to a member?"""
        name, j = key
        return any(_bound(b[j - 1], classes, refs) for b in an.bindings.get(name, []))

    # existential reachability of positive probability, refs resolved by "some"
    may: set[CanonicalVertex] = set()
    may_ref: set[tuple[str, int]] = set()
    changed = True
    while changed:
        changed = False
        for c in reachable:
            if c not in may and (c in pos.win_plus or any(
                    (c.rule, j) in may_ref for j in pos.dec_plus.get(c, ()))):
                may.add(c)
                changed = True
        for key in inputs:
            if key not in may_ref and ref_follows(key, may, may_ref):
                may_ref.add(key)
                changed = True

    # failure witnesses: least fixpoint, refs resolved per occurrence
    bad: set[CanonicalVertex] = set()
    bad_ref: set[tuple[str, int]] = set()
    changed = True
    while changed:
        changed = False
        for c in reachable:
            if c in bad or c in phi2 or (c in phi1 and c in pos.win_plus):
                continue
            js = pos.dec_plus.get(c, frozenset())
            if c not in phi1 or not js or any(
                    all(_bound(b[j - 1], bad, bad_ref) for j in js)
                    for b in an.bindings.get(c.rule, [])):
                bad.add(c)
                changed = True
        for key in inputs:
            if key not in bad_ref and ref_follows(key, bad, bad_ref):
                bad_ref.add(key)
                changed = True

    out: dict[CanonicalVertex, str] = {}
    for c in reachable:
        if c in phi2:
            out[c] = "holds"
        elif c not in phi1:
            out[c] = "fails"
        elif c not in may:
            out[c] = "fails"
        elif c not in bad:
            out[c] = "holds"
        else:
            out[c] = "unknown"
    return out


def until_almost_sure(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> dict[CanonicalVertex, str]:
    """Is P(phi1 until phi2) equal to one: holds / fails / unknown per class.

    A class joins the certified-one set when its winning and descending mass
    provably sums to one and every possible landing site of every positive
    descend direction is already certified. Symmetrically, a class leaves the
    candidate set when its mass sum is provably below one or some positive
    descend direction lands only outside the candidates. In the gap (for
    example mass one in the limit but never certified) the answer stays
    unknown.
    """
    enc = solve_until(an, phi1, phi2, eps=_ALMOST_SURE_EPS, watch="all",
                      max_rounds=_ALMOST_SURE_ROUNDS)
    pos = _positivity(an, phi1, phi2)
    cans = an.reachable

    def scalar3(c: CanonicalVertex) -> str:
        js = pos.dec_plus.get(c, frozenset())
        lo = enc.lo[win_key(c)] + sum((enc.lo[dec_key(c, j)] for j in js), ZERO)
        hi = (enc.hi[win_key(c)] if c in pos.win_plus else ZERO) + sum(
            (enc.hi[dec_key(c, j)] for j in js), ZERO
        )
        if lo >= 1:
            return "one"
        if hi < 1:
            return "less"
        return "unk"

    scalars = {c: scalar3(c) for c in cans}
    refs = an.refs

    certain: set[CanonicalVertex] = set()
    changed = True
    while changed:
        changed = False
        for c in cans:
            if c in certain or scalars[c] != "one":
                continue
            if all(refs[(c.rule, j)] <= certain for j in pos.dec_plus.get(c, frozenset())):
                certain.add(c)
                changed = True

    candidates: set[CanonicalVertex] = set(cans)
    changed = True
    while changed:
        changed = False
        for c in list(candidates):
            if scalars[c] == "less":
                candidates.discard(c)
                changed = True
                continue
            for j in pos.dec_plus.get(c, frozenset()):
                sites = refs[(c.rule, j)]
                if sites and not (sites & candidates):
                    candidates.discard(c)
                    changed = True
                    break

    out: dict[CanonicalVertex, str] = {}
    for c in cans:
        if c in certain:
            out[c] = "holds"
        elif c not in candidates:
            out[c] = "fails"
        else:
            out[c] = "unknown"
    return out
