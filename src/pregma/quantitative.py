"""Global equation system for unbounded until, and its certified solving.

Every vertex class c gets one win variable (probability of reaching the
second objective without ever moving above c's own level) and one descend
variable per input of its context rule (probability of first leaving the
level through that input, with the objective still open). The local
first-hit rows stitch these together: staying on the level composes with the
same level's variables, moving one level down composes a child class's
descend behaviour with the vertices its copy was glued on.

For classes of the axiom rule there is no level above, so the win variable
is the absolute probability of the until objective; the CLI and the labeller
read their answers there. Each until is solved once per analysis
(`solve_until`), and every command reads that one enclosure. The variables
are the analysis's dense ids: win(c) is the class id c, and c's descend
variables follow all n wins, dec(c; j) at `an.dec[c] + j - 1`; `render_key`
names them through `an.names`.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .fragments import local_rows
from .polysys import Enclosure, PolySystem, solve_enclosure
from .validation import Analysis

ZERO = Fraction(0)
ONE = Fraction(1)


def render_key(an: Analysis, key: int) -> str:
    """A variable's name: win(class) below n, dec(class; j) from there on."""
    if key < len(an.names):
        return f"win({an.names[key]})"
    c = bisect_right(an.dec, key) - 1
    return f"dec({an.names[c]}; {key - an.dec[c] + 1})"


@dataclass
class Assembly:
    system: PolySystem  # the unpinned variables, pins folded into coefficients
    pins: dict[int, Fraction]
    shared: tuple[Fraction, Enclosure] | None = None  # solve_until's eps and result
    # the variables above 0, pins included, and each class's positive
    # descents (qualitative._positive), once computed
    positive: tuple[frozenset[int], list[list[int]]] | None = None


def assemble_system(an: Analysis, phi1: frozenset[int], phi2: frozenset[int]) -> Assembly:
    """The until's system over the analysis's variable ids. Pins are 0 or 1,
    so a pinned factor either drops its term or drops out of it."""
    system = PolySystem()
    pins: dict[int, Fraction] = {}
    dec = an.dec

    for frag in an.fragments.values():
        for node in frag.starts:
            c = node.can
            if c in phi2 or c not in phi1:
                pins[c] = ONE if c in phi2 else ZERO
                for k in range(dec[c], dec[c + 1]):
                    pins[k] = ZERO
                continue
            system.add_variable(c)
            for k in range(dec[c], dec[c + 1]):
                system.add_variable(k)

    def add_term(key: int, coeff: Fraction, *factors: int) -> None:
        """Add a term without its pinned factors, or drop it at a pinned 0."""
        kept = []
        for f in factors:
            if f not in pins:
                kept.append(f)
            elif not pins[f]:
                return
        system.add_term(key, coeff, *kept)

    for frag in an.fragments.values():
        local = local_rows(an, frag, phi1, phi2)
        for node in frag.starts:
            c = node.can
            if c in pins:
                continue
            row = local[node.key]
            add_term(c, row.win)
            dkeys = range(dec[c], dec[c + 1])
            for bkey, p in row.hits.items():
                hit = frag.nodes[bkey]
                if hit.kind == "input":
                    add_term(dkeys[hit.input_index - 1], p)

            for bkey, p in row.hits.items():
                hit = frag.nodes[bkey]
                if hit.kind == "input":
                    continue
                if hit.kind == "same":
                    d = hit.can
                    add_term(c, p, d)
                    for dkey, k in zip(dkeys, range(dec[d], dec[d + 1])):
                        add_term(dkey, p, k)
                    continue
                # child attachment: compose the child's descend behaviour
                # with whatever its copy was glued on
                e = hit.can
                o = hit.arc_index
                assert e is not None and o is not None
                add_term(c, p, e)
                for ell, glued in enumerate(frag.glue[o]):
                    base = frag.nodes[glued]
                    de = dec[e] + ell
                    if base.kind == "input":
                        # descending onto a vertex the parent passed in:
                        # the walk leaves this level through that input
                        add_term(dkeys[base.input_index - 1], p, de)
                        continue
                    target = base.can
                    assert target is not None
                    add_term(c, p, de, target)
                    for dkey, k in zip(dkeys, range(dec[target], dec[target + 1])):
                        add_term(dkey, p, de, k)

    return Assembly(system, pins)


def shared_assembly(an: Analysis, phi1: frozenset[int], phi2: frozenset[int]) -> Assembly:
    """The analysis's assembly for (phi1, phi2), assembled on first use."""
    key = (phi1, phi2)
    if key not in an.assemblies:
        an.assemblies[key] = assemble_system(an, phi1, phi2)
    return an.assemblies[key]


def solve_until(an: Analysis, phi1: frozenset[int], phi2: frozenset[int],
                eps: Fraction = Fraction(1, 10**6)) -> Enclosure:
    """The analysis's one enclosure of (phi1, phi2): every variable within
    eps unless the round cap stops the solve first, pinned ones exact.
    Solved on first use and reused for any eps at least the one it was
    solved at. Callers read it and never change it."""
    assembly = shared_assembly(an, phi1, phi2)
    if assembly.shared is None or assembly.shared[0] > eps:
        enc = solve_enclosure(assembly.system, eps=eps)
        enc.lo.update(assembly.pins)
        enc.hi.update(assembly.pins)
        assembly.shared = eps, enc
    return assembly.shared[1]
