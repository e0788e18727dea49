"""Global equation system for unbounded until, and its certified solving.

Every vertex class c gets one win variable (probability of reaching the
second objective without ever moving above c's own level) and one descend
variable per input of its context rule (probability of first leaving the
level through that input, with the objective still open). The local
first-hit rows stitch these together: staying on the level composes with the
same level's variables, moving one level down composes a child class's
descend behaviour with the vertices its copy was attached to.

For classes of the axiom rule there is no level above, so the win variable
is the absolute probability of the until objective; the CLI and the labeller
read their answers there. Each until is solved once per analysis, to the
one width WIDTH (`solve_until`), and every command reads that enclosure.
The variables are the analysis's dense ids: win(c) is the class id c, and
c's descend variables follow all n wins, dec(c; j) at `an.dec[c] + j - 1`;
`render_key` names them through `an.names`; the rows of classes phi1 and
phi2 fix are pins at 0 or 1. This module alone knows that layout: the
assembly also carries each class's positive descents, for the qualitative
engines.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .fragments import local_rows
from .polysys import Enclosure, PolySystem, solve_enclosure
from .validation import Analysis

ZERO = Fraction(0)
ONE = Fraction(1)
# the width every until's enclosure is solved to
WIDTH = Fraction(1, 10**9)


def render_key(an: Analysis, key: int) -> str:
    """A variable's name: win(class) below n, dec(class; j) from there on."""
    if key < len(an.names):
        return f"win({an.names[key]})"
    c = bisect_right(an.dec, key) - 1
    return f"dec({an.names[c]}; {key - an.dec[c] + 1})"


class Assembly:
    """One until's system and its positive descents, filled by
    `assemble_system`; `enclosure` is filled by `solve_until`."""

    __slots__ = ("system", "descents", "enclosure")

    def __init__(self, system: PolySystem,
                 descents: list[list[tuple[int, int]]]) -> None:
        self.system = system  # pinned at 0 or 1 where phi1 and phi2 fix a class
        # per class id, its positive descents: the inputs j its walks leave
        # the level through with positive probability, each with dec(c; j)
        self.descents = descents
        self.enclosure: Enclosure | None = None


def assemble_system(an: Analysis, phi1: frozenset[int], phi2: frozenset[int]) -> Assembly:
    """The until's system over the analysis's variable ids, its pins set
    before any term reads them."""
    system = PolySystem()
    # each class's variable row: win(c), then dec(c; 1), dec(c; 2), ...
    rows = [(c, *range(an.dec[c], an.dec[c + 1])) for c in an.reachable]

    for frag in an.fragments.values():
        for node in frag.starts:
            c = node.can
            if c in phi2 or c not in phi1:
                for k in rows[c]:
                    system.pins[k] = ONE if k in phi2 else ZERO  # phi2 holds wins only
            else:
                for k in rows[c]:
                    system.add_variable(k)

    for frag in an.fragments.values():
        local = local_rows(an, frag, phi1, phi2)
        # the hits on the context's inputs go first, so that each descent's
        # constant terms lead its equation
        inputs = {key for key, node in frag.nodes.items() if node.kind == "input"}
        for node in frag.starts:
            c = node.can
            if c in system.pins:
                continue
            row, own = local[node.key], rows[c]
            system.add_term(c, row.win)
            for bkey in sorted(row.hits, key=inputs.__contains__, reverse=True):
                p, hit = row.hits[bkey], frag.nodes[bkey]
                if hit.kind == "child":
                    # the walk wins in the child copy, or leaves it through
                    # dec(e; ell) onto the vertex attached at its input ell
                    e = hit.can
                    system.add_term(c, p, e)
                    landings = [(frag.nodes["base", v], (k,)) for v, k in zip(
                        frag.rule.rhs.hyperarcs[hit.arc_index].vertices, rows[e][1:])]
                else:
                    landings = [(hit, ())]
                for base, via in landings:
                    if base.kind == "input":
                        # on input j the walk leaves this level: dec(c; j)
                        system.add_term(own[base.input_index], p, *via)
                    else:
                        # on a class t of this level it goes on as t: win(c)
                        # through win(t), dec(c; j) through dec(t; j)
                        for key, k in zip(own, rows[base.can]):
                            system.add_term(key, p, *via, k)

    positive = system.positive_variables()
    descents = [[(j, k) for j, k in enumerate(row[1:], 1) if k in positive] for row in rows]
    return Assembly(system, descents)


def shared_assembly(an: Analysis, phi1: frozenset[int], phi2: frozenset[int]) -> Assembly:
    """The analysis's assembly for (phi1, phi2), assembled on first use."""
    key = (phi1, phi2)
    if key not in an.assemblies:
        an.assemblies[key] = assemble_system(an, phi1, phi2)
    return an.assemblies[key]


def solve_until(an: Analysis, phi1: frozenset[int], phi2: frozenset[int]) -> Enclosure:
    """The analysis's one enclosure of (phi1, phi2): every variable within
    WIDTH unless the round cap stops the solve first, pinned ones exact.
    Solved on first use; callers read it and never change it."""
    assembly = shared_assembly(an, phi1, phi2)
    if assembly.enclosure is None:
        assembly.enclosure = solve_enclosure(assembly.system, WIDTH)
    return assembly.enclosure
