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
(`solve_until`), and every command reads that one enclosure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fragments import local_rows
from .model import CanonicalVertex
from .polysys import Enclosure, Key, PolySystem, solve_enclosure
from .validation import Analysis

ZERO = Fraction(0)
ONE = Fraction(1)


def win_key(can: CanonicalVertex) -> Key:
    return ("win", can)


def dec_key(can: CanonicalVertex, j: int) -> Key:
    return ("dec", can, j)


def render_key(key: Key) -> str:
    if key[0] == "win":
        return f"win({key[1]})"
    return f"dec({key[1]}; {key[2]})"


@dataclass
class Assembly:
    system: PolySystem  # the unpinned variables, pins folded into coefficients
    pins: dict[Key, Fraction]
    shared: tuple[Fraction, Enclosure] | None = None  # solve_until's eps and result


def assemble_system(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> Assembly:
    system = PolySystem()
    pins: dict[Key, Fraction] = {}

    for frag in an.fragments.values():
        n_inputs = len(frag.rule.inputs)
        for node in frag.starts:
            can = node.can
            if can in phi2 or can not in phi1:
                pins[win_key(can)] = ONE if can in phi2 else ZERO
                for j in range(1, n_inputs + 1):
                    pins[dec_key(can, j)] = ZERO
                continue
            system.add_variable(win_key(can))
            for j in range(1, n_inputs + 1):
                system.add_variable(dec_key(can, j))

    def add_term(key: Key, coeff: Fraction, *factors: Key) -> None:
        """Add a term with each pinned factor's value folded into coeff."""
        kept = []
        for f in factors:
            if f in pins:
                coeff *= pins[f]
            else:
                kept.append(f)
        system.add_term(key, coeff, *kept)

    for frag in an.fragments.values():
        local = local_rows(an, frag, phi1, phi2)
        n_inputs = len(frag.rule.inputs)
        for node in frag.starts:
            can = node.can
            if win_key(can) in pins:
                continue
            row = local[node.key]
            wkey = win_key(can)
            add_term(wkey, row.win)
            dkeys = [dec_key(can, j) for j in range(1, n_inputs + 1)]
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
                    add_term(wkey, p, win_key(d))
                    for j, dkey in enumerate(dkeys, start=1):
                        add_term(dkey, p, dec_key(d, j))
                    continue
                # child attachment: compose the child's descend behaviour
                # with whatever its copy was glued on
                e = hit.can
                o = hit.arc_index
                assert e is not None and o is not None
                add_term(wkey, p, win_key(e))
                for ell, glued in enumerate(frag.glue[o], start=1):
                    base = frag.nodes[glued]
                    if base.kind == "input":
                        # descending onto a vertex the parent passed in:
                        # the walk leaves this level through that input
                        add_term(dkeys[base.input_index - 1], p, dec_key(e, ell))
                        continue
                    target = base.can
                    assert target is not None
                    add_term(wkey, p, dec_key(e, ell), win_key(target))
                    for j, dkey in enumerate(dkeys, start=1):
                        add_term(dkey, p, dec_key(e, ell), dec_key(target, j))

    return Assembly(system, pins)


def shared_assembly(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
) -> Assembly:
    """The analysis's assembly for (phi1, phi2), assembled on first use."""
    key = (phi1, phi2)
    if key not in an.assemblies:
        an.assemblies[key] = assemble_system(an, phi1, phi2)
    return an.assemblies[key]


# the solver's round cap for every until
_ROUNDS = 4000


def solve_until(
    an: Analysis,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
    eps: Fraction = Fraction(1, 10**6),
) -> Enclosure:
    """The analysis's one enclosure of (phi1, phi2): every variable within
    eps unless the round cap stops the solve first, pinned ones exact.
    Solved on first use and reused for any eps at least the one it was
    solved at. Callers read it and never change it."""
    assembly = shared_assembly(an, phi1, phi2)
    if assembly.shared is None or assembly.shared[0] > eps:
        enc = solve_enclosure(assembly.system, eps=eps, max_rounds=_ROUNDS)
        enc.lo.update(assembly.pins)
        enc.hi.update(assembly.pins)
        assembly.shared = eps, enc
    return assembly.shared[1]
