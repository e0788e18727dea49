"""Word-matching gadget grammars built from pairs of binary words.

Each tile (u, v) becomes a rule with two coin-flip rails: a fork (coloured
s) sends the walk onto the u-rail or the v-rail with probability 1/2 each,
and every rail position either exits to a coloured leaf or advances, again
half and half. Walked outward to the axiom, the v-rail ends in a green
origin and the u-rail in a red sink, so the probability of reaching green
from a fork encodes the binary values of the concatenated words along the
fork's tile sequence: it is exactly 1/2 precisely when the u- and v-values
agree.

A rail entry lies on one nonterminal hyperarc per tile, so instances with
two or more tiles leave the validator's single-membership normal form:
validation and the engines refuse them, and expansion and truncation are
the tools that still run there.
"""
from __future__ import annotations

from fractions import Fraction

from .formulas import And, Atom, Formula, TT, Until
from .gio import ParseError
from .model import Grammar, GrammarError, Hypergraph, Rule

HALF = Fraction(1, 2)


class PCPInstance:
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, str], ...]) -> None:
        self.pairs = pairs
        if not pairs:
            raise GrammarError("instance needs at least one pair")
        for u, v in pairs:
            for w in (u, v):
                if not w or set(w) - {"0", "1"}:
                    raise GrammarError(
                        f"words must be nonempty over 0/1, got {w!r}"
                    )


def parse_pcp(text: str) -> PCPInstance:
    """One `pair U V` line per tile; # comments and blank lines ignored."""
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "pair" or len(parts) != 3:
            raise ParseError(lineno, "expected: pair U V")
        pairs.append((parts[1], parts[2]))
    if not pairs:
        raise ParseError(0, "no pairs given")
    try:
        return PCPInstance(tuple(pairs))
    except GrammarError as exc:
        raise ParseError(0, str(exc)) from None


def load_pcp(path) -> PCPInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pcp(fh.read())


def _rail(rhs: Hypergraph, word: str, prefix: str, exit_to: str,
          green_bit: str) -> str:
    """Build a coin-flip rail spelling `word`: position k advances with 1/2
    and exits with 1/2 to a leaf coloured green when word[k] == green_bit.
    Returns the entry vertex name."""
    nodes = [f"{prefix}{k}" for k in range(1, len(word) + 1)]
    for n in nodes:
        rhs.add_vertex(n)
    for k, bit in enumerate(word):
        leaf = f"{nodes[k]}x"
        rhs.add_vertex(leaf)
        rhs.add_colour("green" if bit == green_bit else "red", leaf)
        rhs.add_arc("b", leaf, leaf)
        rhs.add_arc("a", nodes[k], leaf)
        onward = nodes[k + 1] if k + 1 < len(nodes) else exit_to
        rhs.add_arc("a", nodes[k], onward)
    return nodes[0]


def _tile_rule(name: str, u: str, v: str, recursion: list[str]) -> Rule:
    rhs = Hypergraph()
    for inp in ("vout", "uout"):
        rhs.add_vertex(inp)
    v_entry = _rail(rhs, v, "v", "vout", green_bit="0")
    u_entry = _rail(rhs, u, "u", "uout", green_bit="1")
    rhs.add_vertex("fork")
    rhs.add_colour("s", "fork")
    rhs.add_arc("a", "fork", v_entry)
    rhs.add_arc("a", "fork", u_entry)
    for other in recursion:
        rhs.add_hyperarc(other, (v_entry, u_entry))
    return Rule(name, ("vout", "uout"), rhs)


def _gates() -> Hypergraph:
    """The axiom rhs every gadget starts from: vgate steps to the green goal,
    ugate to the red lost vertex, and both of those loop."""
    rhs = Hypergraph()
    for v in ("goal", "lost", "vgate", "ugate"):
        rhs.add_vertex(v)
    rhs.add_colour("green", "goal")
    rhs.add_colour("red", "lost")
    rhs.add_arc("b", "goal", "goal")
    rhs.add_arc("b", "lost", "lost")
    rhs.add_arc("b", "vgate", "goal")
    rhs.add_arc("b", "ugate", "lost")
    return rhs


def _gadget(rules: list[Rule], tiles: list[str]) -> Grammar:
    """Axiom Z plus one binary nonterminal per tile; rails flip fair coins
    on `a`, and the green and red leaves absorb."""
    return Grammar(
        terminals={"a": 2, "b": 2, "s": 1, "green": 1, "red": 1},
        nonterminals={"Z": 0, **{t: 2 for t in tiles}},
        axiom="Z",
        rules=rules,
        mu={"a": HALF, "b": Fraction(1)},
        absorbing={"green", "red"},
    )


def encode(p: PCPInstance) -> tuple[Grammar, Formula]:
    """Gadget grammar, its arc probabilities included, and the matching
    formula.

    The formula holds at an s-vertex exactly when the probability of
    reaching green from it is 1/2, stated as a conjunction of the two weak
    threshold untils."""
    tiles = [f"New{i}" for i in range(1, len(p.pairs) + 1)]

    axiom_rhs = _gates()
    for t in tiles:
        axiom_rhs.add_hyperarc(t, ("vgate", "ugate"))

    rules = [Rule("Z", (), axiom_rhs)]
    for t, (u, v) in zip(tiles, p.pairs):
        rules.append(_tile_rule(t, u, v, tiles))

    g = _gadget(rules, tiles)
    formula = And(
        Atom("s"),
        And(
            Until(">=", HALF, TT(), Atom("green")),
            Until("<=", HALF, TT(), Atom("green")),
        ),
    )
    return g, formula
