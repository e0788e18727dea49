"""Word-matching gadget grammars built from pairs of binary words.

Each tile (u, v) becomes a rule with two coin-flip rails: a fork (coloured
s) sends the walk onto the u-rail or the v-rail with probability 1/2 each,
and every rail position either exits to a coloured leaf or advances, again
half and half. Walked outward to the axiom, the v-rail ends in a green
origin and the u-rail in a red sink, so the probability of reaching green
from a fork encodes the binary values of the concatenated words along the
fork's tile sequence: it is exactly 1/2 precisely when the u- and v-values
agree.

Two warnings that the docstrings below repeat where they matter. First, a
rail entry lies on one nonterminal hyperarc per tile, so instances with two
or more tiles leave the validator's single-membership normal form; the
expansion, the closed form and `sequence_grammar` are the supported tools
there. Second, values are compared as dyadic numbers: a pair like (10, 1)
has equal values without equal words, so word-level conclusions need
instances free of such trailing-zero padding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formulas import And, Atom, Formula, TT, Until
from .gio import ParseError
from .model import Grammar, GrammarError, Hypergraph, Rule, _rewrite

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class PCPInstance:
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise GrammarError("instance needs at least one pair")
        for u, v in self.pairs:
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


def _concat(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> tuple[str, str]:
    if not seq:
        raise GrammarError("sequence must be nonempty")
    for i in seq:
        if not 1 <= i <= len(p.pairs):
            raise GrammarError(f"index {i} out of range 1..{len(p.pairs)}")
    u = "".join(p.pairs[i - 1][0] for i in seq)
    v = "".join(p.pairs[i - 1][1] for i in seq)
    return u, v


def dyadic_value(word: str) -> Fraction:
    """The number 0.word in binary, exact."""
    return sum(
        (Fraction(1, 2 ** (k + 1)) for k, bit in enumerate(word) if bit == "1"),
        Fraction(0),
    )


def closed_form(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> Fraction:
    """Exact probability of reaching red from the s-vertex whose tile
    sequence, read from its own tile outward, is `seq`.

    Red mass comes from the 0-bits of the concatenated u-word, the 1-bits of
    the concatenated v-word, and the full u-rail residue (the u-side gate
    feeds the red sink), which is what makes the total equal 1/2 exactly on
    value matches. Verified against exhaustive finite-horizon reachability
    in the tests before being used as an oracle anywhere."""
    u, v = _concat(p, seq)
    return HALF * (1 - dyadic_value(u) + dyadic_value(v))


def green_probability(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> Fraction:
    """Complement of `closed_form`: every walk is eventually absorbed."""
    return 1 - closed_form(p, seq)


def expansions_match(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> bool:
    """Do the concatenated words along `seq` have equal dyadic values?

    Equality of values, not of words: trailing zeros are invisible here."""
    u, v = _concat(p, seq)
    return dyadic_value(u) == dyadic_value(v)


def sequence_grammar(
    p: PCPInstance, seq: tuple[int, ...] | list[int]
) -> tuple[Grammar, str]:
    """Purely terminal grammar holding just the walk of one tile sequence.

    Inlines the rails along `seq` (innermost tile first, as everywhere) into
    a single axiom rule and returns it with the fork's vertex name. Sibling
    tiles and enclosing forks are unreachable from that fork, so dropping
    them changes nothing the walk can see; the payoff is a grammar the
    validator and both engines accept for any number of tiles."""
    u_all, v_all = _concat(p, seq)

    rhs = _gates()
    v_next, u_next = "vgate", "ugate"
    for j in range(len(seq) - 1, -1, -1):
        u, v = p.pairs[seq[j] - 1]
        v_next = _rail(rhs, v, f"v{j}_", v_next, green_bit="0")
        u_next = _rail(rhs, u, f"u{j}_", u_next, green_bit="1")
    rhs.add_vertex("s0")
    rhs.add_colour("s", "s0")
    rhs.add_arc("a", "s0", v_next)
    rhs.add_arc("a", "s0", u_next)

    return _gadget([Rule("Z", (), rhs)], []), "s0"


def fork_sequences(g: Grammar, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """(vertex id of the fork in `expand(g, depth)`, tile sequence) for every
    fork of an expanded gadget, the sequence read from the fork's own tile
    outward."""
    tile_no = {
        name: i
        for i, name in enumerate(
            (n for n in g.nonterminals if n != g.axiom), start=1
        )
    }
    seqs: list[tuple[int, ...]] = []  # per rule application, in order
    out: list[tuple[int, tuple[int, ...]]] = []
    for _, rule, ids, parent, _ in _rewrite(g, depth, []):
        if rule.lhs == g.axiom:
            seqs.append(())
            continue
        seq = (tile_no[rule.lhs], *seqs[parent])
        seqs.append(seq)
        out.append((ids[rule.names.index("fork")], seq))
    return out
