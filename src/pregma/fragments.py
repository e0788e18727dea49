"""Local fragments: one rule's rhs with a child copy attached to every
nonterminal hyperarc.

Within such a fragment the one-step behaviour of every vertex created by the
rule is complete (its creation arcs plus the arcs gained from the single copy
it is attached to), so first-hit probabilities towards the fragment's
boundary are plain absorbing-chain algebra. The boundary consists of the
rule's own inputs (the walk moves to the level above), the rule's hyperarc
vertices (it stays on this level; copy i sits on hyperarc i's), and the
copies' hyperarc vertices (it moves one level deeper). A start's row is its
probability of winning inside the fragment and each boundary node's of
being hit first; a loss counts nowhere. The rows are computed in integers:
the arcs' probabilities become integer weights over one denominator, one
fraction-free elimination (Bareiss's, in Gauss–Jordan form) solves for the
transient interiors alone, and a boundary start's row is its first step
over their solutions; each row becomes `Fraction`s only at the end, and
phi1, phi2 and every node's class are the analysis's class ids.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .model import GrammarError, Rule, VertexId, integer_weights, reach

if TYPE_CHECKING:
    from .validation import Analysis, Passings, Site

NodeKey = tuple


class FragmentNode(NamedTuple):
    key: NodeKey
    kind: str  # "input" | "same" | "child" | "interior"
    can: int | None  # the class id; None exactly for parent inputs
    input_index: int | None = None  # 1-based, kind == "input"
    arc_index: int | None = None  # hyperarc occurrence, kind == "child"


class Fragment(NamedTuple):
    rule: Rule
    nodes: dict[NodeKey, FragmentNode]
    # every node's out-arcs as (label, target), in arc order
    out: dict[NodeKey, list[tuple[str, NodeKey]]]

    @property
    def starts(self) -> list[FragmentNode]:
        """Nodes whose classes this context is responsible for."""
        return [n for n in self.nodes.values()
                if n.kind in ("same", "interior") and n.key[0] == "base"]


def build_fragment(rules: Mapping[str, Rule], passed: Passings, context: str,
                   ids: Mapping[Site, int]) -> Fragment:
    """The context rule's rhs with a child copy attached to every hyperarc,
    each node of a class holding that class's id: "same" or "child" when
    the passing table `passed` passes its site on, else "interior"."""
    rule = rules[context]
    frag = Fragment(rule, {}, {})

    def add(node: FragmentNode) -> None:
        frag.nodes[node.key] = node
        frag.out[node.key] = []

    for v in rule.rhs.vertices:
        key = ("base", v)
        if rule.is_input(v):
            add(FragmentNode(key, "input", None, input_index=rule.input_index(v)))
        elif (context, v) in passed:
            add(FragmentNode(key, "same", ids[context, v]))
        else:
            add(FragmentNode(key, "interior", ids[context, v]))

    for arc in rule.rhs.arcs:
        frag.out[("base", arc.source)].append((arc.label, ("base", arc.target)))

    for arc_index, h in enumerate(rule.rhs.hyperarcs):
        child = rules[h.label]
        mapping: dict[VertexId, NodeKey] = {}
        for i, v in enumerate(h.vertices):
            mapping[child.inputs[i]] = ("base", v)
        for w in child.non_inputs:
            key = ("copy", arc_index, w)
            mapping[w] = key
            kind = "child" if (h.label, w) in passed else "interior"
            add(FragmentNode(key, kind, ids[h.label, w], arc_index=arc_index))
        for carc in child.rhs.arcs:
            frag.out[mapping[carc.source]].append((carc.label, mapping[carc.target]))

    return frag


class LocalRow(NamedTuple):
    """First-hit decomposition from one start: the win probability inside
    the fragment, and each boundary node's hit probability (those above 0)."""

    win: Fraction
    hits: dict[NodeKey, Fraction]


def _eliminate(m: list[list[int]], n: int) -> int:
    """Fraction-free Gauss–Jordan (Bareiss, Montante) on the first n columns
    of the integer matrix m, in place and without row swaps. Returns the
    determinant d of the leading n×n block; row i then holds d in column i,
    zero in the other leading columns, and d·x_i past them. A pivot ≤ 0 (a
    leading principal minor, all positive on a nonsingular M-matrix)
    raises GrammarError."""
    prev = 1
    for k in range(n):
        top = m[k]
        pivot = top[k]
        if pivot <= 0:
            raise GrammarError("singular first-hit system")
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return prev


def local_rows(an: Analysis, frag: Fragment, phi1: frozenset[int], phi2: frozenset[int],
               ) -> dict[NodeKey, LocalRow]:
    """One LocalRow per start node (the fragment's own classes).

    Interiors inside phi2 win, interiors outside phi1 (or stuck on an
    absorbing sink outside phi2) lose, every other interior is transient.
    Boundary nodes absorb as themselves; colours there are the next level's
    business. A start that is itself a boundary node takes one explicit step
    first, so returning to it counts as a hit.

    The transient interiors that reach the boundary are the only unknowns of
    one integer system over the labels' weights. A boundary start's row is
    its first step over their solutions, with its hits in the order its
    arcs first reach them.
    """
    mu = an.grammar.mu
    den, weight = integer_weights(
        {label: mu[label] for arcs in frag.out.values() for label, _ in arcs})

    def gate(node: FragmentNode) -> str | None:
        if node.can in phi2:
            return "win"
        if node.can not in phi1 or node.can in an.absorbing:
            return "loss"
        return None

    open_keys = {key for key, node in frag.nodes.items()
                 if node.kind == "interior" and gate(node) is None}
    # A transient pocket that can never reach the boundary keeps the walk
    # forever, which for an until objective is just a loss; leaving it out
    # also keeps the system nonsingular.
    preds: dict[NodeKey, list[NodeKey]] = {}
    for src, arcs in frag.out.items():
        if src in open_keys:
            for _, dst in arcs:
                preds.setdefault(dst, []).append(src)
    productive = reach((key for key in frag.nodes if key not in open_keys),
                       lambda key: preds.get(key, ()))
    column = {key: i for i, key in enumerate(
        key for key in frag.nodes if key in open_keys and key in productive)}

    def target(dst: NodeKey) -> NodeKey | str:
        """Where a step onto dst ends: a transient, a boundary node, or
        "win"/"loss"."""
        node = frag.nodes[dst]
        if node.kind != "interior" or dst in column:
            return dst
        return gate(node) or "loss"

    n = len(column)
    ends = ["win", *(k for k, node in frag.nodes.items() if node.kind != "interior")]
    bucket = {end: n + i for i, end in enumerate(ends)}

    m = []
    for key, i in column.items():
        row = [0] * (n + len(ends))
        row[i] = den
        for label, dst in frag.out[key]:
            t = target(dst)
            if t in column:
                row[column[t]] -= weight[label]
            elif t in bucket:
                row[bucket[t]] += weight[label]
        m.append(row)
    det = _eliminate(m, n)
    solved = {key: m[i][n:] for key, i in column.items()}

    rows: dict[NodeKey, LocalRow] = {}
    for node in frag.starts:
        key = node.key
        if key in solved:
            sums, scale = dict(zip(ends, solved[key])), det
        elif node.kind == "same" and gate(node) is None:
            # its first step, in integers over den·det
            sums, scale = {}, den * det
            for label, dst in frag.out[key]:
                t, w = target(dst), weight[label]
                if t in solved:
                    for end, x in zip(ends, solved[t]):
                        if x:
                            sums[end] = sums.get(end, 0) + w * x
                elif t != "loss":
                    sums[t] = sums.get(t, 0) + w * det
        else:
            # it wins or loses at once, or is a pocket that never leaves
            sums, scale = {"win": int(node.can in phi2)}, 1
        rows[key] = LocalRow(Fraction(sums.pop("win", 0), scale),
                             {b: Fraction(x, scale) for b, x in sums.items() if x})
    return rows
