"""Local fragments: one rule's rhs with a child copy glued on every
nonterminal hyperarc.

Within such a fragment the one-step behaviour of every vertex created by the
rule is complete (its creation arcs plus the arcs gained from the single copy
it is attached to), so first-hit probabilities towards the fragment's
boundary can be computed by plain absorbing-chain algebra over exact
rationals. The boundary consists of the rule's own inputs (the walk moves to
the level above), the rule's hyperarc vertices (it stays on this level), and
the copies' hyperarc vertices (it moves one level deeper).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .model import CanonicalVertex, GrammarError, Rule, VertexId

if TYPE_CHECKING:
    from .validation import Analysis, Slots

NodeKey = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FragmentNode:
    key: NodeKey
    kind: str  # "input" | "same" | "child" | "interior"
    can: CanonicalVertex | None  # None exactly for parent inputs
    input_index: int | None = None  # 1-based, kind == "input"
    arc_index: int | None = None  # hyperarc occurrence, kind == "child"


@dataclass
class Fragment:
    rule: Rule
    nodes: dict[NodeKey, FragmentNode] = field(default_factory=dict)
    # every node's out-arcs as (label, target), in arc order
    out: dict[NodeKey, list[tuple[str, NodeKey]]] = field(default_factory=dict)
    glue: dict[int, tuple[NodeKey, ...]] = field(default_factory=dict)

    @property
    def starts(self) -> list[FragmentNode]:
        """Nodes whose classes this context is responsible for."""
        return [n for n in self.nodes.values()
                if n.kind in ("same", "interior") and n.key[0] == "base"]


def build_fragment(rules: Mapping[str, Rule], slots: Slots, context: str) -> Fragment:
    """The context rule's rhs with a child copy glued on every hyperarc."""
    rule = rules[context]
    frag = Fragment(rule)

    def add(node: FragmentNode) -> None:
        frag.nodes[node.key] = node
        frag.out[node.key] = []

    for v in rule.rhs.vertices:
        key = ("base", v)
        if rule.is_input(v):
            add(FragmentNode(key, "input", None, input_index=rule.input_index(v)))
        elif (context, v) in slots:
            add(FragmentNode(key, "same", CanonicalVertex(context, v)))
        else:
            add(FragmentNode(key, "interior", CanonicalVertex(context, v)))

    for arc in rule.rhs.arcs:
        frag.out[("base", arc.source)].append((arc.label, ("base", arc.target)))

    for arc_index, h in enumerate(rule.rhs.hyperarcs):
        child = rules[h.label]
        if len(child.inputs) != len(h.vertices):
            raise GrammarError(f"hyperarc {h.label} arity mismatch in rule {context}")
        frag.glue[arc_index] = tuple(("base", v) for v in h.vertices)
        mapping: dict[VertexId, NodeKey] = {}
        for i, v in enumerate(h.vertices):
            mapping[child.inputs[i]] = ("base", v)
        for w in child.non_inputs:
            key = ("copy", arc_index, w)
            mapping[w] = key
            kind = "child" if (h.label, w) in slots else "interior"
            add(FragmentNode(key, kind, CanonicalVertex(h.label, w), arc_index=arc_index))
        for carc in child.rhs.arcs:
            frag.out[mapping[carc.source]].append((carc.label, mapping[carc.target]))

    return frag


@dataclass
class LocalRow:
    """First-hit decomposition from one start: win and loss absorb inside the
    fragment, every boundary node gets its own hit probability."""

    win: Fraction = ZERO
    loss: Fraction = ZERO
    hits: dict[NodeKey, Fraction] = field(default_factory=dict)

    def hit(self, key: NodeKey) -> Fraction:
        return self.hits.get(key, ZERO)

    def total(self) -> Fraction:
        return self.win + self.loss + sum(self.hits.values(), ZERO)


def _solve_linear(
    a: list[list[Fraction]], b: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Gaussian elimination with exact rationals: solve A X = B."""
    n = len(a)
    m = [row[:] + rhs[:] for row, rhs in zip(a, b)]
    width = len(m[0]) if m else 0
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise GrammarError("singular first-hit system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:width] for row in m]


def local_rows(
    an: Analysis,
    frag: Fragment,
    phi1: frozenset[CanonicalVertex],
    phi2: frozenset[CanonicalVertex],
    include_inputs: bool = False,
) -> dict[NodeKey, LocalRow]:
    """One LocalRow per start node (the fragment's own classes).

    Interiors inside phi2 win, interiors outside phi1 (or stuck on an
    absorbing sink outside phi2) lose, every other interior is transient.
    Boundary nodes absorb as themselves; colours there are the next level's
    business. A start that is itself a boundary node takes one explicit step
    first, so returning to it counts as a hit.

    With include_inputs the rule's input vertices get rows as well. Their
    colours belong to the level above, so no win/loss gate applies at the
    start; the row just records where their first step inside this fragment
    ends up.
    """
    sinks = an.absorbing
    mu = an.grammar.mu

    def interior_bucket(node: FragmentNode) -> str | None:
        if node.can in phi2:
            return "win"
        if node.can not in phi1 or node.can in sinks:
            return "loss"
        return None

    candidates: list[NodeKey] = []
    for key, node in frag.nodes.items():
        if node.kind == "interior" and interior_bucket(node) is None:
            candidates.append(key)

    # A transient pocket that can never reach the boundary keeps the walk
    # forever, which for an until objective is just a loss; filtering those
    # out also keeps the linear system nonsingular.
    productive: set[NodeKey] = set()
    changed = True
    while changed:
        changed = False
        for key in candidates:
            if key in productive:
                continue
            for _, dst in frag.out[key]:
                node = frag.nodes[dst]
                escapes = (
                    node.kind != "interior"
                    or interior_bucket(node) is not None
                    or dst in productive
                )
                if escapes:
                    productive.add(key)
                    changed = True
                    break
    stuck = {key for key in candidates if key not in productive}

    transient = [key for key in candidates if key in productive]
    index = {key: i for i, key in enumerate(transient)}

    buckets: list[NodeKey | str] = ["win", "loss"]
    buckets += [k for k, n in frag.nodes.items() if n.kind != "interior"]
    bindex = {b: i for i, b in enumerate(buckets)}

    def classify(dst: NodeKey) -> NodeKey | str:
        node = frag.nodes[dst]
        if node.kind == "interior":
            if dst in stuck:
                return "loss"
            return interior_bucket(node) or dst
        return dst

    n = len(transient)
    a = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    b = [[ZERO] * len(buckets) for _ in range(n)]
    for key in transient:
        i = index[key]
        for label, dst in frag.out[key]:
            p = mu[label]
            target = classify(dst)
            if target in index:
                a[i][index[target]] -= p
            else:
                b[i][bindex[target]] += p
    solved = _solve_linear(a, b) if n else []

    def absorbed_from(key: NodeKey) -> LocalRow:
        row = LocalRow()
        target = classify(key)
        if target == "win":
            row.win = ONE
        elif target == "loss":
            row.loss = ONE
        elif target in index:
            values = solved[index[target]]
            for bucket, v in zip(buckets, values):
                if v == 0:
                    continue
                if bucket == "win":
                    row.win = v
                elif bucket == "loss":
                    row.loss = v
                else:
                    row.hits[bucket] = row.hits.get(bucket, ZERO) + v
        else:
            row.hits[target] = ONE
        return row

    rows: dict[NodeKey, LocalRow] = {}
    starts = list(frag.starts)
    if include_inputs:
        starts += [n for n in frag.nodes.values() if n.kind == "input"]
    for node in starts:
        if node.kind == "interior":
            rows[node.key] = absorbed_from(node.key)
            continue
        # boundary start: force one step
        if node.kind != "input" and (bucket := interior_bucket(node)) is not None:
            rows[node.key] = LocalRow(win=ONE) if bucket == "win" else LocalRow(loss=ONE)
            continue
        row = LocalRow()
        for label, dst in frag.out[node.key]:
            p = mu[label]
            step = absorbed_from(dst)
            row.win += p * step.win
            row.loss += p * step.loss
            for bucket, v in step.hits.items():
                row.hits[bucket] = row.hits.get(bucket, ZERO) + p * v
        rows[node.key] = row
    return rows
