"""Core model: hypergraphs, rules, deterministic rewriting, finite chains.

A grammar here carries exactly one rule per nonterminal, so rewriting a graph
is deterministic: every nonterminal hyperarc is replaced simultaneously, the
terminal part only ever grows, and each concrete vertex can be traced back to
the rule vertex that created it (its canonical vertex) and to the rewriting
round that created it (its level).
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from math import inf, lcm
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

VertexId = Any


class GrammarError(ValueError):
    """An operation was handed a grammar (or graph) it cannot work with;
    `issues` holds a structurally invalid grammar's issues."""

    def __init__(self, message: str, issues: list[Issue] | None = None) -> None:
        super().__init__(message)
        self.issues = issues or []


class Arc(NamedTuple):
    label: str
    source: VertexId
    target: VertexId


class ColourMark(NamedTuple):
    colour: str
    vertex: VertexId


class Hyperarc(NamedTuple):
    label: str
    vertices: tuple[VertexId, ...]


class CanonicalVertex(NamedTuple):
    """Creation site of a concrete vertex: a non-input vertex of one rule.

    Two concrete vertices with the same canonical vertex are indistinguishable
    locally (same out-arc labels, same colours) although their surroundings
    above their own level may differ. It is the (rule, vertex) tuple of its
    site, so it hashes in C and equals that site.
    """

    rule: str
    vertex: VertexId

    def __str__(self) -> str:
        return f"{self.rule}:{self.vertex}"


class Hypergraph:
    """Vertices, labelled binary arcs, colour marks, nonterminal hyperarcs."""

    __slots__ = ("vertices", "arcs", "colours", "hyperarcs", "_vset")

    def __init__(self, vertices: list[VertexId] | None = None) -> None:
        self.vertices: list[VertexId] = [] if vertices is None else vertices
        self.arcs: list[Arc] = []
        self.colours: list[ColourMark] = []
        self.hyperarcs: list[Hyperarc] = []
        self._vset = set(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise GrammarError("repeated vertex in hypergraph")

    def add_vertex(self, v: VertexId) -> None:
        if v in self._vset:
            raise GrammarError(f"vertex {v!r} already present")
        self.vertices.append(v)
        self._vset.add(v)

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._vset

    def add_arc(self, label: str, source: VertexId, target: VertexId) -> None:
        self.arcs.append(Arc(label, source, target))

    def add_colour(self, colour: str, vertex: VertexId) -> None:
        self.colours.append(ColourMark(colour, vertex))

    def add_hyperarc(self, label: str, vertices: tuple[VertexId, ...]) -> None:
        self.hyperarcs.append(Hyperarc(label, tuple(vertices)))


class Rule(NamedTuple):
    lhs: str
    inputs: tuple[VertexId, ...]
    rhs: Hypergraph

    @property
    def non_inputs(self) -> list[VertexId]:
        iset = set(self.inputs)
        return [v for v in self.rhs.vertices if v not in iset]

    def is_input(self, v: VertexId) -> bool:
        return v in self.inputs

    def input_index(self, v: VertexId) -> int:
        """1-based position of an input vertex."""
        return self.inputs.index(v) + 1


class Grammar(NamedTuple):
    """One rule per nonterminal; mu gives each arc label its probability."""

    terminals: dict[str, int]
    nonterminals: dict[str, int]
    axiom: str
    rules: list[Rule]
    mu: dict[str, Fraction]
    absorbing: set[str]

    @property
    def colour_names(self) -> frozenset[str]:
        return frozenset(n for n, k in self.terminals.items() if k == 1)

    def rule_for(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.lhs == name:
                return rule
        raise GrammarError(f"no rule for nonterminal {name!r}")

    def axiom_rule(self) -> Rule:
        return self.rule_for(self.axiom)


def integer_weights(mu: Mapping[str, Fraction]) -> tuple[int, dict[str, int]]:
    """mu in integers: the lcm `den` of its denominators and each label's
    probability as the integer weight p * den."""
    den = lcm(*(p.denominator for p in mu.values()))
    return den, {label: p.numerator * (den // p.denominator)
                 for label, p in mu.items()}


class Issue(NamedTuple):
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def validate_grammar(g: Grammar) -> list[Issue]:
    """Structural well-formedness check. Empty result means valid.

    Covers: symbol declarations and arities, exactly one rule per nonterminal,
    axiom of arity 0, injective input tuples, pairwise distinct vertices on
    every nonterminal hyperarc, dangling references, and probability ranges.
    """
    issues: list[Issue] = []
    add = issues.append

    overlap = set(g.terminals) & set(g.nonterminals)
    for name in sorted(overlap):
        add(Issue("symbol-overlap", f"{name} declared both terminal and nonterminal"))

    if g.axiom not in g.nonterminals:
        add(Issue("axiom-undeclared", f"axiom {g.axiom} is not a declared nonterminal"))
    elif g.nonterminals[g.axiom] != 0:
        add(Issue("axiom-arity", f"axiom {g.axiom} must have arity 0, has {g.nonterminals[g.axiom]}"))

    seen_lhs: set[str] = set()
    for rule in g.rules:
        if rule.lhs in seen_lhs:
            add(Issue("duplicate-rule", f"second rule for {rule.lhs}"))
        seen_lhs.add(rule.lhs)
    for name in sorted(g.nonterminals):
        if name not in seen_lhs:
            add(Issue("missing-rule", f"nonterminal {name} has no rule"))

    for rule in g.rules:
        where = f"rule {rule.lhs}"
        if rule.lhs not in g.nonterminals:
            add(Issue("rule-lhs", f"{where}: undeclared nonterminal"))
        else:
            arity = g.nonterminals[rule.lhs]
            if len(rule.inputs) != arity:
                add(Issue("input-count", f"{where}: {len(rule.inputs)} inputs, arity is {arity}"))
        if len(set(rule.inputs)) != len(rule.inputs):
            add(Issue("input-repeat", f"{where}: repeated input vertex"))
        for v in rule.inputs:
            if not rule.rhs.has_vertex(v):
                add(Issue("input-unknown", f"{where}: input {v} not a rhs vertex"))
        for arc in rule.rhs.arcs:
            if g.terminals.get(arc.label) != 2:
                add(Issue("arc-label", f"{where}: {arc.label} is not an arity-2 terminal"))
            for end in (arc.source, arc.target):
                if not rule.rhs.has_vertex(end):
                    add(Issue("arc-endpoint", f"{where}: arc {arc.label} touches unknown vertex {end}"))
        for colour, v in rule.rhs.colours:
            if g.terminals.get(colour) != 1:
                add(Issue("colour-label", f"{where}: {colour} is not a declared colour"))
            if not rule.rhs.has_vertex(v):
                add(Issue("colour-vertex", f"{where}: colour {colour} on unknown vertex {v}"))
        for h in rule.rhs.hyperarcs:
            if h.label not in g.nonterminals:
                add(Issue("hyperarc-label", f"{where}: {h.label} is not a nonterminal"))
            elif len(h.vertices) != g.nonterminals[h.label]:
                add(Issue("hyperarc-arity", f"{where}: {h.label} hyperarc has {len(h.vertices)} vertices, arity is {g.nonterminals[h.label]}"))
            if len(set(h.vertices)) != len(h.vertices):
                add(Issue("hyperarc-repeat", f"{where}: hyperarc {h.label} repeats a vertex"))
            for v in h.vertices:
                if not rule.rhs.has_vertex(v):
                    add(Issue("hyperarc-vertex", f"{where}: hyperarc {h.label} touches unknown vertex {v}"))

    for label, p in g.mu.items():
        if g.terminals.get(label) != 2:
            add(Issue("prob-label", f"probability for {label}, which is not an arity-2 terminal"))
        if not (0 < p <= 1):
            add(Issue("prob-range", f"probability {p} for {label} outside (0, 1]"))

    for colour in sorted(g.absorbing):
        if g.terminals.get(colour) != 1:
            add(Issue("absorbing-label", f"absorbing {colour} is not a declared colour"))

    return issues


def checked_rules(g: Grammar) -> dict[str, Rule]:
    """The rule of each nonterminal, for a grammar that `validate_grammar`
    accepts; otherwise one GrammarError naming and holding every issue."""
    issues = validate_grammar(g)
    if issues:
        raise GrammarError("; ".join(map(str, issues)), issues)
    return {rule.lhs: rule for rule in g.rules}


def reach(seeds: Iterable[Hashable],
          step: Callable[[Any], Iterable[Hashable]]) -> set:
    """Everything reachable from `seeds` by repeated `step`, seeds included."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for nxt in step(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def components(nodes: Iterable[Hashable],
               step: Callable[[Any], Iterable[Hashable]]) -> list[list]:
    """The strongly connected components of what `step` reaches from
    `nodes` (Tarjan, SIAM J. Comput. 1972, without recursion), each after
    every component its members step to. Roots are taken in the order of
    `nodes` and successors in the order `step` gives them; a component
    lists its members in the order they leave Tarjan's stack, its root
    last."""
    index: dict = {}  # a node's visit number, inf once its component is out
    low: dict = {}
    stack: list = []
    comps: list[list] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(step(root)))]
        while work:
            node, todo = work[-1]
            for nxt in todo:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(step(nxt))))
                    break
                if index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = inf
                    comps.append(comp)
                elif low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return comps


def reachable_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals reachable from the axiom through right-hand sides."""
    succ = {rule.lhs: [h.label for h in rule.rhs.hyperarcs] for rule in g.rules}
    return frozenset(reach([g.axiom], lambda name: succ.get(name, ())))


class _Compiled(NamedTuple):
    """A rule laid out as slots for `_rewrite`: its inputs in input order, then
    its other vertices in rhs order. One application of the rule puts a
    concrete vertex in every slot; arcs, colours and hyperarcs name slots."""

    lhs: str
    names: tuple[VertexId, ...]  # the rule vertex in each slot
    cans: tuple[CanonicalVertex, ...]  # one per fresh slot
    arity: int  # the input slots, which come first
    arcs: tuple[tuple[str, int, int], ...]
    colours: tuple[tuple[str, int], ...]
    hyperarcs: tuple[tuple[str, tuple[int, ...]], ...]


def _compile(rule: Rule) -> _Compiled:
    own = rule.non_inputs
    names = (*rule.inputs, *own)
    slot = {v: i for i, v in enumerate(names)}
    return _Compiled(
        rule.lhs, names,
        tuple(CanonicalVertex(rule.lhs, v) for v in own),
        len(rule.inputs),
        tuple((a.label, slot[a.source], slot[a.target]) for a in rule.rhs.arcs),
        tuple((colour, slot[v]) for colour, v in rule.rhs.colours),
        tuple((h.label, tuple(slot[v] for v in h.vertices))
              for h in rule.rhs.hyperarcs),
    )


class ExpandedGraph:
    """An expansion's graph, kept flat as the rule applications that built
    it: application k puts the next len(rule.names) entries of `ids` in the
    slots of rule applications[k], whose arcs (label, s, t) join slots.
    `vertices` holds the graph's ids in increasing order (all of them, as a
    range, for a whole expansion); hyperarc k of those left wholly inside
    it awaits rule hyperarcs[k] on the next rule.arity ids of `attached`."""

    __slots__ = ("vertices", "applications", "ids", "hyperarcs", "attached")

    def __init__(self, vertices: range | list[int] = range(0)) -> None:
        self.vertices = vertices
        self.applications: list[_Compiled] = []
        self.ids = array("q")
        self.hyperarcs: list[_Compiled] = []
        self.attached = array("q")

    def slots(self) -> Iterator[tuple[_Compiled, list[int]]]:
        """Each application as (rule, the ids in its slots), in order."""
        ids, at = self.ids, 0
        for rule in self.applications:
            slots = ids[at:at + len(rule.names)].tolist()
            at += len(slots)
            yield rule, slots

    def arcs(self) -> Iterator[tuple[str, int, int]]:
        """The arcs as (label, source, target) triples, in order of
        application and then of each rule's arcs."""
        for rule, slots in self.slots():
            for label, s, t in rule.arcs:
                yield label, slots[s], slots[t]

    def legs(self) -> Iterator[tuple[str, array]]:
        """The unexpanded hyperarcs as (label, vertex ids) pairs, in order."""
        attached, at = self.attached, 0
        for rule in self.hyperarcs:
            yield rule.lhs, attached[at:at + rule.arity]
            at += rule.arity


class Expansion:
    """A depth-d expansion, with vertex ids 0..n-1 in order of creation: its
    graph, remaining hyperarcs included, and per-id columns, all of them
    filled by `_rewrite` (a truncation reads the same ones). classes[v],
    levels[v] and colours[v] give vertex v's canonical vertex, the round
    that created it and its colours (vertices with equal colours share one
    frozenset, the one colour_sets holds). axiom_ids maps the axiom rule's
    vertex names to ids, and the frontier holds the vertices that still lie
    on an unexpanded hyperarc. A component view restricts the graph and the
    frontier to its ids and keeps the columns whole."""

    __slots__ = ("graph", "classes", "levels", "colours", "axiom_ids", "frontier",
                 "colour_sets")

    def __init__(self) -> None:
        self.graph = ExpandedGraph()
        self.classes: list[CanonicalVertex] = []
        self.levels: list[int] = []
        self.colours: list[frozenset[str]] = []
        self.axiom_ids: dict[VertexId, int] = {}
        self.frontier: frozenset[int] = frozenset()
        self.colour_sets: dict[frozenset[str], frozenset[str]] = {}


class Rows(NamedTuple):
    """A chain's steps, one row per state in state order: state i steps to
    targets[k] with integer weight weights[k] for starts[i] <= k < starts[i + 1]."""

    starts: array  # one more than the states
    targets: array
    weights: list[int]


class FiniteMC(NamedTuple):
    """A finite Markov chain on the states 0..n-1, its steps in one row
    table: a step's probability is weight / den, den being the lcm of mu's
    denominators. Frontier states have incomplete rows, but their colours
    are final ones, those they will end with. axiom_ids maps the names a
    query may start from to states (a truncation's are the axiom rule's
    vertex names). A truncation also gives each state's class and level,
    and, from the class walk that gave its frontier its colours, the
    classes whose passings never end."""

    trans: Rows
    den: int
    colours: list[frozenset[str]]
    frontier: frozenset[int]
    axiom_ids: dict[VertexId, int]
    classes: list[CanonicalVertex] | None = None
    levels: list[int] | None = None
    endless: frozenset[CanonicalVertex] = frozenset()

    @property
    def states(self) -> range:
        return range(len(self.trans.starts) - 1)

    def resolve(self, start: Any) -> int:
        """Accept a state id or an axiom-rule vertex name."""
        if type(start) is int and 0 <= start < len(self.trans.starts) - 1:
            return start
        return named_vertex(self.axiom_ids, start)

    def where(self, i: int) -> str:
        """The " (class C, level L)" that error messages give after a
        truncation's state i; empty for other chains."""
        if self.classes is None or self.levels is None:
            return ""
        return f" (class {self.classes[i]}, level {self.levels[i]})"


def named_vertex(axiom_ids: dict[VertexId, VertexId], name: VertexId) -> VertexId:
    """The concrete vertex of the axiom-rule vertex `name`, given the axiom
    application's map from rule vertices to concrete ones."""
    if name not in axiom_ids:
        raise GrammarError(
            f"{name!r} is not a vertex of the axiom rule "
            f"(known: {sorted(map(str, axiom_ids))})"
        )
    return axiom_ids[name]


def _slots_getter(slots: list[int]) -> Callable[[list[int]], Iterable[int]]:
    """ids -> the ids in `slots`, in order. itemgetter of one item returns
    it bare, so one slot or none read a slice of the ids."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def _rewrite(
    rules: dict[str, Rule], axiom: str, depth: int, out: Expansion,
    enough: Callable[[list[int]], bool] | None = None,
) -> Iterator[tuple[_Compiled, list[int]]]:
    """Apply `depth` rounds of parallel rewriting starting from the axiom,
    on the rule table that `checked_rules` returned for the grammar: its
    callers run the structural check, and this routine runs none.

    Yields (compiled rule, ids) once per rule application: the list ids
    holds the concrete vertex in each of the rule's slots, the attached ones
    first, then the fresh ones, numbered from 0 in order of creation. The
    order is breadth first: the axiom's application alone at level 0, then
    the hyperarcs each level leaves, in the order of the applications that
    created them and each application's in its rule's rhs order.

    This is the one routine that builds an expansion's columns, for
    `expand` and the oracle's `truncate` alike: before it yields an
    application, `out` holds the classes, levels and colours of every id
    so far, and the axiom's vertex ids; once the generator is exhausted,
    out.graph has its vertices and unexpanded hyperarcs and out.frontier
    is set. The applications themselves are left to the caller. Filling
    `out` in place, not returning it at the end, lets callers use a plain
    `for`, where a `next` loop catching StopIteration costs a deep
    `expand` about 4%.

    After each level below `depth`, once the caller has read its
    applications, `enough` (when given) sees the ids of the hyperarcs that
    level leaves, all in one list; if it returns true, rewriting stops
    there, as if `depth` had been that level.
    """
    # each rule compiled once, its canonical vertices shared by its copies,
    # with its fresh-vertex count, its hyperarcs' rules and their ids' getter
    compiled = {name: _compile(rule) for name, rule in rules.items()}
    plans = {name: (len(rule.cans), [compiled[label] for label, _ in rule.hyperarcs],
                    _slots_getter([s for _, slots in rule.hyperarcs for s in slots]))
             for name, rule in compiled.items()}
    if depth < 0:
        raise GrammarError("depth must be >= 0")
    classes, levels, colours = out.classes, out.levels, out.colours
    shared = out.colour_sets  # one object per distinct colour set
    empty: frozenset[str] = shared.setdefault(frozenset(), frozenset())
    pending, attached = [compiled[axiom]], []
    for level in range(depth + 1):
        if level and enough is not None and enough(attached):
            break
        batch, held, at = pending, attached, 0
        pending, attached = [], []
        for rule in batch:
            fresh, hyperarcs, legs = plans[rule.lhs]
            first = len(classes)
            classes += rule.cans
            levels += [level] * fresh
            colours += [empty] * fresh
            ids = [*held[at:at + rule.arity], *range(first, first + fresh)]
            at += rule.arity
            for colour, v in rule.colours:
                cs = colours[ids[v]] | {colour}
                colours[ids[v]] = shared.setdefault(cs, cs)
            if not level:
                out.axiom_ids.update(zip(rule.names, ids))
            yield rule, ids
            pending += hyperarcs
            attached += legs(ids)
    out.graph.vertices = range(len(classes))
    out.graph.hyperarcs, out.graph.attached = pending, array("q", attached)
    out.frontier = frozenset(attached)


def expand(g: Grammar, depth: int) -> Expansion:
    """Apply `depth` rounds of parallel rewriting starting from the axiom.

    Returns the resulting graph as its rule applications and remaining
    hyperarcs, together with each vertex's class, level and colours, the
    axiom rule's vertex ids and the frontier: vertices that still lie on an
    unexpanded hyperarc, whose out-neighbourhood is therefore not final yet.
    Opens with `checked_rules` (GrammarError on a structurally invalid
    grammar), whose rule table `_rewrite` rewrites.
    """
    rules = checked_rules(g)
    expansion = Expansion()
    applications, ids = expansion.graph.applications, expansion.graph.ids
    for rule, slots in _rewrite(rules, g.axiom, depth, expansion):
        applications.append(rule)
        ids.fromlist(slots)
    return expansion


def component_ids(expansion: Expansion, start: VertexId) -> frozenset[VertexId]:
    """Vertices connected to `start` by terminal arcs, ignoring direction."""
    graph = expansion.graph
    if start not in graph.vertices:
        raise GrammarError(f"unknown vertex id {start!r}")
    parent = list(range(len(expansion.classes)))  # union-find over the ids

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for _, source, target in graph.arcs():
        parent[root(source)] = root(target)
    mine = root(start)
    return frozenset(v for v in graph.vertices if root(v) == mine)


def reachable_component(g: Grammar, start: VertexId, depth: int) -> Expansion:
    """The depth-`depth` expansion restricted to the undirected component of
    the axiom-rule vertex named `start`: its vertices, arcs and colours, the
    hyperarcs lying wholly inside it, and its part of the frontier (an arc
    is inside when its source is)."""
    expansion = expand(g, depth)
    ids = component_ids(expansion, named_vertex(expansion.axiom_ids, start))
    graph = expansion.graph
    sub = ExpandedGraph(sorted(ids))
    for rule, slots in graph.slots():
        arcs = tuple(arc for arc in rule.arcs if slots[arc[1]] in ids)
        if arcs:
            sub.applications.append(rule if arcs == rule.arcs else rule._replace(arcs=arcs))
            sub.ids.fromlist(slots)
    for rule, (_, vs) in zip(graph.hyperarcs, graph.legs()):
        if all(v in ids for v in vs):
            sub.hyperarcs.append(rule)
            sub.attached.extend(vs)
    expansion.graph, expansion.frontier = sub, expansion.frontier & ids
    return expansion
