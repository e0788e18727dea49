"""Core model: hypergraphs, rules, deterministic rewriting, finite chains.

A grammar here carries exactly one rule per nonterminal, so rewriting a graph
is deterministic: every nonterminal hyperarc is replaced simultaneously, the
terminal part only ever grows, and each concrete vertex can be traced back to
the rule vertex that created it (its canonical vertex) and to the rewriting
round that created it (its level).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

VertexId = Any


class GrammarError(ValueError):
    """An operation was handed a grammar (or graph) it cannot work with."""


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


@dataclass(frozen=True)
class CanonicalVertex:
    """Creation site of a concrete vertex: a non-input vertex of one rule.

    Two concrete vertices with the same canonical vertex are indistinguishable
    locally (same out-arc labels, same colours) although their surroundings
    above their own level may differ.
    """

    rule: str
    vertex: VertexId

    def __str__(self) -> str:
        return f"{self.rule}:{self.vertex}"


@dataclass
class Hypergraph:
    """Vertices, labelled binary arcs, colour marks, nonterminal hyperarcs."""

    vertices: list[VertexId] = field(default_factory=list)
    arcs: list[Arc] = field(default_factory=list)
    colours: list[ColourMark] = field(default_factory=list)
    hyperarcs: list[Hyperarc] = field(default_factory=list)

    def __post_init__(self) -> None:
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

    def colour_sets(self) -> dict[VertexId, frozenset[str]]:
        """Each vertex's colours. Vertices with equal colours share one
        frozenset object, the uncoloured ones a single empty set."""
        marks: dict[VertexId, set[str]] = {}
        for colour, v in self.colours:
            marks.setdefault(v, set()).add(colour)
        empty: frozenset[str] = frozenset()
        shared = {empty: empty}
        out = dict.fromkeys(self.vertices, empty)
        for v, cs in marks.items():
            key = frozenset(cs)
            out[v] = shared.setdefault(key, key)
        return out

    def out_arcs(self) -> dict[VertexId, list[Arc]]:
        out: dict[VertexId, list[Arc]] = {v: [] for v in self.vertices}
        for arc in self.arcs:
            out.setdefault(arc.source, []).append(arc)
        return out

@dataclass
class Rule:
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


@dataclass
class Grammar:
    """One rule per nonterminal; mu gives each arc label its probability."""

    terminals: dict[str, int]
    nonterminals: dict[str, int]
    axiom: str
    rules: list[Rule] = field(default_factory=list)
    mu: dict[str, Fraction] = field(default_factory=dict)
    absorbing: set[str] = field(default_factory=set)

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


@dataclass(frozen=True)
class Issue:
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
    accepts; otherwise one GrammarError naming every issue."""
    issues = validate_grammar(g)
    if issues:
        raise GrammarError("; ".join(map(str, issues)))
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
    arity: int  # slots glued onto the replaced hyperarc's vertices
    cans: tuple[CanonicalVertex, ...]  # one per fresh slot
    arcs: tuple[tuple[str, int, int], ...]
    colours: tuple[tuple[str, int], ...]
    hyperarcs: tuple[tuple[str, tuple[int, ...]], ...]


def _compile(rule: Rule) -> _Compiled:
    own = rule.non_inputs
    names = (*rule.inputs, *own)
    slot = {v: i for i, v in enumerate(names)}
    return _Compiled(
        rule.lhs, names, len(rule.inputs),
        tuple(CanonicalVertex(rule.lhs, v) for v in own),
        tuple((a.label, slot[a.source], slot[a.target]) for a in rule.rhs.arcs),
        tuple((colour, slot[v]) for colour, v in rule.rhs.colours),
        tuple((h.label, tuple(slot[v] for v in h.vertices))
              for h in rule.rhs.hyperarcs),
    )


@dataclass
class Expansion:
    """A depth-d expansion: the graph after d rounds of rewriting, its
    remaining hyperarcs included, with vertex ids 0..n-1 in order of
    creation. classes[v] and levels[v] give vertex v's canonical vertex and
    the round that created it, axiom_ids maps the axiom rule's vertex names
    to ids, and the frontier holds the vertices that still lie on an
    unexpanded hyperarc. A component view keeps these columns whole and
    restricts only the graph and the frontier."""

    graph: Hypergraph
    classes: list[CanonicalVertex]
    levels: list[int]
    axiom_ids: dict[VertexId, int]
    frontier: frozenset[int]

    def axiom_vertex(self, name: VertexId) -> int:
        return named_vertex(self.axiom_ids, name)


@dataclass
class FiniteMC:
    """A finite Markov chain. trans[i] lists state i's steps as (target,
    weight) int pairs: a step's probability is weight / den, den being the
    lcm of mu's denominators. Frontier states have incomplete rows. A
    truncation also gives each state's class and level, and maps the axiom
    rule's vertex names to states."""

    states: list[Any]
    index: dict[Any, int]
    trans: list[list[tuple[int, int]]]
    den: int
    colours: list[frozenset[str]]
    frontier: frozenset[int]
    classes: list[CanonicalVertex] | None = None
    levels: list[int] | None = None
    axiom_ids: dict[VertexId, int] | None = None

    def resolve(self, start: Any) -> int:
        """Accept a state id or an axiom-rule vertex name."""
        if start in self.index:
            return self.index[start]
        if self.axiom_ids is None:
            raise KeyError(start)
        return self.index[named_vertex(self.axiom_ids, start)]

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


def _rewrite(
    g: Grammar, depth: int, unexpanded: list[tuple[str, tuple[VertexId, ...]]],
) -> Iterator[tuple[int, _Compiled, list[VertexId], int | None, int | None]]:
    """Apply `depth` rounds of parallel rewriting starting from the axiom,
    for a grammar that `checked_rules` accepts (GrammarError otherwise).

    Yields (level, compiled rule, ids, parent, via_index) once per rule
    application, in order: ids holds the concrete vertex in each of the
    rule's slots, the glued ones first, then the fresh ones, numbered from
    0 in order of creation; parent is the number of the application that
    owns the replaced hyperarc (None for the axiom) and via_index its
    position in that rule's rhs. Once the generator is exhausted,
    `unexpanded` holds the hyperarcs left unexpanded as (label, concrete
    vertices) pairs: filling a list instead of returning them lets callers
    use a plain `for`, where a `next` loop catching StopIteration costs a
    deep `expand` about 4%.
    """
    # each rule compiled once; its canonical vertices are shared by its copies
    rules = {name: _compile(rule) for name, rule in checked_rules(g).items()}
    if depth < 0:
        raise GrammarError("depth must be >= 0")
    created = applied = 0
    # pending: (label, concrete vertices, owner application, index in owner's rule rhs)
    pending: list[tuple[str, tuple[VertexId, ...], int | None, int | None]] = [
        (g.axiom, (), None, None)]
    for level in range(depth + 1):
        batch, pending = pending, []
        for label, glued, parent, via_index in batch:
            rule = rules[label]
            first = created
            created += len(rule.cans)
            ids = [*glued, *range(first, created)]
            yield level, rule, ids, parent, via_index
            for hi, (h_label, slots) in enumerate(rule.hyperarcs):
                pending.append((h_label, tuple([ids[v] for v in slots]), applied, hi))
            applied += 1
    unexpanded += [(label, vs) for label, vs, _, _ in pending]


def expand(g: Grammar, depth: int) -> Expansion:
    """Apply `depth` rounds of parallel rewriting starting from the axiom.

    Returns the resulting graph (remaining hyperarcs included) together with
    each vertex's class and level, the axiom rule's vertex ids and the
    frontier: vertices that still lie on an unexpanded hyperarc, whose
    out-neighbourhood is therefore not final yet.
    """
    arcs: list[Arc] = []
    colours: list[ColourMark] = []
    classes: list[CanonicalVertex] = []
    levels: list[int] = []
    unexpanded: list[tuple[str, tuple[VertexId, ...]]] = []
    for level, rule, ids, parent, _ in _rewrite(g, depth, unexpanded):
        if parent is None:
            axiom_ids = dict(zip(rule.names, ids))
        classes += rule.cans
        levels += [level] * len(rule.cans)
        for arc_label, s, t in rule.arcs:
            arcs.append(Arc(arc_label, ids[s], ids[t]))
        for colour, v in rule.colours:
            colours.append(ColourMark(colour, ids[v]))

    graph = Hypergraph(list(range(len(classes))), arcs, colours,
                       [Hyperarc(label, vs) for label, vs in unexpanded])
    frontier = frozenset(v for _, vs in unexpanded for v in vs)
    return Expansion(graph, classes, levels, axiom_ids, frontier)


def component_ids(expansion: Expansion, start: VertexId) -> frozenset[VertexId]:
    """Vertices connected to `start` by terminal arcs, ignoring direction."""
    if not expansion.graph.has_vertex(start):
        raise GrammarError(f"unknown vertex id {start!r}")
    adj: dict[VertexId, set[VertexId]] = {v: set() for v in expansion.graph.vertices}
    for arc in expansion.graph.arcs:
        adj[arc.source].add(arc.target)
        adj[arc.target].add(arc.source)
    return frozenset(reach([start], adj.__getitem__))


def reachable_component(g: Grammar, start: VertexId, depth: int) -> Expansion:
    """The depth-`depth` expansion restricted to the undirected component of
    the axiom-rule vertex named `start`: its vertices, arcs and colours, the
    hyperarcs lying wholly inside it, and its part of the frontier."""
    expansion = expand(g, depth)
    ids = component_ids(expansion, expansion.axiom_vertex(start))
    graph = expansion.graph
    sub = Hypergraph(
        vertices=[v for v in graph.vertices if v in ids],
        arcs=[a for a in graph.arcs if a.source in ids and a.target in ids],
        colours=[m for m in graph.colours if m.vertex in ids],
        hyperarcs=[h for h in graph.hyperarcs if all(v in ids for v in h.vertices)],
    )
    return replace(expansion, graph=sub, frontier=expansion.frontier & ids)
