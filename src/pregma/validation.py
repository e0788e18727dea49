"""Per-class degree accounting, the probability-sum check, and the one
analysis of a grammar that every engine reads.

A concrete vertex picks up arcs in stages: some at its creation site, then
more at each passing, the step from a site to the input of a hyperarc slot
that holds it, all in one table (`passing_table`), the only occurrence
structure read here and in the fragments. The walk of the passings, the
condensation of the passing graph from every creation site
(`model.components`), reads the full out-degree (and colour set) of every
vertex of the generated graph off the grammar without expanding anything.
A component with a cycle is a loop: no site on it terminates, and every
arc label gained on it or below it occurs infinitely often. The walk's
entry at a creation site is the class record, the only form of a class's
degrees: one mass test in integer weights (`_mass_fault`) reads it for
admission and for the truncation oracle, and the profile in a failure is
message text rendered from it.

Admission walks only under single membership, each vertex on at most one
nonterminal hyperarc, and refuses a grammar that breaks it with one line
per shared vertex. At a shared vertex the walk sums what every branch
gains; the truncation oracle reads those records too, and each is exact.

`analyse` admits the grammar as given, then collapses the rule vertices
that a swap maps onto each other (`_quotient`, a bisimulation quotient)
and reads that quotient from there on. It numbers the quotient's
reachable classes 0..n-1, keeps `names` to turn an id back into its
creation site for output and `ids` to take every creation site of the
grammar as given to its id, and holds ids or id sets in every table the
engines read: a rule lookup, each class's walk entry, the
absorbing classes, where a step through a hyperarc occurrence lands,
resolved once to the set of classes it can be, the classes whose passings
reach that site (per occurrence and input, and per rule input across every
occurrence), one local fragment per
context (the source of every one-step fact), and the equation systems
assembled so far. It refuses grammars
outside what the engines handle. The analysis is a value the caller owns
and passes along; nothing is cached on the grammar, which callers such as
the pushdown converter still edit after reading its class table.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from fractions import Fraction
from typing import Mapping, NamedTuple

from .fragments import Fragment, build_fragment
from .model import (
    CanonicalVertex,
    Grammar,
    GrammarError,
    Hypergraph,
    Rule,
    VertexId,
    checked_rules,
    components,
    integer_weights,
    reach,
    reachable_nonterminals,
)

Site = tuple[str, VertexId]

# the passing graph: a site -> the input site of every hyperarc slot holding
# it, in rule, hyperarc and slot order
Passings = dict[Site, list[Site]]


class EngineUnsupported(GrammarError):
    """The grammar is outside what the solving engines handle."""


def passing_table(g: Grammar) -> Passings:
    """The one occurrence table: each site in a hyperarc slot, with the
    input of that slot's rule it is passed to, once per slot holding it."""
    inputs = {rule.lhs: rule.inputs for rule in g.rules}
    passed: Passings = {}
    for rule in g.rules:
        for h in rule.rhs.hyperarcs:
            for v, x in zip(h.vertices, inputs[h.label]):
                passed.setdefault((rule.lhs, v), []).append((h.label, x))
    return passed


class VertexClass(NamedTuple):
    """What a vertex gains at a site and at every site passed down from
    there, the walk's entry for that site: counts of ("out" or "in", label)
    once per path of passings that meets no loop, the pairs that recur
    forever, its colours, and whether the passings end. At a creation site
    it is the class of the vertices made there, and the only record of
    that class."""

    counts: Counter
    forever: frozenset[tuple[str, str]]
    colours: frozenset[str]
    terminates: bool

    @property
    def is_sink(self) -> bool:
        return all(way != "out" for way, _ in chain(self.counts, self.forever))


def canonical_vertices(g: Grammar) -> list[CanonicalVertex]:
    """All creation sites: the non-input vertices of every rule."""
    return [CanonicalVertex(rule.lhs, v) for rule in g.rules for v in rule.non_inputs]


def _join(arcs: list[tuple[str, str]], marks: list[str], below: list[VertexClass],
          on_loop: bool) -> VertexClass:
    """Sites' own arcs and colours plus the gains of the sites they pass
    to, all of them recurring forever when the sites lie on a loop."""
    counts, colours, forever = Counter(arcs), set(marks), set()
    for d in below:
        counts.update(d.counts)
        forever |= d.forever
        colours |= d.colours
    if on_loop:
        counts, forever = Counter(), forever | set(counts)
    return VertexClass(counts, frozenset(forever), frozenset(colours),
                       not on_loop and all(d.terminates for d in below))


def _walk(g: Grammar, passed: Passings) -> dict[Site, VertexClass]:
    """Each site that the passings reach from a creation site, with its
    gains from there on down: the condensation of the passing graph, read
    off its table `passed` (`passing_table`), successors in the table's
    order. The sites of one strongly connected component reach the same
    sites, so they share one entry, joined from every member's own arcs
    and marks and the entry below each passing that leaves the component,
    once per passing; the component is a loop when a passing stays inside
    it."""
    arcs: dict[Site, list[tuple[str, str]]] = {}
    marks: dict[Site, set[str]] = {}
    for rule in g.rules:
        for arc in rule.rhs.arcs:
            arcs.setdefault((rule.lhs, arc.source), []).append(("out", arc.label))
            arcs.setdefault((rule.lhs, arc.target), []).append(("in", arc.label))
        for colour, v in rule.rhs.colours:
            marks.setdefault((rule.lhs, v), set()).add(colour)

    down: dict[Site, VertexClass] = {}
    starts = [(rule.lhs, v) for rule in g.rules for v in rule.non_inputs]
    for comp in components(starts, lambda s: passed.get(s, ())):
        own: list[tuple[str, str]] = []
        marked: list[str] = []
        out: list[Site] = []
        for s in comp:
            own += arcs.get(s, ())
            marked += marks.get(s, ())
            out += passed.get(s, ())
        below = [down[t] for t in out if t not in comp]
        # a passing that stays inside the component closes a cycle
        entry = _join(own, marked, below, len(below) < len(out))
        for s in comp:
            down[s] = entry
    return down


def vertex_classes(g: Grammar) -> dict[CanonicalVertex, VertexClass]:
    """The class table of a structurally valid grammar: the walk's entries
    at the creation sites, exact for every class. Under a shared vertex a
    class whose passings end sums what every branch gains."""
    down = _walk(g, passing_table(g))
    return {can: down[can] for can in canonical_vertices(g)}


def check_complete_outside(g: Grammar) -> tuple[str, ...]:
    """Each vertex may lie on at most one nonterminal hyperarc: one line per
    vertex that lies on more, empty when none does.

    An input may lie on one: that is legal here, and `analyse` refuses the
    inputs that keep gaining arcs after being passed down. Each rule counts
    its own hyperarcs, so two rules with one left-hand side, or a vertex
    repeated on one hyperarc, are left to the structural check.
    """
    lines = []
    for rule in g.rules:
        through = Counter(v for h in rule.rhs.hyperarcs for v in set(h.vertices))
        lines += [f"rule {rule.lhs}: vertex {v} lies on {through[v]} hyperarcs"
                  for v in rule.rhs.vertices if through[v] > 1]
    return tuple(lines)


class PhrFailure(NamedTuple):
    can: CanonicalVertex
    profile: str  # the class's out-degree, as `_out_text` renders it
    total: Fraction | None
    reason: str

    def __str__(self) -> str:
        bits = [f"{self.can}", f"profile {self.profile}"]
        if self.total is not None:
            bits.append(f"total {self.total}")
        bits.append(self.reason)
        return "; ".join(bits)


class PhrReport(NamedTuple):
    ok: bool
    failures: tuple[PhrFailure, ...]
    violations: tuple[str, ...]  # vertices on several hyperarcs
    checked: int

    def __str__(self) -> str:
        if self.ok:
            return f"phr_check: ok ({self.checked} vertex classes)"
        if self.violations:  # then no class was checked
            head = f"{len(self.violations)} shared vertices; classes not checked"
        else:
            head = f"{len(self.failures)} of {self.checked} classes"
        lines = [f"phr_check: FAILED ({head})"]
        lines += [f"  {f}" for f in self.failures]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _out_text(vc: VertexClass) -> str:
    """A class's out-degree for messages: {label:count, ...}, labels
    sorted, then label:inf for each label that recurs forever."""
    parts = [f"{label}:{n}" for (way, label), n in sorted(vc.counts.items()) if way == "out"]
    parts += [f"{label}:inf" for way, label in sorted(vc.forever) if way == "out"]
    return "{" + ", ".join(parts) + "}"


def _mass_fault(vc: VertexClass, absorbing: frozenset[str], den: int,
                weight: Mapping[str, int]) -> tuple[str, Fraction | None] | None:
    """Why a class's outgoing mass is not 1 under mu's weights over den
    (`integer_weights`), with that mass exactly (None when arcs repeat
    forever or a label has no probability); None when the mass is 1, or
    when the class is a sink with an absorbing colour."""
    if any(way == "out" for way, _ in vc.forever):
        return "arcs repeat forever, no mu can normalise this", None
    try:
        out = [weight[label] * n for (way, label), n in vc.counts.items() if way == "out"]
    except KeyError:
        missing = sorted({label for way, label in vc.counts if way == "out"} - weight.keys())
        return f"no probability for {', '.join(missing)}", None
    if not out and vc.colours & absorbing:
        return None
    mass = sum(out)
    reason = "total is not 1" if out else "sink without an absorbing colour"
    return None if mass == den else (reason, Fraction(mass, den))


def _admit(g: Grammar) -> tuple[dict[str, Rule], Passings, dict[Site, VertexClass],
                                 list[CanonicalVertex], PhrReport]:
    """The one admission of a grammar: the structural gate, the passing
    table, single membership, then, only when no vertex is shared, the walk
    of the passings, whose entries are the class table, and the mass report."""
    rules = checked_rules(g)
    passed = passing_table(g)
    violations = check_complete_outside(g)
    cans = canonical_vertices(g)
    down = {} if violations else _walk(g, passed)
    den, weight = integer_weights(g.mu)
    failures: list[PhrFailure] = []
    for can in () if violations else cans:
        if fault := _mass_fault(down[can], g.absorbing, den, weight):
            reason, total = fault
            failures.append(PhrFailure(can, _out_text(down[can]), total, reason))
    ok = not violations and not failures
    return rules, passed, down, cans, PhrReport(ok, tuple(failures), violations, len(cans))


_ITSELF = object()  # a vertex's own place in its signature's entries


def _quotient(g: Grammar, reached: frozenset[str],
              named: frozenset[str]) -> tuple[Grammar, dict[Site, Site]]:
    """The grammar with its interchangeable rule vertices collapsed, and
    each collapsed site's representative site; g itself when none collapse.
    Run on an admitted grammar only.

    A non-input vertex's signature is the multiset of the arcs, colours
    and hyperarcs of its rule that hold it, with its own places marked.
    Two vertices of a reachable rule with one signature lie on no arc or
    hyperarc together (the other's entry would name it unmarked), so
    swapping them maps the rule's arcs, colours and hyperarcs onto
    themselves, and every copy of the rule, with the subtrees below it,
    onto itself: their instances are probabilistically bisimilar. Under
    single membership such a vertex lies on no hyperarc with another
    vertex, so its subtree meets the rest of the graph at it alone. An
    axiom vertex in `named` (a formula's atoms) stays apart.

    The first of each signature group in rhs order represents the group.
    The others go, with their colours, out-arcs and hyperarcs, and every
    other arc into one of them keeps its label and leads to the
    representative instead: the arcs into a group stay parallel, and every
    engine sums parallel arcs, so the quotient keeps the grammar's
    terminals and mu."""
    merged: dict[Site, Site] = {}
    quotient: list[Rule] = []
    for rule in g.rules:
        apart = named if rule.lhs == g.axiom else ()
        own = {v: [] for v in rule.non_inputs if v not in apart}
        if rule.lhs not in reached or len(own) < 2:
            quotient.append(rule)
            continue
        for label, s, t in rule.rhs.arcs:
            if s in own:
                own[s].append(("arc", label, _ITSELF, _ITSELF if t == s else t))
            if t in own and t != s:
                own[t].append(("arc", label, s, _ITSELF))
        for colour, v in rule.rhs.colours:
            if v in own:
                own[v].append(("colour", colour))
        for label, vs in rule.rhs.hyperarcs:
            for v in vs:
                if v in own:
                    own[v].append(("hyperarc", label, *(_ITSELF if w == v else w for w in vs)))
        groups: dict[frozenset, list] = {}
        for v, entries in own.items():
            # the set of entries, or their counts when one repeats: an entry
            # starts with a kind, a count pair with an entry, so the two
            # forms never meet
            key = frozenset(entries)
            if len(key) < len(entries):
                key = frozenset(Counter(entries).items())
            groups.setdefault(key, []).append(v)
        rep = {v: vs[0] for vs in groups.values() for v in vs[1:]}
        if not rep:
            quotient.append(rule)
            continue
        merged.update(((rule.lhs, v), (rule.lhs, r)) for v, r in rep.items())
        rhs = Hypergraph()
        for v in rule.rhs.vertices:
            if v not in rep:
                rhs.add_vertex(v)
        for label, s, t in rule.rhs.arcs:
            if s not in rep:
                rhs.add_arc(label, s, rep.get(t, t))
        for colour, v in rule.rhs.colours:
            if v not in rep:
                rhs.add_colour(colour, v)
        for label, vs in rule.rhs.hyperarcs:
            if rep.keys().isdisjoint(vs):
                rhs.add_hyperarc(label, vs)
        quotient.append(Rule(rule.lhs, rule.inputs, rhs))
    return (g._replace(rules=quotient) if merged else g), merged


def phr_check(g: Grammar) -> PhrReport:
    """Does every vertex class have total outgoing probability exactly 1
    under the grammar's own mu?

    Sinks are allowed only when marked with a declared absorbing colour.
    Classes with an infinitely repeated outgoing arc fail for every mu.
    All arithmetic is exact. A structurally invalid grammar raises one
    GrammarError naming every issue.
    """
    return _admit(g)[-1]


class Analysis(NamedTuple):
    """Everything the engines read off one grammar, its mu included.

    Built by `analyse`, once per engine entry point, on the grammar's
    quotient (`_quotient`), which is the grammar itself when no rule has
    interchangeable vertices and otherwise differs from it in its rules
    alone. The reachable classes of the quotient are
    numbered 0..n-1 in the order of `canonical_vertices`, and every table
    holds these ids; `names` turns them back into creation sites for
    output, and `ids` maps every reachable creation site of the grammar,
    a collapsed one to its representative's id. Where a step through an
    input lands is held one way, as the set of classes the vertex there
    can be, those whose passings reach the site: `bindings` per
    occurrence, `refs` across all occurrences of a rule. `assemblies`
    holds the equation system of each (phi1, phi2) pair once something
    assembled it, and with it the pair's one enclosure once `solve_until`
    solved it.
    """

    grammar: Grammar  # the quotient
    names: list[CanonicalVertex]  # id -> creation site, a representative
    ids: dict[Site, int]  # (rule, vertex) -> id, for every reachable creation site
    classes: list[VertexClass]  # by id
    # the until variables of class c: win is c, dec(c, j) is dec[c] + j - 1,
    # so dec[c] .. dec[c + 1] - 1 are its descents; dec[0] is n
    dec: list[int]
    absorbing: frozenset[int]
    fragments: dict[str, Fragment]  # one per context (reachable rule), axiom first
    # per nonterminal, one tuple per hyperarc occurrence in a reachable
    # rule: the classes the vertex in each of its slots can be
    bindings: dict[str, list[tuple[frozenset[int], ...]]]
    # (rule, j) -> the classes whose passings reach input j, across occurrences
    refs: dict[tuple[str, int], frozenset[int]]
    assemblies: dict
    reachable: range  # every id


def analyse(g: Grammar, named: frozenset[str] = frozenset()) -> Analysis:
    """The analysis the solving engines run on, under the grammar's own mu.
    Raises GrammarError when the grammar is structurally invalid, and
    EngineUnsupported when phr_check fails (with its report) or the local
    fragment picture breaks down. `named` holds the axiom vertices a
    formula reads as atoms, which the quotient keeps apart.

    Beyond phr_check this refuses (a) classes whose incoming arcs repeat
    forever and (b) vertices that, passed to an input lying on a hyperarc,
    keep gaining outgoing arcs further down: in both cases a vertex's
    one-step behaviour would depend on levels above the fragment under
    consideration. All of it reads the one passing table `_admit` builds.
    Admission runs on the grammar; everything after it, but the class
    records, which a representative keeps, reads the quotient.
    """
    rules, passed, down, cans, report = _admit(g)
    if not report.ok:
        raise EngineUnsupported(str(report))
    for can in cans:
        if infinite := sorted(label for way, label in down[can].forever if way == "in"):
            raise EngineUnsupported(f"{can}: incoming arcs {infinite} repeat forever")
    for can in cans:
        # every passing leads to a rule input; from the second on, the
        # vertex is passed down through an input on a hyperarc
        first = passed.get(can)
        second = first and passed.get(first[0])
        if second and not down[second[0]].is_sink:
            (rule, x), (label, y) = first[0], second[0]
            raise EngineUnsupported(
                f"rule {rule}: input {x} keeps gaining arcs after being passed "
                f"to {label} at position {rules[label].input_index(y)}")

    reached = reachable_nonterminals(g)
    q, merged = _quotient(g, reached, named)
    if merged:
        rules, passed = {rule.lhs: rule for rule in q.rules}, passing_table(q)
    names = [can for can in cans if can.rule in reached and can not in merged]
    first = {can: c for c, can in enumerate(names)}
    # a collapsed site takes its representative's id
    ids = {(can.rule, can.vertex): first[merged.get(can, can)]
           for can in cans if can.rule in reached}
    classes = [down[can] for can in names]
    dec = list(accumulate((len(rules[can.rule].inputs) for can in names), initial=len(names)))
    # the classes a vertex at each site can be: every class whose passings
    # reach it (a reachable class passes only into reachable rules)
    held: dict[Site, set[int]] = {}
    for c, can in enumerate(names):
        for t in reach([can], lambda s: passed.get(s, ())):
            held.setdefault(t, set()).add(c)
    at = {site: frozenset(cs) for site, cs in held.items()}
    bindings: dict[str, list[tuple[frozenset[int], ...]]] = {}
    for host in q.rules:
        if host.lhs in reached:
            for h in host.rhs.hyperarcs:
                bindings.setdefault(h.label, []).append(
                    tuple(at[host.lhs, v] for v in h.vertices))
    return Analysis(
        grammar=q,
        names=names,
        ids=ids,
        classes=classes,
        dec=dec,
        absorbing=frozenset(c for c, vc in enumerate(classes)
                            if vc.is_sink and vc.colours & g.absorbing),
        fragments={name: build_fragment(rules, passed, name, ids)
                   for name in sorted(reached, key=lambda n: (n != g.axiom, n))},
        bindings=bindings,
        refs={(r.lhs, j): at.get((r.lhs, x), frozenset())
              for r in q.rules for j, x in enumerate(r.inputs, start=1)},
        assemblies={},
        reachable=range(len(names)),
    )
