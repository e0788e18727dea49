"""Per-class degree accounting, the probability-sum check, and the one
analysis of a grammar that every engine reads.

A concrete vertex picks up arcs in stages: some at its creation site, then
more at each passing, the step from a site to the input of a hyperarc slot
that holds it. One memoised walk of the passings from every creation site
reads the full out-degree (and colour set) of every vertex of the generated
graph off the grammar without expanding anything. A walk that comes back to
a site on its open path has found a loop: no site on it terminates, and
every arc label gained on it occurs infinitely often. The walk's entry at a
creation site is the class record, the only form of a class's degrees:
one mass test in integer weights (`_mass_fault`) reads it for admission
and for the truncation oracle, and the profile in a failure is message
text rendered from it.

Admission walks only under single membership, each vertex on at most one
nonterminal hyperarc, and refuses a grammar that breaks it with one line
per shared vertex. At a shared vertex the walk sums what every branch
gains, which is exact for the classes that terminate; the truncation
oracle reads only those.

`analyse` numbers the reachable classes 0..n-1, keeps `names` to turn an
id back into its creation site for output, and holds ids or id sets in
every table the engines read: a rule lookup, each class's walk entry, the
absorbing classes, where a step through a hyperarc occurrence lands,
resolved once to the set of classes it can be (per occurrence and input,
and per rule input across every occurrence), one local fragment per
context (the source of every one-step fact), and the equation systems
assembled so far. It refuses grammars
outside what the engines handle. The analysis is a value the caller owns
and passes along; nothing is cached on the grammar, which callers such as
the pushdown converter still edit after reading its class table.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .fragments import Fragment, build_fragment
from .model import (
    CanonicalVertex,
    Grammar,
    GrammarError,
    Hyperarc,
    Rule,
    VertexId,
    checked_rules,
    integer_weights,
    reach,
    reachable_nonterminals,
)

Site = tuple[str, VertexId]

# (rule, vertex) site -> every (hyperarc, 1-based position) slot holding it
Slots = dict[Site, list[tuple[Hyperarc, int]]]


class EngineUnsupported(GrammarError):
    """The grammar is outside what the solving engines handle."""


def hyperarc_slots(g: Grammar) -> Slots:
    """The occurrence table: every hyperarc slot, indexed by the site in it."""
    slots: Slots = {}
    for rule in g.rules:
        for h in rule.rhs.hyperarcs:
            for pos, v in enumerate(h.vertices, start=1):
                slots.setdefault((rule.lhs, v), []).append((h, pos))
    return slots


class VertexClass(NamedTuple):
    """What a vertex gains at a site and at every site passed down from
    there, the walk's entry for that site: finite counts of ("out" or "in",
    label), the pairs that recur forever, its colours, and whether the
    passings end. At a creation site it is the class of the vertices made
    there, and the only record of that class. Under a shared vertex only a
    class that terminates is exact."""

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


def _join(arcs: list[tuple[str, str]], marks: set[str], below: list[VertexClass],
          on_loop: bool) -> VertexClass:
    """A site's own arcs and colours plus the gains of the sites it passes
    to, all of them recurring forever when the site lies on a loop."""
    counts, colours, forever = Counter(arcs), set(marks), set()
    for d in below:
        counts.update(d.counts)
        forever |= d.forever
        colours |= d.colours
    if on_loop:
        counts, forever = Counter(), forever | set(counts)
    return VertexClass(counts, frozenset(forever), frozenset(colours),
                       not on_loop and all(d.terminates for d in below))


def _passings(rules: Mapping[str, Rule], slots: Slots, site: Site) -> list[Site]:
    """The input sites a site is passed to, one per hyperarc slot holding it."""
    return [(h.label, rules[h.label].inputs[pos - 1]) for h, pos in slots.get(site, ())]


def _walk(g: Grammar, rules: Mapping[str, Rule], slots: Slots) -> dict[Site, VertexClass]:
    """One depth-first walk of the passings from every creation site: each
    reached site's gains from there on down. A loop's sites are worked out
    deepest first; the site the walk came back to sees all of the loop's
    gains, and every site on the loop takes its entry, as under single
    membership they all gain the same."""
    arcs: dict[Site, list[tuple[str, str]]] = {}
    marks: dict[Site, set[str]] = {}
    for rule in g.rules:
        for arc in rule.rhs.arcs:
            arcs.setdefault((rule.lhs, arc.source), []).append(("out", arc.label))
            arcs.setdefault((rule.lhs, arc.target), []).append(("in", arc.label))
        for colour, v in rule.rhs.colours:
            marks.setdefault((rule.lhs, v), set()).add(colour)

    down: dict[Site, VertexClass] = {}
    loops: dict[Site, list[Site]] = {}  # a site the walk came back to -> its loops
    looped: set[Site] = set()
    for start in [(rule.lhs, v) for rule in g.rules for v in rule.non_inputs]:
        path, todo = [start], [_passings(rules, slots, start)]
        while path:
            if todo[-1]:
                site = todo[-1].pop()
                if site in path:
                    loops.setdefault(site, []).extend(path[path.index(site):])
                    looped.update(path[path.index(site):])
                elif site not in down:
                    path.append(site)
                    todo.append(_passings(rules, slots, site))
                continue
            site = path.pop()
            todo.pop()
            down[site] = _join(arcs.get(site, []), marks.get(site, ()),
                               [down[s] for s in _passings(rules, slots, site) if s in down],
                               site in looped)
            for s in loops.pop(site, ()):
                down[s] = down[site]
    return down


def vertex_classes(g: Grammar) -> dict[CanonicalVertex, VertexClass]:
    """The class table of a structurally valid grammar: the walk's entries
    at the creation sites. Exact for every class under single membership,
    which check_complete_outside checks; otherwise exact for the classes
    that terminate, whose counts then sum what every branch gains."""
    down = _walk(g, {rule.lhs: rule for rule in g.rules}, hyperarc_slots(g))
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


@dataclass(frozen=True)
class PhrFailure:
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


@dataclass(frozen=True)
class PhrReport:
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


def _admit(g: Grammar) -> tuple[dict[str, Rule], Slots, dict[Site, VertexClass],
                                 list[CanonicalVertex], PhrReport]:
    """The one admission of a grammar: the structural gate, the occurrence
    table, single membership, then, only when no vertex is shared, the walk
    of the passings, whose entries are the class table, and the mass report."""
    rules = checked_rules(g)
    slots = hyperarc_slots(g)
    violations = check_complete_outside(g)
    cans = canonical_vertices(g)
    down = {} if violations else _walk(g, rules, slots)
    den, weight = integer_weights(g.mu)
    failures: list[PhrFailure] = []
    for can in () if violations else cans:
        if fault := _mass_fault(down[can], g.absorbing, den, weight):
            reason, total = fault
            failures.append(PhrFailure(can, _out_text(down[can]), total, reason))
    ok = not violations and not failures
    return rules, slots, down, cans, PhrReport(ok, tuple(failures), violations, len(cans))


def phr_check(g: Grammar) -> PhrReport:
    """Does every vertex class have total outgoing probability exactly 1
    under the grammar's own mu?

    Sinks are allowed only when marked with a declared absorbing colour.
    Classes with an infinitely repeated outgoing arc fail for every mu.
    All arithmetic is exact. A structurally invalid grammar raises one
    GrammarError naming every issue.
    """
    return _admit(g)[-1]


@dataclass
class Analysis:
    """Everything the engines read off one grammar, its mu included.

    Built by `analyse`, once per engine entry point. The reachable classes
    are numbered 0..n-1 in the order of `canonical_vertices`, and every
    table holds these ids; `names` turns them back into creation sites for
    output. Where a step through an input lands is held one way, as the set
    of classes the vertex there can be: `bindings` per occurrence, `refs`
    across all occurrences of a rule. `assemblies` holds the equation
    system of each (phi1, phi2) pair once something assembled it, and with
    it the pair's one enclosure once `solve_until` solved it.
    """

    grammar: Grammar
    rules: dict[str, Rule]
    names: list[CanonicalVertex]  # id -> creation site
    ids: dict[Site, int]  # (rule, vertex) -> id
    classes: list[VertexClass]  # by id
    # the until variables of class c: win is c, dec(c, j) is dec[c] + j - 1,
    # so dec[c] .. dec[c + 1] - 1 are its descents; dec[0] is n
    dec: list[int]
    absorbing: frozenset[int]
    fragments: dict[str, Fragment]  # one per context (reachable rule), axiom first
    # per nonterminal, one tuple per hyperarc occurrence in a reachable
    # rule: the classes the vertex it glues onto each input can be
    bindings: dict[str, list[tuple[frozenset[int], ...]]]
    # (rule, j) -> every class that can sit at input j across occurrences
    refs: dict[tuple[str, int], frozenset[int]]
    assemblies: dict
    reachable: range  # every id


def analyse(g: Grammar) -> Analysis:
    """The analysis the solving engines run on, under the grammar's own mu.
    Raises GrammarError when the grammar is structurally invalid, and
    EngineUnsupported when phr_check fails (with its report) or the local
    fragment picture breaks down.

    Beyond phr_check this refuses (a) classes whose incoming arcs repeat
    forever and (b) vertices that, glued onto an input lying on a hyperarc,
    keep gaining outgoing arcs further down: in both cases a vertex's
    one-step behaviour would depend on levels above the fragment under
    consideration.
    """
    rules, slots, down, cans, report = _admit(g)
    if not report.ok:
        raise EngineUnsupported(str(report))
    for can in cans:
        if infinite := sorted(label for way, label in down[can].forever if way == "in"):
            raise EngineUnsupported(f"{can}: incoming arcs {infinite} repeat forever")
    for can in cans:
        # every passing leads to a rule input; from the second on, the
        # vertex is passed down through an input on a hyperarc
        first = _passings(rules, slots, can)
        second = first and _passings(rules, slots, first[0])
        if second and not down[second[0]].is_sink:
            h, pos = slots[first[0]][0]
            raise EngineUnsupported(
                f"rule {first[0][0]}: input {first[0][1]} keeps gaining arcs "
                f"after being passed to {h.label} at position {pos}"
            )

    reached = reachable_nonterminals(g)
    kept = [can for can in cans if can.rule in reached]
    classes = [down[can] for can in kept]
    ids = {(can.rule, can.vertex): c for c, can in enumerate(kept)}
    dec = list(accumulate((len(rules[can.rule].inputs) for can in kept), initial=len(kept)))
    # what each occurrence in a reachable rule glues onto each input: a
    # class, or (rule, j) for whatever was glued onto that rule's input j
    glued: dict[str, list[tuple]] = {}
    for host in g.rules:
        if host.lhs in reached:
            for h in host.rhs.hyperarcs:
                glued.setdefault(h.label, []).append(tuple(
                    (host.lhs, host.input_index(v)) if host.is_input(v)
                    else ids[host.lhs, v] for v in h.vertices))

    def inward(b: int | tuple[str, int]) -> list:
        """What the occurrences glue onto the input (rule, j) names."""
        if isinstance(b, int):
            return []
        return [bound[b[1] - 1] for bound in glued.get(b[0], [])]

    refs = {(r.lhs, j): frozenset(b for b in reach([(r.lhs, j)], inward)
                                  if isinstance(b, int))
            for r in g.rules for j in range(1, len(r.inputs) + 1)}
    return Analysis(
        grammar=g,
        rules=rules,
        names=kept,
        ids=ids,
        classes=classes,
        dec=dec,
        absorbing=frozenset(c for c, vc in enumerate(classes)
                            if vc.is_sink and vc.colours & g.absorbing),
        fragments={name: build_fragment(rules, slots, name, ids)
                   for name in sorted(reached, key=lambda n: (n != g.axiom, n))},
        bindings={name: [tuple(frozenset({b}) if isinstance(b, int) else refs[b]
                               for b in bound) for bound in occs]
                  for name, occs in glued.items()},
        refs=refs,
        assemblies={},
        reachable=range(len(kept)),
    )
