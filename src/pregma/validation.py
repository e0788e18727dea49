"""Per-class degree accounting, the probability-sum check, and the one
analysis of a grammar that every engine reads.

A concrete vertex picks up arcs in stages: some at its creation site, then
more at each passing, the step from a site to the input of a hyperarc slot
that holds it. One memoised walk of the passings from every creation site
reads the full out-degree (and colour set) of every vertex of the generated
graph off the grammar without expanding anything. A walk that comes back to
a site on its open path has found a loop: no site on it terminates, and
every arc label gained on it occurs infinitely often.

Admission walks only under single membership, each vertex on at most one
nonterminal hyperarc, and refuses a grammar that breaks it with one line
per shared vertex. At a shared vertex the walk sums what every branch
gains, which is exact for the classes that terminate; the truncation
oracle reads only those.

`analyse` numbers the reachable classes 0..n-1, keeps `names` to turn an
id back into its creation site for output, and holds ids or id sets in
every table the engines read: a rule lookup, each class's
profiles and colours, the absorbing classes, where a step
through a hyperarc occurrence lands, resolved once to the set of classes
it can be (per occurrence and input, and per rule input across every
occurrence), one local fragment per context (the source of every one-step
fact), and the equation systems assembled so far. It refuses grammars
outside what the engines handle. The analysis is a value the caller owns
and passes along; nothing is cached on the grammar, which callers such as
the pushdown converter still edit after reading its profiles.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate
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

ProbabilityMap = Mapping[str, Fraction]

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


@dataclass(frozen=True)
class DegreeProfile:
    finite: tuple[tuple[str, int], ...]  # sorted (label, count), counts > 0
    infinite: frozenset[str]

    def total(self, mu: ProbabilityMap) -> Fraction | None:
        """Σ μ(label) · count, or None when some label occurs infinitely."""
        if self.infinite:
            return None
        return sum([mu[label] * n for label, n in self.finite], Fraction(0))

    def __str__(self) -> str:
        parts = [f"{label}:{n}" for label, n in self.finite]
        parts += [f"{label}:inf" for label in sorted(self.infinite)]
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class VertexClass:
    """What the passings from one class's creation site show: every arc its
    vertices ever get, in both directions, every colour they carry, and
    whether the passings end. Under a shared vertex only the profiles of a
    class that terminates are exact."""

    out: DegreeProfile
    into: DegreeProfile
    colours: frozenset[str]
    terminates: bool

    @property
    def is_sink(self) -> bool:
        return not self.out.finite and not self.out.infinite


def canonical_vertices(g: Grammar) -> list[CanonicalVertex]:
    """All creation sites: the non-input vertices of every rule."""
    out = []
    for rule in g.rules:
        for v in rule.non_inputs:
            out.append(CanonicalVertex(rule.lhs, v))
    return out


class _Down(NamedTuple):
    """What a vertex gains at a site and at every site passed down from
    there: finite counts of ("out" or "in", label), the pairs that recur
    forever, its colours, and whether the passings end."""

    counts: Counter
    forever: frozenset[tuple[str, str]]
    colours: frozenset[str]
    terminates: bool


def _join(arcs: list[tuple[str, str]], marks: set[str], below: list[_Down],
          on_loop: bool) -> _Down:
    """A site's own arcs and colours plus the gains of the sites it passes
    to, all of them recurring forever when the site lies on a loop."""
    counts, colours, forever = Counter(arcs), set(marks), set()
    for d in below:
        counts.update(d.counts)
        forever |= d.forever
        colours |= d.colours
    if on_loop:
        return _Down(Counter(), frozenset(forever | set(counts)), frozenset(colours), False)
    return _Down(counts, frozenset(forever), frozenset(colours),
                 all(d.terminates for d in below))


def _degrees(d: _Down, way: str) -> DegreeProfile:
    """The profile of one way, "out" or "in", of a walk entry."""
    return DegreeProfile(tuple(sorted((label, n) for (w, label), n in d.counts.items()
                                      if w == way)),
                         frozenset(label for w, label in d.forever if w == way))


def _passings(rules: Mapping[str, Rule], slots: Slots, site: Site) -> list[Site]:
    """The input sites a site is passed to, one per hyperarc slot holding it."""
    return [(h.label, rules[h.label].inputs[pos - 1]) for h, pos in slots.get(site, ())]


def _walk(g: Grammar, rules: Mapping[str, Rule], slots: Slots) -> dict[Site, _Down]:
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

    down: dict[Site, _Down] = {}
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


def _classes(cans: list[CanonicalVertex], down: dict[Site, _Down],
             ) -> list[tuple[CanonicalVertex, VertexClass]]:
    """Each class with the entry of its creation site."""
    return [(can, VertexClass(_degrees(d, "out"), _degrees(d, "in"), d.colours, d.terminates))
            for can in cans for d in [down[can.rule, can.vertex]]]


def vertex_classes(g: Grammar) -> dict[CanonicalVertex, VertexClass]:
    """The class table of a structurally valid grammar, from one walk of
    the passings. Exact for every class under single membership, which
    check_complete_outside checks; otherwise exact for the classes that
    terminate, whose profiles then sum what every branch gains."""
    rules = {rule.lhs: rule for rule in g.rules}
    return dict(_classes(canonical_vertices(g), _walk(g, rules, hyperarc_slots(g))))


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
    profile: DegreeProfile | None
    total: Fraction | None
    reason: str

    def __str__(self) -> str:
        bits = [f"{self.can}"]
        if self.profile is not None:
            bits.append(f"profile {self.profile}")
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


def _admit(g: Grammar) -> tuple[dict[str, Rule], Slots, dict[Site, _Down],
                                 list[tuple[CanonicalVertex, VertexClass]], PhrReport]:
    """The one admission of a grammar: the structural gate, the occurrence
    table, single membership, then, only when no vertex is shared, the walk
    of the passings, the class table and the mass report."""
    rules = checked_rules(g)
    slots = hyperarc_slots(g)
    violations = check_complete_outside(g)
    cans = canonical_vertices(g)
    down = {} if violations else _walk(g, rules, slots)
    classes = [] if violations else _classes(cans, down)
    den, weight = integer_weights(g.mu)
    failures: list[PhrFailure] = []
    for can, vc in classes:
        profile = vc.out
        if profile.infinite:
            failures.append(PhrFailure(can, profile, None,
                                       "arcs repeat forever, no mu can normalise this"))
            continue
        if not profile.finite:
            if vc.colours & g.absorbing:
                continue
            failures.append(PhrFailure(can, profile, Fraction(0),
                                       "sink without an absorbing colour"))
            continue
        missing = [label for label, _ in profile.finite if label not in g.mu]
        if missing:
            failures.append(PhrFailure(can, profile, None,
                                       f"no probability for {', '.join(missing)}"))
            continue
        if sum(weight[label] * n for label, n in profile.finite) != den:
            failures.append(PhrFailure(can, profile, profile.total(g.mu), "total is not 1"))
    ok = not violations and not failures
    return rules, slots, down, classes, PhrReport(ok, tuple(failures), violations, len(cans))


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
    rules, slots, down, classes, report = _admit(g)
    if not report.ok:
        raise EngineUnsupported(str(report))
    for can, vc in classes:
        if vc.into.infinite:
            raise EngineUnsupported(
                f"{can}: incoming arcs {sorted(vc.into.infinite)} repeat forever"
            )
    for can, _ in classes:
        # every passing leads to a rule input; from the second on, the
        # vertex is passed down through an input on a hyperarc
        first = _passings(rules, slots, (can.rule, can.vertex))
        second = first and _passings(rules, slots, first[0])
        if second and _degrees(down[second[0]], "out") != DegreeProfile((), frozenset()):
            h, pos = slots[first[0]][0]
            raise EngineUnsupported(
                f"rule {first[0][0]}: input {first[0][1]} keeps gaining arcs "
                f"after being passed to {h.label} at position {pos}"
            )

    reached = reachable_nonterminals(g)
    kept = [(can, vc) for can, vc in classes if can.rule in reached]
    ids = {(can.rule, can.vertex): c for c, (can, _) in enumerate(kept)}
    dec = list(accumulate((len(rules[can.rule].inputs) for can, _ in kept), initial=len(kept)))
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
        names=[can for can, _ in kept],
        ids=ids,
        classes=[vc for _, vc in kept],
        dec=dec,
        absorbing=frozenset(c for c, (_, vc) in enumerate(kept)
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
