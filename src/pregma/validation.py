"""Per-class degree accounting, the probability-sum check, and the one
analysis of a grammar that every engine reads.

A concrete vertex picks up arcs in stages: some at its creation site, then
some more each time it is glued onto the input of a deeper rule copy. The
walker below follows that chain of roles purely syntactically, so the full
out-degree (and colour set) of every vertex of the generated graph can be
read off the grammar without expanding anything.

The walk needs single membership: each vertex lies on at most one
nonterminal hyperarc, so each role has at most one next role. Admission
checks this before any chain is walked, and a grammar that breaks it is
refused with one line per shared vertex. The chain then either terminates
(the current role vertex lies on no nonterminal hyperarc) or revisits a role
(the vertex keeps being re-glued forever, and any arcs gained inside the
loop occur infinitely often).

`analyse` walks each class's chain once and keeps what the engines need: a
rule lookup, the hyperarc occurrence table, each class's profiles and
colours, the absorbing and reachable classes, the classes each rule input
can be bound to, one local fragment per context (the source of every
one-step fact), and the equation systems assembled so far. It refuses
grammars outside what the engines handle. The analysis is a value the caller
owns and passes along; nothing is cached on the grammar, which callers such
as the pushdown converter still edit after reading its profiles.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .fragments import Fragment, build_fragment
from .model import (
    CanonicalVertex,
    Grammar,
    GrammarError,
    Hyperarc,
    Rule,
    VertexId,
    checked_rules,
    reach,
    reachable_nonterminals,
)

ProbabilityMap = Mapping[str, Fraction]

Site = tuple[str, VertexId]

# (rule, vertex) site -> every (hyperarc, 1-based position) slot holding it
Slots = dict[Site, list[tuple[Hyperarc, int]]]

# what a parent glues onto a rule input: a class, or ("ref", rule, j) for
# whatever the parent's own parent glued onto the parent's input j
Ref = tuple[str, str, int]
Binding = CanonicalVertex | Ref


class EngineUnsupported(GrammarError):
    """The grammar is outside what the solving engines handle."""


@dataclass(frozen=True)
class RoleChain:
    sites: tuple[Site, ...]
    cycle_start: int | None  # index into sites, None when the chain terminates

    @property
    def terminates(self) -> bool:
        return self.cycle_start is None


def hyperarc_slots(g: Grammar) -> Slots:
    """The occurrence table: every hyperarc slot, indexed by the site in it."""
    slots: Slots = {}
    for rule in g.rules:
        for h in rule.rhs.hyperarcs:
            for pos, v in enumerate(h.vertices, start=1):
                slots.setdefault((rule.lhs, v), []).append((h, pos))
    return slots


def role_chain(
    rules: Mapping[str, Rule], slots: Slots, rule_name: str, vertex: VertexId
) -> RoleChain:
    sites: list[Site] = []
    seen: dict[Site, int] = {}
    site: Site = (rule_name, vertex)
    while True:
        if site in seen:
            return RoleChain(tuple(sites), seen[site])
        seen[site] = len(sites)
        sites.append(site)
        occs = slots.get(site, [])
        if not occs:
            return RoleChain(tuple(sites), None)
        h, pos = occs[0]
        site = (h.label, rules[h.label].inputs[pos - 1])


@dataclass(frozen=True)
class DegreeProfile:
    finite: tuple[tuple[str, int], ...]  # sorted (label, count), counts > 0
    infinite: frozenset[str]

    def count(self, label: str) -> int:
        return dict(self.finite).get(label, 0)

    def total(self, mu: ProbabilityMap) -> Fraction | None:
        """Σ μ(label) · count, or None when some label occurs infinitely."""
        if self.infinite:
            return None
        out = Fraction(0)
        for label, n in self.finite:
            if label not in mu:
                raise KeyError(label)
            out += mu[label] * n
        return out

    def __str__(self) -> str:
        parts = [f"{label}:{n}" for label, n in self.finite]
        parts += [f"{label}:inf" for label in sorted(self.infinite)]
        return "{" + ", ".join(parts) + "}"


def _profile(chain: RoleChain, gains: Mapping[Site, Counter]) -> DegreeProfile:
    finite: Counter = Counter()
    infinite: set[str] = set()
    for idx, site in enumerate(chain.sites):
        got = gains.get(site, Counter())
        if chain.cycle_start is not None and idx >= chain.cycle_start:
            infinite.update(got)
        else:
            finite.update(got)
    return DegreeProfile(tuple(sorted(finite.items())), frozenset(infinite))


@dataclass(frozen=True)
class VertexClass:
    """What one class's role chain shows: every arc its vertices ever get,
    in both directions, and every colour they carry."""

    chain: RoleChain
    out: DegreeProfile
    into: DegreeProfile
    colours: frozenset[str]

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


def vertex_classes(
    g: Grammar, rules: Mapping[str, Rule], slots: Slots
) -> dict[CanonicalVertex, VertexClass]:
    """Walk the role chain of every canonical vertex once.

    Needs single membership: call it only on a grammar for which
    check_complete_outside finds no violation.
    """
    out_gains: dict[Site, Counter] = {}
    in_gains: dict[Site, Counter] = {}
    marks: dict[Site, set[str]] = {}
    for rule in g.rules:
        for arc in rule.rhs.arcs:
            out_gains.setdefault((rule.lhs, arc.source), Counter())[arc.label] += 1
            in_gains.setdefault((rule.lhs, arc.target), Counter())[arc.label] += 1
        for colour, v in rule.rhs.colours:
            marks.setdefault((rule.lhs, v), set()).add(colour)
    table: dict[CanonicalVertex, VertexClass] = {}
    for can in canonical_vertices(g):
        chain = role_chain(rules, slots, can.rule, can.vertex)
        colours = frozenset(c for site in chain.sites for c in marks.get(site, ()))
        table[can] = VertexClass(
            chain, _profile(chain, out_gains), _profile(chain, in_gains), colours
        )
    return table


def check_complete_outside(g: Grammar) -> tuple[str, ...]:
    """Each vertex may lie on at most one nonterminal hyperarc: one line per
    vertex that lies on more, empty when none does.

    An input may lie on one: that is legal here, and `analyse` refuses the
    inputs that keep gaining arcs after being passed down.
    """
    return _outside(g, hyperarc_slots(g))


def _outside(g: Grammar, slots: Slots) -> tuple[str, ...]:
    return tuple(f"rule {rule.lhs}: vertex {v} lies on {n} hyperarcs"
                 for rule in g.rules for v in rule.rhs.vertices
                 if (n := len(slots.get((rule.lhs, v), ()))) > 1)


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
        lines = [f"phr_check: FAILED ({len(self.failures)} of {self.checked} classes)"]
        lines += [f"  {f}" for f in self.failures]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _admit(g: Grammar) -> tuple[dict[str, Rule], Slots,
                                 dict[CanonicalVertex, VertexClass], PhrReport]:
    """The one admission of a grammar: the structural gate, the occurrence
    table, single membership, then, only when no vertex is shared, the
    role-chain walk and the mass report."""
    rules = checked_rules(g)
    slots = hyperarc_slots(g)
    violations = _outside(g, slots)
    classes = {} if violations else vertex_classes(g, rules, slots)
    failures: list[PhrFailure] = []
    for can, vc in classes.items():
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
        total = profile.total(g.mu)
        if total != 1:
            failures.append(PhrFailure(can, profile, total, "total is not 1"))
    ok = not violations and not failures
    return rules, slots, classes, PhrReport(ok, tuple(failures), violations,
                                            len(canonical_vertices(g)))


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

    Built by `analyse`, once per engine entry point; `assemblies` holds the
    equation system of each (phi1, phi2) pair once something assembled it,
    and with it the pair's shared enclosure once something solved it.
    """

    grammar: Grammar
    rules: dict[str, Rule]
    classes: dict[CanonicalVertex, VertexClass]
    absorbing: frozenset[CanonicalVertex]
    fragments: dict[str, Fragment]  # one per context (reachable rule), axiom first
    reachable: list[CanonicalVertex]  # classes of the reachable rules
    # per nonterminal, one tuple per hyperarc occurrence in a reachable
    # rule: what that occurrence glues onto each input
    bindings: dict[str, list[tuple[Binding, ...]]]
    # (rule, j) -> every class that can sit at input j across occurrences
    refs: dict[tuple[str, int], frozenset[CanonicalVertex]]
    assemblies: dict


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
    rules, slots, classes, report = _admit(g)
    if not report.ok:
        raise EngineUnsupported(str(report))
    for can, vc in classes.items():
        if vc.into.infinite:
            raise EngineUnsupported(
                f"{can}: incoming arcs {sorted(vc.into.infinite)} repeat forever"
            )
    for vc in classes.values():
        # every site past the first is a rule input; from the second gluing
        # on, the vertex has been passed down through an input on a hyperarc
        chain = vc.chain
        onward = chain.sites[2 if chain.terminates else min(2, chain.cycle_start):]
        if any(arc.source == v for name, v in onward for arc in rules[name].rhs.arcs):
            rule_name, vertex = chain.sites[1]
            h, pos = slots[chain.sites[1]][0]
            raise EngineUnsupported(
                f"rule {rule_name}: input {vertex} keeps gaining arcs "
                f"after being passed to {h.label} at position {pos}"
            )

    names = reachable_nonterminals(g)
    bindings: dict[str, list[tuple[Binding, ...]]] = {}
    for host in g.rules:
        if host.lhs not in names:
            continue
        for h in host.rhs.hyperarcs:
            bindings.setdefault(h.label, []).append(tuple(
                ("ref", host.lhs, host.input_index(v)) if host.is_input(v)
                else CanonicalVertex(host.lhs, v)
                for v in h.vertices
            ))

    def glued_on(b: Binding) -> list[Binding]:
        """What the occurrences glue onto the input a ref names."""
        if isinstance(b, CanonicalVertex):
            return []
        _, name, j = b
        return [bound[j - 1] for bound in bindings.get(name, [])]

    return Analysis(
        grammar=g,
        rules=rules,
        classes=classes,
        absorbing=frozenset(
            c for c, vc in classes.items() if vc.is_sink and vc.colours & g.absorbing
        ),
        fragments={name: build_fragment(rules, slots, name)
                   for name in sorted(names, key=lambda n: (n != g.axiom, n))},
        reachable=[c for c in classes if c.rule in names],
        bindings=bindings,
        refs={(r.lhs, j): frozenset(b for b in reach([("ref", r.lhs, j)], glued_on)
                                    if isinstance(b, CanonicalVertex))
              for r in g.rules for j in range(1, len(r.inputs) + 1)},
        assemblies={},
    )
