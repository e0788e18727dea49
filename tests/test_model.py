import tracemalloc
from fractions import Fraction

import pytest

from pregma.gio import parse_grammar
from pregma.model import (
    CanonicalVertex,
    Expansion,
    Grammar,
    GrammarError,
    Hypergraph,
    Rule,
    component_ids,
    components,
    expand,
    reachable_component,
    reachable_nonterminals,
    validate_grammar,
)
from pregma import oracle
from pregma.oracle import PathQuery, truncate
from pregma.polysys import PolySystem
from reference import applications


def test_fresh_records_share_no_container():
    # every list, dict, set and array a record starts with is its own, so
    # filling one record leaves the next one empty
    def disjoint(a, b, fields):
        return all(getattr(a, f) is not getattr(b, f) for f in fields)

    a, b = Hypergraph(), Hypergraph()
    assert disjoint(a, b, ("vertices", "arcs", "colours", "hyperarcs"))
    a.add_vertex("x")
    a.add_hyperarc("A", ("x",))
    assert not b.has_vertex("x") and not b.hyperarcs
    assert disjoint(PolySystem(), PolySystem(), ("equations", "pins"))
    e, f = Expansion(), Expansion()
    assert disjoint(e, f, ("graph", "classes", "levels", "colours", "axiom_ids",
                           "colour_sets"))
    assert disjoint(e.graph, f.graph, ("applications", "ids", "hyperarcs", "attached"))
    text = "nonterminal Z 0\naxiom Z\nrule Z\n"
    g, h = parse_grammar(text), parse_grammar(text)
    assert disjoint(g, h, ("terminals", "nonterminals", "rules", "mu", "absorbing"))
    assert (g.mu, g.absorbing) == ({}, set())


def test_hypergraph_rejects_duplicate_vertex():
    h = Hypergraph()
    h.add_vertex("a")
    with pytest.raises(GrammarError):
        h.add_vertex("a")


def test_colour_marks_and_arc_indexes():
    h = Hypergraph()
    for v in ("a", "b"):
        h.add_vertex(v)
    h.add_arc("e", "a", "b")
    h.add_arc("e", "a", "a")
    h.add_colour("red", "b")
    assert h.colours == [("red", "b")]
    assert [arc.target for arc in h.arcs if arc.source == "a"] == ["b", "a"]


def test_colours_share_one_object_per_distinct_set(running, updrift, dag):
    for g in (running, updrift, dag):
        for cs in (expand(g, 8).colours, truncate(g, 8).colours):
            assert len({id(s) for s in cs}) == len(set(cs))
            assert len(cs) > 2 * len(set(cs))


def test_corpus_grammars_validate(running, dag, updrift, critical):
    for g in (running, dag, updrift, critical):
        assert validate_grammar(g) == []


def _broken_grammar() -> Grammar:
    rhs = Hypergraph()
    rhs.add_vertex("x")
    rhs.add_arc("missing", "x", "ghost")
    rhs.add_hyperarc("A", ("x", "x"))
    return Grammar(
        terminals={"a": 2},
        nonterminals={"Z": 1, "A": 2},
        axiom="Z",
        rules=[Rule("Z", ("x", "x"), rhs)],
        mu={"a": Fraction(3, 2)},
        absorbing=set(),
    )


def _misnamed_grammar() -> Grammar:
    """Names that are undeclared, declared twice or unknown to their rule;
    the parser refuses several of these shapes, so it is built in code."""
    rhs = Hypergraph()
    rhs.add_vertex("x")
    rhs.add_arc("a", "x", "x")
    rhs.add_colour("blue", "x")  # undeclared colour
    rhs.add_colour("green", "ghost")  # unknown vertex
    rhs.add_hyperarc("B", ("x",))  # undeclared nonterminal
    rhs.add_hyperarc("A", ("ghost",))  # unknown vertex
    return Grammar(
        terminals={"a": 2, "green": 1, "s": 2},  # s is a nonterminal too
        nonterminals={"A": 1, "s": 0},
        axiom="Q",  # undeclared
        # input i is no vertex of its rhs; R is undeclared
        rules=[Rule("A", ("i",), rhs), Rule("s", (), Hypergraph()), Rule("R", (), Hypergraph())],
        mu={"a": Fraction(1), "green": Fraction(1)},  # green is a colour
        absorbing={"purple"},  # undeclared colour
    )


def test_validate_reports_structural_issues():
    issues = validate_grammar(_broken_grammar())
    codes = {i.code for i in issues}
    assert "axiom-arity" in codes
    assert "missing-rule" in codes  # A has no rule
    assert "input-repeat" in codes
    assert "arc-label" in codes
    assert "arc-endpoint" in codes
    assert "hyperarc-repeat" in codes
    assert "prob-range" in codes
    assert [i.code for i in validate_grammar(_misnamed_grammar())] == [
        "symbol-overlap", "axiom-undeclared", "input-unknown", "colour-label",
        "colour-vertex", "hyperarc-label", "hyperarc-vertex", "rule-lhs", "prob-label",
        "absorbing-label",
    ]


@pytest.mark.parametrize("make", [_broken_grammar, _misnamed_grammar])
def test_expand_and_truncate_open_with_the_structural_check(make, monkeypatch):
    """Each refuses a structurally invalid grammar with the issues that
    validate_grammar lists, before a truncation walks any class."""
    def walk(g):
        raise AssertionError("a class walk ran before the structural check")

    monkeypatch.setattr(oracle, "vertex_classes", walk)
    g = make()
    issues = validate_grammar(g)
    query = PathQuery(None, frozenset({"green"}), "x", 2)
    for build in (lambda: expand(g, 2), lambda: truncate(g, 2),
                  lambda: truncate(g, 3, query)):
        with pytest.raises(GrammarError) as refused:
            build()
        assert refused.value.issues == issues
        assert str(refused.value) == "; ".join(map(str, issues))


def test_rule_for_an_unknown_nonterminal(running):
    with pytest.raises(GrammarError, match="no rule for nonterminal 'Q'"):
        running.rule_for("Q")


def test_reachable_nonterminals(running):
    assert reachable_nonterminals(running) == frozenset({"Z", "A"})


def test_components_come_dependencies_first():
    """Tarjan's components of 0..6: each after the components its members
    step to, roots in the order given, members in the order they leave the
    stack (root last); 5 is never reached from the roots."""
    step = {0: [1], 1: [2, 4], 2: [0, 3], 3: [3], 4: [], 5: [0], 6: [4, 6]}
    assert components([0, 6], step.__getitem__) == [[3], [4], [2, 1, 0], [6]]
    assert components([4, 3], step.__getitem__) == [[4], [3]]


def test_expand_levels_and_classes(running):
    e = expand(running, 2)
    # each application's level, read off the level of its last fresh vertex
    applied = [(rule.lhs, e.levels[ids[-1]]) for rule, ids in e.graph.slots()]
    assert applied == [("Z", 0), ("A", 1), ("A", 2)]
    # axiom contributes 2 vertices, each copy of A four more
    assert list(e.graph.vertices) == list(range(10))
    assert e.levels == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    # the remaining hyperarc pins down the frontier
    assert len(e.graph.hyperarcs) == 1
    assert e.frontier == frozenset(e.graph.attached)
    v0 = e.axiom_ids["v0"]
    assert e.classes[v0] == CanonicalVertex("Z", "v0")


def test_expand_instance_gluing(running):
    # the child's first input is glued onto next, the second onto fork
    applied = [(dict(zip(rule.names, ids)), parent)
               for rule, ids, parent, _ in applications(running, 2)]
    (parent, _), (child, child_parent) = applied[1], applied[2]
    assert child_parent == 1
    assert child["s"] == parent["next"]
    assert child["t"] == parent["fork"]


def test_expand_keeps_applications_and_columns(branching_walk):
    """A depth-12 expansion of the walk, 8,192 vertices, peaks under 1 MiB
    (0.80 MiB on Python 3.11, about 100 bytes a vertex): it keeps each rule
    application's rule and ids in flat stores and one column entry per
    vertex, and builds no object per application, arc or colour mark."""
    expand(branching_walk, 2)  # compile and import outside the measurement
    tracemalloc.start()
    try:
        e = expand(branching_walk, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(e.graph.vertices) == 8192
    assert peak < 2**20


def test_expand_rejects_negative_depth(running):
    with pytest.raises(GrammarError):
        expand(running, -1)


def test_axiom_vertex_unknown_name(running):
    with pytest.raises(GrammarError, match="not a vertex of the axiom rule"):
        reachable_component(running, "nope", 1)


def test_expand_one_round_replaces_the_axiom_hyperarc(running):
    # the axiom rhs carries a single A hyperarc: one round glues one copy of
    # A's rhs onto it and leaves A's own hyperarcs behind
    start = running.axiom_rule().rhs
    (h,) = start.hyperarcs
    child = running.rule_for(h.label)
    e = expand(running, 1)
    assert len(e.graph.vertices) == len(start.vertices) + len(child.non_inputs)
    assert len(list(e.graph.arcs())) == len(start.arcs) + len(child.rhs.arcs)
    assert sorted(rule.lhs for rule in e.graph.hyperarcs) == sorted(
        h.label for h in child.rhs.hyperarcs
    )


def test_expand_rejects_arity_mismatch():
    rhs = Hypergraph()
    rhs.add_vertex("x")
    rhs.add_hyperarc("A", ("x",))
    child = Hypergraph()
    for v in ("p", "q"):
        child.add_vertex(v)
    g = Grammar(
        terminals={},
        nonterminals={"Z": 0, "A": 2},
        axiom="Z",
        rules=[Rule("Z", (), rhs), Rule("A", ("p", "q"), child)],
        mu={},
        absorbing=set(),
    )
    # the structural gate refuses it before anything is rewritten
    with pytest.raises(GrammarError, match="hyperarc-arity"):
        expand(g, 0)


def test_component_ids_stays_inside_graph(running):
    e = expand(running, 3)
    v0 = e.axiom_ids["v0"]
    ids = component_ids(e, v0)
    assert v0 in ids
    assert ids <= set(e.graph.vertices)
    for unknown in ("no-such-id", -1, len(e.classes)):
        with pytest.raises(GrammarError, match="unknown vertex id"):
            component_ids(e, unknown)


TWO_PARTS = """
nonterminal Z 0
nonterminal A 1
terminal a 2
prob a 1
axiom Z

rule Z
  vertex x y
  arc a x x
  hyperarc A y

rule A inputs s
  vertex n
  arc a s n
  hyperarc A n
"""


def test_reachable_component_keeps_the_frontier(running):
    whole = expand(running, 3)
    sub = reachable_component(running, "v0", 3)
    # running's prefix is connected: the component is the whole prefix,
    # its remaining hyperarc and frontier included
    assert list(sub.graph.vertices) == list(whole.graph.vertices)
    assert list(sub.graph.arcs()) == list(whole.graph.arcs())
    assert list(sub.graph.legs()) == list(whole.graph.legs())
    assert sub.frontier == whole.frontier and len(sub.frontier) == 2

    g = parse_grammar(TWO_PARTS)
    loop = reachable_component(g, "x", 2)
    assert loop.graph.vertices == [0]
    assert loop.graph.hyperarcs == [] and loop.frontier == frozenset()
    assert list(loop.graph.arcs()) == [("a", 0, 0)]
    chain = reachable_component(g, "y", 2)
    assert chain.graph.vertices == [1, 2, 3]
    assert [list(vs) for _, vs in chain.graph.legs()] == [[3]]
    assert chain.frontier == frozenset({3})
    assert all(s in chain.graph.vertices and t in chain.graph.vertices
               for _, s, t in chain.graph.arcs())
    assert list(chain.graph.arcs()) == [("a", 1, 2), ("a", 2, 3)]
    # the columns stay whole and indexed by id
    whole = expand(g, 2)
    assert (chain.classes, chain.levels, chain.colours, chain.axiom_ids) == (
        whole.classes, whole.levels, whole.colours, whole.axiom_ids)


def test_component_ids_refuses_ids_outside_a_component_view():
    g = parse_grammar(TWO_PARTS)
    chain = reachable_component(g, "y", 2)
    x = chain.axiom_ids["x"]
    assert x == 0 and x not in chain.graph.vertices
    with pytest.raises(GrammarError, match="unknown vertex id"):
        component_ids(chain, x)
    assert component_ids(chain, chain.axiom_ids["y"]) == frozenset({1, 2, 3})
