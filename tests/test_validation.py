from collections import Counter
from fractions import Fraction

import pytest

from pregma.gio import load_grammar, parse_grammar
from pregma.model import CanonicalVertex, GrammarError, integer_weights
from pregma.pcp import encode, load_pcp
from pregma.pushdown import to_grammar
from pregma.validation import (
    EngineUnsupported,
    _mass_fault,
    _walk,
    analyse,
    canonical_vertices,
    check_complete_outside,
    passing_table,
    phr_check,
    vertex_classes,
)
from reference import (occurrence_fault, occurrence_faults, quotient_faults, record_faults,
                       walk)

HEAD = (
    "nonterminal Z 0\nnonterminal C 1\nterminal a 2\ncolour stop\n"
    "prob a 1\nabsorbing stop\naxiom Z\n"
)

# the axiom vertex is re-glued onto C's input forever and gains an arc on
# every round, so its out-degree is unbounded
GAINING_LOOP = HEAD + (
    "rule Z\n  vertex r\n  hyperarc C r\n"
    "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n  hyperarc C x\n"
)

# same shape, arcs reversed: the loop now feeds arcs INTO the axiom vertex
INCOMING_LOOP = HEAD + (
    "rule Z\n  vertex r\n  colour stop r\n  hyperarc C r\n"
    "rule C inputs x\n  vertex y\n  arc a y x\n  hyperarc C x\n"
)

# the loop gains nothing, which the engines can live with
QUIET_LOOP = HEAD + (
    "rule Z\n  vertex r\n  colour stop r\n  hyperarc C r\n"
    "rule C inputs x\n  vertex y\n  arc a y y\n  hyperarc C x\n"
)

AMBIGUOUS = HEAD + (
    "rule Z\n  vertex r s\n  hyperarc C r\n  hyperarc C r\n"
    "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n"
)

# r's out-arc is gained two gluings down, through C's input on a D hyperarc;
# every class still sums to 1
PASSED_DOWN = HEAD.replace("nonterminal C 1\n", "nonterminal C 1\nnonterminal D 1\n") + (
    "rule Z\n  vertex r\n  hyperarc C r\n"
    "rule C inputs x\n  hyperarc D x\n"
    "rule D inputs w\n  vertex z\n  arc a w z\n  colour stop z\n"
)

# the same, but C passes x on as D's second input; D's first holds C's p
PASSED_DOWN_SECOND = HEAD.replace("nonterminal C 1\n", "nonterminal C 1\nnonterminal D 2\n") + (
    "rule Z\n  vertex r\n  hyperarc C r\n"
    "rule C inputs x\n  vertex p\n  colour stop p\n  hyperarc D p x\n"
    "rule D inputs u w\n  vertex z\n  arc a w z\n  colour stop z\n"
)


def cv(rule, vertex):
    return CanonicalVertex(rule, vertex)


def test_canonical_vertices_skip_inputs(running):
    cans = canonical_vertices(running)
    assert CanonicalVertex("A", "s") not in cans
    assert CanonicalVertex("A", "next") in cans
    assert len(cans) == 6


def test_passings_follow_the_gluing(running):
    passed = passing_table(running)
    assert passed.get(("A", "next")) == [("A", "s")]
    assert passed.get(("A", "s")) is None
    assert passed.get(("A", "fork")) == [("A", "t")]
    assert passed.get(("A", "t")) is None
    assert passed.get(("A", "win")) is None
    down, table = _walk(running, passed), vertex_classes(running)
    # the walk works out each creation site and each input it reaches once
    assert set(down) == {(c.rule, c.vertex) for c in table} | {("A", "s"), ("A", "t")}
    assert all(vc.terminates for vc in table.values())


def test_walk_detects_loops():
    g = parse_grammar(GAINING_LOOP)
    passed = passing_table(g)
    assert passed[("Z", "r")] == [("C", "x")]
    assert passed[("C", "x")] == [("C", "x")]
    down, table = _walk(g, passed), vertex_classes(g)
    assert not down["C", "x"].terminates
    assert not table[cv("Z", "r")].terminates
    # the a arc gained on the loop is gained forever, and only there
    r = table[cv("Z", "r")]
    assert (r.counts, r.forever) == (Counter(), frozenset({("out", "a")}))
    assert table[cv("C", "y")].terminates


def test_records_are_the_closure_of_the_passings():
    """Every class record of the seeded random grammars, shared vertices
    included, is the reachability closure of its passings: colours,
    termination, counts and forever. Seed 9029 holds a class whose
    passings never end and that a depth-first walk memoising sites gave
    only part of its colours."""
    assert record_faults([*range(2000), 9029]) == []


def test_class_sets_are_the_classes_an_expansion_glues_on(corpus_dir, pds_prob):
    """`refs` and `bindings` hold the classes an expansion glues on each
    input (`occurrence_fault`), on every corpus grammar that `analyse`
    accepts and on the random grammars of seeds 0-1999 that it accepts
    (592 of them)."""
    grammars = [load_grammar(p) for p in sorted(corpus_dir.glob("*.gg"))]
    grammars += [encode(load_pcp(p))[0] for p in sorted(corpus_dir.glob("*.pcp"))]
    grammars.append(to_grammar(pds_prob))
    accepted = []
    for g in grammars:
        try:
            accepted.append(analyse(g))
        except EngineUnsupported:
            pass
    assert len(accepted) == 9
    assert [occurrence_fault(an) for an in accepted] == [None] * 9
    checked, faults = occurrence_faults(range(2000))
    assert (checked, faults) == (592, [])


def test_analyse_refuses_a_shared_vertex():
    with pytest.raises(EngineUnsupported, match="rule Z: vertex r lies on 2 hyperarcs"):
        analyse(parse_grammar(AMBIGUOUS))


def out_counts(vc):
    return {label: n for (way, label), n in vc.counts.items() if way == "out"}


def in_counts(vc):
    return {label: n for (way, label), n in vc.counts.items() if way == "in"}


def test_out_profiles_running(running):
    an = analyse(running)
    table = dict(zip(an.names, an.classes))
    assert out_counts(table[cv("A", "next")]) == {"a": 2}
    fork = table[cv("A", "fork")]
    assert out_counts(fork) == {"a": 1, "d": 2}
    assert _mass_fault(fork, running.absorbing, *integer_weights(running.mu)) is None
    assert out_counts(table[cv("Z", "t0")]) == {}
    # the profile text: finite labels sorted, each with its count
    report = phr_check(running._replace(mu={"a": Fraction(1, 3), "d": Fraction(1, 3)}))
    assert str(report) == (
        "phr_check: FAILED (2 of 6 classes)\n"
        "  Z:v0; profile {a:2}; total 2/3; total is not 1\n"
        "  A:next; profile {a:2}; total 2/3; total is not 1")


def test_in_profiles_running(running):
    an = analyse(running)
    table = dict(zip(an.names, an.classes))
    assert in_counts(table[cv("A", "fork")]) == {"a": 1}
    # dead is only ever entered through the d arc
    assert in_counts(table[cv("A", "dead")]) == {"d": 1}
    assert all(vc.forever == frozenset() for vc in an.classes)


def test_infinite_profile():
    g = parse_grammar(GAINING_LOOP)
    r = vertex_classes(g)[cv("Z", "r")]
    assert out_counts(r) == {}
    assert {label for way, label in r.forever if way == "out"} == {"a"}
    report = phr_check(g)
    (failure,) = report.failures
    assert failure.total is None
    assert str(report) == (
        "phr_check: FAILED (1 of 2 classes)\n"
        "  Z:r; profile {a:inf}; arcs repeat forever, no mu can normalise this")
    # the profile is the out-degree alone: labels gained forever inward stay out of it
    sink = phr_check(parse_grammar(INCOMING_LOOP.replace("  colour stop r\n", "")))
    assert [str(f) for f in sink.failures] == [
        "Z:r; profile {}; total 0; sink without an absorbing colour"]


def test_profile_total_needs_every_label(running):
    an = analyse(running)
    fork = an.classes[an.ids["A", "fork"]]
    weights = integer_weights({"a": Fraction(1, 2)})
    assert _mass_fault(fork, running.absorbing, *weights) == ("no probability for d", None)


def test_full_colours_walks_the_chain(running):
    an = analyse(running)
    cols = {can: vc.colours for can, vc in zip(an.names, an.classes)}
    assert cols[CanonicalVertex("A", "win")] == frozenset({"V2", "sink", "V1"})
    assert cols[CanonicalVertex("A", "dead")] == frozenset({"sink"})
    assert cols[CanonicalVertex("Z", "v0")] == frozenset({"V1"})


def test_complete_outside_flags_inputs_on_hyperarcs():
    assert check_complete_outside(parse_grammar(GAINING_LOOP)) == ()


def test_complete_outside_rejects_double_membership():
    violations = check_complete_outside(parse_grammar(AMBIGUOUS))
    assert violations == ("rule Z: vertex r lies on 2 hyperarcs",)


def test_phr_accepts_running(running):
    report = phr_check(running)
    assert report.ok
    assert report.checked == 6
    assert str(report) == "phr_check: ok (6 vertex classes)"


def test_phr_rejects_wrong_mu(running):
    report = phr_check(running._replace(mu={"a": Fraction(1, 2), "d": Fraction(1, 3)}))
    assert not report.ok
    (failure,) = report.failures
    assert failure.can == CanonicalVertex("A", "fork")
    assert failure.total == Fraction(7, 6)
    assert str(failure) == "A:fork; profile {a:1, d:2}; total 7/6; total is not 1"


def test_phr_requires_absorbing_marks_on_sinks(running, corpus_dir):
    text = (corpus_dir / "running.gg").read_text().replace("absorbing sink\n", "")
    g = parse_grammar(text)
    report = phr_check(g)
    assert not report.ok
    reasons = {str(f.can): (f.reason, f.total) for f in report.failures}
    assert reasons["Z:t0"] == ("sink without an absorbing colour", Fraction(0))


def test_phr_reports_missing_probability(running):
    report = phr_check(running._replace(mu={"a": Fraction(1, 2)}))
    assert not report.ok
    (failure,) = report.failures
    assert (failure.can, failure.total) == (cv("A", "fork"), None)
    assert str(failure) == "A:fork; profile {a:1, d:2}; no probability for d"


def test_phr_rejects_infinite_profiles():
    report = phr_check(parse_grammar(GAINING_LOOP))
    assert not report.ok
    assert report.failures[0].reason == "arcs repeat forever, no mu can normalise this"


def test_phr_stops_at_outside_violations():
    report = phr_check(parse_grammar(AMBIGUOUS))
    assert not report.ok
    assert report.failures == ()
    assert report.violations


def test_phr_validates_first():
    g = parse_grammar(HEAD + "rule Z\n  vertex r\n  arc q r r\n"
                      "rule C inputs x\n  vertex y\n")
    with pytest.raises(GrammarError, match="arc-label"):
        phr_check(g)


def test_absorbing_classes(running):
    an = analyse(running)
    assert {an.names[c] for c in an.absorbing} == {
        CanonicalVertex("Z", "t0"),
        CanonicalVertex("A", "win"),
        CanonicalVertex("A", "dead"),
    }


def test_engine_admissible_on_corpus(running, dag, updrift, critical):
    for g in (running, dag, updrift, critical):
        an = analyse(g)
        assert list(an.ids) == canonical_vertices(g)
        assert an.names == [c for c in canonical_vertices(g) if c != ("Split", "tails")]
    # dag.gg's heads and tails are interchangeable: tails collapses into heads
    an = analyse(dag)
    assert an.ids["Split", "tails"] == an.ids["Split", "heads"]


def test_engine_rejects_infinite_in_profile():
    g = parse_grammar(INCOMING_LOOP)
    assert phr_check(g).ok
    with pytest.raises(EngineUnsupported, match=r"^Z:r: incoming arcs \['a'\] repeat forever$"):
        analyse(g)


def test_engine_rejects_gaining_inputs():
    g = parse_grammar(GAINING_LOOP)
    with pytest.raises(EngineUnsupported):
        analyse(g)


def test_engine_rejects_arcs_gained_past_an_input():
    for text, position in [(PASSED_DOWN, 1), (PASSED_DOWN_SECOND, 2)]:
        g = parse_grammar(text)
        assert phr_check(g).ok
        with pytest.raises(EngineUnsupported, match=(
                "^rule C: input x keeps gaining arcs after being passed to D at "
                f"position {position}$")):
            analyse(g)


def test_engine_accepts_quiet_input_loop():
    g = parse_grammar(QUIET_LOOP)
    passed = passing_table(g)
    # r is passed to C's input x, which is passed back to itself forever
    assert passed[("Z", "r")] == [("C", "x")]
    assert passed[("C", "x")] == [("C", "x")]
    an = analyse(g)
    r = an.classes[an.ids["Z", "r"]]
    assert not r.terminates
    # the loop gains no arc either way, so no label is infinite
    assert (r.counts, r.forever) == (Counter(), frozenset())


@pytest.mark.parametrize("b, k", [(0, 0), (2, 8), (64, 4)], ids=["dag", "branching", "width"])
def test_the_quotient_redirects_arcs_and_invents_no_terminal(b, k, corpus_dir):
    """The quotient keeps the grammar's own terminals and mu: the arcs into
    a collapsed group stay parallel, each under its own label, and only
    lead to the representative."""
    g = parse_grammar(walk(b, [Fraction(1, 5)] * k)) if b else load_grammar(corpus_dir / "dag.gg")
    an = analyse(g)
    assert an.grammar is not g  # something collapsed
    assert an.grammar.terminals == g.terminals and an.grammar.mu == g.mu
    if b == 64:
        # each level rule keeps its 64 u<i> arcs from lo, all into h0
        for rule in an.grammar.rules[1:]:
            i = rule.lhs[1:]
            assert rule.rhs.vertices == ["lo", "h0"]
            assert [a for a in rule.rhs.arcs if a.source == "lo"] == [("u" + i, "lo", "h0")] * 64


def test_the_quotient_agrees_with_the_unquotiented_grammar():
    """Generated grammars with a copied vertex (`symmetric_grammar`): every
    class's verdicts are the same with the quotient and without it, and
    the quotient's enclosures, copied onto each orbit, prove the bounds of
    the unquotiented systems. CI runs ten times the seeds."""
    counts, faults = quotient_faults(range(2000))
    assert faults == []
    # 531 grammars, 339 of them with a collapsed vertex
    assert counts["grammars"] >= 400 and counts["collapsed"] >= 250
