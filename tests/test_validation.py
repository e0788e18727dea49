from dataclasses import replace
from fractions import Fraction

import pytest

from pregma.gio import parse_grammar
from pregma.model import CanonicalVertex, GrammarError
from pregma.validation import (
    EngineUnsupported,
    analyse,
    canonical_vertices,
    check_complete_outside,
    hyperarc_slots,
    phr_check,
    vertex_classes,
)

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


def classes(g):
    """The per-class table, for grammars the engines refuse."""
    return vertex_classes(g, {r.lhs: r for r in g.rules}, hyperarc_slots(g))


def cv(rule, vertex):
    return CanonicalVertex(rule, vertex)


def test_canonical_vertices_skip_inputs(running):
    cans = canonical_vertices(running)
    assert CanonicalVertex("A", "s") not in cans
    assert CanonicalVertex("A", "next") in cans
    assert len(cans) == 6


def test_role_chain_follows_the_gluing(running):
    table = analyse(running).classes
    chain = table[cv("A", "next")].chain
    assert chain.sites == (("A", "next"), ("A", "s"))
    assert chain.terminates
    assert table[cv("A", "fork")].chain.sites == (("A", "fork"), ("A", "t"))
    assert table[cv("A", "win")].chain.sites == (("A", "win"),)


def test_role_chain_detects_cycles():
    chain = classes(parse_grammar(GAINING_LOOP))[cv("Z", "r")].chain
    assert chain.sites == (("Z", "r"), ("C", "x"))
    assert chain.cycle_start == 1
    assert not chain.terminates


def test_analyse_refuses_a_shared_vertex():
    with pytest.raises(EngineUnsupported, match="rule Z: vertex r lies on 2 hyperarcs"):
        analyse(parse_grammar(AMBIGUOUS))


def test_out_profiles_running(running):
    table = analyse(running).classes
    prof = {can: vc.out for can, vc in table.items()}
    next_p = prof[CanonicalVertex("A", "next")]
    assert next_p.finite == (("a", 2),)
    assert next_p.count("a") == 2 and next_p.count("d") == 0
    assert str(next_p) == "{a:2}"
    fork_p = prof[CanonicalVertex("A", "fork")]
    assert fork_p.finite == (("a", 1), ("d", 2))
    assert fork_p.total(running.mu) == 1
    assert prof[CanonicalVertex("Z", "t0")].finite == ()


def test_in_profiles_running(running):
    prof = {can: vc.into for can, vc in analyse(running).classes.items()}
    assert prof[CanonicalVertex("A", "fork")].finite == (("a", 1),)
    # dead is only ever entered through the d arc
    assert prof[CanonicalVertex("A", "dead")].finite == (("d", 1),)


def test_infinite_profile():
    g = parse_grammar(GAINING_LOOP)
    p = classes(g)[CanonicalVertex("Z", "r")].out
    assert p.infinite == frozenset({"a"})
    assert str(p) == "{a:inf}"
    assert p.total(g.mu) is None


def test_profile_total_needs_every_label(running):
    fork = analyse(running).classes[CanonicalVertex("A", "fork")]
    with pytest.raises(KeyError):
        fork.out.total({"a": Fraction(1, 2)})


def test_full_colours_walks_the_chain(running):
    cols = {can: vc.colours for can, vc in analyse(running).classes.items()}
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
    report = phr_check(replace(running, mu={"a": Fraction(1, 2), "d": Fraction(1, 3)}))
    assert not report.ok
    (failure,) = report.failures
    assert failure.can == CanonicalVertex("A", "fork")
    assert failure.total == Fraction(7, 6)
    assert "total is not 1" in str(failure)


def test_phr_requires_absorbing_marks_on_sinks(running, corpus_dir):
    text = (corpus_dir / "running.gg").read_text().replace("absorbing sink\n", "")
    g = parse_grammar(text)
    report = phr_check(g)
    assert not report.ok
    reasons = {str(f.can): f.reason for f in report.failures}
    assert reasons["Z:t0"] == "sink without an absorbing colour"


def test_phr_reports_missing_probability(running):
    report = phr_check(replace(running, mu={"a": Fraction(1, 2)}))
    assert not report.ok
    assert any("no probability for d" in f.reason for f in report.failures)


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
    assert analyse(running).absorbing == frozenset({
        CanonicalVertex("Z", "t0"),
        CanonicalVertex("A", "win"),
        CanonicalVertex("A", "dead"),
    })


def test_engine_admissible_on_corpus(running, dag, updrift, critical):
    for g in (running, dag, updrift, critical):
        an = analyse(g)
        assert set(an.classes) == set(canonical_vertices(g))


def test_engine_rejects_infinite_in_profile():
    g = parse_grammar(INCOMING_LOOP)
    assert phr_check(g).ok
    with pytest.raises(EngineUnsupported, match="incoming arcs .* repeat forever"):
        analyse(g)


def test_engine_rejects_gaining_inputs():
    g = parse_grammar(GAINING_LOOP)
    with pytest.raises(EngineUnsupported):
        analyse(g)


def test_engine_rejects_arcs_gained_past_an_input():
    g = parse_grammar(PASSED_DOWN)
    assert phr_check(g).ok
    with pytest.raises(EngineUnsupported, match=(
            "rule C: input x keeps gaining arcs after being passed to D at position 1")):
        analyse(g)


def test_engine_accepts_quiet_input_loop():
    g = parse_grammar(QUIET_LOOP)
    assert analyse(g).classes[cv("Z", "r")].chain.cycle_start == 1
