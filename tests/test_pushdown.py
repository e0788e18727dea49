import time
from fractions import Fraction

import pytest

from pregma.gio import ParseError, parse_grammar, serialize_grammar
from pregma.model import GrammarError, expand, validate_grammar
from pregma.oracle import FiniteMC, PathQuery, bounded_until, truncate
from pregma.pushdown import PushdownSystem, SuffixRule, base_suffixes, parse_pds, to_grammar
from pregma.validation import analyse
from reference import config_chain, config_words, split_word, successors

F = Fraction


def test_parse_pds(pds_plain):
    assert pds_plain.stack == ["A", "B"]
    assert pds_plain.states == ["r", "r'", "p"]
    assert [(r.lhs, r.label, r.rhs) for r in pds_plain.rules] == [
        (("r",), "a", ("B", "r'")),
        (("r'",), "a", ("A", "r")),
        (("r'",), "b", ("A", "p")),
        (("B", "A", "p"), "a", ("p",)),
    ]
    assert pds_plain.mu == {} and pds_plain.sink_colour is None


def test_parse_pds_prob_extras(pds_prob):
    assert pds_prob.mu == {"advance": F(1), "push": F(1, 2),
                           "finish": F(1, 2), "pop": F(1)}
    assert pds_prob.sink_colour == "halt"


def test_word_splitting_backtracks():
    p = parse_pds("stack ab a bb\nstate q\nrule abbq x aq\n")
    assert p.rules[0].lhs == ("a", "bb", "q")
    assert p.rules[0].rhs == ("a", "q")


def test_word_splitting_takes_long_words():
    # 2001 symbols: a recursive split overflows the interpreter's stack
    p = parse_pds("stack a b\nstate q\nrule " + "ab" * 1000 + "q x aq\n")
    assert p.rules[0].lhs == ("a", "b") * 1000 + ("q",)


def test_word_splitting_fails_fast():
    # no split exists, and backtracking over {a, aa, aaa} tries every
    # composition of the 26 a's before giving up
    start = time.perf_counter()
    with pytest.raises(ParseError, match="cannot split"):
        parse_pds("stack a aa aaa\nstate q\nrule " + "a" * 26 + "b x q\n")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text, needle", [
    ("wibble\n", "unknown keyword"),
    ("stack A A\nstate s\nrule s a As\n", "repeated symbol"),
    ("stack A\nstate A\nrule A a AA\n", "alphabets overlap"),
    ("stack A\nstate s\nrule s a Qs\n", "cannot split"),
    ("stack A\nstate s\nprob a 1\nprob a 1\nrule s a As\n", "given twice"),
    ("stack A\nstate s\nprob a 7/0\nrule s a As\n", "bad probability"),
    ("stack A\nstate s\nprob a\nrule s a As\n", "prob needs LABEL VALUE"),
    ("stack A\nstate s\nrule s a\n", "rule needs"),
    ("stack A\nstate s\nabsorb-sinks\nrule s a As\n", "absorb-sinks needs"),
])
def test_parse_pds_errors(text, needle):
    with pytest.raises(ParseError, match=needle):
        parse_pds(text)


def test_base_suffixes(pds_plain):
    assert ["".join(b) for b in base_suffixes(pds_plain)] == [
        "r'", "r", "p", "Ap"]


def test_to_grammar_shape(pds_plain):
    g = to_grammar(pds_plain)
    assert validate_grammar(g) == []
    axiom, conf = g.rules
    assert axiom.lhs == "Z" and conf.lhs == "X"
    assert axiom.rhs.vertices == ["r'", "r", "p", "Ap"]
    assert [(h.label, h.vertices) for h in axiom.rhs.hyperarcs] == [
        ("X", ("r'", "r", "p", "Ap"))]
    assert not axiom.rhs.arcs
    assert conf.inputs == ("r'", "r", "p", "Ap")
    assert conf.rhs.vertices == [
        "r'", "r", "p", "Ap", "Ar'", "Ar", "AAp", "Br'", "Br", "Bp", "BAp"]
    assert [(h.label, h.vertices) for h in conf.rhs.hyperarcs] == [
        ("X", ("Ar'", "Ar", "Ap", "AAp")),
        ("X", ("Br'", "Br", "Bp", "BAp")),
    ]
    assert [(a.label, a.source, a.target) for a in conf.rhs.arcs] == [
        ("a", "r", "Br'"), ("a", "r'", "Ar"), ("b", "r'", "Ap"),
        ("a", "BAp", "p"),
    ]


def test_to_grammar_prob_is_engine_ready(pds_prob):
    g = to_grammar(pds_prob)
    assert validate_grammar(g) == []
    analyse(g)  # raises EngineUnsupported if the engines cannot run
    # dead configurations carry the absorbing colour
    halted = {(r.lhs, c.vertex) for r in g.rules for c in r.rhs.colours
              if c.colour == "halt"}
    assert halted == {("Z", "p"), ("Z", "Ap"), ("X", "Bp"), ("X", "AAp")}
    # and the result survives a round trip through the grammar format
    assert parse_grammar(serialize_grammar(g)).rules[1].rhs.vertices == \
        g.rules[1].rhs.vertices


def test_ambiguous_rendering_is_refused():
    p = parse_pds("stack A\nstate p Ap\nrule Ap a p\nrule p b Ap\n")
    with pytest.raises(GrammarError, match="ambiguous"):
        to_grammar(p)


def test_unrepresentable_side_is_refused():
    p = parse_pds("stack A\nstate s r\nrule r a sr\n")
    with pytest.raises(GrammarError, match="not representable"):
        to_grammar(p)


def test_empty_rule_sides_are_refused():
    # parse_pds never reads an empty side; a system built in code can hold one
    p = PushdownSystem(["A"], ["p"], [SuffixRule((), "a", ())])
    with pytest.raises(GrammarError, match="no rule side has a nonempty strict suffix"):
        to_grammar(p)


def test_sink_colour_collision_is_refused():
    p = parse_pds("stack A\nstate s\nprob a 1\nabsorb-sinks a\nrule s a As\n")
    with pytest.raises(GrammarError, match="collides"):
        to_grammar(p)


def test_successors(pds_plain, pds_prob):
    assert successors(pds_plain, ("r",)) == [("a", ("B", "r'"))]
    assert successors(pds_prob, ("r",)) == [("advance", ("B", "r'"))]
    assert successors(pds_prob, ("r'",)) == [
        ("push", ("A", "r")), ("finish", ("A", "p"))]
    assert successors(pds_prob, ("B", "A", "p")) == [("pop", ("p",))]
    assert successors(pds_prob, ("A", "A", "p")) == []


def test_config_words_name_the_configuration_graph(pds_prob):
    g = to_grammar(pds_prob)
    e = expand(g, 4)
    words = config_words(pds_prob, g, 4)
    assert len(set(words.values())) == len(words)
    symbols = pds_prob.stack + pds_prob.states
    succs = {w: {(label, "".join(t))
                 for label, t in successors(pds_prob, split_word(w, symbols))}
             for w in words.values()}
    for label, source, target in e.graph.arcs():
        assert (label, words[target]) in succs[words[source]]
    # non-frontier vertices show every rewrite step of their word
    out = {cid: set() for cid in words}
    for label, source, target in e.graph.arcs():
        out[source].add((label, words[target]))
    for cid, w in words.items():
        if cid in e.frontier:
            continue
        assert out[cid] == succs[w]


def test_config_chain_frontier_and_steps(pds_prob):
    mc = config_chain(pds_prob, ("r",), 2)
    assert mc.axiom_ids == {"r": 0, "Br'": 1, "BAr": 2, "BAp": 3}
    assert mc.frontier == frozenset({2, 3})
    assert mc.den == 2
    assert mc.trans[0] == [(1, 2)]
    assert mc.trans[1] == [(2, 1), (3, 1)]
    zero = config_chain(pds_prob, ("r",), 0)
    assert zero.axiom_ids == {"r": 0} and zero.frontier == frozenset({0})
    assert len(config_chain(pds_prob, ("r",), 50).states) == 77


def test_config_chain_probability_checks(pds_plain):
    with pytest.raises(GrammarError, match="no probability for arc label"):
        config_chain(pds_plain, ("r",), 3)
    partial = parse_pds("stack A\nstate s\nprob a 1/3\nrule s a As\n")
    with pytest.raises(GrammarError, match="out-mass 1/3, not 1"):
        config_chain(partial, ("s",), 2)
    with pytest.raises(GrammarError, match=">= 0"):
        config_chain(pds_plain, ("r",), -1)


def test_config_chain_agrees_with_grammar_oracle(pds_prob):
    """The suffix-rule chain and the expanded-grammar chain bound the same
    reachability mass when both horizons fit inside their truncations."""
    g = to_grammar(pds_prob)
    horizon = 6
    chain = config_chain(pds_prob, ("r",), horizon + 1)
    assert isinstance(chain, FiniteMC)
    via_chain = bounded_until(chain, PathQuery(None, frozenset({"halt"}), "r", horizon))
    mc = truncate(g, horizon + 2)
    via_grammar = bounded_until(
        mc, PathQuery(None, frozenset({"halt"}), "r", horizon))
    assert via_chain == via_grammar > 0
