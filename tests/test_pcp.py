from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pregma.formulas import TT, And, Atom, Until
from pregma.gio import ParseError
from pregma.labeling import classes_for_colours
from pregma.model import CanonicalVertex, GrammarError, expand, validate_grammar
from pregma.oracle import PathQuery, bounded_until, truncate
from pregma.pcp import (
    PCPInstance,
    closed_form,
    dyadic_value,
    encode,
    expansions_match,
    fork_sequences,
    green_probability,
    parse_pcp,
    sequence_grammar,
)
from pregma.quantitative import axiom_probability, solve_until
from pregma.validation import analyse, check_complete_outside

F = Fraction


def test_parse_pcp():
    p = parse_pcp("# two tiles\npair 01 0\n\npair 1 11\n")
    assert p.pairs == (("01", "0"), ("1", "11"))


@pytest.mark.parametrize("text, needle", [
    ("tile 0 1\n", "expected: pair"),
    ("pair 0\n", "expected: pair"),
    ("# nothing\n", "no pairs"),
    ("pair 02 1\n", "over 0/1"),
    ("pair  1\n", "expected: pair"),
])
def test_parse_pcp_errors(text, needle):
    with pytest.raises(ParseError, match=needle):
        parse_pcp(text)


def test_instance_guards():
    with pytest.raises(GrammarError, match="at least one pair"):
        PCPInstance(())
    with pytest.raises(GrammarError, match="over 0/1"):
        PCPInstance((("1", ""),))


def test_dyadic_value():
    assert dyadic_value("1") == F(1, 2)
    assert dyadic_value("01") == F(1, 4)
    assert dyadic_value("11") == F(3, 4)
    assert dyadic_value("0") == F(0)
    assert dyadic_value("10") == dyadic_value("1")


@given(st.text(alphabet="01", min_size=1, max_size=12),
       st.text(alphabet="01", min_size=1, max_size=12))
def test_dyadic_value_splits_at_any_point(u, w):
    assert dyadic_value(u + w) == \
        dyadic_value(u) + F(1, 2 ** len(u)) * dyadic_value(w)


def test_closed_form_values(pcp_unsolvable):
    u1 = pcp_unsolvable[0]
    assert u1.pairs == (("1", "11"),)
    assert closed_form(u1, (1,)) == F(5, 8)
    assert green_probability(u1, (1,)) == F(3, 8)
    assert green_probability(u1, (1, 1)) == F(13, 32)


def test_closed_form_sequence_guards(pcp_solvable):
    with pytest.raises(GrammarError, match="nonempty"):
        closed_form(pcp_solvable[0], ())
    with pytest.raises(GrammarError, match="out of range"):
        closed_form(pcp_solvable[0], (2,))


def test_green_is_half_exactly_on_matches(pcp_solvable, pcp_unsolvable):
    s1, s2, s3 = pcp_solvable
    assert expansions_match(s1, (1,)) and green_probability(s1, (1,)) == F(1, 2)
    assert expansions_match(s2, (1, 2)) and green_probability(s2, (1, 2)) == F(1, 2)
    assert expansions_match(s3, (1,))
    assert not expansions_match(s2, (2, 1))
    assert green_probability(s2, (2, 1)) == F(7, 16)


def test_closed_form_agrees_with_bounded_oracle(pcp_solvable, pcp_unsolvable):
    cases = [
        (pcp_solvable[0], (1,)),
        (pcp_solvable[1], (1, 2)),
        (pcp_solvable[1], (2, 1)),
        (pcp_unsolvable[0], (1,)),
        (pcp_unsolvable[0], (1, 1)),
        (pcp_unsolvable[2], (2, 1, 2)),
    ]
    for inst, seq in cases:
        g, fork = sequence_grammar(inst, seq)
        total = sum(len(inst.pairs[i - 1][0]) + len(inst.pairs[i - 1][1])
                    for i in seq)
        mc = truncate(g, 1)
        got = bounded_until(
            mc, PathQuery(None, frozenset({"green"}), fork, 2 * total + 4))
        assert got == green_probability(inst, seq), (inst, seq)


def test_encode_single_tile_is_engine_ready(pcp_solvable):
    g, formula = encode(pcp_solvable[0])
    assert validate_grammar(g) == []
    analyse(g)  # raises EngineUnsupported if the engines cannot run
    assert formula == And(
        Atom("s"),
        And(Until(">=", F(1, 2), TT(), Atom("green")),
            Until("<=", F(1, 2), TT(), Atom("green"))),
    )
    assert str(formula) == \
        "s & ((tt U[>=1/2] green) & (tt U[<=1/2] green))"


def test_encode_many_tiles_leaves_normal_form(pcp_solvable):
    g, _ = encode(pcp_solvable[1])
    assert validate_grammar(g) == []
    assert "rule Z: vertex vgate lies on 2 hyperarcs" in check_complete_outside(g)


def test_fork_sequences_read_innermost_first(pcp_solvable):
    g, _ = encode(pcp_solvable[1])
    forks = fork_sequences(g, 2)
    seqs = sorted(seq for _, seq in forks)
    assert seqs == [(1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2)]
    # the ids are those of the expansion to the same depth
    e = expand(g, 2)
    assert all(e.classes[cid] == CanonicalVertex(f"New{seq[0]}", "fork")
               for cid, seq in forks)


def test_sequence_grammar_engine_path(pcp_solvable, pcp_unsolvable):
    for inst, seq, expected in [
        (pcp_solvable[0], (1,), F(1, 2)),
        (pcp_unsolvable[0], (1, 1), F(13, 32)),
    ]:
        g, fork = sequence_grammar(inst, seq)
        an = analyse(g)
        sol = solve_until(an, classes_for_colours(an, None),
                          classes_for_colours(an, frozenset({"green"})))
        assert sol.converged and sol.exact
        assert axiom_probability(sol, g, fork) == (expected, expected)


def test_unsolvable_trio_has_no_matching_fork(pcp_unsolvable):
    counts = []
    for inst in pcp_unsolvable:
        g, _ = encode(inst)
        forks = fork_sequences(g, 4)
        counts.append(len(forks))
        assert all(green_probability(inst, seq) != F(1, 2)
                   for _, seq in forks)
    assert counts == [4, 4, 30]
