from fractions import Fraction

import pytest

from pregma.formulas import parse_formula
from pregma.gio import parse_grammar
from pregma.labeling import classes_for_colours, label_formula
from pregma.model import CanonicalVertex
from pregma.oracle import PathQuery, bounded_until, truncate
from pregma.pcp import encode
from pregma.pushdown import to_grammar
from pregma.qualitative import (
    next_qualitative,
    successor_table,
    until_almost_sure,
    until_positive,
)
from pregma.quantitative import solve_until
from pregma.validation import EngineUnsupported, analyse

F = Fraction


def cls(an, name):
    return classes_for_colours(an, frozenset({name}) if name else None)


def ids(an, *names):
    """The ids of classes named "rule:vertex"."""
    return frozenset(an.ids[tuple(name.split(":"))] for name in names)


def test_successor_table_running(running):
    an = analyse(running)
    tab = successor_table(an)
    [fork, nxt, v0, t0, win] = [an.ids[site] for site in [
        ("A", "fork"), ("A", "next"), ("Z", "v0"), ("Z", "t0"), ("A", "win")]]

    def key(succ):
        return succ[0], sorted(succ[1])

    # s, input 1 of A, is v0 under the axiom's hyperarc and next under A's own
    assert sorted(tab[fork], key=key) == sorted([
        (F(1, 4), ids(an, "A:dead")),
        (F(1, 4), ids(an, "Z:v0", "A:next")),
        (F(1, 2), ids(an, "A:win")),
    ], key=key)
    assert tab[nxt] == [(F(1, 2), {fork}), (F(1, 2), {nxt})]
    # v0's second step target resolves through the axiom's hyperarc
    assert tab[v0] == [(F(1, 2), {t0}), (F(1, 2), {nxt})]
    assert tab[t0] == [(F(1), {t0})]
    assert tab[win] == [(F(1), {win})]


def test_successor_masses_sum_to_one(running, dag, updrift, critical):
    for g in (running, dag, updrift, critical):
        an = analyse(g)
        for c, succs in successor_table(an).items():
            assert sum((p for p, _ in succs), F(0)) == 1, str(an.names[c])


def test_resolve_ref_running(running):
    an = analyse(running)
    assert an.refs[("A", 1)] == ids(an, "Z:v0", "A:next")
    assert an.refs[("A", 2)] == ids(an, "Z:t0", "A:fork")


def test_bindings_are_class_sets(running, pds_prob):
    an = analyse(running)
    assert an.bindings["A"] == [
        (ids(an, "Z:v0"), ids(an, "Z:t0")),
        (ids(an, "A:next"), ids(an, "A:fork")),
    ]
    # X's second occurrence glues X's own input Ap onto its third input, so
    # that input can be whatever any occurrence glues onto Ap
    an = analyse(to_grammar(pds_prob))
    assert an.bindings["X"][1][2] == an.refs[("X", 4)] == ids(an, "Z:Ap", "X:AAp", "X:BAp")


def test_next_qualitative_decides_plain_targets(running):
    an = analyse(running)
    win = ids(an, "A:win")
    out = next_qualitative(an, win, ">=", F(1, 2), win)
    assert out[an.ids["A", "fork"]] == "holds"
    assert out[an.ids["A", "next"]] == "fails"
    assert out[an.ids["A", "dead"]] == "fails"
    assert out[an.ids["A", "win"]] == "holds"  # self loop


def test_next_qualitative_mixed_ref_is_unknown(running):
    # fork's d-step onto input 1 may land on Z:v0 or A:next depending on the
    # instance, so a target set holding only one of them cannot be decided
    an = analyse(running)
    v0 = ids(an, "Z:v0")
    out = next_qualitative(an, v0, ">", F(0), v0)
    assert out[an.ids["A", "fork"]] == "unknown"
    assert out[an.ids["A", "next"]] == "fails"
    covering = ids(an, "Z:v0", "A:next")
    assert next_qualitative(an, covering, ">", F(0), covering)[an.ids["A", "fork"]] == "holds"


def test_until_positive_running(running):
    an = analyse(running)
    out = until_positive(an, cls(an, "V1"), cls(an, "V2"))
    assert {str(an.names[k]): v for k, v in out.items()} == {
        "Z:v0": "holds", "Z:t0": "fails",
        "A:win": "holds", "A:fork": "holds", "A:next": "holds",
        "A:dead": "fails",
    }


def test_until_positive_everywhere_on_critical(critical):
    an = analyse(critical)
    out = until_positive(an, cls(an, None), cls(an, "green"))
    assert set(out.values()) == {"holds"}


PASSED_ON = """
nonterminal Z 0
nonterminal P 1
nonterminal Q 1
terminal go 2
colour green
colour red
prob go 1
absorbing green
absorbing red
axiom Z

rule Z
  vertex p q
  colour green p
  colour red q
  hyperarc P p
  hyperarc P q

rule P inputs x
  hyperarc Q x

rule Q inputs y
  vertex c
  arc go c y
"""


def test_until_positive_reads_bindings_through_a_rule_input():
    # Q's input is P's input passed on, so Q:c steps onto the green p in one
    # instance and onto the red q in the other: positivity differs between
    # instances, and only the bindings through P's input say so
    an = analyse(parse_grammar(PASSED_ON))
    out = until_positive(an, cls(an, None), cls(an, "green"))
    assert {str(an.names[k]): v for k, v in out.items()} == {
        "Z:p": "holds", "Z:q": "fails", "Q:c": "unknown"}


def test_until_almost_sure_running(running):
    an = analyse(running)
    out = until_almost_sure(an, cls(an, "V1"), cls(an, "V2"))
    assert {str(an.names[k]): v for k, v in out.items()} == {
        "Z:v0": "fails", "Z:t0": "fails",
        "A:win": "holds", "A:fork": "fails", "A:next": "fails",
        "A:dead": "fails",
    }


def test_until_almost_sure_dag(dag):
    an = analyse(dag)
    out = until_almost_sure(an, cls(an, None), cls(an, "goal"))
    assert set(out.values()) == {"holds"}


def test_until_almost_sure_critical_holds(critical, critical_bounded):
    # the descent closes exactly at its double root 1, and m0's win then
    # at 1 too, so every class reaches green almost surely; the bounded
    # values from m0 and from Walk:hi stay at most 1 and rise with the
    # horizon
    an = analyse(critical)
    out = until_almost_sure(an, cls(an, None), cls(an, "green"))
    assert set(out.values()) == {"holds"}
    enc = solve_until(an, cls(an, None), cls(an, "green"))
    assert enc.interval(an.ids["Z", "m0"]) == (1, 1)
    for values in critical_bounded.values():
        assert all(a <= b <= 1 for a, b in zip(values, values[1:])), values


def test_until_almost_sure_closes_classes_descending_onto_themselves(pds_prob):
    # BAp's only positive descent may land on a BAp vertex of a lower level;
    # the level induction still certifies it, and Ar and Br' descending
    # onto it
    g = to_grammar(pds_prob)
    an = analyse(g)
    every, halt = cls(an, None), cls(an, "halt")
    assert set(until_almost_sure(an, every, halt).values()) == {"holds"}
    enc = solve_until(an, every, halt)
    for name in ("Ar", "Br'", "BAp"):
        c = an.ids["X", name]
        keys = [c] + [an.dec[c] + j - 1 for j in range(1, 5)]
        assert sum(enc.lo[k] for k in keys) == sum(enc.hi[k] for k in keys) == 1


# A hands its inputs on to B untouched and owns no vertex of its own, so
# B:v's one step onto input u lands on the axiom's goal vertex p
PASS_THROUGH = """\
nonterminal Z 0
nonterminal A 2
nonterminal B 2
terminal go 2
colour goal
colour stop
prob go 1
absorbing goal
absorbing stop
axiom Z

rule Z
  vertex p q
  colour goal p
  colour stop q
  hyperarc A p q

rule A inputs x y
  hyperarc B x y

rule B inputs u w
  vertex v
  arc go v u
"""


def test_until_through_a_pass_through_rule():
    g = parse_grammar(PASS_THROUGH)
    v = CanonicalVertex("B", "v")  # label_formula keys verdicts by creation site
    for text, status in [("F[>0] goal", "holds"), ("F[>=1] goal", "holds"),
                         ("F[<=0] goal", "fails")]:
        assert label_formula(g, parse_formula(text))[v].status == status, text
    mc = truncate(g, 3)
    start = mc.classes.index(v)
    assert mc.levels[start] == 2
    assert bounded_until(mc, PathQuery(None, frozenset({"goal"}), start, 4)) == 1


def test_until_almost_sure_fails_below_one_at_every_level(pcp_unsolvable):
    # pcp_u2's v1 and fork climb towards the axiom, winning red with 1/2 per
    # level and losing at the top, so no vertex of theirs reaches red surely
    g, _ = encode(pcp_unsolvable[1])
    an = analyse(g)
    out = until_almost_sure(an, cls(an, None), cls(an, "red"))
    mc = truncate(g, 7)
    red = frozenset({"red"})
    for name, first in [("v1", F(1, 2)), ("fork", F(3, 4))]:
        c = CanonicalVertex("New1", name)
        assert out[an.ids["New1", name]] == "fails"
        assert label_formula(g, parse_formula("F[>=1] red"))[c].status == "fails"
        by_level = {level: s for s, (can, level)
                    in enumerate(zip(mc.classes, mc.levels)) if can == c}
        values = [bounded_until(mc, PathQuery(None, red, by_level[level], 40))
                  for level in range(1, 5)]
        assert values == [1 - (1 - first) / 2**k for k in range(4)]


def test_until_almost_sure_trivial_phi2(running):
    an = analyse(running)
    every = cls(an, None)
    out = until_almost_sure(an, every, every)
    assert set(out.values()) == {"holds"}


def test_engines_refuse_inadmissible_grammars():
    g = parse_grammar(
        "nonterminal Z 0\nnonterminal C 1\nterminal a 2\ncolour stop\n"
        "prob a 1\nabsorbing stop\naxiom Z\n"
        "rule Z\n  vertex r\n  hyperarc C r\n"
        "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n"
        "  hyperarc C x\n"
    )
    # the engines run only on an analysis, and there is none to be had
    with pytest.raises(EngineUnsupported):
        analyse(g)
