from fractions import Fraction

import pytest

from pregma.gio import parse_grammar
from pregma.labeling import classes_for_colours
from pregma.model import CanonicalVertex
from pregma.qualitative import (
    SELF,
    next_qualitative,
    successor_table,
    until_almost_sure,
    until_positive,
)
from pregma.validation import EngineUnsupported, analyse

F = Fraction


def cls(an, name):
    return classes_for_colours(an, frozenset({name}) if name else None)


def test_successor_table_running(running):
    tab = successor_table(analyse(running, running.mu))
    fork = tab[CanonicalVertex("A", "fork")]
    assert sorted(fork, key=repr) == sorted([
        (F(1, 4), CanonicalVertex("A", "dead")),
        (F(1, 4), ("ref", "A", 1)),
        (F(1, 2), CanonicalVertex("A", "win")),
    ], key=repr)
    assert tab[CanonicalVertex("A", "next")] == [
        (F(1, 2), CanonicalVertex("A", "fork")),
        (F(1, 2), CanonicalVertex("A", "next")),
    ]
    # v0's second step target resolves through the axiom's hyperarc
    assert tab[CanonicalVertex("Z", "v0")] == [
        (F(1, 2), CanonicalVertex("Z", "t0")),
        (F(1, 2), CanonicalVertex("A", "next")),
    ]
    assert tab[CanonicalVertex("Z", "t0")] == [(F(1), SELF)]
    assert tab[CanonicalVertex("A", "win")] == [(F(1), SELF)]


def test_successor_masses_sum_to_one(running, dag, updrift, critical):
    for g in (running, dag, updrift, critical):
        for can, succs in successor_table(analyse(g, g.mu)).items():
            assert sum((p for p, _ in succs), F(0)) == 1, str(can)


def test_resolve_ref_running(running):
    refs = analyse(running, running.mu).refs
    assert refs[("A", 1)] == frozenset({
        CanonicalVertex("Z", "v0"), CanonicalVertex("A", "next"),
    })
    assert refs[("A", 2)] == frozenset({
        CanonicalVertex("Z", "t0"), CanonicalVertex("A", "fork"),
    })


def test_next_qualitative_decides_plain_targets(running):
    win = frozenset({CanonicalVertex("A", "win")})
    out = next_qualitative(analyse(running, running.mu), win, ">=", F(1, 2))
    assert out[CanonicalVertex("A", "fork")] == "holds"
    assert out[CanonicalVertex("A", "next")] == "fails"
    assert out[CanonicalVertex("A", "dead")] == "fails"
    assert out[CanonicalVertex("A", "win")] == "holds"  # self loop


def test_next_qualitative_mixed_ref_is_unknown(running):
    # fork's d-step onto input 1 may land on Z:v0 or A:next depending on the
    # instance, so a target set holding only one of them cannot be decided
    target = frozenset({CanonicalVertex("Z", "v0")})
    an = analyse(running, running.mu)
    out = next_qualitative(an, target, ">", F(0))
    assert out[CanonicalVertex("A", "fork")] == "unknown"
    assert out[CanonicalVertex("A", "next")] == "fails"
    covering = frozenset({CanonicalVertex("Z", "v0"),
                          CanonicalVertex("A", "next")})
    assert next_qualitative(an, covering, ">", F(0))[
        CanonicalVertex("A", "fork")] == "holds"


def test_until_positive_running(running):
    an = analyse(running, running.mu)
    out = until_positive(an, cls(an, "V1"), cls(an, "V2"))
    assert {str(k): v for k, v in out.items()} == {
        "Z:v0": "holds", "Z:t0": "fails",
        "A:win": "holds", "A:fork": "holds", "A:next": "holds",
        "A:dead": "fails",
    }


def test_until_positive_everywhere_on_critical(critical):
    an = analyse(critical, critical.mu)
    out = until_positive(an, cls(an, None), cls(an, "green"))
    assert set(out.values()) == {"holds"}


def test_until_almost_sure_running(running):
    an = analyse(running, running.mu)
    out = until_almost_sure(an, cls(an, "V1"), cls(an, "V2"))
    assert {str(k): v for k, v in out.items()} == {
        "Z:v0": "fails", "Z:t0": "fails",
        "A:win": "holds", "A:fork": "fails", "A:next": "fails",
        "A:dead": "fails",
    }


def test_until_almost_sure_dag(dag):
    an = analyse(dag, dag.mu)
    out = until_almost_sure(an, cls(an, None), cls(an, "goal"))
    assert set(out.values()) == {"holds"}


def test_until_almost_sure_critical_is_unknown(critical):
    an = analyse(critical, critical.mu)
    out = until_almost_sure(an, cls(an, None), cls(an, "green"))
    assert out[CanonicalVertex("Z", "base")] == "holds"
    assert out[CanonicalVertex("Z", "m0")] == "unknown"
    assert out[CanonicalVertex("Walk", "hi")] == "unknown"


def test_until_almost_sure_trivial_phi2(running):
    an = analyse(running, running.mu)
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
        analyse(g, g.mu)
