from fractions import Fraction

import pytest

from pregma.fragments import LocalRow, local_rows
from pregma.gio import load_grammar
from pregma.labeling import classes_for_colours
from pregma.validation import analyse
from reference import fragment_rows

F = Fraction


@pytest.fixture()
def running_rows(running):
    an = analyse(running)
    phi1 = classes_for_colours(an, frozenset({"V1"}))
    phi2 = classes_for_colours(an, frozenset({"V2"}))
    frag = an.fragments["A"]
    return frag, local_rows(an, frag, phi1, phi2)


def test_fragment_layout(running):
    frag = analyse(running).fragments["A"]
    assert sorted(n.key for n in frag.starts) == [
        ("base", "dead"), ("base", "fork"), ("base", "next"), ("base", "win"),
    ]
    # one child copy, glued onto (next, fork): its rule hyperarc's vertices,
    # each a node of this level's own classes
    (h,) = frag.rule.rhs.hyperarcs
    assert h.vertices == ("next", "fork")
    assert [frag.nodes["base", v].kind for v in h.vertices] == ["same", "same"]
    assert {n.arc_index for n in frag.nodes.values() if n.key[0] == "copy"} == {0}
    kinds = {k: n.kind for k, n in frag.nodes.items()}
    assert kinds[("base", "s")] == "input"
    assert kinds[("copy", 0, "next")] == "child"
    assert frag.nodes[("base", "win")].can is not None
    assert frag.nodes[("base", "s")].can is None


def test_first_hit_rows(running_rows):
    _, rows = running_rows
    # fork wins 1/2, hits s 1/4 and loses the other 1/4
    assert rows[("base", "fork")] == LocalRow(F(1, 2), {("base", "s"): F(1, 4)})
    assert rows[("base", "next")] == LocalRow(
        0, {("base", "fork"): F(1, 2), ("copy", 0, "next"): F(1, 2)})
    assert rows[("base", "win")] == LocalRow(1, {})
    # dead loses with probability 1
    assert rows[("base", "dead")] == LocalRow(0, {})


def test_rows_from_inputs(running, running_rows):
    # an input's colours belong to the level above, so its first-hit row
    # in this fragment is where its first step ends up; every arc out of s
    # ends on a boundary node (so win and loss are 0), and that step is the
    # whole row
    frag, _ = running_rows
    step = frag.out[("base", "s")]
    assert all(frag.nodes[dst].kind != "interior" for _, dst in step)
    hits: dict = {}
    for label, dst in step:
        hits[dst] = hits.get(dst, 0) + running.mu[label]
    # nothing on the fork
    assert hits == {("base", "t"): F(1, 2), ("base", "next"): F(1, 2)}


def test_input_rows_are_off_by_default(running):
    an = analyse(running)
    phi1 = classes_for_colours(an, frozenset({"V1"}))
    phi2 = classes_for_colours(an, frozenset({"V2"}))
    frag = an.fragments["A"]
    rows = local_rows(an, frag, phi1, phi2)
    assert ("base", "s") not in rows
    assert set(rows) == {n.key for n in frag.starts}


def test_axiom_fragment_rows(running):
    an = analyse(running)
    phi1 = classes_for_colours(an, frozenset({"V1"}))
    phi2 = classes_for_colours(an, frozenset({"V2"}))
    frag = an.fragments["Z"]
    rows = local_rows(an, frag, phi1, phi2)
    assert rows[("base", "v0")] == LocalRow(
        0, {("base", "t0"): F(1, 2), ("copy", 0, "next"): F(1, 2)})
    # t0 loses with probability 1
    assert rows[("base", "t0")] == LocalRow(0, {})


def match_the_reference(an, phi1, phi2) -> int:
    """Asserts that every fragment's rows have the reference's win and hits,
    and that the reference's own win, loss and hits have mass 1 (the rows
    carry no loss, so 1 - win - sum(hits) would check nothing). Returns the
    number of rows."""
    count = 0
    for name, frag in an.fragments.items():
        rows = local_rows(an, frag, phi1, phi2)
        ref = fragment_rows(an, frag, phi1, phi2)
        assert rows.keys() == ref.keys()
        for key, row in rows.items():
            win, loss, hits = ref[key]
            assert (row.win, row.hits) == (win, hits), (name, key)
            assert win + loss + sum(hits.values()) == 1, (name, key)
            assert win >= 0 and loss >= 0
            assert all(p > 0 for p in row.hits.values())
        count += len(rows)
    return count


@pytest.mark.parametrize("colour_pair", [("V1", "V2"), (None, "sink")])
def test_rows_partition_unit_mass(running, dag, updrift, critical, colour_pair):
    phi1_name, phi2_name = colour_pair
    for g in (running, dag, updrift, critical):
        names = g.colour_names
        if phi2_name not in names:
            continue
        an = analyse(g)
        phi1 = classes_for_colours(
            an, frozenset({phi1_name}) if phi1_name in names else None
        )
        phi2 = classes_for_colours(an, frozenset({phi2_name}))
        match_the_reference(an, phi1, phi2)


def test_rows_match_the_reference_on_every_colour_pair(corpus_dir, branching_walk):
    # every corpus grammar and a seeded walk, phi1 true or a colour and phi2
    # a colour: the pairs above reach only running.gg
    count = 0
    for g in [*map(load_grammar, sorted(corpus_dir.glob("*.gg"))), branching_walk]:
        an = analyse(g)
        names = sorted(g.colour_names)
        for phi1 in [None, *names]:
            for phi2 in names:
                count += match_the_reference(
                    an, *(classes_for_colours(an, None if c is None else frozenset({c}))
                          for c in (phi1, phi2)))
    assert count >= 100
