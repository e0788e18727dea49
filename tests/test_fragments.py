from fractions import Fraction

import pytest

from pregma.fragments import local_rows
from pregma.labeling import classes_for_colours
from pregma.validation import analyse

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
    # one child copy, glued onto (next, fork)
    assert frag.glue == {0: (("base", "next"), ("base", "fork"))}
    kinds = {k: n.kind for k, n in frag.nodes.items()}
    assert kinds[("base", "s")] == "input"
    assert kinds[("copy", 0, "next")] == "child"
    assert frag.nodes[("base", "win")].can is not None
    assert frag.nodes[("base", "s")].can is None


def test_first_hit_rows(running_rows):
    _, rows = running_rows
    fork = rows[("base", "fork")]
    assert fork.win == F(1, 2)
    assert fork.loss == F(1, 4)
    assert fork.hits[("base", "s")] == F(1, 4)
    nxt = rows[("base", "next")]
    assert nxt.win == 0
    assert nxt.hits[("base", "fork")] == F(1, 2)
    assert nxt.hits[("copy", 0, "next")] == F(1, 2)
    assert rows[("base", "win")].win == 1
    assert rows[("base", "dead")].loss == 1


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
    v0 = rows[("base", "v0")]
    assert v0.hits[("base", "t0")] == F(1, 2)
    assert v0.hits[("copy", 0, "next")] == F(1, 2)
    assert rows[("base", "t0")].loss == 1


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
        for name, frag in an.fragments.items():
            rows = local_rows(an, frag, phi1, phi2)
            for key, row in rows.items():
                assert row.win + row.loss + sum(row.hits.values()) == 1, (g.axiom, name, key)
                assert row.win >= 0 and row.loss >= 0
                assert all(p > 0 for p in row.hits.values())
