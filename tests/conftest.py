import random
from fractions import Fraction
from pathlib import Path

import pytest

from pregma.gio import load_grammar, parse_grammar
from pregma.oracle import PathQuery, bounded_until, truncate
from pregma.pcp import load_pcp
from pregma.pushdown import load_pds

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def running():
    """Coin walk over a self-similar double branch; the workhorse grammar."""
    return load_grammar(CORPUS / "running.gg")


@pytest.fixture(scope="session")
def dag():
    return load_grammar(CORPUS / "dag.gg")


@pytest.fixture(scope="session")
def updrift():
    return load_grammar(CORPUS / "updrift.gg")


@pytest.fixture(scope="session")
def critical():
    """Fair walk with a double root at 1, which the solver closes exactly."""
    return load_grammar(CORPUS / "critical.gg")


@pytest.fixture(scope="session")
def critical_bounded(critical):
    """Exact P(F<=h green) on critical.gg at h = 0, 4, ..., 24 from m0 and
    from the Walk:hi vertex on level 1, keyed by class name: a value of
    exactly 1 must lie above all of them, and they must rise with h."""
    green = frozenset({"green"})
    mc = truncate(critical, 28, PathQuery(None, green, "m0", 26))
    starts = {"Z:m0": "m0", "Walk:hi": mc.levels.index(1)}
    return {name: [bounded_until(mc, PathQuery(None, green, s, h)) for h in range(0, 25, 4)]
            for name, s in starts.items()}


@pytest.fixture(scope="session")
def pds_plain():
    return load_pds(CORPUS / "pds_example.pds")


@pytest.fixture(scope="session")
def pds_prob():
    return load_pds(CORPUS / "pds_example_prob.pds")


@pytest.fixture(scope="session")
def pcp_solvable():
    return [load_pcp(CORPUS / f"pcp_s{i}.pcp") for i in (1, 2, 3)]


@pytest.fixture(scope="session")
def pcp_unsolvable():
    return [load_pcp(CORPUS / f"pcp_u{i}.pcp") for i in (1, 2, 3)]


@pytest.fixture(scope="session")
def branching_walk():
    """A seeded two-level walk: level i climbs from its input `lo` with u<i>
    to two fresh vertices, each stepping back down with d<i> and carrying the
    next level's hyperarc; the axiom's m0 steps down to the green base."""
    rng = random.Random(7)
    d = [Fraction(rng.randrange(17, 28, 2), 128) for _ in range(2)]
    lines = ["nonterminal Z 0", "nonterminal W0 1", "nonterminal W1 1"]
    lines += [f"terminal {lab}{i} 2" for i in range(2) for lab in "ud"]
    lines += ["colour green", "absorbing green", "axiom Z"]
    for i in range(2):
        lines += [f"prob d{i} {d[i]}", f"prob u{i} {(1 - d[i - 1]) / 2}"]
    lines += ["rule Z", "  vertex base m0", "  colour green base",
              "  arc d1 m0 base", "  hyperarc W0 m0"]
    for i in range(2):
        lines += [f"rule W{i} inputs lo", "  vertex h0 h1"]
        for h in ("h0", "h1"):
            lines += [f"  arc u{i} lo {h}", f"  arc d{i} {h} lo",
                      f"  hyperarc W{1 - i} {h}"]
    return parse_grammar("\n".join(lines) + "\n")


_DEEP_DEFECT = """\
nonterminal Z 0
nonterminal A 1
nonterminal B 1
terminal go 2
terminal bad 2
terminal green 1
prob go 1
prob bad 1/2
absorbing green
axiom Z
rule Z
  vertex v0 goal u
  arc go v0 goal
  colour green goal
  arc go u u
  hyperarc A u
rule A inputs x
  vertex y
  arc go y y
  hyperarc B y
rule B inputs x
  vertex w
  arc bad w w
  arc go x x
"""


# A's vertex y lies on two hyperarcs, and each child rule gives it a loop
SHARED_DEFECT = """\
nonterminal Z 0
nonterminal A 1
nonterminal B 1
nonterminal C 1
terminal go 2
terminal green 1
prob go 1
absorbing green
axiom Z
rule Z
  vertex v0 goal u
  arc go v0 goal
  colour green goal
  arc go u u
  hyperarc A u
rule A inputs x
  vertex y
  hyperarc B y
  hyperarc C y
rule B inputs x
  arc go x x
rule C inputs x
  arc go x x
"""


@pytest.fixture(scope="session")
def deep_defects():
    """Grammar texts with a defect below v0's horizon-2 cone, which closes
    at level 0, each with the error that its depth-4 truncation raises.

    In the first, A's vertex y gets one `go` loop from rule A and another
    from rule B, so its out-mass is 2. In the second, that loop is gone and
    `bad`, which rule B first uses at level 2, has no probability. In the
    third, y lies on a B and a C hyperarc and gets a loop from each."""
    unpriced = _DEEP_DEFECT.replace("prob bad 1/2\n", "").replace(
        "  arc go x x\n", "")
    return [(_DEEP_DEFECT, "vertex 3 (class A:y, level 1) has outgoing mass 2"),
            (unpriced, "no probability for arc label bad"),
            (SHARED_DEFECT, "vertex 3 (class A:y, level 1) has outgoing mass 2")]
