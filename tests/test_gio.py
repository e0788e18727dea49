import random
import time
from fractions import Fraction

import pytest

from pregma.gio import ParseError, emit_dot, parse_grammar, serialize_grammar
from pregma.model import expand, validate_grammar
from pregma.pcp import parse_pcp
from pregma.pushdown import parse_pds
from reference import random_grammar


SMALL = """
nonterminal Z 0
nonterminal B 1
terminal a 2
colour red
prob a 1
absorbing red
axiom Z

rule Z
  vertex v
  hyperarc B v

rule B inputs x
  vertex y
  arc a x y
  colour red y
"""


def test_parse_small_grammar():
    g = parse_grammar(SMALL)
    assert validate_grammar(g) == []
    assert g.axiom == "Z"
    assert g.nonterminals == {"Z": 0, "B": 1}
    assert g.terminals == {"a": 2, "red": 1}
    assert g.mu == {"a": Fraction(1)}
    assert g.absorbing == {"red"}
    b = g.rule_for("B")
    assert b.inputs == ("x",)
    assert [str(v) for v in b.rhs.vertices] == ["x", "y"]


@pytest.mark.parametrize(
    "name", ["running.gg", "dag.gg", "updrift.gg", "critical.gg",
             *(f"random{seed}" for seed in range(200))]
)
def test_corpus_round_trip(corpus_dir, name):
    """A corpus grammar, or `random_grammar` from a seed (shared vertices
    included), written out and read back."""
    if name.startswith("random"):
        text = random_grammar(random.Random(int(name.removeprefix("random"))))
    else:
        text = (corpus_dir / name).read_text()
    g = parse_grammar(text)
    once = serialize_grammar(g)
    again = serialize_grammar(parse_grammar(once))
    assert once == again
    h = parse_grammar(once)
    assert validate_grammar(h) == []
    assert h.nonterminals == g.nonterminals
    assert h.terminals == g.terminals
    assert h.mu == g.mu
    assert h.absorbing == g.absorbing
    for rule in g.rules:
        other = h.rule_for(rule.lhs)
        assert other.inputs == rule.inputs
        assert sorted(other.rhs.arcs) == sorted(rule.rhs.arcs)
        assert sorted(other.rhs.colours) == sorted(rule.rhs.colours)
        assert sorted(other.rhs.hyperarcs) == sorted(rule.rhs.hyperarcs)


# running.gg read and written back: vertices in order of first mention,
# explicit colour marks first, then the default colour on every vertex that
# no nocolour line exempts
RUNNING_SERIALISED = """\
nonterminal Z 0
nonterminal A 2
terminal a 2
terminal d 2
colour V1
colour V2
colour sink
prob a 1/2
prob d 1/4
absorbing sink
axiom Z

rule Z
  hyperarc A v0 t0
  colour sink t0
  colour V1 v0
  colour V1 t0

rule A inputs s t
  vertex s t win fork dead next
  arc a s t
  arc a s next
  arc d fork dead
  arc d fork s
  arc a fork win
  hyperarc A next fork
  colour V2 win
  colour sink win
  colour sink dead
  colour V1 s
  colour V1 t
  colour V1 win
  colour V1 fork
  colour V1 next
"""


def test_running_serialises_in_parse_order(corpus_dir):
    text = (corpus_dir / "running.gg").read_text()
    assert serialize_grammar(parse_grammar(text)) == RUNNING_SERIALISED


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_grammar("nonterminal Z 0\nwibble Z\n")
    assert err.value.lineno == 2
    assert "wibble" in str(err.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("terminal a 2\nprob a 1/2\nprob a 1/3\n", "twice"),
        ("terminal a 2\nprob a 0/0\n", "bad probability"),
        ("nonterminal Z 0\naxiom Z\nrule Z\n  arc a v\n", "arc needs"),
        ("nonterminal Z 0\naxiom Z\nrule Z\n  nocolour c v\n", "default-colour"),
        ("nonterminal Z 0\nrule Z\n  vertex v\n", "axiom"),
        ("terminal a 2\nprob a\n", "prob needs LABEL VALUE"),
    ],
)
def test_parse_rejects_bad_lines(text, needle):
    with pytest.raises(ParseError) as err:
        parse_grammar(text)
    assert needle in str(err.value)


# Fraction would read all of these, and an exponent costs it 10^k
@pytest.mark.parametrize("value", ["1e-10000000", "1E-1000000", "0.5", "-1/2", "+1",
                                   "1/2/3", "1/", "1_0", "\u00bd", "\u0661"])
def test_prob_reads_only_n_and_n_over_m(value):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="line 2: bad probability .*: not N or N/M"):
        parse_grammar(f"terminal a 2\nprob a {value}\n")
    with pytest.raises(ParseError, match="line 3: bad probability .*: not N or N/M"):
        parse_pds(f"stack A\nstate s\nprob a {value}\nrule s a As\n")
    assert time.perf_counter() - start < 0.5


def test_out_of_range_probabilities_parse_and_fail_validation():
    for value in ("0", "3/2"):
        g = parse_grammar("terminal a 2\nnonterminal Z 0\naxiom Z\n"
                          f"prob a {value}\nrule Z\n  vertex v\n  arc a v v\n")
        assert g.mu["a"] == Fraction(value)
        assert "prob-range" in {issue.code for issue in validate_grammar(g)}


def test_vertices_register_on_first_mention():
    g = parse_grammar(
        "nonterminal Z 0\nterminal a 2\naxiom Z\n"
        "rule Z\n  arc a p q\n  arc a q p\n"
    )
    assert [str(v) for v in g.axiom_rule().rhs.vertices] == ["p", "q"]


def test_blank_line_closes_a_rule_block():
    with pytest.raises(ParseError, match="unknown keyword"):
        parse_grammar(
            "nonterminal Z 0\nterminal a 2\naxiom Z\n"
            "rule Z\n  vertex p\n\n  arc a p p\n"
        )


def test_serializer_omits_redundant_vertex_lines():
    g = parse_grammar(
        "nonterminal Z 0\nterminal a 2\naxiom Z\n"
        "rule Z\n  arc a p q\n"
    )
    assert "vertex" not in serialize_grammar(g)


def test_serializer_keeps_isolated_vertices(running):
    g = parse_grammar(
        "nonterminal Z 0\nterminal a 2\naxiom Z\n"
        "rule Z\n  vertex p q lone\n  arc a p q\n"
    )
    text = serialize_grammar(g)
    assert "vertex p q lone" in text
    assert parse_grammar(text).axiom_rule().rhs.has_vertex("lone")
    # running's rule A declares vertices in an order its arcs do not replay
    assert "vertex s t win fork dead next" in serialize_grammar(running)


def test_default_colour_expands_to_explicit_marks(running):
    # the serialized form has no default-colour line, yet parses back to the
    # same marks, dead staying bare
    text = serialize_grammar(running)
    assert "default-colour" not in text
    g = parse_grammar(text)
    a = g.rule_for("A")
    marks = {v: {c for c, u in a.rhs.colours if u == v} for v in a.rhs.vertices}
    assert marks["dead"] == {"sink"}
    assert "V1" in marks["next"]


def test_emit_dot_mentions_levels(running):
    e = expand(running, 2)
    dot = "\n".join(emit_dot(e))
    assert dot.startswith("digraph")
    assert "level" in dot
    legs = sum(len(vs) for _, vs in e.graph.legs())
    assert dot.count("->") == len(list(e.graph.arcs())) + legs


def test_readme_examples_parse(corpus_dir, running):
    readme = (corpus_dir.parent / "README.md").read_text(encoding="utf-8")

    def block(heading: str) -> str:
        """The first fenced block after a heading."""
        return readme.split(heading, 1)[1].split("```\n", 2)[1]

    g = parse_grammar(block("### Grammars (`.gg`)"))
    assert validate_grammar(g) == []
    assert serialize_grammar(g) == serialize_grammar(running)
    pds = parse_pds(block("### Suffix rewriting systems (`.pds`)"))
    assert pds.sink_colour == "halt" and len(pds.rules) == 2
    pcp = parse_pcp(block("### Word-pair instances (`.pcp`)"))
    assert pcp.pairs == (("01", "0"), ("1", "11"))
