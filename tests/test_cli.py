import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import pregma
from pregma import cli, model, oracle, validation
from pregma.cli import _build_parser, main
from pregma.gio import load_grammar, serialize_grammar
from pregma.model import expand, validate_grammar
from pregma.pcp import encode, load_pcp
from pregma.pushdown import load_pds, to_grammar
from reference import expand_rendering

F = Fraction

# `prob` and `check --at` read the until's one enclosure, solved at a width
# of at most 1e-9
LOWER = "392212460664176879051461864611/1267650600228229401496703205376"
UPPER = ("766039962234722828080627889140966223/"
         "2475880078570760549798248448000000000")


def encloses_headline(lower, upper):
    """Does [lower, upper] contain P = (4 sqrt(3) - 6)/3, running's headline
    value? Exact: q <= P iff (3q + 6)^2 <= 48, for q >= -2."""
    lo, hi = F(lower), F(upper)
    return (3 * lo + 6) ** 2 <= 48 <= (3 * hi + 6) ** 2

EMITTED_SYSTEM = """\
pin win(A:win) = 1
pin dec(A:win; 1) = 0
pin dec(A:win; 2) = 0
win(Z:v0) = 1/2 * win(Z:t0) + 1/2 * win(A:next) + 1/2 * dec(A:next; 1) * win(Z:v0) + 1/2 * dec(A:next; 2) * win(Z:t0)
win(Z:t0) = 0
win(A:fork) = 1/2
dec(A:fork; 1) = 1/4
dec(A:fork; 2) = 0
win(A:dead) = 0
dec(A:dead; 1) = 0
dec(A:dead; 2) = 0
win(A:next) = 1/2 * win(A:fork) + 1/2 * win(A:next) + 1/2 * dec(A:next; 1) * win(A:next) + 1/2 * dec(A:next; 2) * win(A:fork)
dec(A:next; 1) = 1/2 * dec(A:fork; 1) + 1/2 * dec(A:next; 1) * dec(A:next; 1) + 1/2 * dec(A:next; 2) * dec(A:fork; 1)
dec(A:next; 2) = 1/2 * dec(A:fork; 2) + 1/2 * dec(A:next; 1) * dec(A:next; 2) + 1/2 * dec(A:next; 2) * dec(A:fork; 2)"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def gg(corpus_dir, name):
    return str(corpus_dir / name)


@contextmanager
def any_int_length():
    """Turn ints of any length into text inside the block, as main does,
    and restore the limit after it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(found)


def test_validate_ok(corpus_dir):
    for name in ("running.gg", "dag.gg", "updrift.gg", "critical.gg"):
        code, out, err = run(["validate", gg(corpus_dir, name)])
        assert (code, out, err) == (0, "", ""), name


def test_validate_reports_detuned_mass(corpus_dir, tmp_path):
    text = (corpus_dir / "running.gg").read_text().replace(
        "prob d 1/4", "prob d 1/3")
    path = tmp_path / "detuned.gg"
    path.write_text(text)
    code, out, err = run(["validate", str(path)])
    assert code == 1
    assert err == "canonical=A:fork sum=7/6\n"


def test_validate_names_a_missing_probability(corpus_dir, tmp_path):
    text = (corpus_dir / "running.gg").read_text().replace("prob d 1/4\n", "")
    path = tmp_path / "no_d.gg"
    path.write_text(text)
    assert run(["validate", str(path)]) == (
        1, "", "canonical=A:fork no probability for d\n")


# one malformed line per reachable ParseError of the .gg reader
MALFORMED_GG = [
    ("nonterminal Z 0\nterminal Z 2\n", 2, "symbol Z declared twice"),
    ("nonterminal Z\n", 1, "nonterminal needs NAME ARITY"),
    ("nonterminal Z \u00b2\n", 1, "nonterminal needs NAME ARITY"),
    ("terminal a two\n", 1, "terminal needs NAME ARITY"),
    ("colour c d\n", 1, "top-level colour needs just NAME"),
    ("axiom\n", 1, "axiom needs NAME"),
    ("axiom Z\naxiom Z\n", 2, "axiom given twice"),
    ("default-colour\n", 1, "default-colour needs NAME"),
    ("default-colour c\ndefault-colour c\n", 2, "default-colour given twice"),
    ("absorbing\n", 1, "absorbing needs NAME"),
    ("rule\n", 1, "rule needs a nonterminal name"),
    ("rule Z with v\n", 1, "expected 'inputs' after the rule name"),
    ("axiom Z\nrule Z\n  vertex\n", 3, "vertex line needs at least one name"),
    ("axiom Z\nrule Z\n  hyperarc\n", 3, "hyperarc needs a label"),
    ("axiom Z\nrule Z\n  colour c v w\n", 3,
     "colour inside a rule needs NAME VERTEX"),
    ("axiom Z\nrule Z\n  nocolour c\n", 3, "nocolour needs NAME VERTEX"),
    ("default-colour c\naxiom Z\nrule Z\n  nocolour d v\n", 4,
     "nocolour d does not match default-colour c"),
    ("nonterminal Z 0\ndefault-colour c\naxiom Z\nrule Z\n  vertex v\n", 4,
     "default-colour c not declared"),
]


@pytest.mark.parametrize("text, lineno, message", MALFORMED_GG,
                         ids=[m for _, _, m in MALFORMED_GG])
def test_malformed_gg_names_its_line(tmp_path, text, lineno, message):
    path = tmp_path / "bad.gg"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", str(path)]) == (
        1, "", f"{path}: line {lineno}: {message}\n")


def test_an_exponent_probability_exits_1_at_once(tmp_path):
    # Fraction reads 1e-10000000 by computing 10^10000000
    gg, pds = tmp_path / "exp.gg", tmp_path / "exp.pds"
    gg.write_text("terminal a 2\nprob a 1e-10000000\n")
    pds.write_text("stack A\nstate s\nprob a 1e-10000000\nrule s a As\n")
    start = time.perf_counter()
    assert run(["validate", str(gg)]) == (
        1, "", f"{gg}: line 2: bad probability '1e-10000000': not N or N/M\n")
    assert run(["from-pds", str(pds)]) == (
        1, "", f"{pds}: line 3: bad probability '1e-10000000': not N or N/M\n")
    assert time.perf_counter() - start < 1


def test_validate_missing_file():
    code, out, err = run(["validate", "no-such-file.gg"])
    assert code == 1
    assert "cannot read" in err


def test_prob_enclosure(corpus_dir):
    code, out, err = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi1", "V1", "--phi2", "V2",
        "--from", "v0",
    ])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"lower={LOWER} upper={UPPER}"
    assert lines[1] == \
        "decimal [0.309401076759, 0.309401076759] width=9.537e-16 (converged)"
    assert encloses_headline(LOWER, UPPER)
    assert F(UPPER) - F(LOWER) <= F(1, 10**9)
    # prob prints the one enclosure that `check --at` reads, inexact or exact
    for grammar, phi1, phi2, start, formula in [
            ("running.gg", ["--phi1", "V1"], "V2", "v0", "V1 U[>=1/4] V2"),
            ("updrift.gg", [], "green", "m0", "F[>=1/5] green"),
            ("dag.gg", [], "goal", "v0", "F[>=1/2] goal")]:
        path = gg(corpus_dir, grammar)
        prob = run(["prob", path, *phi1, "--phi2", phi2, "--from", start,
                    "--format", "json-lines"])
        check = run(["check", path, "--formula", formula, "--at", start,
                     "--format", "json-lines"])
        assert prob[0] == check[0] == 0 and prob[2] == check[2] == ""
        a, b = json.loads(prob[1]), json.loads(check[1])
        assert (a["lower"], a["upper"]) == (b["lower"], b["upper"]), grammar


def test_prob_solves_once_at_the_one_width(corpus_dir, monkeypatch):
    """prob solves its until once, at the one width: no second solve."""
    import pregma.quantitative as quantitative

    solves = []

    def counting_solve(system, eps):
        solves.append(eps)
        return solve_enclosure(system, eps)

    solve_enclosure = quantitative.solve_enclosure
    monkeypatch.setattr(quantitative, "solve_enclosure", counting_solve)
    code, _, err = run(["prob", gg(corpus_dir, "running.gg"), "--phi1", "V1",
                        "--phi2", "V2", "--from", "v0"])
    assert (code, err) == (0, "")
    assert solves == [quantitative.WIDTH]


def test_prob_emit_system(corpus_dir):
    code, out, err = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
        "--emit-system",
    ])
    assert code == 0
    lines = out.splitlines()
    assert "\n".join(lines[:14]) == EMITTED_SYSTEM
    assert lines[14] == f"lower={LOWER} upper={UPPER}"
    assert encloses_headline(LOWER, UPPER)


# the converted pushdown grammar is the one corpus input whose term order
# shows the order in which a boundary start's out-arcs first reach its hits
PDS_SYSTEM = """\
pin win(Z:p) = 1
pin win(Z:Ap) = 1
pin win(X:AAp) = 1
pin dec(X:AAp; 1) = 0
pin dec(X:AAp; 2) = 0
pin dec(X:AAp; 3) = 0
pin dec(X:AAp; 4) = 0
pin win(X:Bp) = 1
pin dec(X:Bp; 1) = 0
pin dec(X:Bp; 2) = 0
pin dec(X:Bp; 3) = 0
pin dec(X:Bp; 4) = 0
win(Z:r') = 1/2 * win(X:Ar) + 1/2 * dec(X:Ar; 1) * win(Z:r') + 1/2 * dec(X:Ar; 2) * win(Z:r) + 1/2 * dec(X:Ar; 3) + 1/2 * dec(X:Ar; 4) + 1/2
win(Z:r) = 1 * win(X:Br') + 1 * dec(X:Br'; 1) * win(Z:r') + 1 * dec(X:Br'; 2) * win(Z:r) + 1 * dec(X:Br'; 3) + 1 * dec(X:Br'; 4)
win(X:Ar') = 1/2 * win(X:Ar) + 1/2 * dec(X:Ar; 1) * win(X:Ar') + 1/2 * dec(X:Ar; 2) * win(X:Ar) + 1/2 * dec(X:Ar; 4) + 1/2
dec(X:Ar'; 1) = 1/2 * dec(X:Ar; 1) * dec(X:Ar'; 1) + 1/2 * dec(X:Ar; 2) * dec(X:Ar; 1)
dec(X:Ar'; 2) = 1/2 * dec(X:Ar; 1) * dec(X:Ar'; 2) + 1/2 * dec(X:Ar; 2) * dec(X:Ar; 2)
dec(X:Ar'; 3) = 1/2 * dec(X:Ar; 1) * dec(X:Ar'; 3) + 1/2 * dec(X:Ar; 2) * dec(X:Ar; 3)
dec(X:Ar'; 4) = 1/2 * dec(X:Ar; 1) * dec(X:Ar'; 4) + 1/2 * dec(X:Ar; 2) * dec(X:Ar; 4) + 1/2 * dec(X:Ar; 3)
win(X:Ar) = 1 * win(X:Br') + 1 * dec(X:Br'; 1) * win(X:Ar') + 1 * dec(X:Br'; 2) * win(X:Ar) + 1 * dec(X:Br'; 4)
dec(X:Ar; 1) = 1 * dec(X:Br'; 1) * dec(X:Ar'; 1) + 1 * dec(X:Br'; 2) * dec(X:Ar; 1)
dec(X:Ar; 2) = 1 * dec(X:Br'; 1) * dec(X:Ar'; 2) + 1 * dec(X:Br'; 2) * dec(X:Ar; 2)
dec(X:Ar; 3) = 1 * dec(X:Br'; 1) * dec(X:Ar'; 3) + 1 * dec(X:Br'; 2) * dec(X:Ar; 3)
dec(X:Ar; 4) = 1 * dec(X:Br'; 1) * dec(X:Ar'; 4) + 1 * dec(X:Br'; 2) * dec(X:Ar; 4) + 1 * dec(X:Br'; 3)
win(X:Br') = 1/2 * win(X:Ar) + 1/2 * dec(X:Ar; 1) * win(X:Br') + 1/2 * dec(X:Ar; 2) * win(X:Br) + 1/2 * dec(X:Ar; 3) + 1/2 * dec(X:Ar; 4) * win(X:BAp) + 1/2 * win(X:BAp)
dec(X:Br'; 1) = 1/2 * dec(X:Ar; 1) * dec(X:Br'; 1) + 1/2 * dec(X:Ar; 2) * dec(X:Br; 1) + 1/2 * dec(X:Ar; 4) * dec(X:BAp; 1) + 1/2 * dec(X:BAp; 1)
dec(X:Br'; 2) = 1/2 * dec(X:Ar; 1) * dec(X:Br'; 2) + 1/2 * dec(X:Ar; 2) * dec(X:Br; 2) + 1/2 * dec(X:Ar; 4) * dec(X:BAp; 2) + 1/2 * dec(X:BAp; 2)
dec(X:Br'; 3) = 1/2 * dec(X:Ar; 1) * dec(X:Br'; 3) + 1/2 * dec(X:Ar; 2) * dec(X:Br; 3) + 1/2 * dec(X:Ar; 4) * dec(X:BAp; 3) + 1/2 * dec(X:BAp; 3)
dec(X:Br'; 4) = 1/2 * dec(X:Ar; 1) * dec(X:Br'; 4) + 1/2 * dec(X:Ar; 2) * dec(X:Br; 4) + 1/2 * dec(X:Ar; 4) * dec(X:BAp; 4) + 1/2 * dec(X:BAp; 4)
win(X:Br) = 1 * win(X:Br') + 1 * dec(X:Br'; 1) * win(X:Br') + 1 * dec(X:Br'; 2) * win(X:Br) + 1 * dec(X:Br'; 3) + 1 * dec(X:Br'; 4) * win(X:BAp)
dec(X:Br; 1) = 1 * dec(X:Br'; 1) * dec(X:Br'; 1) + 1 * dec(X:Br'; 2) * dec(X:Br; 1) + 1 * dec(X:Br'; 4) * dec(X:BAp; 1)
dec(X:Br; 2) = 1 * dec(X:Br'; 1) * dec(X:Br'; 2) + 1 * dec(X:Br'; 2) * dec(X:Br; 2) + 1 * dec(X:Br'; 4) * dec(X:BAp; 2)
dec(X:Br; 3) = 1 * dec(X:Br'; 1) * dec(X:Br'; 3) + 1 * dec(X:Br'; 2) * dec(X:Br; 3) + 1 * dec(X:Br'; 4) * dec(X:BAp; 3)
dec(X:Br; 4) = 1 * dec(X:Br'; 1) * dec(X:Br'; 4) + 1 * dec(X:Br'; 2) * dec(X:Br; 4) + 1 * dec(X:Br'; 4) * dec(X:BAp; 4)
win(X:BAp) = 0
dec(X:BAp; 1) = 0
dec(X:BAp; 2) = 0
dec(X:BAp; 3) = 1
dec(X:BAp; 4) = 0
lower=1 upper=1
decimal [1.000000000000, 1.000000000000] width=0.000e+00 (exact)
"""


def test_prob_emit_system_on_pushdown_grammar(corpus_dir, tmp_path):
    converted = tmp_path / "pds_example_prob.gg"
    assert run(["from-pds", gg(corpus_dir, "pds_example_prob.pds"),
                "-o", str(converted)])[0] == 0
    assert run(["prob", str(converted), "--phi2", "halt", "--from", "r",
                "--emit-system"]) == (0, PDS_SYSTEM, "")


def test_prob_emit_system_json_lines_is_one_record_per_line(corpus_dir, tmp_path):
    converted = tmp_path / "pds_example_prob.gg"
    assert run(["from-pds", gg(corpus_dir, "pds_example_prob.pds"),
                "-o", str(converted)])[0] == 0
    running = gg(corpus_dir, "running.gg")
    # the second query pins every variable: its text run prints the pins,
    # no equation and no empty line
    for argv in (["prob", running, "--phi2", "V2", "--from", "v0"],
                 ["prob", running, "--phi2", "tt", "--from", "v0"],
                 ["prob", str(converted), "--phi2", "halt", "--from", "r"]):
        code, text, err = run([*argv, "--emit-system"])
        assert code == 0 and err == ""
        assert "" not in text.splitlines()
        code, out, err = run([*argv, "--emit-system", "--format", "json-lines"])
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["kind"] for r in records[-1:]] == ["enclosure"]
        assert {r["kind"] for r in records[:-1]} <= {"pin", "equation"}
        assert [f"pin {r['variable']} = {r['value']}" if r["kind"] == "pin"
                else f"{r['variable']} = {r['rhs']}" for r in records[:-1]] == \
            text.splitlines()[:-2]


def test_prob_needs_arc_probabilities(corpus_dir, tmp_path):
    converted = tmp_path / "pds_example.gg"
    assert run(["from-pds", gg(corpus_dir, "pds_example.pds"),
                "-o", str(converted)])[0] == 0
    assert run(["prob", str(converted), "--phi2", "halt", "--from", "r"]) == (
        1, "", "grammar declares no arc probabilities\n")


# updrift's walk with tiny step probabilities, the rest of each vertex's
# mass going to an absorbing red sink: every rounded Kleene iterate stalls
TINY_WALK = """\
nonterminal Z 0
nonterminal Walk 1
terminal down 2
terminal up 2
terminal off 2
colour green
colour red
prob down 29/55282071780732213051372077056
prob up 1/221128287122928852205488308223
prob off {off}
absorbing green
absorbing red
axiom Z
rule Z
  vertex base m0 dead
  colour green base
  colour red dead
  arc down m0 base
  arc off m0 dead
  hyperarc Walk m0
rule Walk inputs lo
  vertex hi dead
  colour red dead
  arc up lo hi
  arc down hi lo
  arc off hi dead
  hyperarc Walk hi
"""


def test_prob_converges_when_every_round_stalls(tmp_path):
    path = tmp_path / "tiny.gg"
    off = 1 - F(29, 55282071780732213051372077056) - F(1, 221128287122928852205488308223)
    path.write_text(TINY_WALK.format(off=off))
    assert run(["validate", str(path)]) == (0, "", "")
    code, out, err = run(["prob", str(path), "--phi2", "green", "--from", "m0",
                          "--format", "json-lines"])
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["converged"]
    assert F(rec["upper"]) - F(rec["lower"]) <= F(1, 10**6)


def test_prob_prints_exact_values_of_any_length(tmp_path):
    """1 - (2/3)^9100 has more than 4300 digits, Python's default limit for
    turning an int into text."""
    path = tmp_path / "coin.gg"
    path.write_text("nonterminal Z 0\nterminal hit 2\nterminal stay 2\n"
                    "colour green\nprob hit 1/3\nprob stay 2/3\nabsorbing green\n"
                    "axiom Z\nrule Z\n  vertex m0 goal\n  colour green goal\n"
                    "  arc hit m0 goal\n  arc stay m0 m0\n")
    argv = ["prob", str(path), "--phi2", "green", "--from", "m0",
            "--method", "truncate", "--horizon", "9100"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    value = 1 - F(2, 3) ** 9100
    with any_int_length():
        assert len(str(value.denominator)) > 4300
        assert out == f"bounded={value}\ndecimal 1.000000000000 (horizon 9100)\n"
    code, out, err = run([*argv, "--format", "json-lines"])
    assert (code, err) == (0, "")
    with any_int_length():
        assert json.loads(out)["value"] == str(value)


def test_prob_truncate(corpus_dir):
    code, out, err = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
        "--method", "truncate", "--horizon", "5",
    ])
    assert code == 0
    assert out == "bounded=7/32\ndecimal 0.218750000000 (horizon 5)\n"


def test_prob_sample(corpus_dir):
    code, out, err = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
        "--method", "sample", "--horizon", "40", "--depth", "45",
        "--n", "5000", "--seed", "11",
    ])
    assert code == 0
    assert out.splitlines() == [
        "hits=1569 escapes=0 n=5000",
        "estimate [0.313800, 0.313800] (seed 11)",
    ]


@pytest.mark.parametrize("method", ["truncate", "sample"])
def test_prob_keeps_the_errors_of_the_full_depth(tmp_path, deep_defects, method):
    # the horizon cone from v0 closes at level 0, the defects lie deeper
    path = tmp_path / "defect.gg"
    for text, line in deep_defects:
        path.write_text(text)
        assert run(["prob", str(path), "--phi2", "green", "--from", "v0",
                    "--method", method, "--horizon", "2", "--depth", "4"]) == (
            1, "", line + "\n")


def test_a_truncation_too_shallow_for_the_horizon_exits_1_with_one_line(corpus_dir):
    assert run(["prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
                "--method", "truncate", "--horizon", "5", "--depth", "3"]) == (
        1, "", "frontier vertex 13 (class A:next, level 3) is within 5 steps of the "
               "start; deepen the truncation\n")


def test_prob_json_lines(corpus_dir):
    code, out, _ = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
        "--format", "json-lines",
    ])
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "enclosure"
    assert rec["converged"] is True and rec["exact"] is False
    assert F(rec["lower"]) <= F(rec["upper"])
    assert F(rec["upper"]) - F(rec["lower"]) <= F(1, 10**6)

    code, out, _ = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
        "--method", "truncate", "--horizon", "5", "--format", "json-lines",
    ])
    assert json.loads(out) == {
        "kind": "bounded", "horizon": 5, "depth": 7, "value": "7/32"}

    code, out, _ = run([
        "prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0",
        "--method", "sample", "--horizon", "8", "--n", "100", "--seed", "7",
        "--format", "json-lines",
    ])
    assert json.loads(out) == {
        "kind": "sample", "hits": 26, "escapes": 0, "n": 100, "seed": 7,
        "horizon": 8, "depth": 10}


def test_check_exit_codes_follow_verdicts(corpus_dir):
    code, out, _ = run([
        "check", gg(corpus_dir, "running.gg"),
        "--formula", "v0 & (V1 U[>2/3] V2)", "--at", "v0",
    ])
    assert (code, out) == (1, "fails\n")

    code, out, _ = run([
        "check", gg(corpus_dir, "running.gg"),
        "--formula", "V1 U[>=1/4] V2", "--at", "v0",
    ])
    assert code == 0
    assert out.startswith("holds enclosure=[")

    code, out, _ = run([
        "check", gg(corpus_dir, "critical.gg"),
        "--formula", "tt U[>=1] green", "--at", "m0",
    ])
    assert (code, out) == (0, "holds\n")

    # the value at m0 is exactly 1/4, which no enclosure decides
    code, out, _ = run([
        "check", gg(corpus_dir, "updrift.gg"),
        "--formula", "F[>=1/4] green", "--at", "m0",
    ])
    assert code == 2
    assert out.startswith("unknown enclosure=[")


def test_check_emit_coloured(corpus_dir):
    code, out, _ = run([
        "check", gg(corpus_dir, "running.gg"),
        "--formula", "V1 U[>=1/4] V2", "--emit-coloured",
    ])
    assert code == 1
    lines = out.splitlines()
    assert "class=Z:t0 verdict=fails enclosure=[0, 0]" in lines
    assert "class=A:win verdict=holds enclosure=[1, 1]" in lines
    assert "class=A:fork verdict=unknown" in lines
    assert lines[0] == f"class=Z:v0 verdict=holds enclosure=[{LOWER}, {UPPER}]"
    assert encloses_headline(LOWER, UPPER)
    assert lines[-1] == "fails"


UNREACHABLE_HOST = """\
nonterminal Z 0
nonterminal A 1
nonterminal U 0
terminal a 2
terminal b 2
colour green
colour red
absorbing green
prob a 1
prob b 1
axiom Z

rule Z
  vertex z
  arc b z z
  colour red z
  hyperarc A z

rule A inputs i
  vertex w
  arc a w i

rule U
  vertex u
  colour green u
  hyperarc A u
"""


def test_check_ignores_the_hyperarcs_of_unreachable_rules(tmp_path):
    # U is unreachable from the axiom, so the green sink its hyperarc glues
    # onto A's input never occurs: from w every run steps onto z and is red
    path = tmp_path / "unreachable.gg"
    path.write_text(UNREACHABLE_HOST)
    assert run(["check", str(path), "--formula", "F[>=1] red", "--emit-coloured"]) == (
        0, "class=Z:z verdict=holds\nclass=A:w verdict=holds\nholds\n", "")


_EXIT = {"holds": 0, "fails": 1, "unknown": 2}
_KLEENE_NOT = {"holds": "fails", "fails": "holds", "unknown": "unknown"}


def _kleene_and(*statuses):
    if "fails" in statuses:
        return "fails"
    return "holds" if set(statuses) <= {"holds"} else "unknown"


def _class_verdicts(path, formula):
    """Each class's --emit-coloured verdict, after checking that the overall
    line is their conjunction and that the exit code follows it."""
    code, out, err = run(["check", path, "--formula", formula, "--emit-coloured"])
    *lines, overall = out.splitlines()
    verdicts = {c: v.removeprefix("verdict=")
                for c, v in (line.split()[:2] for line in lines)}
    assert err == "" and overall == _kleene_and(*verdicts.values()), formula
    assert code == _EXIT[overall], formula
    return verdicts


@pytest.mark.parametrize("name, a, b", [
    ("critical.gg", "F[>=1] green", "F[>0] green"),
    ("running.gg", "V1 U[>=1/4] V2", "F[>0] V2"),
])
def test_connectives_are_kleene_per_class(corpus_dir, name, a, b):
    """Per class, A & B and !A get the Kleene conjunction and negation of
    the separate verdicts, whichever classes the engines decide."""
    path = gg(corpus_dir, name)
    left, right = _class_verdicts(path, a), _class_verdicts(path, b)
    both = _class_verdicts(path, f"({a}) & ({b})")
    negated = _class_verdicts(path, f"!({a})")
    assert left.keys() == right.keys() == both.keys() == negated.keys()
    for c in left:
        assert both[c] == _kleene_and(left[c], right[c]), c
        assert negated[c] == _KLEENE_NOT[left[c]], c


def test_check_without_at_prints_the_conjunction(corpus_dir):
    """On critical.gg, F[>=1] green meets a double root at 1 that the
    solver closes exactly, so every class holds: the run prints holds and
    exits 0, the Kleene conjunction of the per-class verdicts."""
    path = gg(corpus_dir, "critical.gg")
    overall = _kleene_and(*_class_verdicts(path, "F[>=1] green").values())
    assert overall == "holds"
    assert run(["check", path, "--formula", "F[>=1] green"]) == (
        _EXIT[overall], f"{overall}\n", "")


def test_check_without_at_is_unknown_when_no_class_fails(corpus_dir):
    """On updrift.gg, F[>=1/4] green holds at base and is undecided at m0,
    whose value is exactly 1/4: no class fails, so the run prints unknown
    and exits 2, in text and in json-lines. Once an exact argument decides
    m0, this pin moves with the CI step that expects exit 2 there."""
    path = gg(corpus_dir, "updrift.gg")
    verdicts = _class_verdicts(path, "F[>=1/4] green")
    assert verdicts["class=Z:base"] == "holds" and verdicts["class=Z:m0"] == "unknown"
    assert run(["check", path, "--formula", "F[>=1/4] green"]) == (2, "unknown\n", "")
    code, out, err = run(["check", path, "--formula", "F[>=1/4] green",
                          "--format", "json-lines"])
    assert (code, err) == (2, "")
    assert json.loads(out) == {"at": None, "kind": "verdict", "status": "unknown"}


def test_check_qualitative_accepts_nested_zero_one_thresholds(corpus_dir):
    assert run(["check", gg(corpus_dir, "running.gg"), "--qualitative",
                "--formula", "!(V1 & X[>0] (tt U[>=1] V2))", "--at", "v0"]) == (
        0, "holds\n", "")


def test_check_aggregate_verdict(corpus_dir):
    code, out, _ = run([
        "check", gg(corpus_dir, "running.gg"), "--formula", "tt U[>=0] V2",
    ])
    assert (code, out) == (0, "holds\n")


def test_check_at_json(corpus_dir):
    code, out, _ = run([
        "check", gg(corpus_dir, "running.gg"),
        "--formula", "V1 U[>=1/4] V2", "--at", "v0", "--format", "json-lines",
    ])
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "verdict" and rec["status"] == "holds"
    assert rec["at"] == "v0" and rec["lower"] == LOWER
    assert rec["upper"] == UPPER
    assert encloses_headline(rec["lower"], rec["upper"])
    assert F(rec["upper"]) - F(rec["lower"]) <= F(1, 10**9)


@pytest.mark.parametrize("argv, needle", [
    (["check", "{g}", "--formula", "V1 U[", "--at", "v0"], "bad formula"),
    (["check", "{g}", "--formula", "tt U[>=1/2] V2", "--qualitative"],
     "threshold"),
    (["prob", "{g}", "--phi2", "nope", "--from", "v0"], "unknown colours"),
    (["prob", "{g}", "--phi2", "V2", "--from", "zz"],
     "not an axiom-rule vertex"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--eps", "0"],
     "error: unrecognized arguments: --eps 0"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "sample"],
     "--horizon is required"),
    (["frobnicate"], "invalid choice"),
    (["expand", "{g}", "--depth", "-1"], "must be >= 0"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "truncate",
      "--horizon", "3", "--depth", "-1"], "must be >= 0"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "truncate",
      "--horizon", "-1"], "must be >= 0"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "sample",
      "--horizon", "3", "--n", "0"], "must be >= 1"),
    (["expand", "{g}", "--depth", "two"], "not a whole number"),
    (["check", "{g}", "--formula", "!" * 3000 + "V2"], "nesting deeper than"),
    (["check", "{g}", "--formula", "F[>=1/0] V2"], "bad formula"),
    (["check", "{g}", "--formula", "X[>0] !(V1 U[>1/2] V2)", "--qualitative"],
     "threshold"),
    # every --n below 1 gets the bound the README states
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "sample",
      "--horizon", "3", "--n", "-5"], "argument --n: must be >= 1"),
    (["prob", "{g}", "--phi2", ",", "--from", "v0"], "empty colour expression"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--eps", "abc"],
     "error: unrecognized arguments: --eps abc"),
    (["check", "{g}", "--formula", "F[>=1/2( V2"], "expected ']'"),
    # an unknown option is reported by the subcommand it follows
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--no-such-option"],
     "error: unrecognized arguments: --no-such-option"),
    (["check", "{g}", "--formula", "F[>0] V2", "--eps", "1/10"],
     "error: unrecognized arguments: --eps 1/10"),
    # an option the method never reads is refused, not ignored
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "truncate",
      "--horizon", "3", "--emit-system"], "--emit-system does not apply to --method truncate"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--method", "sample",
      "--horizon", "3", "--emit-system"], "--emit-system does not apply to --method sample"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--horizon", "3"],
     "--horizon does not apply to --method enclosure"),
    (["prob", "{g}", "--phi2", "V2", "--from", "v0", "--depth", "0"],
     "--depth does not apply to --method enclosure"),
])
def test_usage_errors_exit_3(corpus_dir, argv, needle):
    argv = [a.format(g=gg(corpus_dir, "running.gg")) for a in argv]
    code, out, err = run(argv)
    assert code == 3
    assert needle in err
    # errors the commands raise name their subcommand, as argparse's do
    prog = "pregma" if argv[0] == "frobnicate" else f"pregma {argv[0]}"
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.splitlines()[-1].startswith(f"{prog}: error: ")


def test_unknown_colours_line_is_sorted(corpus_dir):
    # the grammar's colours print sorted, not in the hash-salted set order
    code, _, err = run(["prob", gg(corpus_dir, "running.gg"), "--phi2", "nope",
                        "--from", "v0"])
    assert code == 3
    assert err.splitlines()[-1] == (
        "pregma prob: error: unknown colours ['nope']; grammar has ['V1', 'V2', 'sink']")


# every subcommand with the arguments it requires; {path} is the bad file
READERS = [
    ["validate", "{path}"],
    ["expand", "{path}", "--depth", "2"],
    ["prob", "{path}", "--phi2", "V2", "--from", "v0"],
    ["check", "{path}", "--formula", "V2"],
    ["from-pds", "{path}"],
    ["gen-pcp", "{path}"],
]
WRITERS = [
    ["expand", "{corpus}/running.gg", "--depth", "2", "-o", "{path}"],
    ["from-pds", "{corpus}/pds_example.pds", "-o", "{path}"],
    ["gen-pcp", "{corpus}/pcp_s1.pcp", "-o", "{path}"],
]
CONTRACT_CASES = (
    [(argv, kind) for argv in READERS
     for kind in ("missing", "directory", "non-utf8", "empty")]
    + [(argv, kind) for argv in WRITERS for kind in ("missing-dir", "directory")]
)


@pytest.mark.parametrize(
    "argv, kind", CONTRACT_CASES,
    ids=[f"{argv[0]}{'-o' if '-o' in argv else ''}-{kind}"
         for argv, kind in CONTRACT_CASES])
def test_bad_files_give_one_diagnostic_and_exit_1(corpus_dir, tmp_path, argv, kind):
    path = tmp_path / "bad"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"pair 1 \xff\xfe\n")
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "missing-dir":
        path = path / "out.gg"
    code, out, err = run([a.format(path=path, corpus=corpus_dir) for a in argv])
    if "-o" in argv:
        prefix = f"cannot write {path}: "
    else:
        prefix = f"{path}: " if kind == "empty" else f"cannot read {path}: "
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(prefix)
    assert "Traceback" not in err


ALLOCATION = ("Unable to allocate 7.28 TiB for an array with shape "
              "(1000000000000,) and data type int64")


@pytest.mark.parametrize("exc, line", [
    (MemoryError(ALLOCATION), f"out of memory: {ALLOCATION}"),
    (MemoryError(), "out of memory")], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_1_with_one_line(corpus_dir, monkeypatch,
                                                     exc, line):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr("pregma.oracle.sample_until", exhausted)
    code, out, err = run(["prob", gg(corpus_dir, "running.gg"), "--phi1", "V1",
                          "--phi2", "V2", "--from", "v0", "--method", "sample",
                          "--horizon", "6", "--n", "1000000000000"])
    assert (code, out, err) == (1, "", line + "\n")


def test_check_at_is_validated_before_labelling(corpus_dir, monkeypatch):
    def no_labelling(*args, **kwargs):
        raise AssertionError("labelled before --at was checked")

    monkeypatch.setattr("pregma.cli.label_formula", no_labelling)
    code, out, err = run(["check", gg(corpus_dir, "running.gg"),
                          "--formula", "V1 U[>=1/4] V2", "--at", "zz"])
    assert code == 3 and out == ""
    assert "not an axiom-rule vertex" in err


def test_expand_text(corpus_dir, running):
    code, out, _ = run([
        "expand", gg(corpus_dir, "running.gg"), "--depth", "2"])
    assert code == 0
    e = expand(running, 2)
    head = out.splitlines()[0]
    assert head == (
        f"vertices={len(e.graph.vertices)} arcs={len(list(e.graph.arcs()))} "
        f"hyperarcs={len(e.graph.hyperarcs)} frontier={len(e.frontier)}"
    )
    assert sum(1 for line in out.splitlines() if line.endswith(" frontier")) \
        == len(e.frontier)


def test_expand_json_lines(corpus_dir, running):
    code, out, _ = run([
        "expand", gg(corpus_dir, "running.gg"), "--depth", "2",
        "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    vertices = {r["id"] for r in records if r["kind"] == "vertex"}
    assert len(vertices) == len(expand(running, 2).graph.vertices)
    for r in records:
        if r["kind"] == "arc":
            assert r["source"] in vertices and r["target"] in vertices
        if r["kind"] == "hyperarc":
            assert set(r["vertices"]) <= vertices


# names that JSON must escape: quotes, backslashes, non-ASCII letters
ODD_NAMES = r"""nonterminal Z 0
nonterminal Wé"\ 1
terminal a"b 2
terminal d\x 2
colour gré"n
colour V\2
absorbing gré"n
axiom Z
prob a"b 1/2
prob d\x 1/2
rule Z
  vertex v\0 w"1 é
  colour gré"n w"1
  colour V\2 é
  colour gré"n é
  arc d\x v\0 w"1
  arc a"b v\0 é
  hyperarc Wé"\ é
rule Wé"\ inputs s
  vertex t ü
  colour V\2 t
  colour gré"n ü
  arc a"b s t
  arc d\x s ü
  hyperarc Wé"\ t
"""


def test_expand_json_lines_are_sorted_key_dumps(corpus_dir, tmp_path):
    odd = tmp_path / "odd.gg"
    odd.write_text(ODD_NAMES, encoding="utf-8")
    for path, depth in [(gg(corpus_dir, "running.gg"), 5), (str(odd), 4)]:
        code, out, _ = run([
            "expand", path, "--depth", str(depth), "--format", "json-lines"])
        assert code == 0
        assert out.splitlines() == expand_rendering(load_grammar(path), depth,
                                                    "json-lines")
    for escaped in ('\\u00e9', '\\"', '\\\\'):
        assert escaped in out


def corpus_grammar_files(corpus_dir, tmp_path):
    """Every corpus grammar: the .gg files, and each .pds and .pcp input
    converted by `from-pds` and `gen-pcp`, whose stdout and -o file must
    both be the serialised grammar."""
    paths = sorted(corpus_dir.glob("*.gg"))
    for pattern, command in (("*.pds", "from-pds"), ("*.pcp", "gen-pcp")):
        for source in sorted(corpus_dir.glob(pattern)):
            if command == "from-pds":
                expected = serialize_grammar(to_grammar(load_pds(source)))
            else:
                g, formula = encode(load_pcp(source))
                expected = (serialize_grammar(g)
                            + f"\n# matching forks satisfy: {formula}\n")
            path = tmp_path / f"{source.stem}.gg"
            assert run([command, str(source)]) == (0, expected, "")
            assert run([command, str(source), "-o", str(path)]) == (0, "", "")
            assert path.read_bytes() == expected.encode()
            paths.append(path)
    return paths


@pytest.mark.parametrize("fmt", ["text", "json-lines", "dot"])
def test_expand_streams_the_joined_rendering(corpus_dir, tmp_path, monkeypatch,
                                             branching_walk, fmt):
    # three lines a chunk put chunk boundaries all through every output
    monkeypatch.setattr(cli, "_CHUNK_LINES", 3)
    out_path = tmp_path / "out"
    walk = tmp_path / "walk.gg"
    walk.write_text(serialize_grammar(branching_walk))
    cases = [(path, range(6)) for path in corpus_grammar_files(corpus_dir, tmp_path)]
    for path, depths in cases + [(walk, [8])]:
        g = load_grammar(path)
        first = g.axiom_rule().rhs.vertices[0]
        for depth in depths:
            for component in (None, first):
                argv = ["expand", str(path), "--depth", str(depth),
                        "--format", fmt]
                if component is not None:
                    argv += ["--component", first]
                expected = "\n".join(expand_rendering(g, depth, fmt, component)) + "\n"
                assert run(argv) == (0, expected, ""), argv
                assert run(argv + ["-o", str(out_path)]) == (0, "", ""), argv
                assert out_path.read_bytes() == expected.encode(), argv


@pytest.mark.parametrize("lines", [
    [], [""], ["a"], ["a", "b", "c"], ["a", "b", "c", "d"],
    ["a", "b", "c", "d", "e", "f"], ["a", "b", "c\n"], ["a", "b", "c", "d\n"],
    ["a", "b", "c", ""], ["a", "b", "c", "", ""], ["a\n", "b"], ["é", "ü\n"],
], ids=lambda lines: repr(lines))
def test_write_out_chunks_give_the_joined_text(lines, tmp_path, capsys,
                                               monkeypatch):
    """Lines joined by newlines, with one newline added unless the text
    already ends in one: 0 lines, one chunk exactly, one chunk plus a line,
    and lines that bring their own newline across a chunk boundary."""
    monkeypatch.setattr(cli, "_CHUNK_LINES", 3)
    text = "\n".join(lines)
    expected = text if text.endswith("\n") else text + "\n"
    cli._write_out(iter(lines), None)
    assert capsys.readouterr().out == expected
    path = tmp_path / "out"
    cli._write_out(iter(lines), str(path))
    assert path.read_bytes() == expected.encode()


def test_expand_output_of_no_lines_or_one_chunk(corpus_dir, tmp_path,
                                                monkeypatch):
    empty = tmp_path / "empty.gg"
    empty.write_text("nonterminal Z 0\naxiom Z\n\nrule Z\n")
    assert run(["expand", str(empty), "--depth", "0", "--format",
                "json-lines"]) == (0, "\n", "")
    argv = ["expand", gg(corpus_dir, "running.gg"), "--depth", "3"]
    code, whole, _ = run(argv)
    n = len(whole.splitlines())
    for chunk in (n, n - 1, 1):  # one chunk, one chunk plus a line, per line
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
        assert run(argv) == (0, whole, "")


def test_expand_memory_is_the_expansions_not_its_texts(branching_walk,
                                                       tmp_path):
    """Writing a depth-12 walk's json-lines adds less than a quarter of the
    written file to the peak that `expand` itself reaches (0.15 of it on
    Python 3.11): the text is written as it is rendered, a chunk of lines
    at a time, never held whole."""
    path, out = tmp_path / "walk.gg", tmp_path / "walk.jsonl"
    path.write_text(serialize_grammar(branching_walk))
    argv = ["expand", str(path), "--depth", "12", "--format", "json-lines",
            "-o", str(out)]
    assert main(argv[:3] + ["1"] + argv[4:]) == 0  # build the parser first

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    expand_peak = peak(lambda: expand(branching_walk, 12))
    cli_peak = peak(lambda: main(argv))
    assert cli_peak - expand_peak < 0.25 * out.stat().st_size


def test_expand_dot_and_component(corpus_dir):
    code, out, _ = run([
        "expand", gg(corpus_dir, "running.gg"), "--depth", "2",
        "--format", "dot"])
    assert code == 0 and out.startswith("digraph")

    code, out, _ = run([
        "expand", gg(corpus_dir, "running.gg"), "--depth", "3",
        "--component", "v0"])
    assert code == 0
    assert out.splitlines()[0].endswith("hyperarcs=1 frontier=2")

    code, _, err = run([
        "expand", gg(corpus_dir, "running.gg"), "--depth", "3",
        "--component", "zz"])
    assert code == 3 and "not an axiom-rule vertex" in err


# structurally invalid grammars, each with its validate_grammar issues
INVALID = {
    "duplicate-rule": (
        "nonterminal Z 0\nnonterminal A 1\nterminal a 2\n{prob}axiom Z\n\n"
        "rule Z\n  arc a v v\n  hyperarc A v\n\n"
        "rule A inputs x\n  vertex y\n  arc a y y\n\n"
        "rule Z\n  vertex w\n\nrule A inputs x\n",
        ["duplicate-rule: second rule for Z", "duplicate-rule: second rule for A"]),
    "undeclared-arc-label": (
        "nonterminal Z 0\nterminal a 2\n{prob}axiom Z\n\n"
        "rule Z\n  arc a v w\n  arc b w v\n  arc c w w\n",
        ["arc-label: rule Z: b is not an arity-2 terminal",
         "arc-label: rule Z: c is not an arity-2 terminal"]),
    # x lies on one hyperarc in each of two rules for Z: shared by neither
    "duplicate-rule-hyperarcs": (
        "nonterminal Z 0\nnonterminal A 1\nterminal a 2\n{prob}axiom Z\n\n"
        + "rule Z\n  vertex x\n  hyperarc A x\n\n" * 2
        + "rule A inputs y\n  arc a y y\n",
        ["duplicate-rule: second rule for Z"]),
    # x twice on one hyperarc still lies on one hyperarc
    "hyperarc-repeat": (
        "nonterminal Z 0\nnonterminal A 2\nterminal a 2\n{prob}axiom Z\n\n"
        "rule Z\n  vertex x\n  hyperarc A x x\n\nrule A inputs y w\n  arc a y w\n",
        ["hyperarc-repeat: rule Z: hyperarc A repeats a vertex"]),
    "undeclared-arc-label-coloured": (
        "nonterminal Z 0\ncolour g\nterminal a 2\n{prob}axiom Z\n\n"
        "rule Z\n  vertex x\n  arc a x x\n  arc b x x\n",
        ["arc-label: rule Z: b is not an arity-2 terminal"]),
    "axiom-without-rule": (
        "nonterminal Z 0\nnonterminal A 1\nterminal a 2\n{prob}axiom Z\n\n"
        "rule A inputs x\n  arc b x x\n",
        ["missing-rule: nonterminal Z has no rule",
         "arc-label: rule A: b is not an arity-2 terminal"]),
}
INVALID_CASES = [(name, prob) for name in INVALID for prob in ("", "prob a 1\n")]


@pytest.mark.parametrize(
    "name, prob", INVALID_CASES,
    ids=[f"{name}-{'prob' if prob else 'plain'}" for name, prob in INVALID_CASES])
def test_structural_issues_stop_validate_and_expand(tmp_path, name, prob):
    text, issues = INVALID[name]
    path = tmp_path / "bad.gg"
    path.write_text(text.format(prob=prob))
    assert [str(i) for i in validate_grammar(load_grammar(path))] == issues
    # validate: one stderr line per issue, with or without prob lines
    code, out, err = run(["validate", str(path)])
    assert (code, out) == (1, "")
    assert err.splitlines() == issues
    # expand, and prob and check from a vertex name the axiom rule lacks,
    # with or without prob lines: each refuses with one diagnostic line,
    # the structure judged first
    joined = "; ".join(issues)
    for argv in [["expand", str(path), "--depth", "2"],
                 ["expand", str(path), "--depth", "1", "--component", "y"],
                 ["prob", str(path), "--phi2", "tt", "--from", "y"],
                 ["check", str(path), "--formula", "F[>0] g", "--at", "y"]]:
        code, out, err = run(argv)
        assert (code, out, err) == (1, "", joined + "\n"), argv


@pytest.mark.parametrize("name, start", [("undeclared-arc-label", "v"),
                                         ("undeclared-arc-label-coloured", "x")])
def test_prob_judges_the_structure_before_the_colours(tmp_path, name, start):
    text, issues = INVALID[name]
    path = tmp_path / "bad.gg"
    path.write_text(text.format(prob="prob a 1\n"))
    for colours in (["--phi2", "nope"], ["--phi1", "nope", "--phi2", "tt"]):
        code, out, err = run(["prob", str(path), *colours, "--from", start])
        assert (code, out, err) == (1, "", "; ".join(issues) + "\n"), colours
    # an empty expression names no colour: it is refused before the structure
    code, _, err = run(["prob", str(path), "--phi2", " , ", "--from", start])
    assert code == 3 and "empty colour expression" in err


def test_validate_runs_the_structural_check_once(corpus_dir, tmp_path, monkeypatch):
    # phr_check's refusal holds the issues that validate lists
    from cli_sweep import DEFECTS

    real, calls = model.validate_grammar, []
    monkeypatch.setattr(model, "validate_grammar", lambda g: calls.append(g) or real(g))
    bad = tmp_path / "structure.gg"
    bad.write_text(next(text for name, text, _, _ in DEFECTS if name == "structure"))
    issues = [str(i) for i in real(load_grammar(bad))]
    assert len(issues) == 3
    shared = ["rule Z: vertex r lies on 2 hyperarcs"]
    for path, want in [(bad, (1, "", issues + shared)),
                       (corpus_dir / "running.gg", (0, "", []))]:
        calls.clear()
        code, out, err = run(["validate", str(path)])
        assert (code, out, err.splitlines()) == want
        assert len(calls) == 1, path


def test_validate_without_probabilities_tests_no_mass(corpus_dir, tmp_path,
                                                       monkeypatch):
    # a grammar without prob lines is judged by its structure and by single
    # membership alone: the walk behind the mass test never runs
    path = tmp_path / "pds_example.gg"
    path.write_text(serialize_grammar(to_grammar(load_pds(corpus_dir / "pds_example.pds"))))
    assert not load_grammar(path).mu

    def walk(*args):
        raise AssertionError("validate walked the passings")

    monkeypatch.setattr(validation, "_walk", walk)
    assert run(["validate", str(path)]) == (0, "", "")


def test_a_closed_stdout_ends_the_command_with_0(corpus_dir, monkeypatch):
    # a reader that went away (`pregma ... | head`) is no failure; unpiped,
    # this check prints an unknown verdict and exits 2
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["check", gg(corpus_dir, "updrift.gg"), "--formula", "F[>=1/4] green",
                 "--at", "m0"]) == 0


def test_from_pds_round_trips(corpus_dir, tmp_path):
    out_path = tmp_path / "converted.gg"
    code, out, err = run([
        "from-pds", gg(corpus_dir, "pds_example_prob.pds"),
        "-o", str(out_path)])
    assert (code, err) == (0, "")
    g = load_grammar(out_path)
    assert g.nonterminals == {"Z": 0, "X": 4}
    assert validate_grammar(g) == []
    assert g.absorbing == {"halt"}


def test_from_pds_renames_nonterminals_that_clash_with_labels(tmp_path):
    pds = tmp_path / "clash.pds"
    pds.write_text("stack A\nstate p q\nprob X 1\nprob Z 1\n"
                   "absorb-sinks halt\nrule p X Aq\nrule Aq Z p\n")
    out_path = tmp_path / "clash.gg"
    assert run(["from-pds", str(pds), "-o", str(out_path)]) == (0, "", "")
    g = load_grammar(out_path)
    assert g.axiom == "_Z"
    assert g.nonterminals == {"_Z": 0, "_X": 2}
    assert set(g.mu) == {"X", "Z"}
    assert validate_grammar(g) == []


def test_from_pds_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.pds"
    bad.write_text("wibble\n")
    code, out, err = run(["from-pds", str(bad)])
    assert code == 1 and "unknown keyword" in err


def test_gen_pcp(corpus_dir, tmp_path):
    out_path = tmp_path / "gadget.gg"
    code, out, err = run([
        "gen-pcp", gg(corpus_dir, "pcp_s1.pcp"), "-o", str(out_path)])
    assert (code, err) == (0, "")
    text = out_path.read_text()
    assert text.rstrip().endswith(
        "# matching forks satisfy: "
        "s & ((tt U[>=1/2] green) & (tt U[<=1/2] green))")
    g = load_grammar(out_path)
    assert set(g.nonterminals) == {"Z", "New1"}
    assert validate_grammar(g) == []


def test_validate_lists_shared_vertices_of_two_tile_gadget(corpus_dir, tmp_path):
    gadget = tmp_path / "gadget.gg"
    assert run(["gen-pcp", gg(corpus_dir, "pcp_s2.pcp"), "-o", str(gadget)])[0] == 0
    code, out, err = run(["validate", str(gadget)])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"rule {rule}: vertex {v} lies on 2 hyperarcs"
        for rule, v in [("Z", "vgate"), ("Z", "ugate"), ("New1", "v1"),
                        ("New1", "u1"), ("New2", "v1"), ("New2", "u1")]]


def test_prob_refuses_two_tile_gadget(corpus_dir, tmp_path):
    # two tiles put the gadget's vgate on two hyperarcs: a diagnostic, no traceback
    gadget = tmp_path / "gadget.gg"
    assert run(["gen-pcp", gg(corpus_dir, "pcp_s2.pcp"), "-o", str(gadget)])[0] == 0
    code, out, err = run(["prob", str(gadget), "--phi2", "green", "--from", "vgate"])
    assert (code, out) == (1, "")
    # shared vertices stop the check before any class is looked at
    assert err.splitlines()[0] == \
        "phr_check: FAILED (6 shared vertices; classes not checked)"
    assert "rule Z: vertex vgate lies on 2 hyperarcs" in err


def test_version():
    code, out, _ = run(["--version"])
    assert code == 0 and out.startswith("pregma ")


def test_repeated_calls_share_no_state(corpus_dir):
    running = gg(corpus_dir, "running.gg")
    sample = ["prob", running, "--phi2", "V2", "--from", "v0",
              "--method", "sample", "--horizon", "40", "--n", "200"]
    enclosure = ["prob", running, "--phi2", "V2", "--from", "v0"]
    _build_parser.cache_clear()
    sample_alone, enclosure_alone = run(sample), run(enclosure)
    assert sample_alone[0] == 0 and "(seed 0)" in sample_alone[1]

    # no default leaks from one call into the next
    seeded = run(sample + ["--seed", "5"])
    assert seeded[0] == 0 and "(seed 5)" in seeded[1]
    assert run(sample) == sample_alone

    # a usage error, raised by argparse or by the command, leaves nothing behind
    for bad in (["prob", running, "--phi2", "V2", "--from", "v0",
                 "--format", "json-lines", "--n", "0"],
                ["prob", running, "--phi2", "nope", "--from", "v0",
                 "--format", "json-lines"]):
        assert run(bad)[0] == 3
        assert run(enclosure) == enclosure_alone

    for argv in (["--help"], ["prob", "--help"], ["--version"]):
        once = run(argv)
        assert once[0] == 0 and once[1]
        assert run(argv) == once
    assert _build_parser() is _build_parser()


def test_shell_entry_point_matches_in_process(corpus_dir):
    src = os.path.dirname(os.path.dirname(pregma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv in (["--version"],
                 ["prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0"]):
        proc = subprocess.run([sys.executable, "-m", "pregma.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run(argv)[1]


def test_importing_a_front_end_module_loads_no_engine():
    src = os.path.dirname(os.path.dirname(pregma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    engines = ("numpy", "pregma.polysys", "pregma.oracle", "pregma.quantitative",
               "pregma.qualitative", "pregma.labeling")
    for module in ("pregma.model", "pregma.gio", "pregma.formulas",
                   "pregma.validation", "pregma.pcp", "pregma.pushdown"):
        code = (f"import sys, {module}, pregma\n"
                f"print(pregma.__version__, [m for m in {engines!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{pregma.__version__} []\n", module


def test_only_sampling_loads_numpy(corpus_dir, tmp_path):
    # numpy serves the sampler alone: the CLI and every engine run without it
    src = os.path.dirname(os.path.dirname(pregma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    running = gg(corpus_dir, "running.gg")
    prob = ["prob", running, "--phi1", "V1", "--phi2", "V2", "--from", "v0"]
    runs = [
        ["validate", running],
        ["expand", running, "--depth", "3"],
        prob,
        prob + ["--method", "truncate", "--depth", "8", "--horizon", "6"],
        ["check", running, "--formula", "V1 U[>=1/4] V2"],
        ["from-pds", gg(corpus_dir, "pds_example_prob.pds"), "-o", str(tmp_path / "pds.gg")],
        ["gen-pcp", gg(corpus_dir, "pcp_s1.pcp"), "-o", str(tmp_path / "pcp.gg")],
        prob + ["--method", "sample", "--depth", "8", "--horizon", "6", "--n", "200"],
    ]
    code = ("import contextlib, io, sys\n"
            "import pregma.cli\n"
            "print('import', 'numpy' in sys.modules)\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = pregma.cli.main(argv)\n"
            "    print(code, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import False", *["0 False"] * 4, "1 False", *["0 False"] * 2, "0 True"]


def test_each_command_loads_only_the_modules_it_runs(corpus_dir, tmp_path):
    # the engines load with pregma.cli; the oracle, the PCP encoder, the
    # pushdown converter and numpy load in the one command that runs each;
    # the records are NamedTuples or slotted classes, so neither the import
    # nor any command loads dataclasses (numpy loads inspect, so that one is
    # not listed)
    src = os.path.dirname(os.path.dirname(pregma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    running = gg(corpus_dir, "running.gg")
    prob = ["prob", running, "--phi1", "V1", "--phi2", "V2", "--from", "v0"]
    runs = [
        ["validate", running],
        ["expand", running, "--depth", "3"],
        prob,
        ["check", running, "--formula", "V1 U[>=1/4] V2"],
        prob + ["--method", "truncate", "--depth", "8", "--horizon", "6"],
        ["from-pds", gg(corpus_dir, "pds_example_prob.pds"), "-o", str(tmp_path / "pds.gg")],
        ["gen-pcp", gg(corpus_dir, "pcp_s1.pcp"), "-o", str(tmp_path / "pcp.gg")],
    ]
    lazy = ("pregma.oracle", "pregma.pcp", "pregma.pushdown", "numpy", "dataclasses")
    code = ("import contextlib, io, sys\n"
            f"lazy = {lazy!r}\n"
            "def loaded():\n"
            "    return [m for m in lazy if m in sys.modules]\n"
            "import pregma.cli\n"
            "print('import', loaded())\n"
            f"for argv in {runs!r}:\n"
            "    before = loaded()\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = pregma.cli.main(argv)\n"
            "    print(argv[0], code, [m for m in loaded() if m not in before])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import []", "validate 0 []", "expand 0 []", "prob 0 []", "check 1 []",
        "prob 0 ['pregma.oracle']", "from-pds 0 ['pregma.pushdown']",
        "gen-pcp 0 ['pregma.pcp']"]


def test_the_largest_commands_leave_no_reference_cycle(corpus_dir, tmp_path,
                                                       branching_walk):
    # main pauses the cyclic collector because the tables a command builds
    # hold no cycle, so refcounting frees them all: with the collector
    # paused, a collection after each command finds nothing. numpy's first
    # import and argparse's formatters, made once while the one parser is
    # built, leave cycles of their own, so both come first
    import numpy  # noqa: F401

    _build_parser()

    walk = tmp_path / "walk.gg"
    walk.write_text(serialize_grammar(branching_walk))
    head = ["prob", str(walk), "--phi2", "green", "--from", "m0", "--horizon", "8",
            "--depth", "10"]
    calls = [head + ["--method", "truncate"], head + ["--method", "sample", "--n", "500"],
             ["expand", str(walk), "--depth", "10", "--format", "json-lines",
              "-o", str(tmp_path / "walk.jsonl")]]
    for name, phi1, phi2, start in [("running.gg", "V1", "V2", "v0"),
                                    ("dag.gg", "tt", "goal", "v0"),
                                    ("updrift.gg", "tt", "green", "m0"),
                                    ("critical.gg", "tt", "green", "m0")]:
        path = gg(corpus_dir, name)
        calls += [["prob", path, "--phi1", phi1, "--phi2", phi2, "--from", start],
                  ["check", path, "--formula", f"{phi1} U[>=1/2] {phi2}", "--at", start],
                  ["check", path, "--formula", f"F[>0] {phi2}", "--emit-coloured"]]
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            code, _, err = run(argv)
            assert code in (0, 1, 2) and not err, argv
            assert gc.collect() == 0, argv
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(corpus_dir, monkeypatch, collecting):
    """And the limit on turning ints into text, which main lifts as it
    pauses the collector: a caller's str(10**5000) still fails after it."""
    limits = hasattr(sys, "set_int_max_str_digits")  # from Python 3.10.7
    limit = 4300 if collecting else 640  # the default and the least allowed
    seen = []

    def watched(*args):
        seen.append((gc.isenabled(), limits and sys.get_int_max_str_digits()))
        return real_truncate(*args)

    def left_alone():
        return gc.isenabled() is collecting and (
            not limits or sys.get_int_max_str_digits() == limit)

    def raising(*args):
        raise RuntimeError("a command that raises")

    real_truncate = oracle.truncate
    prob = ["prob", gg(corpus_dir, "running.gg"), "--phi2", "V2", "--from", "v0"]
    truncating = prob + ["--method", "truncate", "--horizon", "3"]
    found = gc.isenabled()
    found_limit = limits and sys.get_int_max_str_digits()
    (gc.enable if collecting else gc.disable)()
    if limits:
        sys.set_int_max_str_digits(limit)
    try:
        monkeypatch.setattr(oracle, "truncate", watched)
        assert run(truncating)[:2] == (0, "bounded=1/8\ndecimal 0.125000000000 (horizon 3)\n")
        assert seen == [(False, limits and 0)] and left_alone()
        if limits:
            with pytest.raises(ValueError, match="limit"):
                str(10**5000)
        for usage_error in (prob + ["--n", "0"], prob + ["--no-such-option"],
                            ["check", prob[1], "--formula", "F[>0"]):
            assert run(usage_error)[0] == 3
            assert left_alone()
        monkeypatch.setattr(oracle, "truncate", raising)
        with pytest.raises(RuntimeError, match="a command that raises"):
            run(truncating)
        assert left_alone()
    finally:
        (gc.enable if found else gc.disable)()
        if limits:
            sys.set_int_max_str_digits(found_limit)
