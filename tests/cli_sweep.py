"""Byte-identity sweep of the command line.

Runs a fixed list of `pregma` calls in-process, through `pregma.cli.main`,
on the corpus grammars, on the grammars `from-pds` and `gen-pcp` make of
the corpus's `.pds` and `.pcp` files, and on a fixed set of defective
grammars (the refusal paths), and prints one line per call: its
argv, its exit code and a sha256 of its stdout, its stderr and its `-o`
file. Two checkouts that print the same lines answer every call with the
same bytes. The sweep exits 1 when a call's exit code lies outside 0-3 or
an exception escapes `main`, and 0 otherwise.

    python3 tests/cli_sweep.py > sweep.txt

`pregma` is imported from the `src/` next to this directory. The calls run
in a temporary directory holding a copy of `corpus/`, so every path in the
output, and in the messages the calls print, is relative. pytest does not
collect this file; `test_cli_sweep.py` runs its `sweep` as a test.
"""
from __future__ import annotations

import hashlib
import io
import os
import shutil
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pregma.cli import main  # noqa: E402

OUT = "out.txt"  # the -o file of the expand calls that write one

PDS = ["pds_example", "pds_example_prob"]
PCP = ["pcp_s1", "pcp_s2", "pcp_s3", "pcp_u1", "pcp_u2", "pcp_u3"]
# defective grammars: name, text, the axiom vertex the queries start
# from and the colour they aim at; each is refused somewhere
_HEAD = ("nonterminal Z 0\nnonterminal C 1\nterminal a 2\ncolour stop\n"
         "prob a 1\nabsorbing stop\naxiom Z\n")
DEFECTS = [
    # phr_check: an out-arc gained on every round of a loop
    ("forever", _HEAD + "rule Z\n  vertex r\n  hyperarc C r\n"
     "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n  hyperarc C x\n",
     "r", "stop"),
    # phr_check: s has no out-arc and stop is not absorbing
    ("sink", "nonterminal Z 0\nterminal a 2\ncolour stop\nprob a 1\naxiom Z\n"
     "rule Z\n  vertex r s\n  arc a r s\n  colour stop s\n", "r", "stop"),
    # phr_check: s's b loop has no probability
    ("unpriced", "nonterminal Z 0\nterminal a 2\nterminal b 2\ncolour stop\nprob a 1\n"
     "axiom Z\nrule Z\n  vertex r s\n  arc a r s\n  arc b s s\n  colour stop s\n",
     "r", "stop"),
    # phr_check: r's mass is 1/2 and C's y's is 3/2
    ("total", _HEAD.replace("prob a 1\n", "prob a 1/2\n") + "rule Z\n  vertex r\n"
     "  hyperarc C r\nrule C inputs x\n  vertex y z\n  arc a x z\n  arc a y z\n"
     "  arc a y y\n  arc a y z\n  colour stop z\n", "r", "stop"),
    # analyse: arcs into r gained on every round of a loop
    ("incoming", _HEAD + "rule Z\n  vertex r\n  colour stop r\n  hyperarc C r\n"
     "rule C inputs x\n  vertex y\n  arc a y x\n  hyperarc C x\n", "r", "stop"),
    # analyse: C's input gains its out-arc after it is passed on to D
    ("passed-on", _HEAD.replace("nonterminal C 1\n", "nonterminal C 1\nnonterminal D 1\n")
     + "rule Z\n  vertex r\n  hyperarc C r\nrule C inputs x\n  hyperarc D x\n"
     "rule D inputs w\n  vertex z\n  arc a w z\n  colour stop z\n", "r", "stop"),
    # single membership: r lies on two C hyperarcs
    ("shared", _HEAD + "rule Z\n  vertex r s\n  hyperarc C r\n  hyperarc C r\n"
     "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n", "r", "stop"),
    # the structural check: an undeclared arc label, a missing rule and a
    # hyperarc of the wrong arity
    ("structure", _HEAD.replace("nonterminal C 1\n", "nonterminal C 1\nnonterminal D 2\n")
     + "rule Z\n  vertex r\n  arc q r r\n  hyperarc C r\n  hyperarc D r\n"
     "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n", "r", "stop"),
    # no prob lines
    ("plain", _HEAD.replace("prob a 1\n", "") + "rule Z\n  vertex r\n  hyperarc C r\n"
     "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n", "r", "stop"),
    # the deep defect of the tests' conftest: A's y gets a go loop from A and
    # another from B, below v0's horizon-2 cone
    ("deep", "nonterminal Z 0\nnonterminal A 1\nnonterminal B 1\nterminal go 2\n"
     "terminal bad 2\nterminal green 1\nprob go 1\nprob bad 1/2\nabsorbing green\n"
     "axiom Z\nrule Z\n  vertex v0 goal u\n  arc go v0 goal\n  colour green goal\n"
     "  arc go u u\n  hyperarc A u\nrule A inputs x\n  vertex y\n  arc go y y\n"
     "  hyperarc B y\nrule B inputs x\n  vertex w\n  arc bad w w\n  arc go x x\n",
     "v0", "green"),
    # the labeller: the atom stop is both a colour and an axiom-rule vertex
    ("clash", "nonterminal Z 0\nterminal a 2\ncolour stop\nprob a 1\nabsorbing stop\n"
     "axiom Z\nrule Z\n  vertex r stop\n  arc a r stop\n  colour stop stop\n", "r", "stop"),
]
# grammar, axiom vertices the queries start from, colours the formulas use
GRAMMARS = [
    ("corpus/running.gg", ["v0", "t0"], ["V1", "V2", "sink"]),
    ("corpus/critical.gg", ["base", "m0"], ["green"]),
    ("corpus/dag.gg", ["v0"], ["goal"]),
    ("corpus/updrift.gg", ["base", "m0"], ["green"]),
    ("gen/pds_example.gg", ["r", "Ap"], []),
    ("gen/pds_example_prob.gg", ["r", "r'", "p"], ["halt"]),
    *((f"gen/{name}.gg", ["vgate", "ugate", "goal"], ["green", "red"]) for name in PCP),
]


def _formulas(colours: list[str]) -> list[str]:
    """F, X, U, ! and & over the grammar's colours, at thresholds from 0 to 1."""
    if not colours:
        return ["tt", "F[>0] tt"]
    a, b = colours[0], colours[-1]
    return [f"F[>0] {b}", f"F[>=1/4] {b}", f"F[>=1] {b}", f"F[<1] {b}",
            f"X[>0] {a}", f"X[>=1/2] {b}", f"{a} U[>=1/4] {b}", f"tt U[>0] {b}",
            f"!{a}", f"{a} & !{b}", f"!({a} U[>=1/2] {b})", f"X[>0] F[>0] {b}"]


def _calls() -> list[list[str]]:
    calls = [["--version"], ["validate", "corpus/missing.gg"]]
    for name in PDS:
        calls.append(["from-pds", f"corpus/{name}.pds", "-o", f"gen/{name}.gg"])
    for name in PCP:
        calls.append(["gen-pcp", f"corpus/{name}.pcp", "-o", f"gen/{name}.gg"])
    calls += [["from-pds", f"corpus/{PDS[0]}.pds"], ["gen-pcp", f"corpus/{PCP[0]}.pcp"]]
    for path, starts, colours in GRAMMARS:
        calls.append(["validate", path])
        for depth in range(7):
            for fmt in ("text", "dot", "json-lines"):
                calls.append(["expand", path, "--depth", str(depth), "--format", fmt])
                calls.append(["expand", path, "--depth", str(depth), "--format", fmt,
                              "--component", starts[-1]])
        for fmt in ("text", "dot", "json-lines"):
            calls.append(["expand", path, "--depth", "5", "--format", fmt, "-o", OUT])
        goals = colours or ["tt"]
        for start in starts:
            for goal in goals:
                for phi1 in ([], ["--phi1", goals[0]]):
                    prob = ["prob", path, *phi1, "--phi2", goal, "--from", start]
                    calls += [prob, [*prob, "--format", "json-lines"],
                              [*prob, "--emit-system"],
                              [*prob, "--emit-system", "--format", "json-lines"]]
                    for horizon in range(7):
                        calls.append([*prob, "--method", "truncate", "--horizon", str(horizon)])
                    calls += [
                        [*prob, "--method", "truncate", "--horizon", "5", "--depth", "3"],
                        [*prob, "--method", "truncate", "--horizon", "4",
                         "--format", "json-lines"],
                        [*prob, "--method", "sample", "--horizon", "6", "--n", "300",
                         "--seed", "7"],
                        [*prob, "--method", "sample", "--horizon", "4", "--depth", "2",
                         "--n", "100", "--format", "json-lines"]]
        for formula in _formulas(colours):
            check = ["check", path, "--formula", formula]
            calls += [check, [*check, "--at", starts[0]],
                      [*check, "--at", starts[-1], "--format", "json-lines"],
                      [*check, "--emit-coloured"]]
        calls.append(["check", path, "--formula", f"F[>0] {goals[-1]}", "--qualitative",
                      "--emit-coloured", "--format", "json-lines"])
    for name, _, start, colour in DEFECTS:
        path = f"bad/{name}.gg"
        prob = ["prob", path, "--phi2", colour, "--from", start]
        calls += [["validate", path], prob,
                  [*prob, "--method", "truncate", "--horizon", "2", "--depth", "4"],
                  ["check", path, "--formula", f"F[>0] {colour}", "--at", start],
                  ["expand", path, "--depth", "3"]]
    # atoms naming an axiom-rule vertex or nothing, thresholds every
    # probability passes, G, and --qualitative through ! and X
    check = ["check", "corpus/running.gg", "--formula"]
    for formula in ["v0 & F[>0] V2", "F[>0] nowhere", "F[>=0] V2", "F[<=1] V2",
                    "G[>=1/2] V1", "G[>0] V1"]:
        calls += [[*check, formula, "--at", "v0"], [*check, formula, "--emit-coloured"]]
    calls += [[*check, formula, "--qualitative"] for formula in ["!X[>0] V2", "X[>=1] !V1"]]
    # usage errors and refusals
    calls += [
        [],
        ["expand", "corpus/running.gg"],
        ["expand", "corpus/running.gg", "--depth", "-1"],
        ["expand", "corpus/running.gg", "--depth", "2", "--component", "nowhere"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "nowhere"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--method", "sample",
         "--n", "0"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--eps", "0"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--method",
         "truncate", "--horizon", "-2"],
        ["check", "corpus/running.gg", "--formula", "V1 U[>=1/4]"],
        ["check", "corpus/running.gg", "--formula", "F[>=1/2] V2", "--qualitative"],
        ["check", "corpus/running.gg", "--formula", "F[>0] V2", "--at", "nowhere"],
        ["validate", "corpus/pcp_s1.pcp"],
        ["from-pds", "corpus/running.gg"],
        ["prob", "corpus/running.gg", "--phi2", "V9", "--from", "v0"],
        ["prob", "corpus/running.gg", "--phi2", " , ", "--from", "v0"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--method", "truncate"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--eps", "1/x"],
        ["prob", "corpus/running.gg", "--phi1", "V1", "--phi2", "V2", "--from", "v0",
         "--method", "truncate", "--horizon", "3", "--emit-system"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--method", "sample",
         "--horizon", "3", "--emit-system"],
        ["prob", "corpus/running.gg", "--phi1", "V1", "--phi2", "V2", "--from", "v0",
         "--horizon", "3"],
        ["prob", "corpus/running.gg", "--phi2", "V2", "--from", "v0", "--depth", "2"],
        ["expand", "corpus/running.gg", "--depth", "two"],
        ["expand", "corpus/running.gg", "--depth", "2", "-o", "missing/out.txt"],
    ]
    return calls


def _run(argv: list[str]) -> tuple[int | str, str]:
    """One call: its exit code (or the exception that escaped `main`) and
    the hashes of its stdout, stderr and -o file."""
    path = argv[argv.index("-o") + 1] if "-o" in argv else None
    if path is not None and os.path.exists(path):
        os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:
            code = "".join(traceback.format_exception_only(exc)).strip()
    written = Path(path).read_bytes() if path and os.path.exists(path) else b""
    return code, (f"out={_sha(out.getvalue().encode())} err={_sha(err.getvalue().encode())} "
                  f"file={_sha(written)}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def sweep() -> int:
    os.environ["COLUMNS"] = "100"  # argparse wraps usage lines to this width
    bad = 0
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(ROOT / "corpus", Path(work, "corpus"))
        os.mkdir(Path(work, "gen"))
        os.mkdir(Path(work, "bad"))
        for name, text, _, _ in DEFECTS:
            Path(work, "bad", f"{name}.gg").write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(work)
        try:
            calls = _calls()
            for argv in calls:
                code, digest = _run(argv)
                bad += code not in (0, 1, 2, 3)
                print(f"{' '.join(argv)!r} exit={code} {digest}", flush=True)
        finally:
            os.chdir(cwd)
    print(f"{len(calls)} calls, {bad} bad")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(sweep())
