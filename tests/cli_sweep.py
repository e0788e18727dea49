"""Byte-identity sweep of the command line.

Runs a fixed list of `pregma` calls in-process, through `pregma.cli.main`,
on the corpus grammars and on the grammars `from-pds` and `gen-pcp` make of
the corpus's `.pds` and `.pcp` files, and prints one line per call: its
argv, its exit code and a sha256 of its stdout, its stderr and its `-o`
file. Two checkouts that print the same lines answer every call with the
same bytes. The sweep exits 1 when a call's exit code lies outside 0-3 or
an exception escapes `main`, and 0 otherwise.

    python3 tests/cli_sweep.py > sweep.txt

`pregma` is imported from the `src/` next to this directory. The calls run
in a temporary directory holding a copy of `corpus/`, so every path in the
output, and in the messages the calls print, is relative. pytest does not
collect this file.
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
                              [*prob, "--emit-system", "--format", "json-lines"],
                              [*prob, "--eps", "1/1000"]]
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
