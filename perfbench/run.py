"""pregma benchmark: time to verdict and verdict quality on four workloads.

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run makes a fixed number of whole passes over the workload's queries,
each query one in-process call of `pregma.cli.main`, and checks every
answer after each pass. The number of passes is PASSES scaled by
`--seconds` / RUN_SECONDS, at least one: it never depends on how fast the
measured code is. Reference loops are timed before the first query and
after every query that ends REF_EVERY_S or more after their last timing,
and query times are reported at the reference speed (`speed.py`). Between
passes the run times SETUPS set-ups (import `pregma`, write the inputs,
`phr_check` every generated grammar), each in a fresh interpreter and
scaled by reference imports timed after it, and reports their median. The
last line of stdout is one JSON object: the end-to-end metrics with `--trace 0`; with `--trace 1`
half as many passes run each query twice, untraced and then traced, and
the metrics are the per-layer numbers of the traced runs plus the tracing
overhead. `--workload all` runs each workload in its own process and
prints one row per workload. The run exits 1 if any answer is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import spans as tracing
import speed
import workloads
from check import Checker, Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-cli", "families", "critical", "oracle-deep")
SETUPS = 9
RUN_SECONDS = 25
# passes per run at --seconds RUN_SECONDS: a fixed count, so that a faster
# program gets no more samples; about RUN_SECONDS of passes on the
# baseline's machine (see README.md)
PASSES = {"corpus-cli": 20, "families": 2, "critical": 1, "oracle-deep": 3}
QUERY_LIMIT_S = 60
REF_EVERY_S = 0.1  # the reference loops run after a query once this has passed
# the metrics BENCHMARK.json bounds; the row also prints query_ms_p50,
# query_ms_tail, wrong_answers, failed_share and the raw times
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("decided_share", "ratio"),
    ("enclosure_width_max", "1"), ("peak_rss_mb", "MB"),
]


class QueryTimeout(BaseException):
    """Raised inside a query that passed QUERY_LIMIT_S (a BaseException, so
    no handler inside the program can swallow it)."""


def _alarm(signum, frame):
    raise QueryTimeout


def run_query(cli, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except QueryTimeout:
        error = f"time limit {QUERY_LIMIT_S} s"
    except Exception as exc:  # the program's own failure: counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Result(code, out.getvalue(), err.getvalue(), error, seconds)


def set_up(workload: str, seed: int, work: Path):
    """Import pregma, write the inputs, phr_check every generated grammar.
    Returns (seconds, cli module, Workload). The import is cold only in a
    fresh interpreter; timed_setup runs this in one."""
    shutil.rmtree(work, ignore_errors=True)
    start = perf_counter()
    cli = importlib.import_module("pregma.cli")
    rng = random.Random(seed)
    corpus = ROOT / "corpus"
    if workload == "corpus-cli":
        wl = workloads.corpus_cli(corpus, work)
    elif workload == "families":
        wl = workloads.families_workload(work, rng)
    elif workload == "critical":
        wl = workloads.critical_workload(corpus, work, rng,
                                         lambda argv: run_query(cli, argv).code)
    else:
        wl = workloads.oracle_deep(corpus, work, rng)
    gio, validation = sys.modules["pregma.gio"], sys.modules["pregma.validation"]
    for path in wl.grammars:
        report = validation.phr_check(gio.load_grammar(path))
        if not report.ok:
            raise SystemExit(f"generated grammar {path.name} fails phr_check:\n{report}")
    return perf_counter() - start, cli, wl


def timed_setup(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, so that importing pregma, numpy
    included, is timed cold; returns its raw seconds and the reference
    imports' time measured right after it in the same interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=False, timeout=QUERY_LIMIT_S)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{proc.stderr}")
    seconds, ref = proc.stdout.split()[-2:]
    return float(seconds), float(ref)


def one_pass(cli, runs: dict[bool, list[workloads.Query]],
             tracer=None) -> tuple[dict[bool, list[Result]], dict[bool, list[float]]]:
    """Every query once for each kind in `runs` (untraced, traced). The
    kinds of one query run back to back, so that both see the same stretch
    of host speed and their difference is the tracing overhead. Returns the
    results and, for each, the mean of the reference loops' times just
    before and just after it (speed.reference_s); runs that end within
    REF_EVERY_S of the last timing share the next one."""
    results: dict[bool, list[Result]] = {traced: [] for traced in runs}
    refs: dict[bool, list[float]] = {traced: [] for traced in runs}
    gc.collect()
    before = speed.reference_s()
    since = perf_counter()
    pending: list[bool] = []  # the kinds of the runs since the last reference
    n = len(runs[False])
    for i in range(n):
        for traced, queries in runs.items():
            q = queries[i]
            if q.out is not None:  # never check a file an earlier pass wrote
                q.out.unlink(missing_ok=True)
            if traced:
                tracer.query = i
                tracer.enabled = True
            results[traced].append(run_query(cli, q.argv))
            if traced:
                tracer.enabled = False
            pending.append(traced)
            if perf_counter() - since >= REF_EVERY_S or i == n - 1:
                after = speed.reference_s()
                for kind in pending:
                    refs[kind].append((before + after) / 2)
                before, since, pending = after, perf_counter(), []
    return results, refs


def traced_copy(q: workloads.Query) -> workloads.Query:
    """The query writing its file next to the untraced one's, so that each
    kind's output is checked."""
    if q.out is None:
        return q
    out = q.out.with_name(q.out.name + ".traced")
    return replace(q, argv=[str(out) if a == str(q.out) else a for a in q.argv], out=out)


def latency_ranks(latencies: list[float], passes: int) -> tuple[float, float, int]:
    """(p50, tail, beyond) over the queries' latencies.

    Ranking one latency per query keeps a rank from sliding from one query
    onto another, which matters because the queries' latencies differ by
    orders of magnitude. p50 is the (lower) median of the latencies; the
    tail is the one with `beyond` whole queries above it, the fewest that
    leave at least ten samples beyond it after `passes` passes."""
    ranked = sorted(latencies)
    beyond = math.ceil(10 / passes)
    return ranked[(len(ranked) - 1) // 2], ranked[-beyond - 1], beyond


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int]:
    work = ROOT / ".perfbench_work" / workload
    _, cli, wl = set_up(workload, seed, work)
    queries = wl.queries
    checker = Checker(wl.truth)
    runs = {False: queries}
    tracer = None
    passes = max(1, round(PASSES[workload] * seconds / RUN_SECONDS))
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runs[True] = [traced_copy(q) for q in queries]
        passes = max(1, passes // 2)  # each query twice a pass: about as long
    # samples[scaled?][traced][query]: one latency in ms per pass
    samples = {s: {traced: [[] for _ in queries] for traced in runs} for s in (True, False)}
    setups: list[tuple[float, float]] = []
    refs_seen: list[float] = []
    layers: list[dict] = []
    attempted = wrong = failed = decided = bearing = 0
    width = None
    failures: dict[str, tuple[str, int]] = {}
    wrongs: list[str] = []
    for p in range(passes):
        # set-ups spread over the run, so that no one stretch of host speed
        # sets their median
        while not trace and len(setups) < round(SETUPS * (p + 1) / (passes + 1)):
            setups.append(timed_setup(workload, seed))
        if trace:
            tracer.reset()
        results, refs = one_pass(cli, runs, tracer)
        if trace:
            layers.append(tracing.layer_metrics(tracer))
        for traced, qs in runs.items():
            refs_seen += refs[traced]
            for i, (r, ref) in enumerate(zip(results[traced], refs[traced])):
                samples[False][traced][i].append(r.seconds * 1e3)
                samples[True][traced][i].append(speed.scaled(r.seconds, ref) * 1e3)
            for q, r, o in zip(qs, results[traced], checker.check_pass(qs, results[traced])):
                attempted += 1
                shown = " ".join(a.replace(str(ROOT) + "/", "") for a in q.argv)
                if o.failed:
                    failed += 1
                    reason, count = failures.get(shown, (o.failed, 0))
                    failures[shown] = (reason, count + 1)
                if o.wrong:
                    wrong += 1
                    wrongs.append(f"{shown}: {o.wrong}")
                if q.verdict_bearing and not traced:
                    bearing += 1
                    decided += o.decided
                if o.width is not None:
                    width = o.width if width is None else max(width, o.width)
    while not trace and len(setups) < SETUPS:
        setups.append(timed_setup(workload, seed))

    for line, (reason, count) in sorted(failures.items()):
        print(f"failed x{count}: {line} -> {reason}")
    for line in wrongs:
        print(f"WRONG: {line}")

    # a query's latency is the median of its samples; a pass is their sum
    latency = {s: {traced: [statistics.median(q) for q in per_query]
                   for traced, per_query in by_kind.items()}
               for s, by_kind in samples.items()}
    wall = {s: {traced: sum(ms) / 1e3 for traced, ms in by_kind.items()}
            for s, by_kind in latency.items()}
    ranks = {s: latency_ranks(latency[s][False], passes) for s in (True, False)}
    setup = {True: [speed.setup_scaled(t, ref) for t, ref in setups],
             False: [t for t, _ in setups]}
    values = {
        "setup_s": statistics.median(setup[True]) if setups else 0.0,
        "wall_s": wall[True][False],
        "query_ms_p50": ranks[True][0],
        "query_ms_tail": ranks[True][1],
        "decided_share": decided / bearing if bearing else 0.0,
        "enclosure_width_max": float(width) if width is not None else 0.0,
        "wrong_answers": wrong,
        "failed_share": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = ranks[True][2]
    n_samples = passes * len(queries)

    def times(s: bool) -> list[str]:
        p50, tail, _ = ranks[s]
        return ([] if trace else [f"setup_s={statistics.median(setup[s]):.4f} s"]) + [
            f"wall_s={wall[s][False]:.4f} s", f"query_ms_p50={p50:.3f} ms",
            f"query_ms_tail={tail:.3f} ms"]

    print(f"{workload}: " + "  ".join(times(True) + [
        f"(tail p{100 * (1 - beyond / len(queries)):.1f},"
        f" {beyond * n_samples // len(queries)} of {n_samples} samples beyond)",
        f"decided_share={values['decided_share']:.4f} ratio",
        f"enclosure_width_max={values['enclosure_width_max']:.4e} 1",
        f"wrong_answers={wrong} count", f"failed_share={values['failed_share']:.4f} ratio",
        f"peak_rss_mb={values['peak_rss_mb']:.1f} MB",
        f"passes={passes} queries/pass={len(queries)}"]))
    print("  raw times: " + "  ".join(times(False)) +
          f"  (reference loop median {statistics.median(refs_seen) * 1e3:.3f} ms,"
          f" {speed.REF_S * 1e3:.3f} ms at the reference speed)")

    if trace:
        metrics = {}
        for name, unit in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":  # negative: below the noise
                value = wall[True][True] - wall[True][False]
            elif name in tracing.COUNTS:
                value = layers[0][name]
                if any(layer[name] != value for layer in layers):
                    print(f"warning: {name} differs between traced passes: "
                          f"{[layer[name] for layer in layers]}", file=sys.stderr)
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        print("  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()))
        tracer.dump(work / "spans.csv")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, 1 if wrong else 0


def run_all(args) -> int:
    summary = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = None
            status = status or 1
    print(json.dumps(summary))
    return status


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and set iteration order moves
        # some call counts; one fixed salt makes every count repeat exactly
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    if not (ROOT / "src" / "pregma" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"no pregma sources under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    if args.setup_only:
        seconds, _, _ = set_up(args.workload, args.seed,
                               ROOT / ".perfbench_work" / f"{args.workload}.setup")
        print(seconds, speed.import_reference_s())
        return 0
    result, status = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
