"""The four workloads: inputs written at set-up, and the queries of one pass.

Every query is one `pregma` command line. `subject` names the until question
it answers, (grammar, phi1, phi2, start), so the checker can hold answers to
the same question against each other and against a known value. Truths are
intervals of Fractions: a point for closed forms, a 1e-12 band around the
float reference of a seeded walk.
"""
from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import families

SAMPLE_SEED = "11"  # the sampler's own seed; its hits are pinned per input
FLOAT_BAND = Fraction(1, 10**12)

# expand pins: (vertices, arcs, hyperarcs, frontier) of a corpus input's
# depth-4 text header, or of its depth-14 json-lines output
EXPAND_PINS = {
    ("dag.gg", 4): (13, 8, 1, 1),
    ("running.gg", 4): (18, 20, 1, 2),
    ("updrift.gg", 4): (6, 9, 1, 1),
    ("pds_example.gg", 4): (109, 60, 16, 64),
    ("pcp_s1.gg", 4): (24, 36, 1, 2),
    ("pcp_s2.gg", 4): (214, 334, 32, 32),
    ("pcp_s3.gg", 4): (24, 36, 1, 2),
    ("pcp_u1.gg", 4): (32, 48, 1, 2),
    ("pcp_u2.gg", 4): (24, 36, 1, 2),
    ("pcp_u3.gg", 4): (154, 244, 32, 32),
    ("updrift.gg", 14): (16, 29, 1, 1),
    ("running.gg", 14): (58, 70, 1, 2),
}
# sampler hits for (input, horizon, n) at SAMPLE_SEED
SAMPLE_PINS = {
    ("dag.gg", 6, 1000): 1000,
    ("running.gg", 6, 1000): 238,
    ("updrift.gg", 6, 1000): 241,
    ("pcp_s1.gg", 6, 1000): 1000,
    ("pcp_s2.gg", 6, 1000): 1000,
    ("pcp_s3.gg", 6, 1000): 1000,
    ("pcp_u1.gg", 6, 1000): 1000,
    ("pcp_u2.gg", 6, 1000): 1000,
    ("pcp_u3.gg", 6, 1000): 1000,
    ("updrift.gg", 12, 20000): 5046,
    ("running.gg", 12, 20000): 5959,
}


@dataclass
class Query:
    argv: list[str]
    kind: str  # convert | validate | expand | enclosure | truncate | sample | check
    subject: tuple | None = None
    exit: int = 0  # expected exit code of validate, convert and expand
    refusal: str | None = None  # "only": must refuse; "allowed": may refuse
    threshold: tuple[str, Fraction] | None = None  # check: (cmp, rho)
    pin: object = None  # expand counts or sample hits
    out: Path | None = None  # file the command writes

    @property
    def verdict_bearing(self) -> bool:
        return self.kind in ("enclosure", "check") and self.refusal != "only"


@dataclass
class Workload:
    queries: list[Query]
    truth: dict[tuple, tuple[Fraction, Fraction]]
    grammars: list[Path] = field(default_factory=list)  # for set-up's phr_check


def _point(v: Fraction) -> tuple[Fraction, Fraction]:
    return (v, v)


def _band(x: float) -> tuple[Fraction, Fraction]:
    v = Fraction(x)
    return (v - FLOAT_BAND, v + FLOAT_BAND)


def _until_queries(path: Path, phi1: str, phi2: str, start: str, formulas,
                   refusal: str | None = None) -> list[Query]:
    """prob (enclosure) plus one check per (formula, cmp, rho)."""
    subject = (path.name, phi1, phi2, start)
    head = ["prob", str(path), "--phi1", phi1, "--phi2", phi2, "--from", start]
    qs = [Query(head, "enclosure", subject, refusal=refusal)]
    for text, cmp, rho in formulas:
        qs.append(Query(["check", str(path), "--formula", text, "--at", start],
                        "check", subject, refusal=refusal,
                        threshold=(cmp, Fraction(rho))))
    return qs


def _oracle_queries(path: Path, phi1: str, phi2: str, start: str, horizon: int,
                    depth: int, n: int, pin: int | None,
                    refusal: str | None = None) -> list[Query]:
    subject = (path.name, phi1, phi2, start)
    head = ["prob", str(path), "--phi1", phi1, "--phi2", phi2, "--from", start,
            "--horizon", str(horizon), "--depth", str(depth)]
    return [
        Query(head + ["--method", "truncate"], "truncate", subject, refusal=refusal),
        Query(head + ["--method", "sample", "--n", str(n), "--seed", SAMPLE_SEED],
              "sample", subject, refusal=refusal, pin=pin),
    ]


def _walk_expand_pin(branch: int, depth: int) -> tuple[int, int, int, int]:
    tops = sum(branch**level for level in range(1, depth + 1))
    return (2 + tops, 1 + 2 * tops, branch**depth, branch**depth)


# ------------------------------------------------------------- corpus-cli

# (phi1, phi2, start, quantitative check, qualitative check, closed form)
_CORPUS = {
    "dag.gg": ("tt", "goal", "v0", ("F[>=1/2] goal", ">=", "1/2"),
               ("F[>0] goal", ">", 0), Fraction(1)),
    "running.gg": ("V1", "V2", "v0", ("V1 U[>=1/4] V2", ">=", "1/4"),
                   ("V1 U[>0] V2", ">", 0), None),
    "updrift.gg": ("tt", "green", "m0", ("F[>=1/5] green", ">=", "1/5"),
                   ("F[>=1] green", ">=", 1), Fraction(1, 4)),
}
# gen-pcp gadgets: `vgate` steps to the absorbing green `goal` with
# probability 1. Gadgets with two tiles put vgate on two hyperarcs, which
# the structural check rejects and the engines refuse.
_GADGET = ("tt", "green", "vgate", ("F[>=1/2] green", ">=", "1/2"),
           ("F[>0] green", ">", 0), Fraction(1))

_NO_PROBABILITIES = ("tt", "tt", "r", ("F[>=1/2] tt", ">=", "1/2"),
                     ("F[>0] tt", ">", 0), None)


def _first_line(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline()


def corpus_cli(corpus: Path, work: Path) -> Workload:
    """The corpus in a fixed order: the seed changes nothing here, so the
    query that follows each query is the same in every run."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    converts: list[Query] = []
    queries: list[Query] = []
    truth: dict[tuple, tuple[Fraction, Fraction]] = {}
    for src in sorted(corpus.iterdir()):
        if src.suffix not in (".gg", ".pds", ".pcp") or _first_line(src).startswith("# hard"):
            continue
        copy = inputs / src.name
        shutil.copyfile(src, copy)
        if src.suffix == ".gg":
            g = copy
            spec = _CORPUS[src.name]
        else:
            g = inputs / (src.stem + ".gg")
            verb = "from-pds" if src.suffix == ".pds" else "gen-pcp"
            converts.append(Query([verb, str(copy), "-o", str(g)], "convert", out=g))
            spec = _GADGET if src.suffix == ".pcp" else None
        multi_tile = src.suffix == ".pcp" and sum(
            line.startswith("pair") for line in copy.read_text().splitlines()) > 1
        queries += [
            Query(["validate", str(g)], "validate", exit=1 if multi_tile else 0),
            Query(["expand", str(g), "--depth", "4"], "expand",
                  pin=EXPAND_PINS[(g.name, 4)]),
        ]
        if spec is None:  # no arc probabilities: prob and check must refuse
            spec, refusal = _NO_PROBABILITIES, "only"
        else:
            refusal = "allowed" if multi_tile else None
        phi1, phi2, start, quant, qual, closed = spec
        queries += _until_queries(g, phi1, phi2, start, [quant, qual], refusal)
        queries += _oracle_queries(g, phi1, phi2, start, 6, 8, 1000,
                                 SAMPLE_PINS.get((g.name, 6, 1000)),
                                 "only" if refusal == "only" else None)
        if closed is not None:
            truth[(g.name, phi1, phi2, start)] = _point(closed)
    return Workload(converts + queries, truth)


# --------------------------------------------------------------- families


def _walk(work: Path, name: str, shape: str, d: list[Fraction]) -> Path:
    path = work / "inputs" / f"{name}.gg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(families.grammar(shape, d), encoding="utf-8")
    return path


def _off_threshold(value: float, rng: random.Random) -> tuple[str, str, Fraction]:
    """A multiple of 1/20 between 0.02 and 0.07 away from the value, on a
    seeded side, so the verdict is decidable and either holds or fails."""
    side = 1 if rng.random() < 0.5 else -1
    v = Fraction(value)
    rho = min((Fraction(k, 20) for k in range(21)
               if Fraction(1, 50) <= side * (Fraction(k, 20) - v) <= Fraction(7, 100)),
              key=lambda r: abs(r - v))
    return (f"F[>={rho}] green", ">=", rho)


def families_workload(work: Path, rng: random.Random) -> Workload:
    queries: list[Query] = []
    truth: dict[tuple, tuple[Fraction, Fraction]] = {}
    grammars: list[Path] = []
    for shape in ("chain", "branching"):
        for k in (8, 32, 64):
            uniform = k == 8
            d = families.levels(k, False, None if uniform else rng)
            value = Fraction(1, 4) if uniform else families.reference(d)
            path = _walk(work, f"{shape}{k}", shape, d)
            grammars.append(path)
            subject = (path.name, "tt", "green", "m0")
            truth[subject] = _point(value) if uniform else _band(value)
            queries.append(Query(["validate", str(path)], "validate"))
            queries += _until_queries(path, "tt", "green", "m0", [
                _off_threshold(float(value), rng),
                ("F[>0] green", ">", 0),
                ("F[>=1] green", ">=", 1),
            ])
    return Workload(queries, truth, grammars)


# --------------------------------------------------------------- critical


def critical_workload(corpus: Path, work: Path, rng: random.Random, run_cli) -> Workload:
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    crit = inputs / "critical.gg"
    shutil.copyfile(corpus / "critical.gg", crit)
    pds = inputs / "pds_example_prob.gg"
    if run_cli(["from-pds", str(corpus / "pds_example_prob.pds"), "-o", str(pds)]) != 0:
        raise RuntimeError("from-pds failed on pds_example_prob.pds")
    chain = _walk(work, "critical_chain2", "chain", families.levels(2, True, rng))
    branching = _walk(work, "critical_branching1", "branching",
                      families.levels(1, True, None))
    queries: list[Query] = []
    truth: dict[tuple, tuple[Fraction, Fraction]] = {}
    for path, colour, start in [(crit, "green", "m0"), (pds, "halt", "r"),
                                (chain, "green", "m0"), (branching, "green", "m0")]:
        truth[(path.name, "tt", colour, start)] = _point(Fraction(1))
        queries += _until_queries(path, "tt", colour, start, [
            (f"F[>=1] {colour}", ">=", 1),
            (f"F[>=1/2] {colour}", ">=", "1/2"),
        ])
    return Workload(queries, truth, [crit, pds, chain, branching])


# ------------------------------------------------------------ oracle-deep


def oracle_deep(corpus: Path, work: Path, rng: random.Random) -> Workload:
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    d = families.levels(2, False, rng)
    walk = _walk(work, "branching2", "branching", d)
    outs = work / "out"
    outs.mkdir(parents=True, exist_ok=True)
    queries: list[Query] = []
    truth = {(walk.name, "tt", "green", "m0"): _band(families.reference(d))}
    specs = [(walk, "tt", "green", "m0", _walk_expand_pin(2, 14))]
    for name, phi1, phi2, start in [("updrift.gg", "tt", "green", "m0"),
                                    ("running.gg", "V1", "V2", "v0")]:
        shutil.copyfile(corpus / name, inputs / name)
        specs.append((inputs / name, phi1, phi2, start, EXPAND_PINS[(name, 14)]))
    truth[("updrift.gg", "tt", "green", "m0")] = _point(Fraction(1, 4))
    for path, phi1, phi2, start, expand_pin in specs:
        queries += _until_queries(path, phi1, phi2, start, [])
        queries += _oracle_queries(path, phi1, phi2, start, 12, 14, 20000,
                                   SAMPLE_PINS.get((path.name, 12, 20000)))
        out = outs / f"{path.stem}.jsonl"
        queries.append(Query(["expand", str(path), "--depth", "14", "--format",
                              "json-lines", "-o", str(out)], "expand",
                             pin=expand_pin, out=out))
    return Workload(queries, truth, [walk])
