"""Answer checker: holds every command's output against the CLI contract,
closed forms, pins and the other engines' answers to the same question.

A query *fails* when it raised, ran past the time limit, or exited with a
code the contract does not allow for it. A query is *wrong* when its answer
contradicts a reference: an enclosure missing a closed form, an oracle
value above the engine's upper bound, a sampler hit rate more than four
standard deviations off the oracle value, a verdict the reference decides
the other way, or a count that differs from its pin.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from workloads import Query

EXIT_BY_STATUS = {"holds": 0, "fails": 1, "unknown": 2}
_ENCLOSURE = re.compile(r"lower=(\S+) upper=(\S+)\n.*\((exact|converged|not converged)\)")
_BOUNDED = re.compile(r"bounded=(\S+)")
_SAMPLE = re.compile(r"hits=(\d+) escapes=(\d+) n=(\d+)")
_EXPAND = re.compile(r"vertices=(\d+) arcs=(\d+) hyperarcs=(\d+) frontier=(\d+)")
_VERDICT = re.compile(r"(holds|fails|unknown)(?: enclosure=\[(\S+), (\S+)\])?")


@dataclass
class Result:
    code: int | None  # None when the command raised
    stdout: str
    stderr: str
    error: str | None  # exception type when the command raised or timed out
    seconds: float


@dataclass
class Outcome:
    failed: str | None = None
    wrong: str | None = None
    decided: bool = False
    width: Fraction | None = None


def decide(interval: tuple[Fraction, Fraction], cmp: str, rho: Fraction) -> bool | None:
    """Truth of (value cmp rho) for every value in the interval, else None."""
    lo, hi = interval
    holds = {">=": lo >= rho, ">": lo > rho, "<=": hi <= rho, "<": hi < rho}[cmp]
    fails = {">=": hi < rho, ">": hi <= rho, "<=": lo > rho, "<": lo >= rho}[cmp]
    return True if holds else False if fails else None


def _refused(r: Result) -> bool:
    return r.code == 1 and not r.stdout.strip() and bool(r.stderr.strip())


class Checker:
    def __init__(self, truth: dict[tuple, tuple[Fraction, Fraction]]):
        self.truth = truth
        self.first_hits: dict[int, int] = {}  # sample pins for seeded inputs

    def check_pass(self, queries: list[Query], results: list[Result]) -> list[Outcome]:
        outcomes = [Outcome() for _ in queries]
        parsed: list[object] = [None] * len(queries)
        for i, (q, r) in enumerate(zip(queries, results)):
            parsed[i] = self._parse(i, q, r, outcomes[i])

        # answers to the same question: enclosure (lo, hi) and oracle value
        enclosure: dict[tuple, tuple[Fraction, Fraction]] = {}
        bounded: dict[tuple, Fraction] = {}
        for q, p, o in zip(queries, parsed, outcomes):
            if p is None or o.failed or o.wrong:
                continue
            if q.kind == "enclosure":
                enclosure[q.subject] = p[:2]
            elif q.kind == "truncate":
                bounded[q.subject] = p

        for i, (q, p, o) in enumerate(zip(queries, parsed, outcomes)):
            if p is None or o.failed or o.wrong:
                continue
            known = self.truth.get(q.subject)
            floor = bounded.get(q.subject)
            if q.kind == "enclosure":
                lo, hi = p[:2]
                if known and (hi < known[0] or lo > known[1]):
                    o.wrong = f"enclosure [{lo}, {hi}] misses the closed form {known}"
                elif floor is not None and hi < floor:
                    o.wrong = f"upper bound {hi} below the oracle's bounded value {floor}"
            elif q.kind == "truncate":
                if known and p > known[1]:
                    o.wrong = f"bounded value {p} above the closed form {known}"
                elif q.subject in enclosure and p > enclosure[q.subject][1]:
                    o.wrong = f"bounded value {p} above the engine's upper bound"
            elif q.kind == "sample":
                o.wrong = self._sample(i, q, p, floor)
            elif q.kind == "check":
                o.wrong = self._verdict(q, p, known, floor)
        return outcomes

    # ------------------------------------------------------------ one query

    def _parse(self, i: int, q: Query, r: Result, o: Outcome):
        """Exit-code contract and output format; returns the parsed answer,
        or None when there is nothing further to compare."""
        if r.error is not None:
            o.failed = r.error
            return None
        if q.refusal == "only" or (q.refusal == "allowed" and _refused(r)):
            if not _refused(r):
                o.failed = f"exit {r.code} where a diagnostic with exit 1 was due"
            return None
        if q.kind == "check":
            m = _VERDICT.match(r.stdout)
            if m is None:
                o.failed = f"exit {r.code} without a verdict"
                return None
            if r.code != EXIT_BY_STATUS[m.group(1)]:
                o.failed = f"verdict {m.group(1)} with exit {r.code}"
                return None
            o.decided = m.group(1) != "unknown"
            return m
        expected = q.exit if q.kind == "validate" else 0
        if r.code != expected:
            o.failed = f"exit {r.code}, expected {expected}"
            return None
        if q.kind == "convert":
            if q.out is None or "\naxiom " not in "\n" + q.out.read_text(encoding="utf-8"):
                o.wrong = "no grammar written"
            return None
        if q.kind == "expand":
            counts = self._expand_counts(q, r)
            if counts != q.pin:
                o.wrong = f"expansion counts {counts}, pinned {q.pin}"
            return None
        if q.kind == "validate":
            if q.exit == 1 and not r.stderr.strip():
                o.wrong = "validation failed without a diagnostic"
            return None
        m = {"enclosure": _ENCLOSURE, "truncate": _BOUNDED, "sample": _SAMPLE}[q.kind]
        m = m.search(r.stdout)
        if m is None:
            o.wrong = f"unreadable {q.kind} output {r.stdout[:80]!r}"
            return None
        if q.kind == "enclosure":
            lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
            if not 0 <= lo <= hi <= 1:
                o.wrong = f"enclosure [{lo}, {hi}] is not an interval in [0, 1]"
                return None
            o.decided = m.group(3) != "not converged"
            o.width = hi - lo
            return lo, hi
        if q.kind == "truncate":
            value = Fraction(m.group(1))
            if not 0 <= value <= 1:
                o.wrong = f"bounded value {value} outside [0, 1]"
                return None
            return value
        return tuple(int(g) for g in m.groups())

    @staticmethod
    def _expand_counts(q: Query, r: Result) -> tuple[int, int, int, int] | None:
        if q.out is None:
            m = _EXPAND.match(r.stdout)
            return tuple(int(g) for g in m.groups()) if m else None
        kinds = {"vertex": 0, "arc": 0, "hyperarc": 0}
        frontier = 0
        with open(q.out, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                kinds[record["kind"]] += 1
                frontier += bool(record.get("frontier"))
        return (kinds["vertex"], kinds["arc"], kinds["hyperarc"], frontier)

    def _sample(self, i: int, q: Query, p, floor: Fraction | None) -> str | None:
        hits, escapes, n = p
        pin = q.pin if q.pin is not None else self.first_hits.setdefault(i, hits)
        if hits != pin:
            return f"hits={hits}, pinned {pin}"
        if floor is None:
            return None
        sigma = math.sqrt(float(floor * (1 - floor)) / n)
        lo, hi = hits / n, (hits + escapes) / n
        gap = max(float(floor) - hi, lo - float(floor), 0.0)
        if gap > 4 * sigma + 1e-12:
            return f"hit rate [{lo}, {hi}] is {gap:.3g} from the oracle's {float(floor):.6f}"
        return None

    @staticmethod
    def _verdict(q: Query, m, known, floor: Fraction | None) -> str | None:
        status = m.group(1)
        truth = known or ((floor, Fraction(1)) if floor is not None else None)
        if truth is None:
            return None
        if m.group(2) is not None:
            lo, hi = Fraction(m.group(2)), Fraction(m.group(3))
            if hi < truth[0] or lo > truth[1]:
                return f"verdict enclosure [{lo}, {hi}] misses the reference {truth}"
        expected = decide(truth, *q.threshold)
        if status != "unknown" and expected is not None and (status == "holds") != expected:
            return f"{status}, but the reference {truth} decides it the other way"
        return None
