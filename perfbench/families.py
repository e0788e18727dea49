"""Seeded K-level walk grammars: linear chains and binary-branching walks.

Level i's rule W<i> climbs from its input `lo` to b fresh vertices (b = 1
for a chain, 2 for branching) with label u<i>, each of which steps back
down with d<i> and carries the next level's hyperarc. A vertex on level i
therefore leaves with d_i + b*u_{i+1} = 1, so every instance passes the
exact mass check. The axiom's `m0` reaches the green `base` with the least
root x_{K-1} of x_i = d_i + (1 - d_i) x_{i+1} x_i (indices mod K): 1/4 for
the uniform d = 1/5 walk, and exactly 1 with a double root whenever
prod d_i = prod (1 - d_i), the critical case.
"""
from __future__ import annotations

import random
from fractions import Fraction


def _odd_128ths(rng: random.Random, lo: int, hi: int) -> Fraction:
    # one denominator for every seed keeps the exact arithmetic's cost, and
    # so the timings, from moving with the seed
    return Fraction(rng.randrange(lo, hi + 1, 2), 128)


def levels(k: int, critical: bool, rng: random.Random | None) -> list[Fraction]:
    """Per-level down probabilities; rng None gives the uniform walk."""
    if rng is None:
        return [Fraction(1, 2) if critical else Fraction(1, 5)] * k
    if not critical:
        return [_odd_128ths(rng, 17, 27) for _ in range(k)]  # 0.13 to 0.21
    if k % 2:
        raise ValueError("a seeded critical walk pairs its levels; use an even K")
    # (a, 1 - a) pairs keep prod d_i = prod (1 - d_i). a < 1/2 keeps the
    # capped enclosure no wider than the uniform critical walk's.
    out: list[Fraction] = []
    for _ in range(k // 2):
        a = _odd_128ths(rng, 39, 63)  # 0.30 to 0.49
        out += [a, 1 - a]
    return out


def grammar(shape: str, d: list[Fraction]) -> str:
    b = {"chain": 1, "branching": 2}[shape]
    k = len(d)
    lines = ["nonterminal Z 0", *(f"nonterminal W{i} 1" for i in range(k))]
    lines += [f"terminal {lab}{i} 2" for i in range(k) for lab in "ud"]
    lines += ["colour green", "absorbing green", "axiom Z"]
    for i in range(k):
        lines += [f"prob d{i} {d[i]}", f"prob u{i} {(1 - d[i - 1]) / b}"]
    lines += ["", "rule Z", "  vertex base m0", "  colour green base",
              f"  arc d{k - 1} m0 base", "  hyperarc W0 m0"]
    for i in range(k):
        tops = [f"h{j}" for j in range(b)]
        lines += ["", f"rule W{i} inputs lo", "  vertex " + " ".join(tops)]
        for h in tops:
            lines += [f"  arc u{i} lo {h}", f"  arc d{i} {h} lo",
                      f"  hyperarc W{(i + 1) % k} {h}"]
    return "\n".join(lines) + "\n"


def reference(d: list[Fraction]) -> float:
    """Least root of the walk's equations from m0, by float iteration from 0
    (geometric convergence off the critical case)."""
    k = len(d)
    x = [0.0] * k
    for _ in range(10_000):
        before = x[k - 1]
        for i in reversed(range(k)):
            x[i] = float(d[i]) / (1.0 - (1.0 - float(d[i])) * x[(i + 1) % k])
        if abs(x[k - 1] - before) < 1e-16:
            break
    return x[k - 1]
