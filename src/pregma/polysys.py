"""Monotone quadratic fixpoint systems over exact rationals.

The solving strategy is a rounded Kleene iteration from zero for the lower
bound (rounding always down, so soundness never depends on float behaviour)
paired with certified post-fixpoints for the upper bound: any y with
F(y) <= y, checked exactly, bounds the least fixpoint from above.

Certification walks the strongly connected components of the variable
dependency graph from the bottom up. Lower components keep their already
certified upper bounds, acyclic variables are evaluated forward, and inside
a cyclic component a shared offset above the current lower bound is grown
until the post-fixpoint inequality holds. Splitting by component matters:
a single offset applied to the whole system can overshoot on equations that
also mention variables from other components, even when every component on
its own is comfortably contracting. Component values are probabilities, so
1 is always a sound upper bound when no certificate is found; in that case
the enclosure simply stays wide and the caller sees converged=False.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

Key = Hashable
Term = tuple[Fraction, tuple[Key, ...]]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class PolySystem:
    """x_k = rhs_k(x), one polynomial of degree <= 2 per variable.

    All coefficients must be nonnegative: the right-hand sides are built from
    probabilities, which keeps every rhs monotone on [0, 1]^n.
    """

    variables: list[Key] = field(default_factory=list)
    equations: dict[Key, list[Term]] = field(default_factory=dict)

    def add_variable(self, key: Key) -> None:
        if key not in self.equations:
            self.variables.append(key)
            self.equations[key] = []

    def add_term(self, key: Key, coeff: Fraction, *factors: Key) -> None:
        if len(factors) > 2:
            raise ValueError("degree above 2")
        if coeff < 0:
            raise ValueError("negative coefficient breaks monotonicity")
        if coeff == 0:
            return
        self.equations[key].append((coeff, tuple(factors)))

    def value(self, key: Key, point: Mapping[Key, Fraction]) -> Fraction:
        """rhs_key at point, which needs only the variables rhs_key mentions."""
        acc = ZERO
        for coeff, factors in self.equations[key]:
            term = coeff
            for f in factors:
                term *= point[f]
            acc += term
        return acc

    def evaluate(self, point: Mapping[Key, Fraction]) -> dict[Key, Fraction]:
        return {key: self.value(key, point) for key in self.variables}

    def positive_variables(self) -> frozenset[Key]:
        """Variables with a strictly positive least-fixpoint value."""
        pos: set[Key] = set()
        changed = True
        while changed:
            changed = False
            for key in self.variables:
                if key in pos:
                    continue
                for coeff, factors in self.equations[key]:
                    if coeff > 0 and all(f in pos for f in factors):
                        pos.add(key)
                        changed = True
                        break
        return frozenset(pos)

    def render(self, name: Callable[[Key], str] | None = None) -> str:
        name = name or str
        lines = []
        for key in self.variables:
            terms = self.equations[key]
            if not terms:
                rhs = "0"
            else:
                rhs = " + ".join(
                    " * ".join([f"{coeff}"] + [name(f) for f in factors])
                    for coeff, factors in terms
                )
            lines.append(f"{name(key)} = {rhs}")
        return "\n".join(lines)


@dataclass
class Enclosure:
    lo: dict[Key, Fraction]
    hi: dict[Key, Fraction]
    converged: bool
    exact: bool
    iterations: int

    def width(self, key: Key) -> Fraction:
        return self.hi[key] - self.lo[key]

    def interval(self, key: Key) -> tuple[Fraction, Fraction]:
        return self.lo[key], self.hi[key]


def _floor_to_grid(v: Fraction, bits: int) -> Fraction:
    scaled = v.numerator * (1 << bits) // v.denominator
    return Fraction(scaled, 1 << bits)


_DEN_CAP = 1 << 128  # keep exact values while their denominators stay modest
_CERTIFY_EVERY = 50  # Kleene rounds between certification attempts


def _scc_order(system: PolySystem) -> list[tuple[list[Key], bool]]:
    """Strongly connected components of the dependency graph, dependencies
    first, each flagged with whether it contains a cycle."""
    deps = {
        k: list(dict.fromkeys(f for _, fs in system.equations[k] for f in fs))
        for k in system.variables
    }
    index: dict[Key, int] = {}
    low: dict[Key, int] = {}
    onstack: set[Key] = set()
    stack: list[Key] = []
    comps: list[list[Key]] = []
    counter = 0

    def connect(root: Key) -> None:
        nonlocal counter
        work: list[tuple[Key, int]] = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                onstack.add(node)
            descended = False
            ds = deps[node]
            for i in range(pos, len(ds)):
                d = ds[i]
                if d not in index:
                    work.append((node, i + 1))
                    work.append((d, 0))
                    descended = True
                    break
                if d in onstack:
                    low[node] = min(low[node], index[d])
            if descended:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for k in system.variables:
        if k not in index:
            connect(k)

    out: list[tuple[list[Key], bool]] = []
    for comp in comps:
        members = set(comp)
        cyclic = len(comp) > 1 or any(d in members for d in deps[comp[0]])
        out.append((comp, cyclic))
    return out


def solve_enclosure(
    system: PolySystem,
    eps: Fraction = Fraction(1, 10**6),
    keys_of_interest: Sequence[Key] | None = None,
    max_rounds: int = 20000,
) -> Enclosure:
    """Certified enclosure of the least fixpoint on [0, 1]^n.

    converged means: hi - lo <= eps on every key of interest (all variables
    when none are given). exact means lo is the least fixpoint itself, which
    happens whenever the iteration closes, e.g. on systems with no cyclic
    dependencies.
    """
    keys = list(system.variables)
    watch = list(keys_of_interest) if keys_of_interest is not None else keys
    for k in watch:
        if k not in system.equations:
            raise KeyError(k)

    lo: dict[Key, Fraction] = {k: ZERO for k in keys}
    hi: dict[Key, Fraction] = {k: ONE for k in keys}
    bits = max(64, (10**6 if eps == 0 else int(1 / eps)).bit_length() + 16)
    components = _scc_order(system)
    base_delta = eps / 8 if eps > 0 else Fraction(1, 10**12)

    def certify() -> None:
        # Walk components dependencies-first; `point` carries the upper
        # bounds certified so far, so each check is sound on its own.
        point: dict[Key, Fraction] = {}
        for comp, cyclic in components:
            if not cyclic:
                k = comp[0]
                v = min(system.value(k, point), ONE)
                if v < hi[k]:
                    hi[k] = v
                point[k] = hi[k]
                continue
            # delta 0 first: a component whose lower bound has already
            # closed (e.g. a balanced cycle with fixpoint 0) certifies
            # itself and admits no positive slack at all.
            delta = ZERO
            while True:
                y = {k: min(lo[k] + delta, ONE) for k in comp}
                merged = {**point, **y}
                if all(system.value(k, merged) <= y[k] for k in comp):
                    for k in comp:
                        if y[k] < hi[k]:
                            hi[k] = y[k]
                    break
                delta = base_delta if delta == ZERO else delta * 4
                if delta > 2:
                    break
            for k in comp:
                point[k] = hi[k]

    def watched_width() -> Fraction:
        return max((hi[k] - lo[k] for k in watch), default=ZERO)

    exact = False
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        fx = system.evaluate(lo)
        nxt: dict[Key, Fraction] = {}
        for k in keys:
            v = fx[k]
            if v.denominator > _DEN_CAP:
                v = _floor_to_grid(v, bits)
            nxt[k] = max(v, lo[k])
        if nxt == lo:
            if fx == lo:
                hi = dict(lo)
                exact = True
                break
            bits += 32  # grid too coarse to see the strict increase
            continue
        lo = nxt
        if rounds % _CERTIFY_EVERY == 0:
            certify()
            if watched_width() <= eps:
                break

    if not exact:
        certify()
    converged = watched_width() <= eps
    return Enclosure(lo, hi, converged, exact, rounds)


def decide_threshold(
    interval: tuple[Fraction, Fraction],
    cmp: str,
    rho: Fraction,
) -> str:
    """'holds' / 'fails' / 'unknown' for (true value) cmp rho, given an
    enclosing interval. Exact comparisons, strictness handled per side."""
    lo, hi = interval
    if cmp == ">=":
        if lo >= rho:
            return "holds"
        if hi < rho:
            return "fails"
    elif cmp == ">":
        if lo > rho:
            return "holds"
        if hi <= rho:
            return "fails"
    elif cmp == "<=":
        if hi <= rho:
            return "holds"
        if lo > rho:
            return "fails"
    elif cmp == "<":
        if hi < rho:
            return "holds"
        if lo >= rho:
            return "fails"
    else:
        raise ValueError(f"unknown comparison {cmp!r}")
    return "unknown"
