"""Monotone quadratic fixpoint systems over exact rationals.

The solver encloses the least fixpoint from below and above. Variables
whose least fixpoint is 0 (no chain of terms feeds them a constant) are
set to 0 and dropped first, together with every term they appear in.

The lower bound starts at zero. Each round takes a Kleene step, rounded
down onto a bit grid, and then one Newton step on every strongly connected
component of the dependency graph, dependencies first (decomposed Newton,
Etessami & Yannakakis 2009; Esparza, Kiefer & Luttenberger 2010). Kleene
iteration converges like 1/n at a double root; Newton gains at least a bit
per step there. The Newton direction comes from a float64 solve, but a step
is taken only after exact checks show it lies at or below the exact Newton
point, which never passes the least fixpoint, so soundness never depends on
float behaviour.

The upper bound is a certified post-fixpoint: any y with F(y) <= y,
checked exactly, bounds the least fixpoint from above. Certification walks
the components from the bottom up. Lower components keep their already
certified upper bounds, acyclic variables are evaluated forward, and a
cyclic component is raised above its lower bound along the direction
(I - F')^-1 1 of its last Newton step (all ones before any), by a growing
offset, until the post-fixpoint inequality holds. Along that direction F
falls below the identity near a fixpoint even where a row of F' sums above
1, which no shared offset survives. Component values are probabilities, so
1 is always a sound upper bound when no certificate is found; in that case
the enclosure simply stays wide and the caller sees converged=False.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

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


def _ceil_to_grid(v: Fraction, bits: int) -> Fraction:
    return -_floor_to_grid(-v, bits)


_DEN_CAP = 1 << 128  # keep exact values while their denominators stay modest
_CERTIFY_EVERY = 50  # rounds between certification attempts, small Newton steps aside


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


def _i_minus_jacobian(
    system: PolySystem,
    comp: list[Key],
    point: Mapping[Key, Fraction],
    z: Mapping[Key, Fraction],
) -> dict[Key, Fraction]:
    """(I - A) z on comp, exactly, with A = F'(point) restricted to comp."""
    out = {}
    for k in comp:
        acc = z[k]
        for coeff, factors in system.equations[k]:
            for i, f in enumerate(factors):
                if f in z:
                    acc -= coeff * z[f] * (point[factors[1 - i]] if len(factors) == 2 else ONE)
        out[k] = acc
    return out


def _newton(
    system: PolySystem,
    comp: list[Key],
    point: Mapping[Key, Fraction],
    bits: int,
) -> tuple[dict[Key, Fraction] | None, dict[Key, Fraction] | None]:
    """One Newton step on the cyclic component comp at point, the variables
    outside it held at point: comp's new values (None when refused) and a
    direction for certifying its upper bound (None when there is none).

    With A = F'(point) on comp and b = F(point) - point, a float64 solve
    gives (I - A)^-1 b and (I - A)^-1 1. The second, scaled to a largest
    entry of 1 and rounded up onto the grid of `bits` bits, is the direction
    v; the exact check (I - A) v > 0 makes I - A a nonsingular M-matrix,
    whose inverse is >= 0. The first, rounded down onto a grid twice as
    fine (near a double root b is about the square of the distance to the
    fixpoint), is lowered along v by the least t on the grid that makes
    (I - A) d <= b hold exactly. Then d is at most the exact Newton step,
    so by convexity point + d stays at or below the least fixpoint whenever
    point does, and with d >= 0 also point + d <= F(point + d).
    """
    index = {k: i for i, k in enumerate(comp)}
    floats = {f: float(point[f]) for k in comp for _, fs in system.equations[k] for f in fs}
    n = len(comp)
    jac = np.zeros((n, n))
    for row, k in enumerate(comp):
        for coeff, factors in system.equations[k]:
            for i, f in enumerate(factors):
                if f in index:
                    other = floats[factors[1 - i]] if len(factors) == 2 else 1.0
                    jac[row, index[f]] += float(coeff) * other
    residual = {k: system.value(k, point) - point[k] for k in comp}
    rhs = np.column_stack([[float(residual[k]) for k in comp], np.ones(n)])
    try:
        solution = np.linalg.solve(np.eye(n) - jac, rhs)
    except np.linalg.LinAlgError:
        return None, None
    if not (np.all(np.isfinite(solution)) and np.all(solution[:, 1] > 0)):
        return None, None

    u = solution[:, 1] / solution[:, 1].max()
    v = {k: _ceil_to_grid(Fraction(float(u[i])), bits) for i, k in enumerate(comp)}
    w = _i_minus_jacobian(system, comp, point, v)
    if min(w.values()) <= 0:
        return None, v
    d = {
        k: _floor_to_grid(point[k] + Fraction(float(solution[i, 0])), 2 * bits) - point[k]
        for i, k in enumerate(comp)
    }
    r = _i_minus_jacobian(system, comp, point, d)
    t = _ceil_to_grid(max(max((r[k] - residual[k]) / w[k] for k in comp), ZERO), bits)
    d = {k: d[k] - t * v[k] for k in comp}
    if min(d.values()) < 0 or max(d.values()) == 0:
        return None, v
    return {k: point[k] + d[k] for k in comp}, v


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

    # Variables outside `positive` have least fixpoint exactly 0: drop them
    # and every term they appear in, so no component mixes them with
    # variables whose value is positive.
    positive = system.positive_variables()
    clean = PolySystem(
        [k for k in keys if k in positive],
        {
            k: [t for t in system.equations[k] if all(f in positive for f in t[1])]
            for k in keys
            if k in positive
        },
    )
    lo: dict[Key, Fraction] = {k: ZERO for k in clean.variables}
    hi: dict[Key, Fraction] = {k: ONE for k in clean.variables}
    bits = max(64, (10**6 if eps == 0 else int(1 / eps)).bit_length() + 16)
    components = _scc_order(clean)
    # The first positive offset lies far below eps: a component's slack above
    # its lower bound reaches the components above it amplified.
    base_delta = eps / 2**20 if eps > 0 else Fraction(1, 10**12)
    # per cyclic component (by position): certification direction, and the
    # round of the next Newton attempt with the wait after a refusal
    directions: dict[int, dict[Key, Fraction]] = {}
    next_try = {i: 1 for i, (_, cyclic) in enumerate(components) if cyclic}
    wait = dict.fromkeys(next_try, 1)

    def certify() -> None:
        # Walk components dependencies-first; `point` carries the upper
        # bounds certified so far, so each check is sound on its own.
        point: dict[Key, Fraction] = {}
        for i, (comp, cyclic) in enumerate(components):
            if not cyclic:
                k = comp[0]
                v = min(clean.value(k, point), ONE)
                if v < hi[k]:
                    hi[k] = v
                point[k] = hi[k]
                continue
            # delta 0 first: a component whose lower bound has already
            # closed certifies itself and may admit no positive slack at all.
            u = directions.get(i)
            delta = ZERO
            while True:
                y = {k: min(lo[k] + delta * (u[k] if u else ONE), ONE) for k in comp}
                merged = {**point, **y}
                if all(clean.value(k, merged) <= y[k] for k in comp):
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
        return max((hi[k] - lo[k] for k in watch if k in lo), default=ZERO)

    exact = False
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        fx = clean.evaluate(lo)
        if fx == lo:
            hi = dict(lo)
            exact = True
            break
        nxt: dict[Key, Fraction] = {}
        for k, v in fx.items():
            if v.denominator > _DEN_CAP:
                v = _floor_to_grid(v, bits)
            nxt[k] = max(v, lo[k])
        # Newton steps on the Kleene iterate, dependencies first, so each
        # component starts from the values just found below it.
        stepped = False
        for i, when in next_try.items():
            if rounds < when:
                continue
            values, u = _newton(clean, components[i][0], nxt, bits)
            if u is not None:
                directions[i] = u
            if values is None:
                wait[i] = min(2 * wait[i], _CERTIFY_EVERY)
                next_try[i] = rounds + wait[i]
                continue
            wait[i] = 1
            nxt.update(values)
            stepped = True
        if nxt == lo:
            bits += 32  # grid too coarse to see the strict increase
            continue
        # Certify once Newton moves lo by at most eps: before that lo is far
        # from the fixpoint, and a certificate would either fail or stop the
        # solve at a width near eps that the next step shrinks far below it.
        small = stepped and max(nxt[k] - lo[k] for k in nxt) <= eps
        lo = nxt
        if small or rounds % _CERTIFY_EVERY == 0:
            certify()
            if watched_width() <= eps:
                break

    if not exact:
        certify()
    converged = watched_width() <= eps
    return Enclosure(
        {k: lo.get(k, ZERO) for k in keys},
        {k: hi.get(k, ZERO) for k in keys},
        converged,
        exact,
        rounds,
    )


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
