"""Monotone quadratic fixpoint systems over exact rationals.

The solver encloses the least fixpoint from below and above; a pin, a key
fixed at an exact value that `add_term` folds into the terms reading it,
is its own lower and upper bound. Variables whose least fixpoint is 0 (no
chain of terms feeds them a constant) are set to 0 and dropped first,
together with every term they appear in.

Then the strongly connected components of the dependency graph are walked
dependencies first, and each one whose inputs from below are exact closes
exactly where it can (`_close`): a linear one by an exact solve, a
quadratic one at 1, critical points included, both tested by the pivot
test of the elimination that gives Newton directions (`_solve`), run over
Fractions. Closed values become pins of a copy of the system, and the
rest iterates as below; when no cyclic component closes, the solve runs as
if the walk had not happened.

The lower bound starts at zero. Each round takes a Kleene step, rounded
down onto a bit grid, and then one Newton step on every strongly connected
component of the dependency graph, dependencies first (decomposed Newton,
Etessami & Yannakakis 2009; Esparza, Kiefer & Luttenberger 2010). Kleene
iteration converges like 1/n at a double root; Newton gains at least a bit
per step there. The Newton direction comes from a sparse float elimination
of the component's I - F', without row swaps, in a fill-reducing order
(greedy minimum degree) fixed once per component; a pivot that is not
positive refuses the step. A step is taken only after exact checks show it
lies at or below the exact Newton point, which never passes the least
fixpoint, so soundness never depends on float behaviour.

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

The solver compiles the cleaned system once: variables become indices and
coefficients integers over their common denominator. The solver's state
stays in integers, and every comparison is a cross-multiplication. Every
exact check (the Kleene step, a component's post-fixpoint test, and
(I - F')z) runs as integer sums over a common denominator of the values it
reads: the same rationals as Fraction arithmetic, which builds Fractions
only for the enclosure it returns.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm
from typing import Callable, Hashable, NamedTuple, Sequence

from .model import components

Key = Hashable
Term = tuple[Fraction, tuple[Key, ...]]

ZERO = Fraction(0)


class PolySystem:
    """x_k = rhs_k(x), one polynomial of degree <= 2 per variable.

    All coefficients must be nonnegative: the right-hand sides are built from
    probabilities, which keeps every rhs monotone on [0, 1]^n.
    """

    __slots__ = ("variables", "equations", "pins", "_positive")

    def __init__(self, variables: list[Key] | None = None,
                 equations: dict[Key, list[Term]] | None = None,
                 pins: dict[Key, Fraction] | None = None) -> None:
        self.variables = [] if variables is None else variables
        self.equations = {} if equations is None else equations
        self.pins = {} if pins is None else pins  # never variables
        # positive_variables, once computed; adding a variable or term clears it
        self._positive: frozenset[Key] | None = None

    def add_variable(self, key: Key) -> None:
        if key not in self.equations:
            self._positive = None
            self.variables.append(key)
            self.equations[key] = []

    def add_term(self, key: Key, coeff: Fraction, *factors: Key) -> None:
        """Add coeff * factors to key's rhs, pinned factors folded in: a pin
        at 0 drops the term, at 1 the factor. Set a pin before any term reading it."""
        if len(factors) > 2:
            raise ValueError("degree above 2")
        if coeff.numerator <= 0:  # a rational's sign is its numerator's
            if coeff.numerator < 0:
                raise ValueError("negative coefficient breaks monotonicity")
            return
        kept = []
        for f in factors:
            if f not in self.pins:
                kept.append(f)
            elif not self.pins[f]:
                return
            elif self.pins[f] != 1:
                coeff *= self.pins[f]
        self._positive = None
        self.equations[key].append((coeff, tuple(kept)))

    def positive_variables(self) -> frozenset[Key]:
        """Variables with a strictly positive least-fixpoint value, and the
        pins above 0: a worklist in which each term (add_term keeps positive
        ones) counts its factors not yet positive, run once per system."""
        if self._positive is not None:
            return self._positive
        missing: list[int] = []  # per term
        heads: list[Key] = []  # per term, the variable it feeds
        uses: dict[Key, list[int]] = {}  # per factor, its terms
        ready: list[Key] = []
        for key in self.variables:
            for _, factors in self.equations[key]:
                for f in factors:
                    uses.setdefault(f, []).append(len(missing))
                missing.append(len(factors))
                heads.append(key)
                if not factors:
                    ready.append(key)
        pos = {k for k, v in self.pins.items() if v}
        while ready:
            key = ready.pop()
            if key in pos:
                continue
            pos.add(key)
            for t in uses.get(key, ()):
                missing[t] -= 1
                if missing[t] == 0:
                    ready.append(heads[t])
        self._positive = frozenset(pos)
        return self._positive

    def render_rhs(self, key: Key, name: Callable[[Key], str] = str) -> str:
        terms = self.equations[key]
        if not terms:
            return "0"
        return " + ".join(" * ".join([f"{coeff}"] + [name(f) for f in factors])
                          for coeff, factors in terms)


class Enclosure(NamedTuple):
    lo: dict[Key, Fraction]
    hi: dict[Key, Fraction]
    converged: bool
    exact: bool
    iterations: int

    def interval(self, key: Key) -> tuple[Fraction, Fraction]:
        return self.lo[key], self.hi[key]


_DEN_CAP = 1 << 128  # keep exact values while their denominators stay modest
_CERTIFY_EVERY = 50  # rounds between certification attempts, small Newton steps aside


Row = list[tuple[int, int, int]]


def _sums(rows: list[Row], n: Sequence[int]) -> list[int]:
    """Each row's integer sum: a term (c, a, b) adds c * n[a] * n[b]."""
    return [sum(c * n[a] * n[b] for c, a, b in row) for row in rows]


class _Component(NamedTuple):
    members: list[int]
    cyclic: bool
    reads: list[int]  # the variables its rows read
    rows: list[Row]  # its rows, indexing reads
    i_minus_a: list[Row]  # (I - F')z on it: z_i's own term, then F'; indexing z + reads
    order: list[int]  # fill-reducing pivot order for eliminating I - F'


def _components(rows: list[Row], den: int) -> list[_Component]:
    """Strongly connected components of the dependency graph, dependencies
    first, each flagged with whether it contains a cycle and given the
    pivot order its Newton steps eliminate in."""
    deps = [list(dict.fromkeys(f for _, a, b in row for f in (a, b) if f >= 0))
            for row in rows]
    out = []
    for comp in components(range(len(rows)), deps.__getitem__):
        pos = {g: i for i, g in enumerate(comp)}
        reads = list(dict.fromkeys(f for g in comp for f in deps[g]))
        at = {g: i for i, g in enumerate(reads)}
        at[-1] = -1  # an absent factor stays absent
        i_minus_a = []
        for i, g in enumerate(comp):
            row = [(den, i, -1)]
            for c, a, b in rows[g]:
                for f, o in ((a, b), (b, a)):
                    if f in pos:
                        row.append((-c, pos[f], len(comp) + at[o] if o >= 0 else -1))
            i_minus_a.append(row)
        out.append(_Component(
            comp,
            len(comp) > 1 or comp[0] in deps[comp[0]],
            reads,
            [[(c, at[a], at[b]) for c, a, b in rows[g]] for g in comp],
            i_minus_a,
            _min_degree([[f for _, f, _ in row] for row in i_minus_a]),
        ))
    return out


def _solve(matrix: list[dict[int, float | Fraction]], rhs: list[list[float | Fraction]],
           order: Sequence[int], singular: bool = False) -> list[list[float | Fraction]] | None:
    """matrix^-1 rhs by sparse Gaussian elimination without row swaps,
    pivoting on the diagonal in `order`; None once a pivot is not a
    positive finite number, or a solution entry is not finite. With
    `singular`, a last pivot of exactly 0 passes too, and then the matrix
    has no inverse and the result is [].

    The rows map column to entry and rhs holds each row's right-hand sides,
    floats for a Newton direction and Fractions for an exact closure.
    Without row swaps the k-th pivot is the ratio of the k-th and (k-1)-th
    leading principal minors of the matrix permuted symmetrically by
    `order`, and a Z-matrix is a nonsingular M-matrix exactly when all of
    them are positive: for I - A the pivot test is the M-matrix test, exact
    over Fractions and up to rounding over floats.
    """
    rows = [dict(row) for row in matrix]
    rhs = [list(b) for b in rhs]
    below: list[set[int]] = [set() for _ in rows]  # per column, unpivoted rows with an entry
    for i, row in enumerate(rows):
        for j in row:
            below[j].add(i)
    pivots = [0.0] * len(rows)
    for k in order:
        row = rows[k]
        for j in row:
            below[j].discard(k)
        p = row.pop(k, 0.0)
        if not 0 < p < inf:
            return [] if singular and p == 0 and k == order[-1] else None
        pivots[k] = p
        b = rhs[k]
        for i in below[k]:
            other = rows[i]
            f = other.pop(k) / p
            for j, v in row.items():
                if j in other:
                    other[j] -= f * v
                else:
                    other[j] = -f * v
                    below[j].add(i)
            rhs[i] = [y - f * z for y, z in zip(rhs[i], b)]
    x: list[list[float | Fraction]] = [[]] * len(rows)
    for k in reversed(order):
        x[k] = [(y - sum(v * x[j][c] for j, v in rows[k].items())) / pivots[k]
                for c, y in enumerate(rhs[k])]
    if not all(abs(y) < inf for col in x for y in col):  # a nan fails too
        return None
    return x


def _min_degree(pattern: list[list[int]]) -> list[int]:
    """A fill-reducing pivot order for a matrix whose row i has entries in
    the columns pattern[i]: greedy minimum degree on the symmetrised
    pattern, the lower index first among equal degrees. Eliminating a
    vertex joins its neighbours into a clique, which is the fill it makes."""
    adj: list[set[int]] = [set() for _ in pattern]
    for i, cols in enumerate(pattern):
        for j in cols:
            if j != i:
                adj[i].add(j)
                adj[j].add(i)
    heap = [(len(a), i) for i, a in enumerate(adj)]
    heapify(heap)
    done = [False] * len(adj)
    order = []
    while heap:
        degree, k = heappop(heap)
        if done[k] or degree != len(adj[k]):
            continue  # a stale entry
        done[k] = True
        order.append(k)
        for i in adj[k]:
            a = adj[i]
            a |= adj[k]
            a -= {i, k}
            heappush(heap, (len(a), i))
    return order


def _newton(
    comp: _Component,
    den: int,
    point: list[int],
    scale: int,
    bits: int,
) -> tuple[list[int] | None, list[int] | None]:
    """One Newton step on the cyclic component comp at point (numerators
    over scale), the variables outside it held at point: the numerators of
    comp's new values over 4^bits (None when refused) and of a direction
    for certifying its upper bound over 2^bits (None when there is none).

    With A = F'(point) on comp and b = F(point) - point, one sparse float
    elimination of I - A (`_solve`, in the component's fill-reducing order)
    gives (I - A)^-1 b and (I - A)^-1 1, or refuses at a pivot that is not
    positive. The floats come from int/int divisions, which round
    correctly whatever common denominator point is given over. The second
    solution, scaled to a largest entry of 1 and rounded up onto the grid
    of `bits` bits, is the direction v; the exact check (I - A) v > 0 makes
    I - A a nonsingular M-matrix, whose inverse is >= 0. The first, rounded
    down onto a grid twice as fine (near a double root b is about the
    square of the distance to the fixpoint), is lowered along v by the
    least t on the grid that makes (I - A) d <= b hold exactly. Then d is
    at most the exact Newton step, so by convexity point + d stays at or
    below the least fixpoint whenever point does, and with d >= 0 also
    point + d <= F(point + d).
    """
    n = len(comp.members)
    # Everything below is integers: point over S = scale; the residual over
    # den S^2; v over 2^bits; the grid point g over 4^bits; d = g - point
    # over S 4^bits.
    a = [point[g] for g in comp.reads]
    a.append(scale)  # index -1 reads 1
    x = [point[g] for g in comp.members]
    residual = [s - y * den * scale for s, y in zip(_sums(comp.rows, a), x)]
    floats = [y / scale for y in a[:-1]]
    matrix = []
    for row, terms in enumerate(comp.i_minus_a):
        jac: dict[int, float] = {}  # A's entries in this row
        for c, f, o in terms[1:]:
            jac[f] = jac.get(f, 0.0) - c / den * (floats[o - n] if o >= 0 else 1.0)
        matrix.append({row: 1.0 - jac.pop(row, 0.0), **{f: -v for f, v in jac.items()}})
    solution = _solve(matrix, [[r / (den * scale * scale), 1.0] for r in residual],
                      comp.order)
    if solution is None or min(s[1] for s in solution) <= 0:
        return None, None

    coarse, fine = 1 << bits, 1 << 2 * bits
    top = max(s[1] for s in solution)
    v = []
    for _, e in solution:
        p, q = (e / top).as_integer_ratio()
        v.append(-(-p * coarse // q))
    # (I - A)z reads z and point, so its integers are over den * Z * S for
    # z over Z
    w = _sums(comp.i_minus_a, v + a)
    if min(w) <= 0:
        return None, v
    g = []
    for y, (s, _) in zip(x, solution):
        p, q = s.as_integer_ratio()
        g.append((y * q + p * scale) * fine // (scale * q))
    r = _sums(comp.i_minus_a, [b * scale - y * fine for b, y in zip(g, x)] + a)
    # (r - residual) / w on the 2^-bits grid, rounded up
    t = max(0, max(-((fine * res - ri) // (scale * wi))
                   for ri, res, wi in zip(r, residual, w)))
    new = [b - t * y for b, y in zip(g, v)]  # point + d over 4^bits, d lowered by t v
    d = [b * scale - y * fine for b, y in zip(new, x)]
    if min(d) < 0 or max(d) == 0:
        return None, v
    return new, v


def _close(components: list[_Component], den: int) -> dict[int, Fraction]:
    """The exact values of the variables that close, dependencies first,
    or {} when no cyclic component closes.

    A variable closes once every variable it reads from below has: an
    acyclic one takes its right-hand side's value, and a cyclic component,
    with G its map at those exact inputs, closes in one of two ways.
    - Linear (no term with both factors inside): G(x) = Ax + b. When I - A
      passes `_solve`'s exact pivot test it is a nonsingular M-matrix, so
      rho(A) < 1 and (I - A)^-1 b is G's one fixpoint.
    - Quadratic: at 1, when G(1) = 1 exactly and the pivots of I - G'(1)
      are all > 0, or all > 0 but a last 0. Let d = 1 - muG >= 0; convexity
      gives d <= G'(1)d. All pivots > 0 make rho(G'(1)) < 1, so d = 0.
      Otherwise rho(G'(1)) = 1, and G'(1) is irreducible (the component is
      strongly connected, and every value it is read at is positive); if
      d != 0, Perron-Frobenius makes d > 0 and G'(1)d = d. Expanding G
      exactly, 1 - d = G(1 - d) = 1 - G'(1)d + Q(d), with Q(d) the sum of
      c d_a d_b over the terms whose factors a, b both lie inside: Q(d) = 0,
      yet such a term makes it positive. So muG = 1.
    Both refuse before any elimination where G'(1)1 > 1 in every row, since
    then rho(G'(1)) > 1 (Collatz-Wielandt), and the quadratic case where
    G(1) != 1. A value above 1 or with a denominator above _DEN_CAP is not
    kept: the values are probabilities, and pins stay cheap to fold in.
    """
    value: dict[int, Fraction] = {}
    closed = False
    # no acyclic variable above the last cyclic component helps a closure
    last = max((i for i, comp in enumerate(components) if comp.cyclic), default=-1)
    for comp in components[:last + 1]:
        inside = set(comp.members)
        lower = [g for g in comp.reads if g not in inside]
        if not all(g in value for g in lower):
            continue
        # the reads over S: inside at 1, below at their values
        scale = lcm(*[value[g].denominator for g in lower])
        a = [scale if g in inside else value[g].numerator * (scale // value[g].denominator)
             for g in comp.reads]
        a.append(scale)
        total = den * scale * scale
        at_one = _sums(comp.rows, a)  # G(1) over total
        if not comp.cyclic:
            v = Fraction(at_one[0], total)
            if v.denominator <= _DEN_CAP:
                value[comp.members[0]] = v
            continue
        n = len(comp.members)
        quadratic = any(y >= 0 and comp.reads[x] in inside and comp.reads[y] in inside
                        for row in comp.rows for _, x, y in row)
        if quadratic and any(y != total for y in at_one):
            continue
        w = _sums(comp.i_minus_a, [scale] * n + a)  # (I - G'(1))1 over total
        if all(y < 0 for y in w):
            continue
        matrix = []  # I - G'(1), its entries over den * S
        for terms in comp.i_minus_a:
            row: dict[int, int] = {}
            for c, f, o in terms:
                row[f] = row.get(f, 0) + c * a[o - n if o >= 0 else -1]
            matrix.append({f: Fraction(y, den * scale) for f, y in row.items()})
        if quadratic:
            if _solve(matrix, [[] for _ in range(n)], comp.order, singular=True) is None:
                continue
            values = [Fraction(1)] * n
        else:
            # b = G(1) - G'(1)1, as G is linear
            x = _solve(matrix, [[Fraction(g - total + y, total)] for g, y in zip(at_one, w)],
                       comp.order)
            if x is None:
                continue
            values = [y for y, in x]
            if any(y > 1 or y.denominator > _DEN_CAP for y in values):
                continue
        value.update(zip(comp.members, values))
        closed = True
    return value if closed else {}


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums over den, with their common factor cancelled."""
    g = gcd(den, *nums)
    return ([y // g for y in nums], den // g) if g > 1 else (nums, den)


def _compile(names: list[Key], terms: list[list[Term]]) -> tuple[dict[Key, int], int, list[Row]]:
    """names become 0..m-1 and each row's coefficients integers over the
    common denominator den: (index, den, rows)."""
    index = {k: i for i, k in enumerate(names)}
    den = lcm(*{coeff.denominator for row in terms for coeff, _ in row})
    rows = [[(coeff.numerator * (den // coeff.denominator),
              *(index[f] for f in factors), *(-1,) * (2 - len(factors)))
             for coeff, factors in row] for row in terms]
    return index, den, rows


# the round cap of every solve
_ROUNDS = 4000


def solve_enclosure(system: PolySystem, eps: Fraction) -> Enclosure:
    """Certified enclosure of the least fixpoint on [0, 1]^n.

    converged means: hi - lo <= eps on every variable, for the eps > 0
    given, unless the round cap `_ROUNDS` stops the solve first. exact
    means lo is the least fixpoint itself, which happens whenever the
    iteration closes, e.g. on systems with no cyclic dependencies, or when
    `_close` pins every variable.

    lo (the Kleene iterate, and Newton's values) is one numerator per
    variable over a shared denominator; hi, which certification replaces a
    component at a time, a numerator and a denominator per variable.
    """
    keys = list(system.variables)

    # Variables outside `positive` have least fixpoint exactly 0: drop them
    # and every term they appear in, so no component mixes them with
    # variables whose value is positive.
    positive = system.positive_variables()
    names = [k for k in keys if k in positive]
    terms = [[t for t in system.equations[k] if all(f in positive for f in t[1])]
             for k in names]
    index, den, rows = _compile(names, terms)
    components = _components(rows, den)
    # Components that close exactly become pins of a copy; the rest iterate.
    closed = {names[i]: v for i, v in _close(components, den).items()}
    if closed:
        system = PolySystem(pins=system.pins | closed)
        for k, row in zip(names, terms):
            if k not in closed:
                system.add_variable(k)
                for coeff, factors in row:
                    system.add_term(k, coeff, *factors)
        names, terms = system.variables, list(system.equations.values())
        index, den, rows = _compile(names, terms)
        components = _components(rows, den)
    m = len(rows)
    lo, lo_den = [0] * m, 1
    hi, hi_den = [1] * m, [1] * m
    en, ed = eps.numerator, eps.denominator
    bits = max(64, (ed // en).bit_length() + 16)
    # The first positive offset lies far below eps: a component's slack above
    # its lower bound reaches the components above it amplified.
    base_delta = (en, ed << 20)  # eps / 2^20
    # per cyclic component (by position): certification direction and its bits,
    # and the round of the next Newton attempt with the wait after a refusal
    directions: dict[int, tuple[list[int], int]] = {}
    next_try = {i: 1 for i, comp in enumerate(components) if comp.cyclic}
    wait = dict.fromkeys(next_try, 1)

    def at(comp: _Component) -> tuple[list[int], int]:
        # comp's rows at hi, as integers over den * S^2, and S
        scale = lcm(*[hi_den[g] for g in comp.reads])
        a = [hi[g] * (scale // hi_den[g]) for g in comp.reads]
        a.append(scale)
        return _sums(comp.rows, a), scale

    def certify() -> None:
        # Walk components dependencies-first; hi carries the upper bounds
        # certified so far, so each check is sound on its own. A cyclic
        # component's trial point sits in hi while it is checked.
        for i, comp in enumerate(components):
            members = comp.members
            if not comp.cyclic:
                k = members[0]
                (s,), scale = at(comp)
                total = den * scale * scale
                if s * hi_den[k] < hi[k] * total:  # F < hi <= 1
                    g = gcd(s, total)
                    hi[k], hi_den[k] = s // g, total // g
                continue
            # delta 0 first: a component whose lower bound has already
            # closed certifies itself and may admit no positive slack at all.
            old = [(hi[k], hi_den[k]) for k in members]
            u, ubits = directions.get(i, ([1] * len(members), 0))
            dn, dd = 0, 1  # delta
            while dn <= 2 * dd:
                # y = min(lo + delta u, 1) over lo_den * dd * 2^ubits
                y_den = lo_den * dd << ubits
                y = [min((lo[k] * dd << ubits) + dn * uj * lo_den, y_den)
                     for k, uj in zip(members, u)]
                for k, yk in zip(members, y):
                    hi[k], hi_den[k] = yk, y_den
                fy, scale = at(comp)
                f = den * scale * (scale // y_den)
                if all(a <= b * f for a, b in zip(fy, y)):
                    old = [(yk, y_den) if yk * d < n * y_den else (n, d)
                           for yk, (n, d) in zip(y, old)]
                    break
                dn, dd = base_delta if dn == 0 else (dn * 4, dd)
            for k, (n, d) in zip(members, old):
                hi[k], hi_den[k] = n, d

    def narrow() -> bool:  # hi - lo <= eps everywhere
        return all((b * lo_den - a * d) * ed <= en * d * lo_den
                   for a, b, d in zip(lo, hi, hi_den))

    exact = False
    rounds = 0
    while rounds < _ROUNDS:
        rounds += 1
        # F(lo) is fx over den * lo_den^2, and equals lo exactly when
        # fx = lo * den * lo_den
        fx = _sums(rows, lo + [lo_den])
        step = den * lo_den
        if all(a == b * step for a, b in zip(fx, lo)):
            hi, hi_den = list(lo), [lo_den] * m
            exact = True
            break
        # F(lo), rounded down onto the bit grid where its reduced denominator
        # passes _DEN_CAP, and never below lo: over the lcm of the three grids
        total, coarse = step * lo_den, 1 << bits
        scale = lcm(total, coarse)
        exact_at, grid_at, lo_at = scale // total, scale // coarse, scale // lo_den
        nxt, scale = _lowest(
            [max(a * coarse // total * grid_at if total > _DEN_CAP * gcd(a, total)
                 else a * exact_at, b * lo_at) for a, b in zip(fx, lo)], scale)
        # Newton steps on the Kleene iterate, dependencies first, so each
        # component starts from the values just found below it.
        stepped = False
        for i, when in next_try.items():
            if rounds < when:
                continue
            values, u = _newton(components[i], den, nxt, scale, bits)
            if u is not None:
                directions[i] = (u, bits)
            if values is None:
                wait[i] = min(2 * wait[i], _CERTIFY_EVERY)
                next_try[i] = rounds + wait[i]
                continue
            wait[i] = 1
            scale, was = lcm(scale, 1 << 2 * bits), scale  # values are over 4^bits
            nxt = [y * (scale // was) for y in nxt]
            for k, v in zip(components[i].members, values):
                nxt[k] = v * (scale >> 2 * bits)
            stepped = True
        if stepped:
            nxt, scale = _lowest(nxt, scale)
        if nxt == lo and scale == lo_den:
            bits += 32  # grid too coarse to see the strict increase
        # Certify once Newton moves lo by at most eps: before that lo is far
        # from the fixpoint, and a certificate would either fail or stop the
        # solve at a width near eps that the next step shrinks far below it.
        small = stepped and (max(a * lo_den - b * scale for a, b in zip(nxt, lo)) * ed
                             <= en * scale * lo_den)
        lo, lo_den = nxt, scale
        if small or rounds % _CERTIFY_EVERY == 0:
            certify()
            if narrow():
                break
    else:
        # the breaks leave lo exact or just certified: certification goes
        # dependencies first and each component's first passing offset
        # depends only on lo, its direction and the bounds below it, so a
        # second run on the same lo would not change hi
        certify()
    return Enclosure(
        {k: Fraction(lo[index[k]], lo_den) if k in index else ZERO for k in keys} | system.pins,
        {k: Fraction(hi[index[k]], hi_den[index[k]]) if k in index else ZERO
         for k in keys} | system.pins,
        narrow(),
        exact,
        rounds,
    )


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def decide_threshold(
    interval: tuple[Fraction, Fraction],
    cmp: str,
    rho: Fraction,
) -> str:
    """'holds' / 'fails' / 'unknown' for (true value) cmp rho, given an
    enclosing interval lo <= hi. The values passing `cmp rho` form an up-set
    or a down-set, so the verdict holds when both ends pass, fails when
    neither does, and is unknown otherwise. Exact comparisons."""
    if cmp not in _COMPARE:
        raise ValueError(f"unknown comparison {cmp!r}")
    passing = sum(_COMPARE[cmp](end, rho) for end in interval)
    return ("fails", "unknown", "holds")[passing]
