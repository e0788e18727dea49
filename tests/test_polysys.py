from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pregma.gio import load_grammar, parse_grammar
from pregma.labeling import classes_for_colours
from pregma.model import GrammarError
from pregma.pcp import encode, load_pcp
from pregma.polysys import (
    _CERTIFY_EVERY, _DEN_CAP, _ROUNDS, WIDTH, ZERO, Enclosure, Key, PolySystem,
    _min_degree, _solve, decide_threshold, solve_enclosure,
)
from pregma.pushdown import load_pds, to_grammar
from pregma.quantitative import assemble_system, shared_assembly, solve_until
from pregma.validation import analyse
from reference import (closes_singular, enclosure_fault, evaluate, gauss_jordan, pivots,
                       rhs_value, unquotiented, walk, walk_faults, walk_levels)

F = Fraction
ONE = F(1)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def scalar(c, a):
    """x = c + a*x^2, the smallest interesting fixpoint equation."""
    s = PolySystem()
    s.add_variable("x")
    s.add_term("x", F(c))
    s.add_term("x", F(a), "x", "x")
    return s


def test_add_term_guards():
    s = PolySystem()
    s.add_variable("x")
    with pytest.raises(ValueError, match="degree"):
        s.add_term("x", F(1, 2), "x", "x", "x")
    with pytest.raises(ValueError, match="negative"):
        s.add_term("x", F(-1, 2))
    s.add_term("x", F(0), "x")  # dropped silently
    assert s.equations["x"] == []


def test_render():
    s = PolySystem()
    s.add_variable("x")
    s.add_variable("y")
    s.add_term("x", F(1, 3))
    s.add_term("x", F(1, 2), "y")
    s.add_term("y", F(1, 4), "x", "y")
    assert [f"{key} = {s.render_rhs(key, str)}" for key in s.variables] == [
        "x = 1/3 + 1/2 * y", "y = 1/4 * x * y"]


def test_positive_variables():
    s = PolySystem()
    for k in ("x", "y", "z"):
        s.add_variable(k)
    s.add_term("x", F(1, 2))
    s.add_term("y", F(1, 2), "x")
    s.add_term("z", F(1), "z")  # no constant feed, stays at zero
    assert s.positive_variables() == frozenset({"x", "y"})


def pinned():
    """x = 1/3 + 3/8 x + 1/8 once its pins are folded in."""
    s = PolySystem(pins={"zero": F(0), "one": F(1), "p": F(3, 4)})
    s.add_variable("x")
    s.add_term("x", F(1, 2), "zero", "x")  # a pin at 0 drops the term
    s.add_term("x", F(1, 3), "one")  # a pin at 1 drops the factor
    s.add_term("x", F(1, 2), "p", "x")  # any other value scales the coefficient
    s.add_term("x", F(1, 6), "one", "p")  # two pinned factors
    return s


def test_pins_fold_into_the_terms_that_read_them():
    s = pinned()
    assert s.variables == ["x"]
    assert s.equations == {"x": [(F(1, 3), ()), (F(3, 8), ("x",)), (F(1, 8), ())]}
    # the pins above 0 count as positive
    assert s.positive_variables() == frozenset({"x", "one", "p"})
    with pytest.raises(ValueError, match="negative"):
        s.add_term("x", F(-1, 2), "zero")


def test_the_enclosure_holds_every_pin():
    # x closes exactly at (1/3 + 1/8) / (5/8); the pins follow the
    # variables, each its own lo and hi
    enc = solve_enclosure(pinned())
    assert enc.exact and enc.converged
    assert list(enc.lo.items()) == list(enc.hi.items()) == [
        ("x", F(11, 15)), ("zero", 0), ("one", 1), ("p", F(3, 4))]
    # a solve that iterates lifts them too, next to its zero variables
    s = PolySystem(pins={"h": F(1, 2)})
    for k in ("x", "z"):
        s.add_variable(k)
    s.add_term("x", F(1, 4), "h")
    s.add_term("x", F(1, 2), "x", "x")
    s.add_term("z", F(1, 2), "z", "h")
    enc = same_enclosure(s)
    assert not enc.exact
    assert enc.interval("h") == (F(1, 2), F(1, 2))
    assert enc.interval("z") == (0, 0)


def test_solve_exact_acyclic():
    s = PolySystem()
    for k in ("x", "y"):
        s.add_variable(k)
    s.add_term("x", F(1, 2))
    s.add_term("y", F(1, 4))
    s.add_term("y", F(1, 2), "x")
    enc = solve_enclosure(s)
    assert enc.exact and enc.converged
    assert enc.lo == enc.hi == {"x": F(1, 2), "y": F(1, 2)}


def test_solve_linear_contraction():
    # x = 1/2 + x/2: a linear component with 1 - F' = 1/2 > 0 closes
    # exactly, (1 - 1/2) x = 1/2, and leaves nothing to iterate
    s = PolySystem()
    s.add_variable("x")
    s.add_term("x", F(1, 2))
    s.add_term("x", F(1, 2), "x")
    enc = solve_enclosure(s)
    assert enc.converged and enc.exact
    assert enc.lo["x"] == enc.hi["x"] == 1


def test_solve_balanced_cycle_certifies_zero():
    # y's cycle has coefficient sum exactly 1 at the fixpoint of x, so no
    # positive slack exists; y has no constant feed, so it is 0 exactly
    s = PolySystem()
    for k in ("x", "y"):
        s.add_variable(k)
    s.add_term("x", F(1, 8))
    s.add_term("x", F(1, 2), "x")
    s.add_term("y", F(4, 5), "y")
    s.add_term("y", F(4, 5), "x", "y")
    enc = solve_enclosure(s)
    assert enc.converged
    assert enc.lo["y"] == enc.hi["y"] == 0
    assert enc.lo["x"] <= F(1, 4) <= enc.hi["x"]
    assert enc.hi["x"] - enc.lo["x"] <= WIDTH


def test_solve_double_root_stays_sound():
    # x = 1/2 + x^2/2 has its least fixpoint at the double root 1, where
    # Kleene iteration crawls like 1/n and Newton gains a bit per step; the
    # closure certifies it instead: F(1) = 1, the one pivot of 1 - F'(1) is
    # 0, and x*x has both factors inside
    enc = solve_enclosure(scalar(F(1, 2), F(1, 2)))
    assert enc.converged and enc.exact
    assert enc.iterations == 1
    assert enc.lo["x"] == enc.hi["x"] == 1


def test_solve_quadratic_with_gap():
    # x = 1/8 + x^2/2: fixpoint 1 - sqrt(3)/2, comfortably below the greater
    # root, so the enclosure closes fast
    enc = solve_enclosure(scalar(F(1, 8), F(1, 2)))
    assert enc.converged
    assert enc.hi["x"] - enc.lo["x"] <= WIDTH
    lo, hi = enc.interval("x")
    # 1 - sqrt(3)/2 lies inside iff (1 - q)^2 straddles 3/4
    assert (1 - lo) ** 2 >= F(3, 4) >= (1 - hi) ** 2


def system(equations):
    """A PolySystem from {key: [(coeff, factors), ...]}."""
    s = PolySystem()
    for k in equations:
        s.add_variable(k)
    for k, terms in equations.items():
        for coeff, factors in terms:
            s.add_term(k, F(coeff), *factors)
    return s


def test_solve_drops_zero_variables():
    # z has no constant feed, so its value is exactly 0, although it shares
    # a cycle with x, whose value is 1; no offset above 0 certifies z with
    # x in the same component
    s = system({
        "x": [(F(1, 2), ()), (F(1, 2), ("x",)), (F(1, 4), ("z",))],
        "z": [(1, ("x", "z"))],
    })
    enc = solve_enclosure(s)
    assert enc.converged
    assert enc.lo["z"] == enc.hi["z"] == 0
    assert enc.lo["x"] == enc.hi["x"] == 1


def test_close_refuses_a_quadratic_component_with_a_negative_pivot():
    # G(1) = 1 and the rows of G'(1)1 are 9/5 and 1/2, so no row-sum test
    # refuses; I - G'(1) = [[1/10, -9/10], [-1/2, 1]] then has a negative
    # pivot in either order, and the iteration finds the least fixpoint
    # x = 2/9, y = 11/18 below the fixpoint at 1
    s = system({
        "x": [(F(1, 10), ()), (F(9, 10), ("x", "y"))],
        "y": [(F(1, 2), ()), (F(1, 2), ("x",))],
    })
    enc = solve_enclosure(s)
    assert not enc.exact
    assert enc.lo["x"] <= F(2, 9) <= enc.hi["x"]
    assert enc.lo["y"] <= F(11, 18) <= enc.hi["y"]
    assert enclosure_fault(s, enc) is None


def test_close_drops_a_linear_value_past_the_denominator_cap():
    # c = 1/_DEN_CAP closes; the linear component {a, b} then solves to
    # a = 1/8 + 3/(8 _DEN_CAP), whose denominator is past the cap, so it
    # is not kept and the component iterates
    s = system({
        "c": [(F(1, _DEN_CAP), ())],
        "a": [(F(1, 3), ("b",)), (F(1, 3), ("c",))],
        "b": [(F(1, 3), ("a",)), (F(1, 3), ())],
    })
    enc = solve_enclosure(s)
    assert not enc.exact
    a = F(1, 8) + F(3, 8 * _DEN_CAP)
    assert enc.lo["a"] <= a <= enc.hi["a"]
    assert enc.lo["b"] <= (a + 1) / 3 <= enc.hi["b"]
    assert enclosure_fault(s, enc) is None


def test_certificate_follows_the_newton_direction():
    # at the fixpoint a row of F' sums above 1, so raising both variables by
    # one shared offset never certifies; raising them along (I - F')^-1 1 does
    s = system({
        "x0": [(F(3, 64), ()), (F(63, 256), ("x0",)), (F(147, 2048), ("x0",)),
               (F(5, 8), ("x1", "x1"))],
        "x1": [(F(3, 4), ()), (F(1, 16), ("x1", "x1")),
               (F(15, 128), ("x1", "x0"))],
    })
    enc = solve_enclosure(s)
    assert enc.converged and enc.iterations <= 3000
    assert enc.hi["x0"] < 1 and enc.hi["x1"] < 1
    assert all(v <= enc.hi[k] for k, v in evaluate(s, enc.hi).items())


@pytest.mark.parametrize("factor", [4, 10**6, -1])
def test_newton_survives_a_wrong_float_solve(monkeypatch, factor):
    # the float solve only proposes; the exact arithmetic decides: a step
    # that overshoots is cut back to at most the exact Newton step, and
    # without a positive direction no step is taken (Kleene carries on)
    import pregma.polysys as polysys

    solve = polysys._solve

    def wrong(*args):
        solution = solve(*args)
        return None if solution is None else [[factor * y for y in row] for row in solution]

    monkeypatch.setattr(polysys, "_solve", wrong)
    enc = solve_enclosure(scalar(F(1, 8), F(1, 2)))
    assert enc.converged
    lo, hi = enc.interval("x")
    assert (1 - lo) ** 2 >= F(3, 4) >= (1 - hi) ** 2


def test_newton_refuses_a_positive_direction_it_cannot_check(monkeypatch):
    # the float solve proposes the positive direction (1, 1e-12), but
    # (I - F')v is negative in y's row, so every step is refused exactly:
    # Kleene alone moves lo, and certifying along that direction fails
    import pregma.polysys as polysys

    solve, newton = polysys._solve, polysys._newton
    refused = []

    def wrong(*args):
        return [[row[0], d] for row, d in zip(solve(*args), [1.0, 1e-12])]

    def watched(*args):
        values, direction = newton(*args)
        refused.append(values is None and direction is not None)
        return values, direction

    monkeypatch.setattr(polysys, "_solve", wrong)
    monkeypatch.setattr(polysys, "_newton", watched)
    monkeypatch.setattr(polysys, "_ROUNDS", 60)
    s = system({"x": [(F(1, 4), ()), (F(1, 4), ("y",)), (F(1, 4), ("x", "x"))],
                "y": [(F(1, 4), ()), (F(1, 2), ("x",))]})
    enc = solve_enclosure(s)
    assert refused and all(refused)
    assert all(v <= enc.hi[k] for k, v in evaluate(s, enc.hi).items())
    assert all(enc.lo[k] <= v for k, v in evaluate(s, enc.lo).items())

    def below_root(x):
        # x <= x* = (7 - sqrt 29) / 4, the least root of 4x^2 - 14x + 5
        return x <= F(7, 4) and 4 * x * x - 14 * x + 5 >= 0

    # y* = 1/4 + x*/2, so y <= y* exactly when 2y - 1/2 <= x*
    assert below_root(enc.lo["x"]) and not below_root(enc.hi["x"])
    assert below_root(2 * enc.lo["y"] - F(1, 2))
    assert not below_root(2 * enc.hi["y"] - F(1, 2))


def test_round_cap_certifies_the_upper_bound(monkeypatch):
    # one round never meets WIDTH; the bound certified at the cap
    # still brings hi well below 1
    import pregma.polysys as polysys

    monkeypatch.setattr(polysys, "_ROUNDS", 1)
    enc = solve_enclosure(scalar(F(1, 5), F(4, 5)))
    assert enc.iterations == 1 and not enc.converged
    lo, hi = enc.interval("x")
    assert hi < F(26, 100)
    assert F(1, 5) + F(4, 5) * hi * hi <= hi
    assert lo <= F(1, 5) + F(4, 5) * lo * lo


@st.composite
def sparse_m_matrices(draw):
    """(I - B) D as float rows: B >= 0 with at most three entries per row and
    row sums 0 or 9/10, D a positive diagonal. A nonsingular M-matrix whose rows
    need not be diagonally dominant."""
    n = draw(st.integers(1, 12))
    d = [draw(st.integers(1, 5)) for _ in range(n)]
    matrix = []
    for i in range(n):
        cols = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        weights = [draw(st.integers(1, 9)) for _ in cols]
        row = {i: Fraction(1)}
        for j, w in zip(cols, weights):
            row[j] = row.get(j, ZERO) - Fraction(9 * w, 10 * sum(weights))
        matrix.append({j: float(v * d[j]) for j, v in row.items()})
    return matrix


@settings(max_examples=100, deadline=None)
@given(sparse_m_matrices(), st.data())
def test_sparse_solve_matches_an_exact_solve(matrix, data):
    n = len(matrix)
    rhs = [[float(data.draw(st.integers(-5, 5))), 1.0] for _ in range(n)]
    exact = gauss_jordan([[Fraction(row.get(j, 0.0)) for j in range(n)] for row in matrix],
                         [[Fraction(y) for y in b] for b in rhs])
    order = _min_degree([list(row) for row in matrix])
    assert sorted(order) == list(range(n))
    for pivots in (order, list(range(n))):
        solution = _solve(matrix, rhs, pivots)
        assert solution is not None
        for got, want in zip(solution, exact):
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= Fraction(1, 10**9) * max(1, abs(w))


def test_sparse_solve_refuses_what_is_no_nonsingular_m_matrix():
    both = ([0, 1], [1, 0])
    # a 2-cycle of weight 1: rho(A) = 1, so I - A is singular
    cycle = [{0: 1.0, 1: -1.0}, {0: -1.0, 1: 1.0}]
    # a leading minor 1 - 4 < 0
    negative = [{0: 1.0, 1: -2.0}, {0: -2.0, 1: 1.0}]
    for matrix in (cycle, negative):
        for order in both:
            assert _solve(matrix, [[1.0], [1.0]], order) is None
    assert _solve([{0: math.inf}], [[1.0]], [0]) is None
    assert _solve([{0: 1.0}], [[math.nan]], [0]) is None
    assert _solve([{0: 2.0}], [[1.0]], [0]) == [[0.5]]


def test_min_degree_eliminates_a_star_from_its_leaves():
    # the hub first would fill the whole matrix; leaves first fill nothing
    n = 6
    star = [list(range(n))] + [[0, i] for i in range(1, n)]
    assert _min_degree(star)[:n - 2] == list(range(1, n - 1))


def test_solver_keeps_pinned_empty_equations():
    s = PolySystem()
    s.add_variable("x")
    enc = solve_enclosure(s)
    assert enc.exact
    assert enc.lo["x"] == enc.hi["x"] == 0


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
# tiny c and a: every rounded Kleene iterate stalls on the grid, and a
# stalled round must still reach the certification schedule
@example(c=F(29, 55282071780732213051372077056),
         a=F(1, 221128287122928852205488308223))
def test_scalar_quadratic_soundness(c, a):
    if a + c > 1:
        a = 1 - c
    enc = solve_enclosure(scalar(c, a))
    assert enc.iterations <= 400
    lo, hi = enc.interval("x")
    assert 0 <= lo <= hi <= 1
    # exact sandwich around the least root: the lower bound satisfies
    # F(lo) >= lo, a certified upper bound F(hi) <= hi
    assert c + a * lo * lo >= lo
    assert c + a * hi * hi <= hi
    if enc.converged:
        assert hi - lo <= WIDTH


@st.composite
def small_systems(draw):
    """Up to four variables, up to three terms each of degree <= 2, every
    row's coefficients summing to at most 1, so F maps [0, 1]^n into itself."""
    n = draw(st.integers(1, 4))
    keys = [f"x{i}" for i in range(n)]
    equations = {}
    for k in keys:
        terms = draw(st.lists(
            st.tuples(st.integers(1, 8),
                      st.lists(st.sampled_from(keys), max_size=2)),
            min_size=1, max_size=3))
        scale = F(draw(st.integers(1, 16)), 16) / sum(c for c, _ in terms)
        equations[k] = [(c * scale, tuple(fs)) for c, fs in terms]
    return system(equations)


@settings(max_examples=80, deadline=None)
@given(small_systems())
def test_random_system_enclosures(s):
    enc = solve_enclosure(s)
    assert enc.iterations <= 500
    assert all(0 <= enc.lo[k] <= enc.hi[k] <= 1 for k in s.variables)
    # hi is a post-fixpoint and lo a pre-fixpoint, both checked exactly
    fhi, flo = evaluate(s, enc.hi), evaluate(s, enc.lo)
    assert all(fhi[k] <= enc.hi[k] and enc.lo[k] <= flo[k] for k in s.variables)
    # F^20(0) lies below the least fixpoint, and so does each iterate rounded
    # down (exactly, onto a grid of 2^-256: exact iterates double in size)
    x = {k: F(0) for k in s.variables}
    for _ in range(20):
        x = {k: F(v.numerator * 2**256 // v.denominator, 2**256)
             for k, v in evaluate(s, x).items()}
    assert all(x[k] <= enc.hi[k] for k in s.variables)


@pytest.mark.parametrize(
    "interval,cmp,rho,verdict",
    [
        ((F(1, 2), F(1, 2)), ">=", F(1, 2), "holds"),
        ((F(1, 2), F(1, 2)), ">", F(1, 2), "fails"),
        ((F(1, 2), F(1, 2)), "<=", F(1, 2), "holds"),
        ((F(1, 2), F(1, 2)), "<", F(1, 2), "fails"),
        ((F(1, 3), F(2, 3)), ">", F(1, 2), "unknown"),
        ((F(2, 3), F(3, 4)), ">", F(1, 2), "holds"),
        ((F(0), F(1, 4)), ">=", F(1, 2), "fails"),
        ((F(0), F(0)), ">=", F(0), "holds"),
        ((F(1), F(1)), "<=", F(1), "holds"),
    ],
)
def test_decide_threshold(interval, cmp, rho, verdict):
    assert decide_threshold(interval, cmp, rho) == verdict


def case_by_case_threshold(interval, cmp, rho):
    """The verdict with each comparison's strictness handled per side."""
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
    return "unknown"


def test_decide_threshold_matches_the_case_by_case_rule():
    grid = [F(i, 8) for i in range(9)]
    cases = 0
    for cmp in (">=", ">", "<=", "<"):
        for lo in grid:
            for hi in (x for x in grid if x >= lo):
                for rho in grid:
                    assert decide_threshold((lo, hi), cmp, rho) == \
                        case_by_case_threshold((lo, hi), cmp, rho), (lo, hi, cmp, rho)
                    cases += 1
    assert cases == 1620
    with pytest.raises(ValueError, match="unknown comparison"):
        decide_threshold((ZERO, ONE), "==", ZERO)


# ------------------------------------------------- the Fraction reference
# The solver as it stood before it ran on integer indices: dicts keyed by
# the system's keys and one Fraction operation per term. The compiled
# solver must reproduce its enclosures exactly, rounds included.


def _ref_floor_to_grid(v, bits):
    scaled = v.numerator * (1 << bits) // v.denominator
    return Fraction(scaled, 1 << bits)


def _ref_ceil_to_grid(v, bits):
    return -_ref_floor_to_grid(-v, bits)


def _ref_positive(system):
    pos = set()
    changed = True
    while changed:
        changed = False
        for key in system.variables:
            if key in pos:
                continue
            for coeff, factors in system.equations[key]:
                if coeff > 0 and all(f in pos for f in factors):
                    pos.add(key)
                    changed = True
                    break
    return frozenset(pos)


def _ref_scc_order(system: PolySystem) -> list[tuple[list[Key], bool]]:
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


def _ref_i_minus_jacobian(
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


def _ref_newton(
    system: PolySystem,
    comp: list[Key],
    point: Mapping[Key, Fraction],
    bits: int,
) -> tuple[dict[Key, Fraction] | None, dict[Key, Fraction] | None]:
    """One Newton step on the cyclic component comp at point, the variables
    outside it held at point: comp's new values (None when refused) and a
    direction for certifying its upper bound (None when there is none).

    With A = F'(point) on comp and b = F(point) - point, the solver's
    sparse float elimination gives (I - A)^-1 b and (I - A)^-1 1. The
    second, scaled to a largest entry of 1 and rounded up onto the grid of
    `bits` bits, is the direction v; the exact check (I - A) v > 0 makes
    I - A a nonsingular M-matrix, whose inverse is >= 0. The first, rounded
    down onto a grid twice as fine (near a double root b is about the
    square of the distance to the fixpoint), is lowered along v by the least
    t on the grid that makes (I - A) d <= b hold exactly. Then d is at most
    the exact Newton step, so by convexity point + d stays at or below the
    least fixpoint whenever point does, and with d >= 0 also
    point + d <= F(point + d).
    """
    index = {k: i for i, k in enumerate(comp)}
    floats = {f: float(point[f]) for k in comp for _, fs in system.equations[k] for f in fs}
    matrix = []
    for row, k in enumerate(comp):
        jac: dict[int, float] = {}
        for coeff, factors in system.equations[k]:
            for i, f in enumerate(factors):
                if f in index:
                    other = floats[factors[1 - i]] if len(factors) == 2 else 1.0
                    jac[index[f]] = jac.get(index[f], 0.0) + float(coeff) * other
        matrix.append({row: 1.0 - jac.pop(row, 0.0), **{j: -v for j, v in jac.items()}})
    residual = {k: rhs_value(system, k, point) - point[k] for k in comp}
    solution = _solve(matrix, [[float(residual[k]), 1.0] for k in comp],
                      _min_degree([list(row) for row in matrix]))
    if solution is None or min(s[1] for s in solution) <= 0:
        return None, None

    top = max(s[1] for s in solution)
    v = {k: _ref_ceil_to_grid(Fraction(solution[i][1] / top), bits) for i, k in enumerate(comp)}
    w = _ref_i_minus_jacobian(system, comp, point, v)
    if min(w.values()) <= 0:
        return None, v
    d = {
        k: _ref_floor_to_grid(point[k] + Fraction(solution[i][0]), 2 * bits) - point[k]
        for i, k in enumerate(comp)
    }
    r = _ref_i_minus_jacobian(system, comp, point, d)
    t = _ref_ceil_to_grid(max(max((r[k] - residual[k]) / w[k] for k in comp), ZERO), bits)
    d = {k: d[k] - t * v[k] for k in comp}
    if min(d.values()) < 0 or max(d.values()) == 0:
        return None, v
    return {k: point[k] + d[k] for k in comp}, v


def _ref_close(system: PolySystem, components: list[tuple[list[Key], bool]]
               ) -> dict[Key, Fraction]:
    """The values that close exactly, dependencies first, or {} when no
    cyclic component does: an acyclic variable once its inputs have, a
    cyclic component at exact inputs when it is linear and I - F' has every
    pivot > 0 (the value solves (I - F')x = F(0) on it), or quadratic with
    F(1) = 1 on it and every pivot of I - F'(1) > 0, or all > 0 but a last
    0. A value above 1 or with a denominator above _DEN_CAP is not kept.
    Pivots run in the component's own order, not the solver's: for a Z-matrix
    whose A is irreducible, either pattern holds in every order or in none."""
    value: dict[Key, Fraction] = {}
    closed = False
    while components and not components[-1][1]:
        components = components[:-1]  # acyclic above every cyclic component
    for comp, cyclic in components:
        inside = set(comp) if cyclic else set()
        terms = [t for k in comp for t in system.equations[k]]
        if not all(f in value or f in inside for _, fs in terms for f in fs):
            continue
        if not cyclic:
            v = rhs_value(system, comp[0], value)
            if v.denominator <= _DEN_CAP:
                value[comp[0]] = v
            continue
        point = {**value, **dict.fromkeys(comp, ONE)}
        rows = {k: {k: ONE} for k in comp}  # I - F'(point) on comp
        for k in comp:
            for coeff, fs in system.equations[k]:
                for i, f in enumerate(fs):
                    if f in inside:
                        other = point[fs[1 - i]] if len(fs) == 2 else ONE
                        rows[k][f] = rows[k].get(f, ZERO) - coeff * other
        ps = pivots(rows, comp)
        if any(len(fs) == 2 and set(fs) <= inside for _, fs in terms):
            if any(rhs_value(system, k, point) != 1 for k in comp):
                continue
            if not (ps[-1] > 0 or closes_singular(ps, len(comp))):
                continue
            values = [ONE] * len(comp)
        else:
            if ps[-1] <= 0:
                continue
            b = [rhs_value(system, k, {**value, **dict.fromkeys(comp, ZERO)}) for k in comp]
            values = [x for x, in gauss_jordan(
                [[rows[k].get(j, ZERO) for j in comp] for k in comp], [[y] for y in b])]
            if any(x > 1 or x.denominator > _DEN_CAP for x in values):
                continue
        value.update(zip(comp, values))
        closed = True
    return value if closed else {}


def fraction_solve(system: PolySystem) -> Enclosure:
    keys = list(system.variables)

    # Variables outside `positive` have least fixpoint exactly 0: drop them
    # and every term they appear in, so no component mixes them with
    # variables whose value is positive.
    positive = _ref_positive(system)
    clean = PolySystem()
    clean.equations.update({
        k: [t for t in system.equations[k] if all(f in positive for f in t[1])]
        for k in keys
        if k in positive
    })
    # components that close exactly become pins, folded into the terms
    # that read them
    pins = _ref_close(clean, _ref_scc_order(clean))
    if pins:
        folded = PolySystem()
        folded.equations.update({
            k: [(coeff * math.prod(pins[f] for f in fs if f in pins),
                 tuple(f for f in fs if f not in pins)) for coeff, fs in terms]
            for k, terms in clean.equations.items() if k not in pins})
        clean = folded
    lo: dict[Key, Fraction] = {k: ZERO for k in clean.variables}
    hi: dict[Key, Fraction] = {k: ONE for k in clean.variables}
    bits = 64
    components = _ref_scc_order(clean)
    # The first positive offset lies far below WIDTH: a component's slack
    # above its lower bound reaches the components above it amplified.
    base_delta = WIDTH / 2**20
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
                v = min(rhs_value(clean, k, point), ONE)
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
                if all(rhs_value(clean, k, merged) <= y[k] for k in comp):
                    for k in comp:
                        if y[k] < hi[k]:
                            hi[k] = y[k]
                    break
                delta = base_delta if delta == ZERO else delta * 4
                if delta > 2:
                    break
            for k in comp:
                point[k] = hi[k]

    def width() -> Fraction:
        return max((hi[k] - lo[k] for k in lo), default=ZERO)

    exact = False
    rounds = 0
    while rounds < _ROUNDS:
        rounds += 1
        fx = {k: rhs_value(clean, k, lo) for k in clean.variables}
        if fx == lo:
            hi = dict(lo)
            exact = True
            break
        nxt: dict[Key, Fraction] = {}
        for k, v in fx.items():
            if v.denominator > _DEN_CAP:
                v = _ref_floor_to_grid(v, bits)
            nxt[k] = max(v, lo[k])
        # Newton steps on the Kleene iterate, dependencies first, so each
        # component starts from the values just found below it.
        stepped = False
        for i, when in next_try.items():
            if rounds < when:
                continue
            values, u = _ref_newton(clean, components[i][0], nxt, bits)
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
        # Certify once Newton moves lo by at most WIDTH: before that lo is far
        # from the fixpoint, and a certificate would either fail or stop the
        # solve at a width near WIDTH that the next step shrinks far below it.
        small = stepped and max(nxt[k] - lo[k] for k in nxt) <= WIDTH
        lo = nxt
        if small or rounds % _CERTIFY_EVERY == 0:
            certify()
            if width() <= WIDTH:
                break

    if not exact:
        certify()
    converged = width() <= WIDTH
    return Enclosure(
        {k: lo.get(k, pins.get(k, ZERO)) for k in keys},
        {k: hi.get(k, pins.get(k, ZERO)) for k in keys},
        converged,
        exact,
        rounds,
    )


def walk_grammar(shape, d):
    """The chain (b = 1) or branching (b = 2) walk of `reference.walk`."""
    return parse_grammar(walk({"chain": 1, "branching": 2}[shape], d))


def corpus_and_walk_grammars():
    """(name, grammar, mu): the corpus, the seeded and uniform walks at K = 8
    and 32, and the critical walks."""
    for path in sorted(CORPUS.iterdir()):
        if path.suffix == ".gg":
            g = load_grammar(path)
            yield path.name, g, g.mu
        elif path.suffix == ".pds":
            g = to_grammar(load_pds(path))
            yield path.name, g, g.mu
        elif path.suffix == ".pcp":
            g, _ = encode(load_pcp(path))
            yield path.name, g, g.mu
    rng = random.Random(1)
    for shape in ("chain", "branching"):
        for k in (8, 32):
            g = walk_grammar(shape, walk_levels(k, False, None if k == 8 else rng))
            yield f"{shape}{k}", g, g.mu
    for name, g in [("critical chain2", walk_grammar("chain", walk_levels(2, True, rng))),
                    ("critical branching1", walk_grammar("branching", walk_levels(1, True, None)))]:
        yield name, g, g.mu


def assembled_systems():
    """Every assembly of every analysable grammar above, over its colour
    pairs (phi1 tt or a colour, phi2 a colour)."""
    for name, g, mu in corpus_and_walk_grammars():
        if not mu:
            continue
        try:
            an = analyse(g)
        except GrammarError:  # outside the engines' fragment (PCP gadgets)
            continue
        colours = sorted(g.colour_names)
        for phi1 in [None, *colours]:
            for phi2 in colours:
                asm = assemble_system(
                    an,
                    classes_for_colours(an, None if phi1 is None else frozenset({phi1})),
                    classes_for_colours(an, frozenset({phi2})),
                )
                yield f"{name}: {phi1 or 'tt'} U {phi2}", asm.system


@st.composite
def non_dyadic_systems(draw):
    """Like small_systems, but every coefficient a multiple of 1/3, 1/7 or
    1/21, so the values' common denominator is no power of two."""
    n = draw(st.integers(1, 4))
    keys = [f"x{i}" for i in range(n)]
    equations = {}
    for k in keys:
        den = draw(st.sampled_from([3, 7, 21]))
        terms = draw(st.lists(
            st.tuples(st.integers(1, 8),
                      st.lists(st.sampled_from(keys), max_size=2)),
            min_size=1, max_size=3))
        total = sum(c for c, _ in terms)
        cap = draw(st.integers(1, den))
        equations[k] = [(F(c * cap, total * den), tuple(fs)) for c, fs in terms]
    return system(equations)


def same_enclosure(s):
    """The solver's enclosure is the reference's, with every pin of s lifted
    in as its own lo and hi."""
    new, ref = solve_enclosure(s), fraction_solve(s)
    assert (new.lo, new.hi, new.converged, new.exact, new.iterations) == (
        ref.lo | s.pins, ref.hi | s.pins, ref.converged, ref.exact, ref.iterations)
    assert all(type(v) is Fraction for v in [*new.lo.values(), *new.hi.values()])
    return new


def test_solver_matches_the_fraction_reference():
    count = 0
    for name, s in assembled_systems():
        try:
            same_enclosure(s)
        except AssertionError as exc:
            raise AssertionError(name) from exc
        count += 1
    assert count >= 40
    # x*x, a cross term whose y lies outside x's component, an empty row
    # (z), and a term dropped with it (w's)
    same_enclosure(system({
        "x": [(F(1, 3), ()), (F(1, 3), ("x", "x")), (F(1, 7), ("x", "y"))],
        "y": [(F(1, 5), ()), (F(2, 7), ("y",))],
        "z": [],
        "w": [(F(1, 2), ("x", "z")), (F(1, 7), ("w",)), (F(2, 3), ("x",))],
    }))


@pytest.mark.parametrize("shape", ["chain", "branching"])
def test_solver_matches_the_fraction_reference_at_benchmark_size(shape):
    # seeded K = 64 walks, the size of the largest systems the benchmark's
    # families workload solved before their tops collapsed: 65 and 129
    # variables that stay positive
    g = walk_grammar(shape, walk_levels(64, False, random.Random(64)))
    with unquotiented():
        an = analyse(g)
    system = assemble_system(an, classes_for_colours(an, None),
                             classes_for_colours(an, frozenset({"green"}))).system
    enc = same_enclosure(system)
    assert enc.converged and not enc.exact
    positive = system.positive_variables() - system.pins.keys()
    assert len(positive) == {"chain": 65, "branching": 129}[shape]


def test_a_stalled_round_goes_on_to_certification_in_the_reference_too():
    # test_scalar_quadratic_soundness's tiny example: every rounded Kleene
    # iterate stalls on the grid, so each round refines the grid and still
    # reaches the certification schedule, in the solver and the reference
    same_enclosure(scalar(F(29, 55282071780732213051372077056),
                          F(1, 221128287122928852205488308223)))


@settings(max_examples=60, deadline=None)
@given(non_dyadic_systems())
def test_non_dyadic_systems_match_the_fraction_reference(s):
    assert same_enclosure(s).iterations <= 500


def until_enclosures():
    """(name, system, enclosure) for every `solve_until` enclosure of every
    corpus `.gg`
    colour (phi1 tt or a colour), `pds_example_prob`'s halt, and the seeded
    chain and branching walks at K = 2 to 64, critical and not."""
    cases = []
    for path in sorted(CORPUS.glob("*.gg")):
        g = load_grammar(path)
        names = sorted(g.colour_names)
        cases += [(path.name, g, phi1, phi2) for phi1 in [None, *names] for phi2 in names]
    cases.append(("pds_example_prob", to_grammar(load_pds(CORPUS / "pds_example_prob.pds")),
                  None, "halt"))
    rng = random.Random(64)
    cases += [(f"{shape}{k}{' critical' * critical}",
               walk_grammar(shape, walk_levels(k, critical, rng)), None, "green")
              for shape in ("chain", "branching") for k in (2, 8, 32, 64)
              for critical in (False, True)]
    for name, g, phi1, phi2 in cases:
        an = analyse(g)
        sets = [classes_for_colours(an, None if c is None else frozenset({c}))
                for c in (phi1, phi2)]
        enc, system = solve_until(an, *sets), shared_assembly(an, *sets).system
        yield f"{name}: {phi1 or 'tt'} U {phi2}", system, enc


def test_every_until_enclosure_carries_its_proof():
    count = 0
    for name, system, enc in until_enclosures():
        assert enclosure_fault(system, enc) is None, name
        count += bool(system.variables)
    assert count >= 25  # of the 27 systems, one enclosure each


def test_generated_walks_reach_the_nonlinear_solver():
    """Seeded sub-, super-, near- and critical walks (`reference.random_walk`),
    every one a quadratic system: each enclosure of tt U green carries its
    proof and lies above the bounded until at horizon 8. CI runs ten times
    the seeds."""
    counts, faults = walk_faults(range(300))
    assert faults == []
    assert counts["quadratic"] == counts["walks"] == 300
    # 194 exact (closed at 1) and 106 converged but not exact
    assert counts["exact"] >= 150 and counts["converged"] >= 80


def test_the_proof_check_refuses_a_wrong_lo_and_a_low_hi():
    # x = 1/4 + 3/4 x^2 has the value 1/3 and a second fixpoint at 1
    s = scalar(F(1, 4), F(3, 4))
    assert enclosure_fault(s, Enclosure({"x": F(1, 3)}, {"x": F(1, 3)}, True, True, 0)) is None
    assert enclosure_fault(s, Enclosure({"x": F(0)}, {"x": ONE}, False, False, 0)) is None
    # lo = 1 is a fixpoint, so lo <= F(lo), but F'(1) = 3/2
    assert "pivot -1/2" in enclosure_fault(
        s, Enclosure({"x": ONE}, {"x": ONE}, True, False, 0))
    assert "F(hi) above hi" in enclosure_fault(
        s, Enclosure({"x": F(0)}, {"x": F(1, 4)}, False, False, 0))


def test_the_proof_check_takes_a_critical_point_only_with_a_quadratic_term():
    # x = 1/2 + x^2/2: lo = 1 is a fixpoint with 1 - F'(1) = 0, and x * x
    # has both factors inside, so lo = 1 is the value
    assert enclosure_fault(scalar(F(1, 2), F(1, 2)),
                           Enclosure({"x": ONE}, {"x": ONE}, True, True, 0)) is None
    # x = y, y = x + z/4, z = 1/2: with lo_z = 0 (below z's value), any
    # x = y is a fixpoint on {x, y}, where I - F' is singular; with no term
    # inside there is no proof (and the system has no finite fixpoint)
    s = system({"x": [(1, ("y",))], "y": [(1, ("x",)), (F(1, 4), ("z",))],
                "z": [(F(1, 2), ())]})
    lo = {"x": F(1, 2), "y": F(1, 2), "z": F(0)}
    assert all(lo[k] <= v for k, v in evaluate(s, lo).items())
    assert "y: pivot 0" in enclosure_fault(s, Enclosure(lo, dict.fromkeys(lo, ONE), False,
                                                        False, 0))


def exact_solves(monkeypatch) -> list[bool]:
    """Watch `_solve`: one entry per exact elimination (Fraction entries),
    True when it refused."""
    import pregma.polysys as polysys

    solve, calls = polysys._solve, []

    def watched(matrix, rhs, order, *args, **kwargs):
        out = solve(matrix, rhs, order, *args, **kwargs)
        if type(next(iter(matrix[0].values()))) is Fraction:
            calls.append(out is None)
        return out

    monkeypatch.setattr(polysys, "_solve", watched)
    return calls


def test_closure_takes_no_fixpoint_but_the_least(monkeypatch):
    # x = 1/4 + 3/4 x^2 has the fixpoint 1, but F'(1) = 3/2: the row sum
    # refuses it before any elimination, and the enclosure holds 1/3
    calls = exact_solves(monkeypatch)
    enc = solve_enclosure(scalar(F(1, 4), F(3, 4)))
    assert calls == [] and enc.converged and not enc.exact
    assert enc.lo["x"] < F(1, 3) <= enc.hi["x"]
    # x = 1/5 + 4/5 x^2: F(1) = 1 and F'(1) = 8/5, refused the same way
    enc = solve_enclosure(scalar(F(1, 5), F(4, 5)))
    assert calls == [] and not enc.exact
    assert enc.lo["x"] < F(1, 4) <= enc.hi["x"]


def test_closure_refuses_a_singular_linear_component(monkeypatch):
    # x = y, y = x + z/4, z = 1/2: no row of F' sums above 1, so the exact
    # pivot test runs, and its last pivot is 0; without a quadratic term a
    # singular I - F' closes nothing (x = y has no finite value here)
    import pregma.polysys as polysys

    calls = exact_solves(monkeypatch)
    monkeypatch.setattr(polysys, "_ROUNDS", 3)
    enc = solve_enclosure(system({"x": [(1, ("y",))], "y": [(1, ("x",)), (F(1, 4), ("z",))],
                                  "z": [(F(1, 2), ())]}))
    assert calls == [True]
    assert not enc.exact and enc.lo == {"x": F(1, 8), "y": F(1, 8), "z": F(1, 2)}


def test_closure_pins_a_seeded_critical_chain_at_one(monkeypatch):
    # K = 32 levels of (a, 1 - a) pairs: the descents form one quadratic
    # component with F(1) = 1 and a singular I - F'(1), which one exact
    # elimination certifies; the wins above it then solve linearly
    calls = exact_solves(monkeypatch)
    g = walk_grammar("chain", walk_levels(32, True, random.Random(32)))
    an = analyse(g)
    phi1, phi2 = classes_for_colours(an, None), classes_for_colours(an, frozenset({"green"}))
    system = assemble_system(an, phi1, phi2).system
    enc = solve_enclosure(system)
    assert enc.exact and enc.iterations == 1
    assert enc.lo == enc.hi
    assert enc.lo[an.ids["Z", "m0"]] == 1
    assert calls and not any(calls)
    assert enclosure_fault(system, enc) is None


# sha256 prefixes of (lo, hi, converged, exact, iterations) as the solver
# gave them before components closed exactly: the closure refuses each of
# these systems, so they must not move
UNCLOSED = {
    "running": "746ff7edbca372f8",
    "chain": "c8c314ad6b4a2bb1",
    "branching": "976b92d47d95595e",
}


def test_refused_closures_keep_their_enclosures(monkeypatch):
    # running.gg (its descent's F(1) is 5/8) and the seeded K = 64 walks
    # (every row of F'(1) sums above 1) refuse before any elimination; the
    # branching walk's digest is of its system before its tops collapsed
    calls = exact_solves(monkeypatch)
    cases = [("running", load_grammar(CORPUS / "running.gg"), "V1", "V2")]
    cases += [(shape, walk_grammar(shape, walk_levels(64, False, random.Random(64))), None,
               "green") for shape in ("chain", "branching")]
    for name, g, phi1, phi2 in cases:
        with unquotiented():
            an = analyse(g)
        system = assemble_system(an, *[classes_for_colours(
            an, None if c is None else frozenset({c})) for c in (phi1, phi2)]).system
        enc = solve_enclosure(system)
        # the digests cover the variables; the pins come on top, exact
        lo, hi = ({k: v for k, v in bound.items() if k not in system.pins}
                  for bound in (enc.lo, enc.hi))
        assert lo | system.pins == enc.lo and hi | system.pins == enc.hi
        digest = hashlib.sha256(repr((
            sorted(lo.items()), sorted(hi.items()), enc.converged, enc.exact,
            enc.iterations)).encode()).hexdigest()[:16]
        assert digest == UNCLOSED[name], name
    assert calls == []
