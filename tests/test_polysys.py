from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pregma.polysys import PolySystem, decide_threshold, solve_enclosure

F = Fraction


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


def test_evaluate_and_render():
    s = PolySystem()
    s.add_variable("x")
    s.add_variable("y")
    s.add_term("x", F(1, 3))
    s.add_term("x", F(1, 2), "y")
    s.add_term("y", F(1, 4), "x", "y")
    point = {"x": F(1, 2), "y": F(1)}
    assert s.evaluate(point) == {"x": F(5, 6), "y": F(1, 8)}
    assert s.render() == "x = 1/3 + 1/2 * y\ny = 1/4 * x * y"


def test_positive_variables():
    s = PolySystem()
    for k in ("x", "y", "z"):
        s.add_variable(k)
    s.add_term("x", F(1, 2))
    s.add_term("y", F(1, 2), "x")
    s.add_term("z", F(1), "z")  # no constant feed, stays at zero
    assert s.positive_variables() == frozenset({"x", "y"})


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
    # x = 1/2 + x/2: Newton's step on a linear equation lands on the
    # fixpoint 1, and the next round finds it closed
    s = PolySystem()
    s.add_variable("x")
    s.add_term("x", F(1, 2))
    s.add_term("x", F(1, 2), "x")
    enc = solve_enclosure(s, eps=F(1, 10**6))
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
    enc = solve_enclosure(s, eps=F(1, 10**6))
    assert enc.converged
    assert enc.lo["y"] == enc.hi["y"] == 0
    assert enc.lo["x"] <= F(1, 4) <= enc.hi["x"]
    assert enc.width("x") <= F(1, 10**6)


def test_solve_double_root_stays_sound():
    # x = 1/2 + x^2/2 has its least fixpoint at the double root 1, where
    # Kleene iteration crawls like 1/n; Newton still halves the distance each
    # step, and the upper certificate fires only at 1
    eps = F(1, 10**6)
    enc = solve_enclosure(scalar(F(1, 2), F(1, 2)), eps=eps)
    assert enc.converged and not enc.exact
    assert enc.iterations <= 25
    assert enc.hi["x"] == 1
    assert 1 - eps <= enc.lo["x"] < 1


def test_solve_quadratic_with_gap():
    # x = 1/8 + x^2/2: fixpoint 1 - sqrt(3)/2, comfortably below the greater
    # root, so the enclosure closes fast
    enc = solve_enclosure(scalar(F(1, 8), F(1, 2)), eps=F(1, 10**9))
    assert enc.converged
    assert enc.width("x") <= F(1, 10**9)
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
    enc = solve_enclosure(s, eps=F(1, 10**6))
    assert enc.converged
    assert enc.lo["z"] == enc.hi["z"] == 0
    assert enc.lo["x"] == enc.hi["x"] == 1


def test_certificate_follows_the_newton_direction():
    # at the fixpoint a row of F' sums above 1, so raising both variables by
    # one shared offset never certifies; raising them along (I - F')^-1 1 does
    s = system({
        "x0": [(F(3, 64), ()), (F(63, 256), ("x0",)), (F(147, 2048), ("x0",)),
               (F(5, 8), ("x1", "x1"))],
        "x1": [(F(3, 4), ()), (F(1, 16), ("x1", "x1")),
               (F(15, 128), ("x1", "x0"))],
    })
    enc = solve_enclosure(s, eps=F(1, 10**6), max_rounds=3000)
    assert enc.converged
    assert enc.hi["x0"] < 1 and enc.hi["x1"] < 1
    assert all(v <= enc.hi[k] for k, v in s.evaluate(enc.hi).items())


@pytest.mark.parametrize("factor", [4, 10**6, -1])
def test_newton_survives_a_wrong_float_solve(monkeypatch, factor):
    # the float solve only proposes; the exact arithmetic decides: a step
    # that overshoots is cut back to at most the exact Newton step, and
    # without a positive direction no step is taken (Kleene carries on)
    import pregma.polysys as polysys

    solve = polysys.np.linalg.solve
    monkeypatch.setattr(polysys.np.linalg, "solve",
                        lambda a, b: factor * solve(a, b))
    enc = solve_enclosure(scalar(F(1, 8), F(1, 2)), eps=F(1, 10**9))
    assert enc.converged
    lo, hi = enc.interval("x")
    assert (1 - lo) ** 2 >= F(3, 4) >= (1 - hi) ** 2


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
def test_scalar_quadratic_soundness(c, a):
    if a + c > 1:
        a = 1 - c
    enc = solve_enclosure(scalar(c, a), eps=F(1, 10**4), max_rounds=400)
    lo, hi = enc.interval("x")
    assert 0 <= lo <= hi <= 1
    # exact sandwich around the least root: the lower bound satisfies
    # F(lo) >= lo, a certified upper bound F(hi) <= hi
    assert c + a * lo * lo >= lo
    assert c + a * hi * hi <= hi
    if enc.converged:
        assert hi - lo <= F(1, 10**4)


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
    enc = solve_enclosure(s, eps=F(1, 10**6), max_rounds=500)
    assert all(0 <= enc.lo[k] <= enc.hi[k] <= 1 for k in s.variables)
    # hi is a post-fixpoint and lo a pre-fixpoint, both checked exactly
    fhi, flo = s.evaluate(enc.hi), s.evaluate(enc.lo)
    assert all(fhi[k] <= enc.hi[k] and enc.lo[k] <= flo[k] for k in s.variables)
    # F^20(0) lies below the least fixpoint, and so does each iterate rounded
    # down (exactly, onto a grid of 2^-256: exact iterates double in size)
    x = {k: F(0) for k in s.variables}
    for _ in range(20):
        x = {k: F(v.numerator * 2**256 // v.denominator, 2**256)
             for k, v in s.evaluate(x).items()}
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
