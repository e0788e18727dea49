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
    # x = 1/2 + x/2 creeps up to 1 and certifies exactly there
    s = PolySystem()
    s.add_variable("x")
    s.add_term("x", F(1, 2))
    s.add_term("x", F(1, 2), "x")
    enc = solve_enclosure(s, eps=F(1, 10**6))
    assert enc.converged and not enc.exact
    assert enc.hi["x"] == 1
    assert 1 - enc.lo["x"] <= F(1, 10**6)


def test_solve_balanced_cycle_certifies_zero():
    # y's cycle has coefficient sum exactly 1 at the fixpoint of x, so no
    # positive slack exists; the zero-offset certificate has to carry it
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
    # x = 1/2 + x^2/2 has its least fixpoint at the double root 1; the lower
    # bound crawls (harmonically) and the upper certificate only fires at 1,
    # so the enclosure refuses to claim convergence
    enc = solve_enclosure(scalar(F(1, 2), F(1, 2)), eps=F(1, 10**4), max_rounds=300)
    assert not enc.converged
    assert enc.hi["x"] == 1
    assert F(9, 10) < enc.lo["x"] < 1


def test_solve_quadratic_with_gap():
    # x = 1/8 + x^2/2: fixpoint 1 - sqrt(3)/2, comfortably below the greater
    # root, so the enclosure closes fast
    enc = solve_enclosure(scalar(F(1, 8), F(1, 2)), eps=F(1, 10**9))
    assert enc.converged
    assert enc.width("x") <= F(1, 10**9)
    lo, hi = enc.interval("x")
    # 1 - sqrt(3)/2 lies inside iff (1 - q)^2 straddles 3/4
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
    # exact sandwich around the least root: a Kleene iterate satisfies
    # F(lo) >= lo, a certified upper bound F(hi) <= hi
    assert c + a * lo * lo >= lo
    assert c + a * hi * hi <= hi
    if enc.converged:
        assert hi - lo <= F(1, 10**4)


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
