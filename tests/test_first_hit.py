"""The fraction-free elimination behind the local first-hit rows, against a
plain `Fraction` Gauss–Jordan on random substochastic integer systems."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pregma.fragments import _eliminate
from pregma.model import GrammarError
from reference import gauss_jordan


@st.composite
def substochastic(draw):
    """n unknowns and k absorbing columns; row i takes at most den unit
    steps, so its weights over den sum to at most 1 and the rest leaks."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    den = draw(st.integers(1, 6))
    steps = [draw(st.lists(st.integers(0, n + k - 1), max_size=den)) for _ in range(n)]
    return n, den, [[row.count(t) for t in range(n + k)] for row in steps]


def _escaping(n, den, weights):
    """Does every unknown reach a row whose mass leaves the unknowns?"""
    escapes = {i for i in range(n) if sum(weights[i][:n]) < den}
    grown = True
    while grown:
        before = len(escapes)
        escapes |= {i for i in range(n) if any(weights[i][j] for j in escapes)}
        grown = len(escapes) > before
    return len(escapes) == n


@settings(max_examples=300, deadline=None)
@given(substochastic())
@example((1, 2, [[2, 0]]))  # a self-loop keeping all its mass: a closed class
@example((2, 2, [[0, 2, 0], [1, 0, 1]]))  # escapes through its neighbour only
def test_eliminate_matches_fraction_gauss_jordan(system):
    n, den, weights = system
    m = [[den * (i == j) - w if j < n else w for j, w in enumerate(row)]
         for i, row in enumerate(weights)]
    a = [[Fraction(x, den) for x in row[:n]] for row in m]
    b = [[Fraction(x, den) for x in row[n:]] for row in m]
    if not _escaping(n, den, weights):
        with pytest.raises(GrammarError, match="singular"):
            _eliminate(m, n)
        with pytest.raises(GrammarError):
            gauss_jordan(a, b)
        return
    det = _eliminate(m, n)
    assert det > 0
    assert all(m[i][j] == det * (i == j) for i in range(n) for j in range(n))
    assert [[Fraction(x, det) for x in row[n:]] for row in m] == gauss_jordan(a, b)
