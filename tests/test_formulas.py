from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pregma.formulas import (
    TT,
    And,
    Atom,
    MAX_NESTING,
    FormulaError,
    Next,
    Not,
    Until,
    parse_formula,
)

F = Fraction


def test_parse_basic_shapes():
    assert parse_formula("tt") == TT()
    assert parse_formula("tt  ") == TT()  # trailing whitespace reads as nothing
    assert parse_formula("green") == Atom("green")
    assert parse_formula("!v0") == Not(Atom("v0"))
    assert parse_formula("a & b & c") == And(And(Atom("a"), Atom("b")),
                                             Atom("c"))
    assert parse_formula("X[>=1/2] a") == Next(">=", F(1, 2), Atom("a"))
    assert parse_formula("a U[<2/3] b") == Until("<", F(2, 3), Atom("a"),
                                                 Atom("b"))


def test_f_and_g_are_sugar():
    assert parse_formula("F[>=1/2] green") == Until(">=", F(1, 2), TT(),
                                                    Atom("green"))
    # G flips the comparison around 1 - rho and negates the body
    assert parse_formula("G[>2/3] p") == Until("<", F(1, 3), TT(),
                                               Not(Atom("p")))
    assert parse_formula("G[<=1] p") == Until(">=", F(0), TT(), Not(Atom("p")))


def test_conjunction_binds_tighter_than_until():
    f = parse_formula("x & y U[>0] z & w")
    assert f == Until(">", F(0), And(Atom("x"), Atom("y")),
                      And(Atom("z"), Atom("w")))


def test_unary_operators_bind_tightest():
    f = parse_formula("X[<1/2] !a & b")
    assert f == And(Next("<", F(1, 2), Not(Atom("a"))), Atom("b"))


def test_parenthesised_until_nests():
    f = parse_formula("(a U[>=1/4] b) U[<=1/2] c")
    inner = Until(">=", F(1, 4), Atom("a"), Atom("b"))
    assert f == Until("<=", F(1, 2), inner, Atom("c"))


@pytest.mark.parametrize("text, needle", [
    ("a U[>0] b U[>0] c", "until does not chain"),
    ("U[>0] b", "U needs a left operand"),
    ("F[>=3/2] a", "outside"),
    ("X[>=1/2]", "unexpected end"),
    ("a b", "trailing"),
    ("a @ b", "cannot read"),
    ("a &", "unexpected end"),
    ("X[1/2] a", "expected cmp"),
    ("(a", "unexpected end"),
    ("F[>=1/0] green", "divides by zero"),
    ("1/2 a", "^unexpected '1/2' at offset 0$"),
    (") a", "^unexpected '\\)' at offset 0$"),
    (">= a", "^unexpected '>=' at offset 0$"),
])
def test_parse_errors(text, needle):
    with pytest.raises(FormulaError, match=needle):
        parse_formula(text)


_names = st.sampled_from(["a", "b", "green", "v0", "p'"])
_rhos = st.builds(F, st.integers(0, 16), st.just(16))
_cmps = st.sampled_from(["<", "<=", ">", ">="])

_formulas = st.recursive(
    st.one_of(st.builds(TT), st.builds(Atom, _names)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Next, _cmps, _rhos, sub),
        st.builds(Until, _cmps, _rhos, sub, sub),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_text_round_trip(f):
    assert parse_formula(str(f)) == f


def test_nesting_cap():
    deepest = "!" * (MAX_NESTING - 1) + "a"
    assert parse_formula(deepest) is not None
    for text in ("!" + deepest,                           # parser recursion
                 "(" * 3000 + "a" + ")" * 3000,
                 " & ".join(["a"] * (MAX_NESTING + 1)),    # left-deep tree
                 "G[>0] " * (MAX_NESTING // 2 + 1) + "a"):  # G adds two levels
        with pytest.raises(FormulaError, match="nesting deeper than"):
            parse_formula(text)
