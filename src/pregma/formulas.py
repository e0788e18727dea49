"""State formulas: truth, atoms, negation, conjunction, and probabilistic
one-step / until operators with a rational threshold.

Concrete syntax, loosest binding last:

    unary:  tt | NAME | ! unary | X[>=1/2] unary | F[...] unary | G[...] unary | ( expr )
    conj:   unary & unary & ...
    expr:   conj | conj U[<=2/3] conj

NAME is a colour or an axiom-rule vertex name (letters, digits, _, ').
Thresholds are exact rationals in [0, 1], written like 1, 0, 2/3.
F[~r] p is shorthand for tt U[~r] p; G[~r] p turns into the dual until with
the comparison flipped around 1-r. Parsing is total: anything malformed
raises FormulaError with a position, and so does a formula nested deeper
than MAX_NESTING levels, which keeps every recursive walk over formulas
(the parser, printing, the labeller) far from the interpreter's recursion
limit.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple


MAX_NESTING = 100


class FormulaError(ValueError):
    pass


class TT(NamedTuple):
    def __str__(self) -> str:
        return "tt"


class Atom(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


class Not(NamedTuple):
    sub: "Formula"

    def __str__(self) -> str:
        return f"!{_wrap(self.sub)}"


class And(NamedTuple):
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left)} & {_wrap(self.right)}"


class Next(NamedTuple):
    cmp: str
    rho: Fraction
    sub: "Formula"

    def __str__(self) -> str:
        return f"X[{self.cmp}{self.rho}] {_wrap(self.sub)}"


class Until(NamedTuple):
    cmp: str
    rho: Fraction
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left)} U[{self.cmp}{self.rho}] {_wrap(self.right)}"


Formula = TT | Atom | Not | And | Next | Until


def _wrap(f: Formula) -> str:
    if isinstance(f, (And, Until)):
        return f"({f})"
    return str(f)


def _depth(f: Formula) -> int:
    """Levels of the formula tree, counted without recursion."""
    deepest, todo = 0, [(f, 1)]
    while todo:
        f, level = todo.pop()
        deepest = max(deepest, level)
        if isinstance(f, (Not, Next)):
            todo.append((f.sub, level + 1))
        elif isinstance(f, (And, Until)):
            todo += [(f.left, level + 1), (f.right, level + 1)]
    return deepest


_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)"  # not \d, which reads any script's digits
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<cmp><=|>=|<|>)"
    r"|(?P<sym>[!&()\[\]]))"
)

_FLIP = {">=": "<=", "<=": ">=", ">": "<", "<": ">"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise FormulaError(f"cannot read {rest[:10]!r} at offset {pos}")
            for kind in ("num", "name", "cmp", "sym"):
                if m.group(kind) is not None:
                    self.tokens.append((kind, m.group(kind), m.start(kind)))
                    break
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None, value: str | None = None):
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula")
        if kind is not None and tok[0] != kind:
            raise FormulaError(f"expected {kind}, got {tok[1]!r} at offset {tok[2]}")
        if value is not None and tok[1] != value:
            raise FormulaError(f"expected {value!r}, got {tok[1]!r} at offset {tok[2]}")
        self.i += 1
        return tok

    def box(self) -> tuple[str, Fraction]:
        self.take("sym", "[")
        cmp = self.take("cmp")[1]
        num = self.take("num")
        try:
            rho = Fraction(num[1])
        except ZeroDivisionError:
            raise FormulaError(f"threshold {num[1]} at offset {num[2]} divides by zero") from None
        if not (0 <= rho <= 1):
            raise FormulaError(
                f"threshold {rho} at offset {num[2]} is outside [0, 1]"
            )
        self.take("sym", "]")
        return cmp, rho

    def unary(self, level: int) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula")
        kind, value, off = tok
        if level > MAX_NESTING:
            raise FormulaError(f"nesting deeper than {MAX_NESTING} at offset {off}")
        if kind == "sym" and value == "!":
            self.take()
            return Not(self.unary(level + 1))
        if kind == "sym" and value == "(":
            self.take()
            f = self.expr(level + 1)
            self.take("sym", ")")
            return f
        if kind == "name" and value == "tt":
            self.take()
            return TT()
        if kind == "name" and value == "X":
            self.take()
            cmp, rho = self.box()
            return Next(cmp, rho, self.unary(level + 1))
        if kind == "name" and value == "F":
            self.take()
            cmp, rho = self.box()
            return Until(cmp, rho, TT(), self.unary(level + 1))
        if kind == "name" and value == "G":
            self.take()
            cmp, rho = self.box()
            return Until(_FLIP[cmp], 1 - rho, TT(), Not(self.unary(level + 1)))
        if kind == "name":
            if value == "U":
                raise FormulaError(f"U needs a left operand (offset {off})")
            self.take()
            return Atom(value)
        raise FormulaError(f"unexpected {value!r} at offset {off}")

    def conj(self, level: int) -> Formula:
        f = self.unary(level)
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "sym" and tok[1] == "&":
                self.take()
                f = And(f, self.unary(level))
            else:
                return f

    def expr(self, level: int) -> Formula:
        f = self.conj(level)
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "U":
            self.take()
            cmp, rho = self.box()
            right = self.conj(level)
            after = self.peek()
            if after is not None and after[0] == "name" and after[1] == "U":
                raise FormulaError(
                    "until does not chain; parenthesise one side"
                )
            return Until(cmp, rho, f, right)
        return f

    def parse(self) -> Formula:
        f = self.expr(1)
        tok = self.peek()
        if tok is not None:
            raise FormulaError(f"trailing {tok[1]!r} at offset {tok[2]}")
        if _depth(f) > MAX_NESTING:
            raise FormulaError(f"nesting deeper than {MAX_NESTING}")
        return f


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()
