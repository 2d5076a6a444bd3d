"""Expression parsing for the command line.

The grammar covers everything the canonical renderers emit: integer
literals, named variables, "+", "-", "*", "/", "^" with integer exponents,
and parentheses.  Multiplication is always explicit, "^" binds tighter
than unary minus, and "/" associates left like "*", so "1/2*t" is (1/2)*t
and "1/t^2" is t^(-2).  Round trips parse(str(f)) == f hold for every
canonical form.

While parsing, a value is an unreduced pair (num, den) of sparse
polynomials in k[t, s], each a dict {(t_exp, s_exp): raw} over the ground
field without zero entries.  "+" adds numerators over an equal denominator
and cross-multiplies otherwise, "*" and "/" cross-multiply, and "^" goes
through `fields.power` (a negative power swaps num and den).  Nothing is
reduced on the way: the pair becomes one `RationalFunction(num, den)` at
the end, the only canonicalization of a parse.  `parse_rational` never
binds s; `parse_surface` reads the s-exponents into k(s) coefficients of
polynomials in t.

Exponents are bounded: "^n" with |n| > EXPONENT_BOUND is a ParseError,
raised before any power is built.
"""
from __future__ import annotations

import re

from .errors import ParseError, ZeroInputError
from .fields import Field, field_from_descriptor, power
from .funcfield import FractionField, Place, RationalFunction
from .poly import Polynomial

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\^|[-+*/()]")

# Largest |n| in "^n".  README, tests and perfbench write at most ^13; 50
# leaves almost 4x headroom.  (1+s+t)^50 parses in about 1 s over Q, where
# (1+s+t)^100 takes 10 s and t^20000000 built a dense tuple of twenty
# million entries.
EXPONENT_BOUND = 50

_T, _S = (1, 0), (0, 1)


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"bad character {text[pos]!r} in {text!r}")
        out.append(match.group(0))
        pos = match.end()
    return out


def _add(F: Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        if key in out:
            c = F.add(out[key], c)
            if F.is_zero(c):
                del out[key]
                continue
        out[key] = c
    return out


def _mul(F: Field, a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            xy = F.mul(x, y)
            out[key] = F.add(out[key], xy) if key in out else xy
    return {key: c for key, c in out.items() if not F.is_zero(c)}


class _ExpressionParser:
    """Recursive descent over the token list; values are (num, den) pairs."""

    def __init__(self, tokens: list[str], field: Field, variables: dict):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.one = {(0, 0): field.one}
        self.variables = variables

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> tuple[dict, dict]:
        value = self.expression()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return value

    def mul(self, a: dict, b: dict) -> dict:
        return _mul(self.field, a, b)

    def neg(self, a: dict) -> dict:
        return {key: self.field.neg(c) for key, c in a.items()}

    def expression(self):
        num, den = self.term()
        while self.peek() in ("+", "-"):
            minus = self.take() == "-"
            num2, den2 = self.term()
            if minus:
                num2 = self.neg(num2)
            if den == den2:
                num = _add(self.field, num, num2)
            else:
                num = _add(self.field, self.mul(num, den2),
                           self.mul(num2, den))
                den = self.mul(den, den2)
        return num, den

    def term(self):
        num, den = self.factor()
        while self.peek() in ("*", "/"):
            divide = self.take() == "/"
            num2, den2 = self.factor()
            if divide:
                if not num2:
                    raise ZeroInputError("division by the zero function")
                num2, den2 = den2, num2
            num, den = self.mul(num, num2), self.mul(den, den2)
        return num, den

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        num, den = self.power()
        return (self.neg(num) if sign < 0 else num), den

    def power(self):
        num, den = self.atom()
        if self.peek() != "^":
            return num, den
        self.take()
        n = self.exponent()
        if n < 0:
            if not num:
                raise ZeroInputError("negative power of zero")
            num, den, n = den, num, -n
        return (power(self.mul, self.one, num, n),
                power(self.mul, self.one, den, n))

    def exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        token = self.take()
        if not token.isdigit():
            raise ParseError(f"expected an integer exponent, got {token!r}")
        # lengths first: int() refuses strings of more than 4300 digits
        digits = token.lstrip("0") or "0"
        if len(digits) > len(str(EXPONENT_BOUND)) \
                or int(digits) > EXPONENT_BOUND:
            raise ParseError(f"exponent {token} is outside "
                             f"[-{EXPONENT_BOUND}, {EXPONENT_BOUND}]")
        return sign * int(digits)

    def atom(self):
        token = self.take()
        if token.isdigit():
            c = self.field.coerce(int(token))
            return ({} if self.field.is_zero(c) else {(0, 0): c}), self.one
        if token == "(":
            value = self.expression()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.take()
            return value
        if token in self.variables:
            return {self.variables[token]: self.field.one}, self.one
        if token[0].isalpha() or token[0] == "_":
            raise ParseError(f"unknown variable {token!r}")
        raise ParseError(f"unexpected token {token!r}")


def _polynomial(F: Field, by_exponent: dict, var: str) -> Polynomial:
    """The polynomial in var with the coefficients {exponent: raw}."""
    coeffs = [F.zero] * (max(by_exponent, default=-1) + 1)
    for k, c in by_exponent.items():
        coeffs[k] = c
    return Polynomial(F, coeffs, var)


def parse_rational(text: str, field: Field, var: str = "t") -> RationalFunction:
    """A one-variable rational function in canonical form."""
    pair = _ExpressionParser(_tokenize(text), field, {var: _T}).parse()
    return RationalFunction(*(
        _polynomial(field, {i: c for (i, _), c in p.items()}, var)
        for p in pair))


def parse_surface(text: str, base: Field, s_var: str = "s",
                  t_var: str = "t") -> RationalFunction:
    """A two-variable function of the surface model, coefficients in k(s)."""
    pair = _ExpressionParser(_tokenize(text), base,
                             {s_var: _S, t_var: _T}).parse()
    ks = FractionField(base, s_var)

    def in_t(terms: dict) -> Polynomial:
        rows: dict = {}
        for (i, j), c in terms.items():
            rows.setdefault(i, {})[j] = c
        return _polynomial(ks, {
            i: RationalFunction.from_polynomial(_polynomial(base, row, s_var))
            for i, row in rows.items()}, t_var)

    return RationalFunction(*(in_t(p) for p in pair))


def parse_place(text: str, field: Field, var: str = "t") -> Place:
    """A place literal: "inf" or a monic irreducible polynomial."""
    if text.strip() == "inf":
        return Place.at_infinity(field, var)
    value = parse_rational(text, field, var)
    if value.den.degree != 0:
        raise ParseError(f"a place needs a polynomial, got {text!r}")
    return Place.finite(value.num)


def parse_field(text: str) -> Field:
    return field_from_descriptor(text)
