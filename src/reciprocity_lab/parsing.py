"""Expression parsing for the command line.

The grammar covers everything the canonical renderers emit: integer
literals, named variables, "+", "-", "*", "/", "^" with integer exponents,
and parentheses.  Multiplication is always explicit, "^" binds tighter
than unary minus, and "/" associates left like "*", so "1/2*t" is (1/2)*t
and "1/t^2" is t^(-2).  Round trips parse(str(f)) == f hold for every
canonical form.
"""
from __future__ import annotations

import re

from .errors import ParseError
from .fields import Field, field_from_descriptor
from .funcfield import Place, RationalFunction
from .surface import surface_generators

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\^|[-+*/()]")


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


class _ExpressionParser:
    """Recursive descent over the token list; values are field elements."""

    def __init__(self, tokens: list[str], variables: dict, make_int):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.make_int = make_int

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self):
        value = self.expression()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return value

    def expression(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = value * self.factor()
            else:
                value = value / self.factor()
        return value

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.power()
        return -value if sign < 0 else value

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            value = value ** self.exponent()
        return value

    def exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        token = self.take()
        if not token.isdigit():
            raise ParseError(f"expected an integer exponent, got {token!r}")
        return sign * int(token)

    def atom(self):
        token = self.take()
        if token.isdigit():
            return self.make_int(int(token))
        if token == "(":
            value = self.expression()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.take()
            return value
        if token in self.variables:
            return self.variables[token]
        if token[0].isalpha() or token[0] == "_":
            raise ParseError(f"unknown variable {token!r}")
        raise ParseError(f"unexpected token {token!r}")


def parse_rational(text: str, field: Field, var: str = "t") -> RationalFunction:
    """A one-variable rational function in canonical form."""
    parser = _ExpressionParser(
        _tokenize(text),
        {var: RationalFunction.variable(field, var)},
        lambda n: RationalFunction.constant(field, n, var))
    return parser.parse()


def parse_surface(text: str, base: Field, s_var: str = "s",
                  t_var: str = "t") -> RationalFunction:
    """A two-variable function of the surface model, coefficients in k(s)."""
    s, t = surface_generators(base, s_var, t_var)
    parser = _ExpressionParser(
        _tokenize(text), {s_var: s, t_var: t},
        lambda n: RationalFunction.constant(t.field, n, t_var))
    return parser.parse()


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
