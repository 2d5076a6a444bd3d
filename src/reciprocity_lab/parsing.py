"""Expression parsing for the command line.

The grammar covers everything the canonical renderers emit: integer
literals, named variables, "+", "-", "*", "/", "^" with integer exponents,
and parentheses.  Multiplication is always explicit, "^" binds tighter
than unary minus, and "/" associates left like "*", so "1/2*t" is (1/2)*t
and "1/t^2" is t^(-2).  Round trips parse(str(f)) == f hold for every
canonical form.

The tokeniser is one `findall` of blanks followed by a token or else one
bad character, which is refused; the list ends in the sentinel None, so
the parser reads ahead with no bounds check.

While parsing, a value is an unreduced pair (num, den) of sparse
polynomials in k[t, s], each a dict {(t_exp, s_exp): c} of plain ints
without zero entries: exact integers over Q, since every literal is one and
"/" only swaps num and den, and ints in 1..p-1 over F_p, where a product
sums exactly and reduces each entry mod p once.  "+" adds numerators over
an equal denominator and cross-multiplies otherwise, "*" and "/"
cross-multiply, and "^" goes through `fields.power` (a negative power swaps
num and den; a side that is 1 stays 1, unmultiplied).  Nothing is reduced
on the way.  Field values (Fractions, residues mod p) appear only when the
pair becomes `Polynomial`s at the end:
`parse_rational` makes it one `RationalFunction(num, den)` and never binds
s.  `parse_surface` builds the k(s)(t) form in one pass.  It groups the
pair by t-exponent and divides each row, a polynomial in s, by
L = lc_t(den) as one `RationalFunction(row, L)` in k(s): one gcd in k[s]
per coefficient, none when L = 1 or the row is L, as den's top row is, which
becomes k(s)'s one.  Rows are compared with L as int dicts, before any
`Polynomial` is built: their entries are canonical and nonzero, so equal
dicts are equal polynomials.  The denominator in t is then monic, so
the final `RationalFunction(num, den)` over k(s) only strips a common power
of t, or runs the gcd over k(s)[t] when neither side is a monomial in t.

Work is bounded before it is done.  "^n" with |n| > EXPONENT_BOUND, a
product whose num or den would have total degree above DEGREE_BOUND
(nested powers such as ((t+1)^50)^50 included), and an integer literal of
more than DIGIT_BOUND digits are each a ParseError, raised before the
power, the product or the integer is built.  Over Q the coefficients are
integers, and a product or power whose coefficients could pass DIGIT_BOUND
digits, by a bound from the sums and maxima of its operands' coefficients,
is refused too, so ((7^50)^50)^50 never reaches the renderer.  Sums are not
checked: they add at most one digit per "+" of the text.  The truncation
order of `sw --order` has its bound and default here too, beside the other
input bounds, so the command line reads them without loading `segalwilson`.
"""
from __future__ import annotations

import re
from functools import lru_cache, partial

from .errors import ParseError, ZeroInputError
from .fields import Field, power
from .funcfield import FractionField, Place, RationalFunction
from .poly import Polynomial

# each match is blanks, then a token or else one bad character
_TOKENS = re.compile(r"\s*(?:(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|[-+*/()])|(\S))")

# Largest |n| in "^n".  README, tests and perfbench write at most ^13; 50
# leaves almost 4x headroom.  (1+s+t)^50 parses in about 0.05 s over Q
# (2-vCPU VM, Python 3.11), and t^20000000 would build a dense tuple of
# twenty million entries.
EXPONENT_BOUND = 50

# Largest total degree in t and s of a numerator or denominator, checked
# before every product and, once for the whole chain, before every power.
# README and perfbench reach degree 7 at most; 100 is twice a power at the
# exponent bound, such as (1+s+t)^50.  The costliest product under it,
# (1+s+t)^50 squared over Q (1326 by 1326 terms with coefficients up to
# 3^50), takes about 0.7 s on ints on the same machine, and the tests parse
# it; ((t+1)^50)^50 would have degree 2500.
DEGREE_BOUND = 100

# Most digits in an integer literal, and in any coefficient a product or a
# power may build over Q.  The longest literal in README, tests, perfbench
# and ROADMAP has 25 digits; 1000 leaves 40x headroom and stays under the
# 4300 digits that int() and str() accept by default.
DIGIT_BOUND = 1000

# Truncation order of the exponential pairing (`segalwilson`) when none is
# given.
DEFAULT_ORDER = 12

# Largest truncation order the command line accepts.  exp_z2(1/2) has the
# coefficients 1/(2^n n!) for 2n <= order: at order 3000 their denominators
# pass Python's 4300-digit limit on int-to-str conversion, so rendering the
# report failed.  At 1000 they stay under 1300 digits, `sw --f 1/t --g t
# --order 1000` takes about 2 s, and the bound is 83x the default.
ORDER_BOUND = 1000

_T, _S = (1, 0), (0, 1)


def _tokenize(text: str) -> list:
    """The tokens of text, ended by the sentinel None."""
    tokens = []
    for token, bad in _TOKENS.findall(text):
        if bad:
            raise ParseError(f"bad character {bad!r} in {text!r}")
        tokens.append(token)
    tokens.append(None)
    return tokens


def _add(p: int, a: dict, b: dict) -> dict:
    """a + b over F_p, or over Q when p is 0."""
    out = dict(a)
    for key, c in b.items():
        if key in out:
            c += out[key]
            if p:
                c %= p
            if not c:
                del out[key]
                continue
        out[key] = c
    return out


def _degree(a: dict) -> int:
    return max(map(sum, a)) if a else 0


def _check_degree(degree: int) -> None:
    if degree > DEGREE_BOUND:
        raise ParseError(f"degree {degree} is above the bound {DEGREE_BOUND}")


def _height(a: dict) -> tuple[int, int]:
    """Sum and largest of the absolute values of a's coefficients over Q."""
    sizes = [abs(c) for c in a.values()]
    return sum(sizes), max(sizes, default=0)


def _mul(p: int, a: dict, b: dict) -> dict:
    """a * b over F_p, or over Q when p is 0.  The sums are exact, and over
    F_p each entry is reduced once."""
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            if key in out:
                out[key] += x * y
            else:
                out[key] = x * y
    if p:
        return {key: c % p for key, c in out.items() if c % p}
    return {key: c for key, c in out.items() if c}


class _ExpressionParser:
    """Recursive descent over the token list; values are (num, den) pairs."""

    def __init__(self, tokens: list[str], field: Field, variables: dict):
        self.tokens = tokens
        self.pos = 0
        # ints mod p in characteristic p, exact ints in characteristic 0
        self.p = field.char
        self.one = {(0, 0): 1}
        self.variables = variables
        # over F_p every value is already reduced, so only Q bounds heights
        self.height_limit = None if self.p else 10 ** DIGIT_BOUND

    def peek(self) -> str | None:
        # the token list ends in None, and take() never passes it
        return self.tokens[self.pos]

    def take(self) -> str:
        token = self.tokens[self.pos]
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
        # values are never changed in place, so 1 * b may be b itself
        if a is self.one or b is self.one:
            return b if a is self.one else a
        _check_degree(_degree(a) + _degree(b))
        if self.height_limit:
            (sum_a, max_a), (sum_b, max_b) = _height(a), _height(b)
            # each coefficient of a*b sums products over pairs of terms
            self.check_height(min(sum_a * max_b, max_a * sum_b))
        return _mul(self.p, a, b)

    def check_height(self, bound: int) -> None:
        if bound >= self.height_limit:
            raise ParseError(f"a coefficient could have more than "
                             f"{DIGIT_BOUND} digits")

    def neg(self, a: dict) -> dict:
        if self.p:
            return {key: self.p - c for key, c in a.items()}
        return {key: -c for key, c in a.items()}

    def expression(self):
        num, den = self.term()
        while self.peek() in ("+", "-"):
            minus = self.take() == "-"
            num2, den2 = self.term()
            if minus:
                num2 = self.neg(num2)
            if den == den2:
                num = _add(self.p, num, num2)
            else:
                num = _add(self.p, self.mul(num, den2), self.mul(num2, den))
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
        # one check for the whole chain: no square passes the result's degree,
        # and over Q no coefficient passes (sum of |coefficients|)^n
        _check_degree(n * max(_degree(num), _degree(den)))
        if self.height_limit:
            self.check_height(max(_height(num)[0], _height(den)[0]) ** n)
        mul = partial(_mul, self.p)
        # 1^n is 1, which stays self.one so that `mul` skips it
        return tuple(a if a is self.one else power(mul, self.one, a, n)
                     for a in (num, den))

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
            # lengths first, as for exponents
            digits = token.lstrip("0") or "0"
            if len(digits) > DIGIT_BOUND:
                raise ParseError(f"integer literal of {len(digits)} digits; "
                                 f"at most {DIGIT_BOUND} are read")
            c = int(digits) % self.p if self.p else int(digits)
            return ({(0, 0): c} if c else {}), self.one
        if token == "(":
            value = self.expression()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.take()
            return value
        if token in self.variables:
            return {self.variables[token]: 1}, self.one
        if token[0].isalpha() or token[0] == "_":
            raise ParseError(f"unknown variable {token!r}")
        raise ParseError(f"unexpected token {token!r}")


def _polynomial(F: Field, by_exponent: dict, var: str) -> Polynomial:
    """The polynomial in var with the coefficients {exponent: c}, each a
    raw value of F or an int that F coerces."""
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


def parse_surface(text: str, base: Field) -> RationalFunction:
    """A function of s and t on the surface model, coefficients in k(s)."""
    num, den = _ExpressionParser(_tokenize(text), base,
                                 {"s": _S, "t": _T}).parse()
    ks = _coefficient_field(base)
    top = max(i for i, _ in den)
    lead_row = {j: c for (i, j), c in den.items() if i == top}
    lead = _polynomial(base, lead_row, "s")

    def coefficient(row: dict):
        # entries are canonical nonzero ints, so rows compare as dicts; a
        # row equal to lead, as den's top row is, divides to k(s)'s one
        if row == lead_row:
            return ks.one
        return RationalFunction(_polynomial(base, row, "s"), lead)

    def in_t(terms: dict) -> Polynomial:
        rows: dict = {}
        for (i, j), c in terms.items():
            rows.setdefault(i, {})[j] = c
        return _polynomial(ks, {i: coefficient(row) for i, row in rows.items()},
                           "t")

    return RationalFunction(in_t(num), in_t(den))


@lru_cache(maxsize=16)
def _coefficient_field(base: Field) -> FractionField:
    """k(s) over base, built once: a build makes its zero and one."""
    return FractionField(base, "s")


def parse_place(text: str, field: Field, var: str = "t") -> Place:
    """A place literal: "inf" or a monic irreducible polynomial."""
    if text.strip() == "inf":
        return Place.at_infinity(field, var)
    value = parse_rational(text, field, var)
    if value.den.degree != 0:
        raise ParseError(f"a place needs a polynomial, got {text!r}")
    return Place.finite(value.num)
