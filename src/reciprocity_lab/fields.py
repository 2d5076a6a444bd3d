"""The `Field` protocol and the exact ground fields Q and F_p.

A field descriptor owns the raw representation of its elements
(`fractions.Fraction` for Q, canonical ints in 0..p-1 for F_p) and performs
all arithmetic on raw values.  Every coefficient field in the library
implements this one protocol: the ground fields here, residue fields
k[T]/(pi) (`residue_field.ResidueField`) and rational function fields k(s)
(`funcfield.FractionField`).  `FieldScalar` is the one tagged wrapper used
at API boundaries for all of them; arithmetic between scalars of different
descriptors is a hard error, the only implicit conversion anywhere is int
literals into the ambient field.

This module also owns the library's one square-and-multiply loop,
`power(mul, one, x, n)`, behind `Field.pow`, `Polynomial.__pow__` and
modular powers in `factor`, and its one signed-monomial builder,
`Field.monomial`.  It has two callers: `symbols1d.monomial_symbol`, which
builds every multiplicative local symbol (the tame, Horozov, Parshin and
four-slot symbols) as the norm of one such monomial in k(x), and
`surface.curve_tame`, which builds the curve-level tame symbol in k(s)
from the same tame table.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import DomainError, MixedFieldError, ParseError, ZeroInputError


# Miller-Rabin with the first k prime bases is exact below psi_k, the
# least strong pseudoprime to all of them (Jaeschke 1993 up to psi_8;
# Jiang and Deng 2014; Sorenson and Webster 2015 for psi_12 and psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
_MR_LIMIT = _MR_PSI[-1]

# Python turns at most 4300 digits of an int into text by default, and
# 2^14284 < 10^4300: a rational whose numerator and denominator fit in
# this many bits always renders, a larger one is refused before str().
_RENDER_BITS = 14284


def _is_prime(n: int) -> bool:
    """Exact primality below `_MR_LIMIT`; larger n raise DomainError.
    Only the shortest prefix of `_MR_BASES` proven for n runs."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise DomainError(f"modulus {n} is too large to certify as prime")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:next(k for k, psi in enumerate(_MR_PSI, 1)
                             if n < psi)]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(mul, one, x, n: int):
    """x**n for n >= 0 by square-and-multiply with the product `mul`.

    It never squares past the top bit of n and never multiplies by `one`,
    so n >= 1 costs floor(log2 n) + popcount(n) - 1 products.
    """
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


class Field:
    """Common helpers shared by the concrete field descriptors."""

    char: int
    descriptor: str

    def scalar(self, value) -> "FieldScalar":
        return FieldScalar(self, self.coerce(value))

    def zero_scalar(self) -> "FieldScalar":
        return FieldScalar(self, self.zero)

    def one_scalar(self) -> "FieldScalar":
        return FieldScalar(self, self.one)

    def sign(self, exponent: int):
        """Raw value of (-1)**exponent in this field."""
        return self.one if exponent % 2 == 0 else self.neg(self.one)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return power(self.mul, self.one, a, n)

    def monomial(self, sign: int, factors):
        """Raw (-1)**sign * prod(a**e) over a sequence of pairs (a, e).

        Positive and negative powers are multiplied apart, so this inverts
        at most once, and never when no exponent is negative; a zero
        exponent contributes nothing.
        """
        ups = [self.pow(a, e) for a, e in factors if e > 0]
        downs = [self.pow(a, -e) for a, e in factors if e < 0]
        if downs:
            ups.append(self.inv(reduce(self.mul, downs)))
        if not ups:
            return self.sign(sign)
        value = reduce(self.mul, ups)
        return self.neg(value) if sign % 2 else value

    def __repr__(self):
        return self.descriptor


class RationalField(Field):
    """The field Q with `Fraction` raw values."""

    char = 0
    descriptor = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise MixedFieldError(f"cannot coerce {value!r} into Q")

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroInputError("division by zero in Q")
        return 1 / a

    def pow(self, a, n: int):
        if n < 0 and a == 0:
            raise ZeroInputError("division by zero in Q")
        return a ** n

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    def render(self, a) -> str:
        if max(a.numerator.bit_length(),
               a.denominator.bit_length()) > _RENDER_BITS:
            raise DomainError("a computed value has more than 4300 digits "
                              "and cannot be rendered")
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The field F_p, raw values are canonical representatives 0..p-1."""

    char: int

    def __init__(self, p: int):
        if not _is_prime(p):
            raise DomainError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.descriptor = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        raise MixedFieldError(f"cannot coerce {value!r} into {self.descriptor}")

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInputError(f"division by zero in {self.descriptor}")
        return pow(a, -1, self.p)

    def pow(self, a, n: int):
        if n < 0 and a % self.p == 0:
            raise ZeroInputError(f"division by zero in {self.descriptor}")
        return pow(a, n, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def sort_key(self, a):
        return a % self.p

    def render(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def field_from_descriptor(text: str) -> Field:
    """Parse a field descriptor: "Q" or "Fp:<prime>"."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ParseError(f"bad prime in field descriptor {text!r}") from None
        return PrimeField(p)
    raise ParseError(f"unknown field descriptor {text!r}")


def ensure_same_field(a: Field, b: Field):
    if a != b:
        raise MixedFieldError(f"mixed fields: {a.descriptor} vs {b.descriptor}")


class FieldScalar:
    """An exact field element tagged with its field descriptor."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw):
        self.field = field
        self.raw = raw

    def _check(self, other) -> "FieldScalar":
        if isinstance(other, FieldScalar):
            ensure_same_field(self.field, other.field)
            return other
        if isinstance(other, int):
            return FieldScalar(self.field, self.field.from_int(other))
        raise MixedFieldError(f"cannot combine scalar with {other!r}")

    def __add__(self, other):
        other = self._check(other)
        return FieldScalar(self.field, self.field.add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldScalar(self.field, self.field.sub(self.raw, other.raw))

    def __rsub__(self, other):
        other = self._check(other)
        return FieldScalar(self.field, self.field.sub(other.raw, self.raw))

    def __mul__(self, other):
        other = self._check(other)
        return FieldScalar(self.field, self.field.mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return FieldScalar(self.field, self.field.div(self.raw, other.raw))

    def __rtruediv__(self, other):
        other = self._check(other)
        return FieldScalar(self.field, self.field.div(other.raw, self.raw))

    def __pow__(self, n: int):
        return FieldScalar(self.field, self.field.pow(self.raw, n))

    def __neg__(self):
        return FieldScalar(self.field, self.field.neg(self.raw))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.raw)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.field.eq(self.raw, self.field.from_int(other))
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.field == other.field and self.field.eq(self.raw, other.raw)

    def __hash__(self):
        return hash((self.field, self.raw))

    def __str__(self):
        return self.field.render(self.raw)

    def __repr__(self):
        return f"FieldScalar({self.field.descriptor}, {self})"
