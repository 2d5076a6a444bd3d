"""Rational function fields k(t) and their places.

A place of the projective line over k is either a monic irreducible
polynomial pi (residue field k[T]/(pi), degree = deg pi) or the point at
infinity (residue field k, degree 1).  `RationalFunction` keeps the
canonical form num/den with den monic and gcd(num, den) = 1, and provides
evaluation into residue fields (a `FieldScalar` over the place's
`ResidueField`), divisor support, and the derivative needed for residues
of f dg.  Building one from a denominator of 1, as `from_polynomial` does,
takes num as it is, with no gcd and no scaling.

A function is read at a place in one way, `split`: f = z**v * u / w with
the local parameter z and u, w prime to it, dividing pi out of num and
den once.  `valuation` and `unit_value` (the class of u / w in the
residue field) read it, and so does every multiplicative local symbol,
which reduces u and w into the residue field itself and so inverts at
most once per place (`symbols1d.monomial_symbol`).

`FractionField` implements the same `Field` protocol with rational
functions as raw values, which is how functions on the surface k(s)(t) are
built from the same machinery.
"""
from __future__ import annotations

from .errors import (DomainError, MixedFieldError, NotAUnitError,
                     UncertifiedFactorError, ZeroInputError)
from .factor import factor_polynomial
from .fields import Field, FieldScalar, ensure_same_field
from .poly import Polynomial, divide, trim
from .residue_field import ResidueField


class Place:
    """A closed point of the projective line over the ground field."""

    __slots__ = ("field", "var", "pi", "_residue_field")

    def __init__(self, field: Field, var: str, pi: Polynomial | None):
        self.field = field
        self.var = var
        self.pi = pi
        self._residue_field = None

    @classmethod
    def finite(cls, pi: Polynomial) -> "Place":
        if pi.is_zero() or pi.is_constant():
            raise DomainError("a finite place needs a nonconstant polynomial")
        if not pi.is_monic():
            raise DomainError("a finite place needs a monic polynomial")
        # a genuine splitting is a caller mistake; an unsettled
        # certificate over Q is a different failure class
        factors = factor_polynomial(pi).factors
        if len(factors) != 1 or factors[0].multiplicity != 1:
            raise DomainError(f"{pi} is reducible over {pi.field.descriptor}")
        if not factors[0].certified:
            raise UncertifiedFactorError(
                f"{pi} is not certified irreducible over {pi.field.descriptor}")
        return cls(pi.field, pi.var, pi)

    @classmethod
    def at_infinity(cls, field: Field, var: str = "t") -> "Place":
        return cls(field, var, None)

    @property
    def is_infinity(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree

    def residue_field(self) -> ResidueField:
        if self._residue_field is None:
            if self.pi is None:
                self._residue_field = ResidueField.trivial(self.field)
            else:
                self._residue_field = ResidueField(
                    Polynomial(self.field, self.pi.coeffs, "T"))
        return self._residue_field

    def sort_key(self):
        if self.pi is None:
            return (1,)
        return (0, self.pi.degree, self.pi.sort_key())

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return (self.field == other.field and self.var == other.var
                and self.pi == other.pi)

    def __hash__(self):
        return hash((self.field, self.var, self.pi))

    def __str__(self):
        return "inf" if self.pi is None else str(self.pi)

    def __repr__(self):
        return f"Place({self.field.descriptor}, {self})"


class RationalFunction:
    """An element of k(t) in lowest terms with monic denominator."""

    __slots__ = ("field", "var", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroInputError("zero denominator")
        ensure_same_field(num.field, den.field)
        if num.var != den.var:
            raise MixedFieldError(f"mixed variables {num.var}, {den.var}")
        field = num.field
        if den.degree == 0 and den.is_monic():
            # over the denominator 1 every num is in lowest terms
            self.num = num
            self.den = den
        elif num.is_zero():
            self.num = num
            self.den = Polynomial.one(field, num.var)
        else:
            # when either side is a monomial c*t^k (a constant when k = 0)
            # the gcd is t^min(v_t(num), v_t(den)): a slice, no Euclid
            i, j = num.lowest_index(), den.lowest_index()
            if i == num.degree or j == den.degree:
                m = min(i, j)
                if m:
                    num = Polynomial(field, num.coeffs[m:], num.var)
                    den = Polynomial(field, den.coeffs[m:], den.var)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            if not den.is_monic():
                scale = field.inv(den.leading_coefficient())
                num = num.scale(scale)
                den = den.scale(scale)
            self.num = num
            self.den = den
        self.field = field
        self.var = num.var

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.one(p.field, p.var))

    @classmethod
    def constant(cls, field: Field, value, var: str = "t") -> "RationalFunction":
        return cls.from_polynomial(Polynomial.constant(field, value, var))

    @classmethod
    def variable(cls, field: Field, var: str = "t") -> "RationalFunction":
        return cls.from_polynomial(Polynomial.variable(field, var))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            ensure_same_field(self.field, other.field)
            if self.var != other.var:
                raise MixedFieldError(f"mixed variables {self.var}, {other.var}")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        if isinstance(other, int):
            return RationalFunction.constant(self.field, other, self.var)
        raise MixedFieldError(f"cannot combine rational function with {other!r}")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroInputError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.is_zero():
                raise ZeroInputError("negative power of zero")
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def inverse(self) -> "RationalFunction":
        return self ** (-1)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (MixedFieldError, ZeroInputError):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def __str__(self):
        num = str(self.num)
        if self.den == Polynomial.one(self.field, self.var):
            return num
        return f"({num})/({str(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self.field.descriptor}, {self})"

    # -- places ---------------------------------------------------------------

    def _check_nonzero_at(self, place: Place):
        if place.field != self.field or place.var != self.var:
            raise MixedFieldError("place belongs to a different function field")
        if self.is_zero():
            raise ZeroInputError("the zero function has no valuation")

    def split(self, place: Place) -> tuple[int, Polynomial, Polynomial]:
        """(v, u, w) with f = z**v * u / w, z the local parameter at the
        place; errors on the zero function.

        At a finite place z is pi, and u and w are num and den with pi
        divided out, so pi divides neither.  num and den are coprime, so den
        is divided only when pi does not divide num.  At infinity u and w
        are the leading coefficients of num and den, as constants: the
        value of f * z**(-v) there is u / w.
        """
        self._check_nonzero_at(place)
        num, den = self.num, self.den
        if place.is_infinity:
            return (den.degree - num.degree,
                    Polynomial(self.field, num.coeffs[-1:], self.var),
                    Polynomial(self.field, den.coeffs[-1:], self.var))
        v, num = _strip_power(num, place.pi)
        if v:
            return v, num, den
        v, den = _strip_power(den, place.pi)
        return -v, num, den

    def valuation(self, place: Place) -> int:
        """Order of vanishing at the place; errors on the zero function."""
        if place.is_infinity:
            self._check_nonzero_at(place)
            return self.den.degree - self.num.degree
        return self.split(place)[0]

    def unit_value(self, place: Place):
        """Raw residue-field value of the unit part f * z**(-v) at the place."""
        _, u, w = self.split(place)
        L = place.residue_field()
        return L.div(L.from_polynomial(u), L.from_polynomial(w))

    def evaluate(self, place: Place) -> FieldScalar:
        """The class of f in the residue field; f must be a unit at the place."""
        if self.is_zero():
            raise ZeroInputError("cannot evaluate the zero function as a unit")
        v, u, w = self.split(place)
        if v != 0:
            raise NotAUnitError(f"function has a zero or pole at {place}")
        L = place.residue_field()
        return L.scalar(L.div(L.from_polynomial(u), L.from_polynomial(w)))

    def support(self) -> list[tuple[Place, int]]:
        """The divisor of f: all places with nonzero valuation, canonical order.

        Requires a fully certified factorization of numerator and denominator;
        over Q an unresolved degree >= 4 cofactor raises.
        """
        if self.is_zero():
            raise ZeroInputError("the zero function has no divisor")
        entries: list[tuple[Place, int]] = []
        for poly, sign in ((self.num, 1), (self.den, -1)):
            if poly.is_constant():
                continue
            fac = factor_polynomial(poly)
            for item in fac.factors:
                if not item.certified:
                    raise UncertifiedFactorError(
                        f"uncertified irreducible factor {item.base} of {poly}")
                entries.append((Place(self.field, self.var, item.base),
                                sign * item.multiplicity))
        v_inf = self.den.degree - self.num.degree
        if v_inf != 0:
            entries.append((Place.at_infinity(self.field, self.var), v_inf))
        entries.sort(key=lambda pair: pair[0].sort_key())
        return entries


def _strip_power(p: Polynomial, pi: Polynomial) -> tuple[int, Polynomial]:
    """Largest k with pi**k | p, together with the cofactor p / pi**k."""
    F = p.field
    coeffs = p.coeffs
    count = 0
    while True:
        q, r = divide(F, coeffs, pi.coeffs)
        if trim(F, r):
            return count, (Polynomial(F, coeffs, p.var) if count else p)
        count += 1
        coeffs = q


def support_union(*functions: RationalFunction,
                  include_infinity: bool = False) -> list[Place]:
    """Sorted union of the supports of several functions, which must all
    lie in one k(t)."""
    places: dict = {}
    first = functions[0]
    for f in functions:
        for place, _ in first._coerce(f).support():
            places[place] = True
    if include_infinity:
        places[Place.at_infinity(first.field, first.var)] = True
    return sorted(places, key=lambda x: x.sort_key())


class FractionField(Field):
    """k(x) viewed as a coefficient field; raw elements are RationalFunction."""

    def __init__(self, base: Field, var: str):
        self.base = base
        self.var = var
        self.char = base.char
        self.descriptor = f"{base.descriptor}({var})"
        self.zero = RationalFunction.constant(base, 0, var)
        self.one = RationalFunction.constant(base, 1, var)

    def coerce(self, value):
        if isinstance(value, RationalFunction):
            ensure_same_field(value.field, self.base)
            if value.var != self.var:
                raise MixedFieldError(f"expected functions of {self.var}")
            return value
        if isinstance(value, Polynomial):
            return RationalFunction.from_polynomial(value)
        if isinstance(value, int):
            return RationalFunction.constant(self.base, value, self.var)
        raise MixedFieldError(f"cannot coerce {value!r} into {self.descriptor}")

    def from_int(self, n: int):
        return RationalFunction.constant(self.base, n, self.var)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a.is_zero():
            raise ZeroInputError(f"division by zero in {self.descriptor}")
        return a.inverse()

    def pow(self, a, n: int):
        return a ** n

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def eq(self, a, b) -> bool:
        return a == b

    def sort_key(self, a):
        return a.sort_key()

    def render(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return (isinstance(other, FractionField) and self.base == other.base
                and self.var == other.var)

    def __hash__(self):
        return hash(("fraction", self.base, self.var))
