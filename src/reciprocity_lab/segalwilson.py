"""Multiplicative analogue of the residue pairing, truncated in z.

Values live in k[z]/(z^(N+1)) with unit constant term, standing in for the
Laurent-series units of the loop-group picture.  The pairing of two
functions at a place is the even exponential of half their residue; all of
its identities (group law, additivity over lattices, the 2-cocycle rule on
the additive group, commensurability invariance) are exact order-by-order
polynomial identities, so a truncation order is the whole story.

Characteristic zero only: the exponential needs every n! invertible.
"""
from __future__ import annotations

from operator import mul as _mul

from .errors import DomainError, ZeroInputError
from .fields import Field, FieldScalar, power
from .funcfield import Place, RationalFunction
from .lattices import MonomialLattice
from .poly import convolve, series_quotient
from .report import VerificationReport, place_law_report
from .symbols1d import residue_theorem_places
from .tate import abstract_residue_trace, classical_residue

DEFAULT_ORDER = 12

# Largest truncation order the command line accepts.  exp_z2(1/2) has the
# coefficients 1/(2^n n!) for 2n <= order: at order 3000 their denominators
# pass Python's 4300-digit limit on int-to-str conversion, so rendering the
# report failed.  At 1000 they stay under 1300 digits, `sw --f 1/t --g t
# --order 1000` takes about 2 s, and the bound is 83x the default.
ORDER_BOUND = 1000


class TruncatedPowerSeries:
    """An element of k[z]/(z^(N+1)); arithmetic truncates at order N."""

    __slots__ = ("field", "order", "coeffs")

    def __init__(self, field: Field, coeffs, order: int):
        if order < 0:
            raise DomainError("truncation order must be nonnegative")
        self.field = field
        self.order = order
        raws = [field.coerce(c) if isinstance(c, int) else c for c in coeffs]
        raws = raws[:order + 1]
        raws += [field.zero] * (order + 1 - len(raws))
        self.coeffs = tuple(raws)

    @classmethod
    def one(cls, field: Field, order: int) -> "TruncatedPowerSeries":
        return cls(field, (field.one,), order)

    @classmethod
    def constant(cls, field: Field, value, order: int) -> "TruncatedPowerSeries":
        return cls(field, (field.coerce(value),), order)

    def coefficient(self, n: int) -> FieldScalar:
        if n < 0 or n > self.order:
            raise DomainError(f"order {n} outside the truncation range")
        return FieldScalar(self.field, self.coeffs[n])

    def _check(self, other) -> "TruncatedPowerSeries":
        if not isinstance(other, TruncatedPowerSeries):
            raise DomainError("expected a truncated series")
        if self.field != other.field or self.order != other.order:
            raise DomainError("series of different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        F = self.field
        return TruncatedPowerSeries(
            F, [F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)],
            self.order)

    def __sub__(self, other):
        other = self._check(other)
        F = self.field
        return TruncatedPowerSeries(
            F, [F.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)],
            self.order)

    def __neg__(self):
        F = self.field
        return TruncatedPowerSeries(F, [F.neg(a) for a in self.coeffs],
                                    self.order)

    def __mul__(self, other):
        other = self._check(other)
        F = self.field
        return TruncatedPowerSeries(
            F, convolve(F, self.coeffs, other.coeffs, self.order + 1),
            self.order)

    def inverse(self) -> "TruncatedPowerSeries":
        F = self.field
        if F.is_zero(self.coeffs[0]):
            raise ZeroInputError("series with zero constant term has no inverse")
        return TruncatedPowerSeries(
            F, series_quotient(F, (F.one,), self.coeffs, self.order + 1),
            self.order)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(_mul, TruncatedPowerSeries.one(self.field, self.order),
                     self, n)

    def is_one(self) -> bool:
        F = self.field
        if not F.eq(self.coeffs[0], F.one):
            return False
        return all(F.is_zero(c) for c in self.coeffs[1:])

    def __eq__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return (self.field == other.field and self.order == other.order
                and all(self.field.eq(a, b)
                        for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.order, tuple(self.field.render(c)
                                       for c in self.coeffs)))

    def __str__(self):
        F = self.field
        parts = []
        for n, c in enumerate(self.coeffs):
            if F.is_zero(c):
                continue
            if n == 0:
                parts.append(F.render(c))
            elif n == 1:
                parts.append(f"{F.render(c)}*z")
            else:
                parts.append(f"{F.render(c)}*z^{n}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncatedPowerSeries({self})"


def _require_char_zero(field: Field) -> None:
    if field.char != 0:
        raise DomainError("the exponential pairing needs a ground field "
                          "of characteristic zero")


def _half(field: Field) -> FieldScalar:
    """1/2 in a ground field, which must have characteristic zero."""
    _require_char_zero(field)
    return FieldScalar(field, field.inv(field.from_int(2)))


def exp_z2(a: FieldScalar, order: int = DEFAULT_ORDER) -> TruncatedPowerSeries:
    """The even exponential: sum of a^n z^(2n) / n! up to the order.

    Satisfies exp_z2(a) * exp_z2(b) = exp_z2(a + b) exactly per order.
    """
    field = a.field
    _require_char_zero(field)
    coeffs = [field.zero] * (order + 1)
    term = field.one
    n = 0
    while 2 * n <= order:
        coeffs[2 * n] = term
        n += 1
        term = field.div(field.mul(term, a.raw), field.from_int(n))
    return TruncatedPowerSeries(field, coeffs, order)


def cocycle_c(f: RationalFunction, g: RationalFunction, x: Place,
              order: int = DEFAULT_ORDER) -> TruncatedPowerSeries:
    """Pairing value at x: even exponential of half the residue of f dg."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("the pairing is defined on nonzero functions")
    half = _half(f.field)
    return exp_z2(classical_residue(f, g, x) * half, order)


def cocycle_on_lattice(f: RationalFunction, g: RationalFunction, x: Place,
                       lattice: MonomialLattice,
                       order: int = DEFAULT_ORDER) -> TruncatedPowerSeries:
    """Pairing against an arbitrary lattice: exponential of half the
    truncated commutator trace instead of the standard residue."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("the pairing is defined on nonzero functions")
    half = _half(f.field)
    trace = abstract_residue_trace(f, g, x, lattice=lattice)
    return exp_z2(trace * half, order)


def sw_verify(f: RationalFunction, g: RationalFunction,
              order: int = DEFAULT_ORDER) -> VerificationReport:
    """Product of the pairing over all places of the joint support is 1."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("the pairing is defined on nonzero functions")
    field = f.field
    half = _half(field)

    def local(x):
        residue = classical_residue(f, g, x)
        value = exp_z2(residue * half, order)
        return value, {"residue": str(residue), "value": str(value)}

    return place_law_report("segal-wilson-product", field.descriptor,
                            {"f": str(f), "g": str(g), "order": str(order)},
                            residue_theorem_places(f, g), local,
                            TruncatedPowerSeries.one(field, order), _mul)
