"""Multiplicative analogue of the residue pairing, truncated in z.

Values live in k[z]/(z^(N+1)) with unit constant term, standing in for the
Laurent-series units of the loop-group picture.  The pairing of two
functions at a place is the even exponential of half their residue.  Its
identities are exact order-by-order polynomial identities, so a truncation
order is the whole story:
  exp_z2(a) * exp_z2(b) = exp_z2(a + b) (the group law);
  c(f, g + h) * c(g, h) = c(f + g, h) * c(f, g) (the 2-cocycle rule on the
  additive group of functions);
  the product of c(f, g, x) over all places x is 1 (`sw_verify`);
  the lattice pairing is additive over sums and intersections of lattices
  and does not change within a commensurability class.
Each side is a product of series compared with ==, so the series type has
a truncated product, equality and rendering, and nothing else.

Characteristic zero only: the exponential needs every n! invertible.
"""
from __future__ import annotations

from operator import mul as _mul

from .errors import DomainError, ZeroInputError
from .fields import Field, FieldScalar
from .funcfield import Place, RationalFunction
from .lattices import MonomialLattice
from .parsing import DEFAULT_ORDER
from .poly import convolve
from .report import VerificationReport, place_law_report
from .symbols1d import residue_differential
from .tate import (abstract_residue_trace, classical_residue,
                   differential_residue)


class TruncatedPowerSeries:
    """An element of k[z]/(z^(N+1)); arithmetic truncates at order N."""

    __slots__ = ("field", "order", "coeffs")

    def __init__(self, field: Field, coeffs, order: int):
        if order < 0:
            raise DomainError("truncation order must be nonnegative")
        self.field = field
        self.order = order
        raws = [field.coerce(c) for c in coeffs]
        raws = raws[:order + 1]
        raws += [field.zero] * (order + 1 - len(raws))
        self.coeffs = tuple(raws)

    @classmethod
    def one(cls, field: Field, order: int) -> "TruncatedPowerSeries":
        return cls(field, (field.one,), order)

    def _check(self, other) -> "TruncatedPowerSeries":
        if not isinstance(other, TruncatedPowerSeries):
            raise DomainError("expected a truncated series")
        if self.field != other.field or self.order != other.order:
            raise DomainError("series of different rings")
        return other

    def __mul__(self, other):
        other = self._check(other)
        F = self.field
        return TruncatedPowerSeries(
            F, convolve(F, self.coeffs, other.coeffs, self.order + 1),
            self.order)

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


def _pairing_half(f: RationalFunction, g: RationalFunction) -> FieldScalar:
    """1/2 in the ground field of f and g, after the checks every pairing
    runs first: both functions nonzero, then characteristic zero."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("the pairing is defined on nonzero functions")
    field = f.field
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
    half = _pairing_half(f, g)
    return exp_z2(classical_residue(f, g, x) * half, order)


def cocycle_on_lattice(f: RationalFunction, g: RationalFunction, x: Place,
                       lattice: MonomialLattice,
                       order: int = DEFAULT_ORDER) -> TruncatedPowerSeries:
    """Pairing against an arbitrary lattice: exponential of half the
    truncated commutator trace instead of the standard residue."""
    half = _pairing_half(f, g)
    trace = abstract_residue_trace(f, g, x, lattice=lattice)
    return exp_z2(trace * half, order)


def sw_verify(f: RationalFunction, g: RationalFunction,
              order: int = DEFAULT_ORDER) -> VerificationReport:
    """Product of the pairing over all places of the joint support is 1."""
    half = _pairing_half(f, g)
    field = f.field
    h, places = residue_differential(f, g)

    def local(x):
        residue = differential_residue(h, x)
        value = exp_z2(residue * half, order)
        return value, {"residue": str(residue), "value": str(value)}

    return place_law_report("segal-wilson-product", field.descriptor,
                            {"f": str(f), "g": str(g), "order": str(order)},
                            places, local,
                            TruncatedPowerSeries.one(field, order), _mul)
