"""Truncated Laurent expansions of rational functions at places.

At a finite place x = (pi) the local parameter is w = t - T, where T is the
class of t in the residue field L = k[T]/(pi).  Numerator and denominator
become polynomials over L (a `Field` like any other), are rewritten around
T with a characteristic-safe Taylor shift and then divided as power series
over L.  The shift produces only the coefficients the requested precision
reads: v = v_x(f) comes from base-field divisions by pi, w^max(v, 0)
divides the shifted numerator and w^max(-v, 0) the shifted denominator,
and the quotient reads the next prec - v coefficients of each, so a
residue at a simple pole costs a few synthetic divisions, not deg^2
residue-field products.  At infinity the parameter is u = 1/t and the
expansion comes from coefficient reversal.  The API hands out raw values
of L (`coefficient`, `coeffs`); `ring.scalar` wraps one as a `FieldScalar`
where a caller needs one.  Inside the library the expansions serve only the
commutator bands of `tate`; the classical residue reads k[t] directly.  A
series is a read-only expansion: the library never adds or multiplies
series, it reads coefficients.  Every series carries its precision and
refuses to report coefficients it does not know.
"""
from __future__ import annotations

from .errors import MixedFieldError, PrecisionError
from .funcfield import Place, RationalFunction
from .poly import Polynomial, series_quotient
from .residue_field import ResidueField


class LaurentSeries:
    """Finitely many known coefficients of a Laurent series over a residue field.

    Exponents below `vmin` are known to vanish, exponents in
    [vmin, prec) are stored, and exponents >= prec are unknown.
    """

    __slots__ = ("ring", "param", "vmin", "coeffs", "prec")

    def __init__(self, ring: ResidueField, param: str, vmin: int, coeffs, prec: int):
        coeffs = tuple(coeffs)
        if len(coeffs) != prec - vmin:
            raise PrecisionError("series length does not match its precision window")
        while coeffs and ring.is_zero(coeffs[0]):
            coeffs = coeffs[1:]
            vmin += 1
        self.ring = ring
        self.param = param
        self.vmin = vmin
        self.coeffs = coeffs
        self.prec = prec

    @classmethod
    def zero_to_precision(cls, ring: ResidueField, param: str, prec: int) -> "LaurentSeries":
        return cls(ring, param, prec, (), prec)

    def coefficient(self, n: int):
        if n >= self.prec:
            raise PrecisionError(
                f"coefficient of {self.param}^{n} lies beyond O({self.param}^{self.prec})")
        if n < self.vmin:
            return self.ring.zero
        return self.coeffs[n - self.vmin]

    def __str__(self):
        ring = self.ring
        parts = []
        for n in range(self.vmin, self.prec):
            c = self.coefficient(n)
            if ring.is_zero(c):
                continue
            body = ring.render(c)
            if "+" in body or "-" in body[1:] or "*" in body:
                body = f"({body})"
            if n == 0:
                parts.append(body)
            else:
                parts.append(f"{body}*{self.param}^{n}")
        head = " + ".join(parts) if parts else "0"
        return f"{head} + O({self.param}^{self.prec})"

    def __repr__(self):
        return f"LaurentSeries({self})"


def expand(f: RationalFunction, place: Place, upto: int) -> LaurentSeries:
    """Laurent expansion of f at the place, exact through the exponent `upto`.

    The local parameter is t - T at a finite place and 1/t at infinity.
    """
    if place.field != f.field or place.var != f.var:
        raise MixedFieldError("place belongs to a different function field")
    ring = place.residue_field()
    param = "u" if place.is_infinity else "w"
    prec = upto + 1
    if f.is_zero():
        return LaurentSeries.zero_to_precision(ring, param, prec)
    v = f.valuation(place)
    terms = prec - v
    if terms <= 0:
        return LaurentSeries.zero_to_precision(ring, param, prec)
    if place.is_infinity:
        num = [ring.from_base(c) for c in f.num.reverse().coeffs]
        den = [ring.from_base(c) for c in f.den.reverse().coeffs]
    else:
        # num and den are coprime, so w^a divides num(T + w) and w^b
        # divides den(T + w) with one of a, b zero; the quotient reads
        # `terms` coefficients of each past that power
        tau = ring.from_coeffs((ring.base.zero, ring.base.one))
        num, den = (
            Polynomial(ring, [ring.from_base(c) for c in p.coeffs], f.var)
            .taylor_shift(tau, skip + terms).coeffs[skip:]
            for p, skip in ((f.num, max(v, 0)), (f.den, max(-v, 0))))
    out = series_quotient(ring, num, den, terms)
    return LaurentSeries(ring, param, v, out, prec)
