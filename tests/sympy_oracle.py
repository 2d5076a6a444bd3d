"""Exact arithmetic over Q or F_p in sympy only, for the oracle tests.

Import it after `pytest.importorskip("sympy")`, so a run without sympy
skips those modules instead of failing on this import.
"""
from fractions import Fraction

import sympy

from helpers import Q

x = sympy.Symbol("x")


class Oracle:
    """Exact arithmetic over Q or F_p in sympy only."""

    def __init__(self, field):
        self.p = None if field is Q else field.p

    def poly(self, coeffs):
        """A sympy Poly from low-to-high raw coefficients."""
        if self.p is None:
            high = [sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(coeffs)]
            return sympy.Poly(high, x, domain=sympy.QQ)
        return sympy.Poly([int(c) for c in reversed(coeffs)], x,
                          modulus=self.p)

    def scalar(self, value):
        """A sympy number as a library raw value: a Fraction or 0..p-1."""
        if self.p is None:
            value = sympy.Rational(value)
            return Fraction(int(value.p), int(value.q))
        return int(value) % self.p

    def low_coeffs(self, poly):
        return [self.scalar(c) for c in reversed(poly.all_coeffs())]

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def div(self, a, b):
        return a / b if self.p is None else a * pow(b, -1, self.p) % self.p

    def power(self, a, n):
        if n < 0:
            return self.power(self.div(self.scalar(1), a), -n)
        return a ** n if self.p is None else pow(a, n, self.p)

    def places(self, polys):
        """The monic irreducible factors of the given Polys, deduplicated."""
        found = {}
        for poly in polys:
            for factor, _ in poly.factor_list()[1]:
                monic = factor.monic()
                found[tuple(self.low_coeffs(monic))] = monic
        return [found[key] for key in sorted(found, key=lambda k: (len(k), k))]

    def strip(self, poly, pi):
        """(v, cofactor) with poly = pi^v * cofactor and pi not dividing it."""
        v = 0
        while True:
            quo, rem = poly.div(pi)
            if not rem.is_zero:
                return v, poly
            v, poly = v + 1, quo

    def norm(self, c, pi):
        """det of multiplication by c on k[T]/(pi)."""
        d = pi.degree()
        columns = []
        for j in range(d):
            rem = (c * sympy.Poly(x ** j, x, domain=pi.domain)).rem(pi)
            low = self.low_coeffs(rem)
            columns.append(low + [self.scalar(0)] * (d - len(low)))
        if self.p is None:
            det = sympy.Matrix(columns).T.det()
        else:
            det = sympy.Matrix([[int(c) for c in col] for col in columns]).T.det()
        return self.scalar(det)

    def tame(self, f, g, pi):
        """The tame symbol of f = (num, den) and g at the place pi."""
        a, nf = self._split(f, pi)
        b, ng = self._split(g, pi)
        sign = self.scalar(-1) if a * b * pi.degree() % 2 else self.scalar(1)
        return self.mul(sign, self.mul(self.power(nf, b), self.power(ng, -a)))

    def _split(self, fn, pi):
        """(valuation at pi, norm of the unit part)."""
        vn, un = self.strip(fn[0], pi)
        vd, ud = self.strip(fn[1], pi)
        return vn - vd, self.div(self.norm(un, pi), self.norm(ud, pi))

    def at_infinity(self, fn):
        """fn(1/u) as (num, den) in u, with u written as x."""
        num, den = fn
        k = den.degree() - num.degree()
        rev_num = sympy.Poly(num.all_coeffs()[::-1], x, domain=num.domain)
        rev_den = sympy.Poly(den.all_coeffs()[::-1], x, domain=den.domain)
        u = sympy.Poly(x, x, domain=num.domain)
        return rev_num * u ** max(k, 0), rev_den * u ** max(-k, 0)

    def residue(self, num, den, pi):
        """tr of the residue of (num / den) dt at pi, by partial fractions.

        With pi^k exactly dividing den and C = den / pi^k, the polar part at
        pi is A / pi^k for A = num * C^(-1) mod pi^k, and the traced residue
        of A / pi^k dt is [t^(k deg pi - 1)] A / lc(pi)^k.
        """
        k, cofactor = self.strip(den, pi)
        if k == 0:
            return self.scalar(0)
        power = pi ** k
        polar = (num * cofactor.invert(power)).rem(power)
        top = self.scalar(polar.coeff_monomial(x ** (k * pi.degree() - 1)))
        return self.div(top, self.power(self.scalar(pi.LC()), k))

    def differential_at_infinity(self, fn):
        """(num, den) of H with h dt = H(u) du under t = 1/u, in u as x:
        dt = -du / u^2, so H(u) = -h(1/u) / u^2."""
        if fn[0].is_zero:
            return fn
        num, den = self.at_infinity(fn)
        return -num, den * sympy.Poly(x ** 2, x, domain=den.domain)
