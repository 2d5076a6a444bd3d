"""The tame and Hilbert symbols against a sympy oracle, at places of every
degree and at infinity.

At a finite place pi with f = pi^a u_f and g = pi^b u_g the tame symbol is

    (-1)^(a b deg pi) * N(u_f)^b * N(u_g)^(-a),

where N(c) is the determinant of multiplication by c on k[T]/(pi), built
here column by column from sympy's remainders mod pi.  sympy's resultant is
not used for N: its sign differs from prod c(alpha) for some degrees (see
`test_poly.py`).  The place at infinity is the place u = 0 after the
substitution t = 1/u, and the Hilbert symbol is the tame value to the
(q - 1)/m.  Places come from sympy's factorizations of the numerators and
denominators, so the library's own factoring does not choose them.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from reciprocity_lab.funcfield import Place
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.symbols1d import hilbert_symbol, tame_symbol

from helpers import F5, F13, Q, rand_fn, rand_fn_q

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")

# places checked per degree, at least; the draws below give about twice this
MIN_PLACES = {1: 160, 2: 40, 3: 25}


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


def _draws():
    rng = random.Random(2013)
    for _ in range(30):
        yield Q, rand_fn_q(rng), rand_fn_q(rng)
    for field in (F5, F13):
        for _ in range(45):
            yield field, rand_fn(rng, field), rand_fn(rng, field)


def test_tame_and_hilbert_symbols_agree_with_the_oracle():
    checked = Counter()
    pairs = 0
    for field, f, g in _draws():
        pairs += 1
        oracle = Oracle(field)
        sf = (oracle.poly(f.num.coeffs), oracle.poly(f.den.coeffs))
        sg = (oracle.poly(g.num.coeffs), oracle.poly(g.den.coeffs))
        cases = [(Place.finite(Polynomial(field, oracle.low_coeffs(pi))),
                  sf, sg, pi)
                 for pi in oracle.places(sf + sg)]
        cases.append((Place.at_infinity(field), oracle.at_infinity(sf),
                      oracle.at_infinity(sg), oracle.poly([0, 1])))
        for place, ff, gg, pi in cases:
            want = oracle.tame(ff, gg, pi)
            assert tame_symbol(f, g, place).raw == want, (str(f), str(g), place)
            if field is not Q:
                q = field.p
                for m in (m for m in range(1, q) if (q - 1) % m == 0):
                    got = hilbert_symbol(f, g, place, m).raw
                    assert got == pow(want, (q - 1) // m, q), (
                        str(f), str(g), place, m)
            checked["inf" if place.is_infinity else place.degree] += 1
    assert checked["inf"] == pairs
    for degree, least in MIN_PLACES.items():
        assert checked[degree] >= least, checked
