import random

import pytest

from reciprocity_lab.errors import PrecisionError
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.localfield import LaurentSeries, expand
from reciprocity_lab.parsing import parse_rational
from reciprocity_lab.poly import Polynomial, convolve, series_quotient
from reciprocity_lab.residue_field import ResidueField

from helpers import F3, F5, F13, Q, rand_fn


def test_geometric_series():
    t = RationalFunction.variable(Q)
    s = expand(1 / (1 - t), Place.finite(Polynomial.variable(Q)), 2)
    ring = s.ring
    for n in range(3):
        assert ring.eq(s.coefficient(n), ring.one)
    assert s.vmin == 0


def test_uniformizer_at_infinity():
    t = RationalFunction.variable(Q)
    s = expand(t, Place.at_infinity(Q), -1)
    assert s.vmin == -1
    assert s.ring.eq(s.coefficient(-1), s.ring.one)


def test_leading_coefficient_at_a_quadratic_place():
    # 1/(t^2+1) at (t^2+1) over F_3 starts at exponent -1 with (2T)^-1 = T
    t = RationalFunction.variable(F3)
    pi = Polynomial.variable(F3) ** 2 + 1
    x = Place.finite(pi)
    s = expand(1 / (t * t + 1), x, -1)
    assert s.vmin == -1
    lead = s.coefficient(-1)
    assert lead == s.coeffs[0]
    ring = x.residue_field()
    two_t = ring.from_coeffs([0, 2])
    assert ring.eq(lead, ring.inv(two_t))
    assert ring.eq(lead, ring.from_coeffs([0, 1]))


def test_product_of_truncations_matches_truncated_product():
    rng = random.Random(71)
    x_fin = Place.finite(Polynomial.variable(F5) + 2)
    x_inf = Place.at_infinity(F5)
    for _ in range(25):
        f = rand_fn(rng, F5, 4)
        g = rand_fn(rng, F5, 4)
        for x in (x_fin, x_inf):
            upto = 4
            prod = expand(f * g, x, upto)
            a = expand(f, x, upto + 5)
            b = expand(g, x, upto + 5)
            ring = prod.ring
            # the factors are known through upto + 5 and no valuation here
            # is below -4, so their convolution is exact through upto
            vmin = a.vmin + b.vmin
            parts = convolve(ring, a.coeffs, b.coeffs, upto + 1 - vmin)
            assert prod.vmin == vmin
            for n in range(vmin, upto + 1):
                assert ring.eq(prod.coefficient(n), parts[n - vmin])


def test_sum_of_expansions():
    rng = random.Random(73)
    x = Place.finite(Polynomial.variable(F5))
    for _ in range(15):
        f = rand_fn(rng, F5, 3)
        g = rand_fn(rng, F5, 3)
        if (f + g).is_zero():
            continue
        total = expand(f + g, x, 3)
        a = expand(f, x, 5)
        b = expand(g, x, 5)
        ring = total.ring
        for n in range(min(total.vmin, a.vmin, b.vmin), 4):
            assert ring.eq(total.coefficient(n),
                           ring.add(a.coefficient(n), b.coefficient(n)))


def test_residue_coefficient_read_off():
    ring = ResidueField.trivial(Q)
    u = [ring.from_int(1), ring.from_int(3), ring.from_int(1)]
    s = LaurentSeries(ring, "u", -1, u, 2)
    assert ring.eq(s.coefficient(-1), ring.from_int(1))
    flat = LaurentSeries(ring, "u", 0, u[:2], 2)
    assert ring.is_zero(flat.coefficient(-1))
    deep = LaurentSeries(ring, "u", -2, [ring.from_int(2), ring.from_int(5)], 0)
    assert ring.eq(deep.coefficient(-1), ring.from_int(5))


def test_precision_is_never_silently_exceeded():
    t = RationalFunction.variable(Q)
    s = expand(t, Place.finite(Polynomial.variable(Q)), 3)
    with pytest.raises(PrecisionError):
        s.coefficient(10)
    ring = s.ring
    # exponents below vmin are known zeros, not precision failures
    flat = LaurentSeries(ring, "t", 0, [ring.one], 1)
    assert ring.is_zero(flat.coefficient(-1))
    short = LaurentSeries(ring, "t", -3, [ring.one, ring.one], -1)
    with pytest.raises(PrecisionError):
        short.coefficient(-1)


def test_valuation_of_expansion_matches_function_valuation():
    rng = random.Random(79)
    x = Place.finite(Polynomial.variable(F5) ** 2 + 2)
    for _ in range(20):
        f = rand_fn(rng, F5, 4)
        v = f.valuation(x)
        s = expand(f, x, v + 2)
        assert s.vmin == v
        assert not s.ring.is_zero(s.coefficient(v))


def test_known_zero_series():
    ring = ResidueField.trivial(F5)
    z = LaurentSeries.zero_to_precision(ring, "t", 4)
    assert z.coeffs == ()
    assert z.vmin == z.prec == 4
    assert ring.is_zero(z.coefficient(3))
    with pytest.raises(PrecisionError):
        z.coefficient(4)
    # leading zeros are stripped, so a series of zeros is the known zero
    zeros = LaurentSeries(ring, "t", 0, [ring.zero] * 4, 4)
    assert zeros.coeffs == () and zeros.vmin == 4
    with pytest.raises(PrecisionError):
        LaurentSeries(ring, "t", 0, [ring.one], 4)


def test_rendering_mentions_the_uniformizer_and_precision():
    t = RationalFunction.variable(Q)
    s = expand(1 / t, Place.finite(Polynomial.variable(Q)), 1)
    text = str(s)
    assert f"{s.param}^-1" in text
    assert f"O({s.param}^2)" in text


def _reference_expand(f, place, upto):
    """The expansion from the full Taylor shift of num and den, with each
    one's order at the place read off as its first nonzero coefficient."""
    ring = place.residue_field()
    param = "u" if place.is_infinity else "w"
    if place.is_infinity:
        num = [ring.from_base(c) for c in f.num.reverse().coeffs]
        den = [ring.from_base(c) for c in f.den.reverse().coeffs]
        offset = f.den.degree - f.num.degree
    else:
        tau = ring.from_coeffs((ring.base.zero, ring.base.one))
        num, den = (
            list(Polynomial(ring, [ring.from_base(c) for c in p.coeffs])
                 .taylor_shift(tau).coeffs)
            for p in (f.num, f.den))
        offset = 0
    a = next(i for i, c in enumerate(num) if not ring.is_zero(c))
    b = next(i for i, c in enumerate(den) if not ring.is_zero(c))
    vmin = a - b + offset
    terms = upto + 1 - vmin
    if terms <= 0:
        return LaurentSeries.zero_to_precision(ring, param, upto + 1)
    return LaurentSeries(ring, param, vmin,
                         series_quotient(ring, num[a:], den[b:], terms),
                         upto + 1)


def test_expansion_matches_the_full_shift_reference():
    rng = random.Random(83)
    cases = []
    for field, moduli in ((F5, ("t+2", "t^2+2", "t^3+t+1")),
                          (F13, ("t+5", "t^3+2")),
                          (Q, ("t+3", "t^2+1", "t^3-2"))):
        t = RationalFunction.variable(field)
        for text in moduli:
            pi = parse_rational(text, field)
            cases.append((field, Place.finite(pi.num), pi))
        cases.append((field, Place.at_infinity(field), 1 / t))
    for field, x, uniformizer in cases:
        for v in range(-4, 5):
            for _ in range(3):
                unit = rand_fn(rng, field, 3)
                f = unit * uniformizer ** (v - unit.valuation(x))
                assert f.valuation(x) == v
                for upto in (v - 3, v - 1, v, v + 1, v + 4):
                    got = expand(f, x, upto)
                    want = _reference_expand(f, x, upto)
                    assert (got.param, got.vmin, got.prec, len(got.coeffs)) \
                        == (want.param, want.vmin, want.prec,
                            len(want.coeffs)), (f, x, upto)
                    ring = got.ring
                    assert all(ring.eq(c, d)
                               for c, d in zip(got.coeffs, want.coeffs))
