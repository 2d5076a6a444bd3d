import random

import pytest

from reciprocity_lab.errors import PrecisionError, ZeroInputError
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.localfield import LaurentSeries, expand
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.residue_field import ResidueField

from helpers import F3, F5, Q, rand_fn


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
    v, lead = s.leading()
    assert v == -1
    ring = x.residue_field()
    two_t = ring.from_coeffs([0, 2])
    assert lead == ring.scalar(ring.inv(two_t))
    assert lead == ring.scalar(ring.from_coeffs([0, 1]))


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
            parts = expand(f, x, upto + 5) * expand(g, x, upto + 5)
            assert prod.agrees_with(parts)


def test_sum_of_expansions():
    rng = random.Random(73)
    x = Place.finite(Polynomial.variable(F5))
    for _ in range(15):
        f = rand_fn(rng, F5, 3)
        g = rand_fn(rng, F5, 3)
        if (f + g).is_zero():
            continue
        total = expand(f + g, x, 3)
        assert total.agrees_with(expand(f, x, 5) + expand(g, x, 5))


def test_residue_coefficient_read_off():
    ring = ResidueField.trivial(Q)
    u = [ring.from_int(1), ring.from_int(3), ring.from_int(1)]
    s = LaurentSeries(ring, "u", -1, u, 2)
    assert s.residue_coeff() == 1
    flat = LaurentSeries(ring, "u", 0, u[:2], 2)
    assert flat.residue_coeff() == 0
    deep = LaurentSeries(ring, "u", -2, [ring.from_int(2), ring.from_int(5)], 0)
    assert deep.residue_coeff() == 5


def test_precision_is_never_silently_exceeded():
    t = RationalFunction.variable(Q)
    s = expand(t, Place.finite(Polynomial.variable(Q)), 3)
    with pytest.raises(PrecisionError):
        s.coefficient(10)
    ring = s.ring
    # exponents below vmin are known zeros, not precision failures
    flat = LaurentSeries(ring, "t", 0, [ring.one], 1)
    assert flat.residue_coeff() == 0
    short = LaurentSeries(ring, "t", -3, [ring.one, ring.one], -1)
    with pytest.raises(PrecisionError):
        short.residue_coeff()


def test_valuation_of_expansion_matches_function_valuation():
    rng = random.Random(79)
    x = Place.finite(Polynomial.variable(F5) ** 2 + 2)
    for _ in range(20):
        f = rand_fn(rng, F5, 4)
        v = f.valuation(x)
        s = expand(f, x, v + 2)
        assert s.valuation() == v


def test_known_zero_series():
    ring = ResidueField.trivial(F5)
    z = LaurentSeries.zero_to_precision(ring, "t", 4)
    assert z.is_known_zero()
    assert z.valuation() is None
    with pytest.raises(ZeroInputError):
        z.leading()


def test_rendering_mentions_the_uniformizer_and_precision():
    t = RationalFunction.variable(Q)
    s = expand(1 / t, Place.finite(Polynomial.variable(Q)), 1)
    text = str(s)
    assert f"{s.param}^-1" in text
    assert f"O({s.param}^2)" in text
