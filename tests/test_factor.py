import random
from fractions import Fraction

import pytest

from reciprocity_lab.errors import DomainError, ZeroInputError
from reciprocity_lab.factor import (factor_polynomial, factor_prime_field,
                                    factor_rationals_limited, is_irreducible)
from reciprocity_lab.fields import field_from_descriptor
from reciprocity_lab.poly import Polynomial

from helpers import F2, F3, F5, Q, rand_poly

F101 = field_from_descriptor("Fp:101")


def test_quadratic_irreducible_over_f3_splits_over_f5():
    t3 = Polynomial.variable(F3)
    t5 = Polynomial.variable(F5)
    assert is_irreducible(t3 * t3 + 1)
    fac = factor_polynomial(t5 * t5 + 1)
    pis = sorted(str(f.base) for f in fac.factors)
    assert pis == ["t+2", "t+3"]
    assert all(f.certified for f in fac.factors)


def test_multiplicities_recorded():
    t = Polynomial.variable(F2)
    f = (t + 1) ** 2 * t
    fac = factor_polynomial(f)
    got = {str(item.base): item.multiplicity for item in fac.factors}
    assert got == {"t": 1, "t+1": 2}
    assert fac.product() == f


def test_recomposition_property():
    rng = random.Random(29)
    for field in (F2, F5, F101):
        for _ in range(60):
            f = rand_poly(rng, field, 7, nonzero=True)
            fac = factor_prime_field(f, seed=rng.randint(0, 10 ** 6))
            assert fac.product() == f
            assert fac.fully_certified()
            for item in fac.factors:
                assert item.base.is_monic()
                assert is_irreducible(item.base)


def test_rational_roots_including_fractions():
    t = Polynomial.variable(Q)
    f = (2 * t - 1) * (t + 3) ** 2
    fac = factor_polynomial(f)
    assert fac.unit.raw == Fraction(2)
    got = {str(item.base): item.multiplicity for item in fac.factors}
    assert got == {"t-1/2": 1, "t+3": 2}


def test_cubic_without_roots_is_certified_over_q():
    t = Polynomial.variable(Q)
    f = t ** 3 - 2
    assert is_irreducible(f)
    g = t * t + 1
    assert is_irreducible(g)


def test_quartic_cofactor_is_flagged_uncertified():
    t = Polynomial.variable(Q)
    f = (t * t + 1) * (t * t + 2)
    fac = factor_rationals_limited(f)
    assert not fac.fully_certified()
    assert not is_irreducible(f)
    # the product identity still holds even without certificates
    assert fac.product() == f


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroInputError):
        factor_polynomial(Polynomial.zero(F5))


def test_constants_have_no_factors():
    fac = factor_polynomial(Polynomial.constant(F5, 3))
    assert fac.factors == ()
    assert fac.unit.raw == 3
    assert not is_irreducible(Polynomial.constant(Q, 4))


def test_seeded_factorization_is_deterministic():
    rng = random.Random(31)
    for _ in range(10):
        f = rand_poly(rng, F5, 6, nonzero=True)
        a = factor_prime_field(f, seed=123)
        b = factor_prime_field(f, seed=123)
        assert a.factors == b.factors


def test_every_seed_gives_the_same_factorization():
    # the factorization into monic irreducibles is unique, so the seed only
    # picks the Cantor-Zassenhaus splitting path
    rng = random.Random(37)
    fields = (F2, F3, F5, field_from_descriptor("Fp:13"),
              field_from_descriptor("Fp:1000003"))
    for field in fields:
        for _ in range(12):
            coeffs = [rng.randrange(field.p) for _ in range(rng.randint(1, 10))]
            f = Polynomial(field, coeffs + [rng.randrange(1, field.p)])
            expected = factor_prime_field(f)
            for seed in (0, 1, 7, rng.randint(0, 10 ** 9)):
                got = factor_prime_field(f, seed=seed)
                assert got.unit == expected.unit
                assert got.factors == expected.factors


def test_surface_coefficient_polynomials_are_out_of_scope():
    from reciprocity_lab.funcfield import FractionField
    ks = FractionField(Q, "s")
    f = Polynomial.variable(ks, "t")
    with pytest.raises(DomainError):
        factor_polynomial(f)
