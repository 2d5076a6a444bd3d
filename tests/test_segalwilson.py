import random
from fractions import Fraction

import pytest

from reciprocity_lab.errors import DomainError, MixedFieldError, ZeroInputError
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.lattices import MonomialLattice
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.segalwilson import (DEFAULT_ORDER, TruncatedPowerSeries,
                                         cocycle_c, cocycle_on_lattice,
                                         exp_z2, sw_verify)
from reciprocity_lab.tate import classical_residue

from helpers import F5, Q, rand_fn_q


def origin():
    return Place.finite(Polynomial.variable(Q))


def test_even_exponential_frozen_values():
    assert exp_z2(Q.scalar(0), 6) == TruncatedPowerSeries.one(Q, 6)
    half = Q.scalar(Fraction(1, 2))
    assert str(exp_z2(half, 4)) == "1 + 1/2*z^2 + 1/8*z^4"
    assert str(exp_z2(Q.scalar(1), 6)) == "1 + 1*z^2 + 1/2*z^4 + 1/6*z^6"
    series = exp_z2(half)
    assert series.order == DEFAULT_ORDER
    assert len(series.coeffs) == DEFAULT_ORDER + 1
    assert series.coeffs[:5] == (1, 0, Fraction(1, 2), 0, Fraction(1, 8))


def test_even_exponential_group_law():
    rng = random.Random(353)
    for _ in range(20):
        a = Q.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = Q.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert exp_z2(a) * exp_z2(b) == exp_z2(a + b)
        assert exp_z2(a) * exp_z2(-a) == exp_z2(Q.scalar(0))


def test_exponential_needs_characteristic_zero():
    with pytest.raises(DomainError):
        exp_z2(F5.scalar(1))


def test_series_ring_arithmetic():
    one = TruncatedPowerSeries.one(Q, 6)
    s = TruncatedPowerSeries(Q, [1, 2, 3], 6)
    assert (s * one) == s and (one * s) == s
    assert TruncatedPowerSeries(Q, [1, 2, 3, 0, 0], 6) == s
    rng = random.Random(359)
    for order in range(9):
        a, b, c = (TruncatedPowerSeries(
            Q, [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for _ in range(rng.randint(0, order + 2))], order)
            for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_series_truncation_is_consistent():
    s = TruncatedPowerSeries(Q, [1, 1], 3)
    cube = s * s * s
    assert cube.coeffs == (1, 3, 3, 1)
    squared = (s * s) * (s * s)
    assert squared == s * (s * (s * s))
    assert squared.coeffs[3] == 4
    # coefficients past the order are dropped on construction
    assert TruncatedPowerSeries(Q, [1, 4, 6, 4, 1], 3) == squared


def test_series_error_paths():
    s = TruncatedPowerSeries(Q, [0, 1], 4)
    with pytest.raises(DomainError):
        TruncatedPowerSeries(Q, [1], -1)
    with pytest.raises(DomainError):
        s * TruncatedPowerSeries(Q, [1], 6)
    with pytest.raises(DomainError):
        s * TruncatedPowerSeries(F5, [1], 4)
    with pytest.raises(MixedFieldError):
        TruncatedPowerSeries(F5, [Fraction(1, 2), 7], 3)


def test_pairing_frozen_example():
    t = RationalFunction.variable(Q)
    got = cocycle_c(1 / t, t, origin(), 4)
    assert str(got) == "1 + 1/2*z^2 + 1/8*z^4"
    assert got == exp_z2(Q.scalar(Fraction(1, 2)), 4)


def test_pairing_of_units_is_one():
    t = RationalFunction.variable(Q)
    f = (t + 1) / (t + 2)
    g = t + 3
    assert cocycle_c(f, g, origin()) == \
        TruncatedPowerSeries.one(Q, DEFAULT_ORDER)


def test_pairing_rejects_positive_characteristic_and_zero():
    t5 = RationalFunction.variable(F5)
    x5 = Place.finite(Polynomial.variable(F5))
    with pytest.raises(DomainError):
        cocycle_c(t5, t5, x5)
    t = RationalFunction.variable(Q)
    with pytest.raises(ZeroInputError):
        cocycle_c(t - t, t, origin())
    with pytest.raises(DomainError):
        sw_verify(t5, 1 + t5)


def test_lattice_pairing_matches_and_is_additive():
    t = RationalFunction.variable(Q)
    f = (t + 2) / (t * t)
    g = t * t - t
    x = origin()
    want = cocycle_c(f, g, x)
    lattices = [
        MonomialLattice.ray(0),
        MonomialLattice.from_ray_spec(1, added={-2}),
        MonomialLattice.from_ray_spec(-1, removed={0, 2}),
    ]
    for a in lattices:
        assert cocycle_on_lattice(f, g, x, a) == want
    for a in lattices:
        for b in lattices:
            lhs = cocycle_on_lattice(f, g, x, a) * \
                cocycle_on_lattice(f, g, x, b)
            rhs = cocycle_on_lattice(f, g, x, a.union(b)) * \
                cocycle_on_lattice(f, g, x, a.intersect(b))
            assert lhs == rhs


def test_additive_two_cocycle_identity():
    rng = random.Random(359)
    x = origin()
    t = RationalFunction.variable(Q)
    done = nontrivial = 0
    while done < 10:
        # a power of t in each puts x = (t) in the support
        f = rand_fn_q(rng, max_deg=3) * t ** rng.randint(-2, 2)
        g = rand_fn_q(rng, max_deg=3) * t ** rng.randint(-2, 2)
        h = rand_fn_q(rng, max_deg=3) * t ** rng.randint(-2, 2)
        if (g + h).is_zero() or (f + g).is_zero():
            continue
        lhs = cocycle_c(f, g + h, x, 8) * cocycle_c(g, h, x, 8)
        rhs = cocycle_c(f + g, h, x, 8) * cocycle_c(f, g, x, 8)
        assert lhs == rhs
        pairs = ((f, g + h), (g, h), (f + g, h), (f, g))
        nontrivial += any(not classical_residue(a, b, x).is_zero()
                          for a, b in pairs)
        done += 1
    # a case whose residues at x all vanish checks only 1 == 1
    assert nontrivial >= 5


def test_product_formula_frozen_example():
    t = RationalFunction.variable(Q)
    f = 1 / (t * t - t)
    report = sw_verify(f, t)
    assert report.ok
    assert report.law == "segal-wilson-product"
    assert report.value == "1"
    residues = {term["place"]: term["residue"] for term in report.terms}
    assert residues["t"] == "-1"
    assert residues["t-1"] == "1"
    assert residues["inf"] == "0"
    assert report.inputs["order"] == str(DEFAULT_ORDER)


def test_product_formula_random():
    rng = random.Random(367)
    for _ in range(15):
        f = rand_fn_q(rng, max_deg=4)
        g = rand_fn_q(rng, max_deg=4)
        report = sw_verify(f, g)
        assert report.ok, report.to_json(indent=2)


def test_product_formula_respects_requested_order():
    t = RationalFunction.variable(Q)
    report = sw_verify(1 / t, t, order=4)
    assert report.ok
    assert report.inputs["order"] == "4"
    local = [term["value"] for term in report.terms
             if term["place"] == "t"][0]
    assert local == "1 + 1/2*z^2 + 1/8*z^4"
