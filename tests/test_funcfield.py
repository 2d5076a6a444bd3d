import random
from fractions import Fraction

import pytest

from reciprocity_lab import funcfield
from reciprocity_lab.errors import (DomainError, MixedFieldError,
                                    NotAUnitError, UncertifiedFactorError,
                                    ZeroInputError)
from reciprocity_lab.funcfield import (FractionField, Place, RationalFunction,
                                      support_union)
from reciprocity_lab.poly import Polynomial, monic_gcd

from helpers import F3, F5, F7, F13, Q, rand_fn, rand_fn_for, rand_fn_q


def tt(field):
    return RationalFunction.variable(field)


def base_value(value):
    """A class of a degree-1 residue field as a ground-field scalar."""
    (raw,) = value.raw
    return value.field.base.scalar(raw)


def test_canonical_form_is_coprime_with_monic_denominator():
    t = tt(Q)
    f = (t * t - 1) / (2 * t - 2)
    assert str(f.num) == "1/2*t+1/2"
    assert str(f.den) == "1"
    g = (t - 1) / (t * t - 1)
    assert g == 1 / (t + 1)
    assert g.den.is_monic()


def _full_gcd_form(num, den):
    """The canonical form by the general route: divide out the gcd, then
    scale den to be monic."""
    g = num.gcd(den)
    num, den = num.exact_div(g), den.exact_div(g)
    scale = num.field.inv(den.leading_coefficient())
    return num.scale(scale), den.scale(scale)


def test_canonical_form_matches_the_full_gcd_route():
    rng = random.Random(359)
    exponents = random.Random(361)
    ks = FractionField(F5, "s")

    def coeff(field):
        if field is ks:
            return rand_fn(rng, F5, max_deg=2, var="s")
        return field.from_int(rng.randint(-9, 9))

    def poly(field, deg):
        return Polynomial(field, [coeff(field) for _ in range(deg + 1)])

    for field in (Q, F5, ks):
        for _ in range(10):
            p = poly(field, rng.randint(1, 4))
            q = poly(field, rng.randint(1, 4))
            c = poly(field, 0)
            if p.is_zero() or q.is_zero() or c.is_zero():
                continue
            # monomial sides c*t^k and t^j take the gcd-free slice route
            k, j = exponents.randint(0, 3), exponents.randint(0, 3)
            ck = c * Polynomial.variable(field) ** k
            tj = Polynomial.variable(field) ** j
            monic_q = Polynomial(field, monic_gcd(field, q.coeffs, ()))
            pairs = ((p, c), (c, p), (p, q), (p, monic_q), (p * q, q),
                     (ck * p, tj), (tj, p), (p, ck), (p * tj, ck))
            for num, den in pairs:
                f = RationalFunction(num, den)
                want_num, want_den = _full_gcd_form(num, den)
                assert (f.num.coeffs, f.den.coeffs) == \
                    (want_num.coeffs, want_den.coeffs)
                assert (str(f.num), str(f.den)) == \
                    (str(want_num), str(want_den))


def test_valuation_examples():
    t = tt(Q)
    f = t * t / (t - 1)
    at_t = Place.finite(Polynomial.variable(Q))
    assert f.valuation(at_t) == 2
    assert f.valuation(Place.at_infinity(Q)) == -1
    c = RationalFunction.constant(Q, Fraction(7, 3))
    assert c.valuation(at_t) == 0
    assert c.valuation(Place.at_infinity(Q)) == 0
    with pytest.raises(ZeroInputError):
        (f - f).valuation(at_t)


def test_valuation_at_infinity_builds_no_polynomial(monkeypatch):
    rng = random.Random(59)
    cases = [(Place.at_infinity(F5), rand_fn(rng, F5)) for _ in range(20)]
    cases += [(Place.at_infinity(Q), rand_fn_q(rng)) for _ in range(20)]
    expected = [f.split(x)[0] for x, f in cases]
    built = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    assert [f.valuation(x) for x, f in cases] == expected
    assert built == []
    monkeypatch.undo()
    with pytest.raises(ZeroInputError):
        RationalFunction.constant(F5, 0).valuation(Place.at_infinity(F5))
    with pytest.raises(MixedFieldError):
        tt(F5).valuation(Place.at_infinity(F7))


def test_support_example_over_f3():
    t = tt(F3)
    f = (t * t + 1) / t
    got = [(str(x), v) for x, v in f.support()]
    assert got == [("t", -1), ("t^2+1", 1), ("inf", -1)]


def test_support_of_constants_is_empty():
    assert RationalFunction.constant(F5, 3).support() == []
    t = tt(Q)
    assert [(str(x), v) for x, v in t.support()] == [("t", 1), ("inf", -1)]


def test_evaluate_examples():
    t5 = tt(F5)
    f = (t5 + 1) / (t5 + 2)
    at_t = Place.finite(Polynomial.variable(F5))
    assert base_value(f.evaluate(at_t)) == 3
    t7 = tt(F7)
    g = (2 * t7 * t7 + 1) / (t7 * t7 + 3)
    assert base_value(g.evaluate(Place.at_infinity(F7))) == 2
    c = RationalFunction.constant(F5, 4)
    assert base_value(c.evaluate(at_t)) == 4


def test_evaluate_needs_a_unit():
    t = tt(Q)
    at_t = Place.finite(Polynomial.variable(Q))
    with pytest.raises(NotAUnitError, match="zero or pole at t$"):
        t.evaluate(at_t)
    with pytest.raises(NotAUnitError, match="zero or pole at t$"):
        (1 / t).evaluate(at_t)
    with pytest.raises(ZeroInputError, match="cannot evaluate the zero"):
        RationalFunction.constant(Q, 0).evaluate(at_t)


def test_place_certification_split():
    t = Polynomial.variable(F5)
    with pytest.raises(DomainError):
        Place.finite(t * t + 1)
    tq = Polynomial.variable(Q)
    with pytest.raises(UncertifiedFactorError):
        Place.finite(tq ** 4 + tq + 1)
    x = Place.finite(tq * tq + 1)
    assert x.degree == 2
    assert Place(F5, "t", t * t + 1).degree == 2


def test_place_ordering_and_rendering():
    tq = Polynomial.variable(Q)
    places = [Place.at_infinity(Q), Place.finite(tq),
              Place.finite(tq - 1), Place.finite(tq * tq + 1)]
    ordered = sorted(places, key=lambda x: x.sort_key())
    assert [str(x) for x in ordered] == ["t-1", "t", "t^2+1", "inf"]


def test_residue_field_of_a_place():
    tq = Polynomial.variable(Q)
    assert Place.finite(tq - 2).residue_field().degree == 1
    ring = Place.finite(tq * tq + 1).residue_field()
    assert ring.degree == 2
    assert ring.modulus.var == "T"
    assert Place.at_infinity(Q).residue_field().degree == 1


def test_support_union_always_appends_infinity_when_asked():
    t = tt(F5)
    f = t / (t + 1)
    places = support_union(f, include_infinity=True)
    assert str(places[-1]) == "inf"
    c = RationalFunction.constant(F5, 2)
    only_inf = support_union(c, include_infinity=True)
    assert [str(x) for x in only_inf] == ["inf"]
    assert support_union(c) == []


def test_degree_formula_on_random_functions():
    rng = random.Random(47)
    for field in (F5, F7, Q):
        for _ in range(30):
            f = rand_fn_for(rng, field)
            if f.is_zero():
                continue
            assert sum(x.degree * v for x, v in f.support()) == 0


def test_valuation_is_a_homomorphism():
    rng = random.Random(53)
    at_t = Place.finite(Polynomial.variable(F5))
    inf = Place.at_infinity(F5)
    for _ in range(30):
        f = rand_fn(rng, F5, 4)
        g = rand_fn(rng, F5, 4)
        for x in (at_t, inf):
            assert (f * g).valuation(x) == f.valuation(x) + g.valuation(x)
            if not (f + g).is_zero():
                assert (f + g).valuation(x) >= min(f.valuation(x),
                                                   g.valuation(x))


def test_evaluate_is_multiplicative_on_units():
    rng = random.Random(59)
    at_t = Place.finite(Polynomial.variable(F7))
    done = 0
    while done < 20:
        f = rand_fn(rng, F7, 3)
        g = rand_fn(rng, F7, 3)
        if f.valuation(at_t) or g.valuation(at_t):
            continue
        done += 1
        assert (f * g).evaluate(at_t) == f.evaluate(at_t) * g.evaluate(at_t)


def test_uncertified_support_over_q_raises():
    t = tt(Q)
    f = 1 / (t ** 4 + t + 1)
    with pytest.raises(UncertifiedFactorError):
        f.support()
    # generator functions stay inside the certified range
    rng = random.Random(61)
    for _ in range(20):
        rand_fn_q(rng).support()


def test_arithmetic_mixes_polynomials_and_ints():
    t = tt(F5)
    f = (t + 1) ** 2 / (2 - t)
    assert f == (t * t + 2 * t + 1) / (2 - t)
    assert (f / f).is_constant()
    assert (f - f).is_zero()
    with pytest.raises(ZeroInputError):
        f / (f - f)


def test_inverse_and_power():
    t = tt(Q)
    f = (t - 1) / t
    assert f ** -1 * f == 1
    assert f ** -2 == (t / (t - 1)) ** 2
    assert f ** 0 == 1


def test_derivative_quotient_rule():
    rng = random.Random(67)
    for _ in range(20):
        f = rand_fn(rng, F7, 4)
        g = rand_fn(rng, F7, 4)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_finite_places_factor_once(monkeypatch):
    calls = []
    factor = funcfield.factor_polynomial

    def counted(p):
        calls.append(p)
        return factor(p)

    monkeypatch.setattr(funcfield, "factor_polynomial", counted)
    t = Polynomial.variable(Q)
    cases = ((t * t + 1, None), (t * t - 1, DomainError),
             ((t + 1) * (t + 1), DomainError),
             (t ** 4 + 2, UncertifiedFactorError))
    for pi, error in cases:
        calls.clear()
        if error is None:
            assert Place.finite(pi).pi == pi
        else:
            with pytest.raises(error):
                Place.finite(pi)
        assert calls == [pi]


def _places_off_the_support(field):
    """Places of degree 1 and 2 that random functions often miss."""
    t = Polynomial.variable(field)
    places = [Place.finite(t - a) for a in range(-2, 3)]
    # t^2 + 2 is irreducible over F_5, F_13 and Q
    return places + [Place.finite(t * t + 2)]


@pytest.mark.parametrize("field", [F5, F13, Q], ids=lambda F: F.descriptor)
def test_split_off_a_known_divisor_matches_trial_division(field):
    """`split` and `valuation` of a function whose `support` has run (read
    off the kept divisor) equal those of a fresh copy that never ran it
    (trial division), at every place of a support union, at places off
    the support, at poles and at infinity."""
    rng = random.Random(71 + field.char)
    t = tt(field)
    # v = 0 at infinity with num not constant: u, w are leading
    # coefficients there, not num and den
    fixed = [((t + 1) / (t + 2), t), (2 * t / (t * t + 2), 1 / t)]
    pairs = fixed + [(rand_fn_for(rng, field), rand_fn_for(rng, field))
                     for _ in range(25)]
    seen = set()
    for f, g in pairs:
        fresh = RationalFunction(f.num, f.den)
        places = support_union(f, g, include_infinity=True)
        assert f._divisor is not None and fresh._divisor is None
        for x in places + _places_off_the_support(field):
            v = fresh.valuation(x)
            seen.add("inf" if x.is_infinity else (v > 0) - (v < 0))
            assert f.split(x) == fresh.split(x)
            assert f.valuation(x) == v
            assert f.unit_value(x) == fresh.unit_value(x)
        assert fresh._divisor is None
        assert f.support() == fresh.support()
    assert seen == {"inf", -1, 0, 1}
