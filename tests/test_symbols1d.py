import random

import pytest

from reciprocity_lab import tate
from reciprocity_lab.errors import (DomainError, MixedFieldError,
                                    UncertifiedFactorError, ZeroInputError)
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.symbols1d import (hilbert_symbol, hilbert_verify,
                                       residue_differential,
                                       residue_theorem_verify,
                                       sum_of_valuations_verify,
                                       tame_symbol, weil_verify)
from reciprocity_lab.tate import differential_residue

from helpers import F3, F5, F7, F13, Q, rand_fn, rand_fn_for, rand_fn_q


def tt(field):
    return RationalFunction.variable(field)


def origin(field):
    return Place.finite(Polynomial.variable(field))


def test_tame_symbol_frozen_values():
    t = tt(F5)
    x = origin(F5)
    assert tame_symbol(t, 2 * (1 - t), x) == F5.scalar(3)
    tq = tt(Q)
    assert tame_symbol(tq, tq, origin(Q)) == Q.scalar(-1)
    assert tame_symbol(tq * tq, tq * tq, origin(Q)) == Q.scalar(1)


def test_tame_symbol_of_units_evaluates_the_quotient():
    # with both valuations zero the symbol is f^0 g^0 = 1... no: it is 1
    t = tt(F7)
    x = origin(F7)
    f = (t + 1) / (t + 2)
    g = t + 3
    assert tame_symbol(f, g, x) == F7.scalar(1)
    # one-sided valuation reads the unit through the pole order
    assert tame_symbol(t, g, x) == F7.scalar(3) ** -1 * F7.scalar(1) * \
        F7.scalar(3) ** 0 or True
    got = tame_symbol(t, g, x)
    assert got == 1 / F7.scalar(3)


def test_steinberg_relations():
    rng = random.Random(263)
    for field in (F5, Q):
        for _ in range(25):
            f = rand_fn_q(rng, max_deg=4) if field is Q \
                else rand_fn(rng, field, max_deg=4)
            one = RationalFunction.constant(field, 1)
            if f.is_zero() or f == one:
                continue
            for x, _ in f.support():
                assert tame_symbol(f, -f, x) == field.scalar(1)
                g = one - f
                if not g.is_zero():
                    assert tame_symbol(f, g, x) == field.scalar(1)


def test_antisymmetry_and_bimultiplicativity():
    rng = random.Random(269)
    for _ in range(50):
        field = (F5, F7, Q)[rng.randrange(3)]
        f = rand_fn_for(rng, field, max_deg=4)
        g = rand_fn_for(rng, field, max_deg=4)
        h = rand_fn_for(rng, field, max_deg=4)
        places = [x for x, _ in (f * g * h).support()]
        places.append(Place.at_infinity(field))
        for x in places[:4]:
            ab = tame_symbol(f, g, x)
            ba = tame_symbol(g, f, x)
            assert ab * ba == field.scalar(1)
            assert tame_symbol(f * h, g, x) == ab * tame_symbol(h, g, x)
            assert tame_symbol(f, g * h, x) == ab * tame_symbol(f, h, x)


def test_tame_symbol_rejects_zero_input():
    t = tt(Q)
    with pytest.raises(ZeroInputError):
        tame_symbol(t - t, t, origin(Q))


def test_milnor_matches_tame_at_rational_places():
    # the rational-point form: (-1)^(v_f v_g) times the value at x of the
    # unit f^v_g / g^v_f, read by evaluation instead of an exponent table
    rng = random.Random(271)
    for _ in range(20):
        f = rand_fn(rng, F5, max_deg=3)
        g = rand_fn(rng, F5, max_deg=3)
        places = [x for x, _ in (f * g).support() if x.degree == 1]
        for x in places:
            vf, vg = f.valuation(x), g.valuation(x)
            (unit,) = (f ** vg / g ** vf).evaluate(x).raw
            assert tame_symbol(f, g, x) == (-1) ** (vf * vg % 2) * F5.scalar(unit)


def test_tame_at_higher_degree_place_is_a_norm():
    pi = Polynomial.variable(F3) ** 2 + Polynomial.one(F3)
    x = Place.finite(pi)
    t = tt(F3)
    f = RationalFunction.from_polynomial(pi)
    ring = x.residue_field()
    T = ring.from_coeffs([0, 1])
    # v_x(f) = 1 and v_x(t) = 0: the residue-field values are 1/T and T + 1
    assert tame_symbol(f, t, x) == ring.norm(ring.inv(T))
    assert tame_symbol(t + 1, f, x) == ring.norm(ring.add(T, ring.one))
    assert tame_symbol(t + 1, f, x) == F3.scalar(2)


def test_weil_reciprocity_steinberg_pair():
    t = tt(F5)
    report = weil_verify(t, 1 - t)
    assert report.ok
    assert report.law == "weil"
    assert report.value == "1" and report.expected == "1"
    assert all(term["value"] == "1" for term in report.terms)


def test_weil_reciprocity_random_pairs():
    rng = random.Random(277)
    for field in (F5, F7, Q):
        for _ in range(12):
            f = rand_fn_for(rng, field, max_deg=5)
            g = rand_fn_for(rng, field, max_deg=5)
            report = weil_verify(f, g)
            assert report.ok, report.to_json(indent=2)


def test_weil_covers_higher_degree_places():
    t = tt(F5)
    f = (t * t + 2) * t
    g = (t * t + 3) / (t - 1)
    report = weil_verify(f, g)
    assert report.ok
    assert any(term["deg"] > 1 for term in report.terms)


def test_sum_of_valuations():
    t = tt(F5)
    f = (t * t + 2) / (t - 1) ** 3
    report = sum_of_valuations_verify(f)
    assert report.ok
    assert report.law == "sum-of-valuations"
    total = sum(term["deg"] * term["v"] for term in report.terms)
    assert total == 0
    assert str(report.value) == "0"
    infinity_terms = [term for term in report.terms
                      if term["place"] == "inf"]
    assert len(infinity_terms) == 1 and infinity_terms[0]["v"] == 1


def test_sum_of_valuations_random():
    rng = random.Random(281)
    for field in (F5, F7, Q):
        for _ in range(15):
            f = rand_fn_for(rng, field, max_deg=6)
            report = sum_of_valuations_verify(f)
            assert report.ok


def test_hilbert_symbol_frozen_values():
    t = tt(F5)
    x = origin(F5)
    assert hilbert_symbol(t, t, x, 4) == F5.scalar(4)
    assert hilbert_symbol(t, t, x, 2) == F5.scalar(1)
    assert hilbert_symbol(t, t, x, 1) == F5.scalar(1)
    t7 = tt(F7)
    g = RationalFunction.constant(F7, 3)
    assert hilbert_symbol(t7, g, origin(F7), 3) == F7.scalar(4)


def test_hilbert_symbol_lands_in_roots_of_unity():
    rng = random.Random(283)
    for field, q in ((F5, 5), (F13, 13)):
        divisors = [m for m in range(1, q) if (q - 1) % m == 0]
        for _ in range(20):
            f = rand_fn(rng, field, max_deg=3)
            g = rand_fn(rng, field, max_deg=3)
            places = [x for x, _ in (f * g).support()]
            for m in divisors:
                for x in places[:2]:
                    value = hilbert_symbol(f, g, x, m)
                    assert value ** m == field.scalar(1)


def test_hilbert_symbol_is_a_tame_power():
    rng = random.Random(293)
    for _ in range(15):
        f = rand_fn(rng, F13, max_deg=3)
        g = rand_fn(rng, F13, max_deg=3)
        for x, _ in f.support():
            tame = tame_symbol(f, g, x)
            assert hilbert_symbol(f, g, x, 4) == tame ** 3
            assert hilbert_symbol(f, g, x, 12) == tame


def test_hilbert_symbol_domain_errors():
    t = tt(F5)
    x = origin(F5)
    with pytest.raises(DomainError):
        hilbert_symbol(t, t, x, 3)
    tq = tt(Q)
    with pytest.raises(DomainError):
        hilbert_symbol(tq, tq, origin(Q), 2)
    with pytest.raises(DomainError, match="finite ground field"):
        hilbert_verify(tq, tq, 2)
    # m is checked before any place, so inputs without places see it too
    two = RationalFunction.constant(F5, 2)
    three = RationalFunction.constant(F5, 3)
    for m in (3, 0, -4, 8):
        with pytest.raises(DomainError, match=f"m = {m} does not divide"):
            hilbert_verify(two, three, m)
        with pytest.raises(DomainError, match=f"m = {m} does not divide"):
            hilbert_verify(t, t + 1, m)
    assert hilbert_verify(two, three, 4).ok
    # f and g must share a function field, with or without places
    seven = RationalFunction.constant(F7, 3)
    for f, g in ((two, seven), (t, tt(F7)),
                 (t, RationalFunction.variable(F5, "s"))):
        with pytest.raises(MixedFieldError):
            weil_verify(f, g)
        with pytest.raises(MixedFieldError):
            hilbert_verify(f, g, 2)


def test_hilbert_product_formula():
    rng = random.Random(307)
    for field, q in ((F5, 5), (F13, 13)):
        for m in [m for m in range(1, q) if (q - 1) % m == 0]:
            for _ in range(5):
                f = rand_fn(rng, field, max_deg=4)
                g = rand_fn(rng, field, max_deg=4)
                report = hilbert_verify(f, g, m)
                assert report.ok, report.to_json(indent=2)
                assert report.inputs["m"] == str(m)


def test_residue_theorem_frozen_example():
    t = tt(Q)
    f = 1 / (t * t - t)
    report = residue_theorem_verify(f, t)
    assert report.ok
    assert report.law == "residue-theorem"
    by_place = {term["place"]: term["value"] for term in report.terms}
    assert by_place["t"] == "-1"
    assert by_place["t-1"] == "1"
    assert by_place["inf"] == "0"
    assert report.value == "0"


def test_residue_theorem_includes_derivative_support():
    t = tt(Q)
    f = t
    g = 1 / (t - 2)
    h, places = residue_differential(f, g)
    assert h == f * g.derivative()
    names = [str(x) for x in places]
    assert "t-2" in names and "inf" in names


def test_residues_vanish_where_f_and_g_are_regular():
    """A residue of f dg can be nonzero only at a pole of f or g or at
    infinity: every other listed place has residue 0, and the law holds on
    the poles and infinity alone."""
    rng = random.Random(7)
    pairs = regular_places = 0
    for field in (F5, F13, Q):
        zero = field.zero_scalar()
        for _ in range(200):
            f = rand_fn(rng, field, max_deg=4)
            g = rand_fn(rng, field, max_deg=4)
            try:
                h, places = residue_differential(f, g)
                regular = [x for x in places if not x.is_infinity
                           and f.valuation(x) >= 0 and g.valuation(x) >= 0]
            except UncertifiedFactorError:
                assert field is Q
                continue
            for x in regular:
                assert differential_residue(h, x) == zero, (f, g, x)
            poles = [x for x in places if x not in regular]
            total = zero
            for x in poles:
                total = total + differential_residue(h, x)
            assert total == zero, (f, g)
            pairs += 1
            regular_places += len(regular)
    assert pairs >= 400 and regular_places >= 1000, (pairs, regular_places)


def test_residue_theorem_random_with_oracle():
    rng = random.Random(311)
    for field in (Q, F7):
        for i in range(10):
            f = rand_fn_for(rng, field, max_deg=4)
            g = rand_fn_for(rng, field, max_deg=4)
            report = residue_theorem_verify(f, g, oracle=(i % 3 == 0))
            assert report.ok, report.to_json(indent=2)
            if i % 3 == 0:
                assert int(report.details["oracle_agreements"]) >= 1


def test_residue_theorem_oracle_refuses_a_disagreeing_trace(monkeypatch):
    t = tt(Q)
    f = 1 / (t * t - t)
    trace = tate.abstract_residue_trace
    monkeypatch.setattr(tate, "abstract_residue_trace",
                        lambda f, g, x: trace(f, g, x) + Q.one_scalar())
    # without the oracle the trace is never read
    assert residue_theorem_verify(f, t).ok
    with pytest.raises(DomainError, match="classical and commutator "
                                          "residues disagree at "):
        residue_theorem_verify(f, t, oracle=True)


def test_residue_theorem_at_quadratic_place():
    pi = Polynomial.variable(F3) ** 2 + Polynomial.one(F3)
    f = 1 / RationalFunction.from_polynomial(pi)
    g = RationalFunction.from_polynomial(pi)
    report = residue_theorem_verify(f, g, oracle=True)
    assert report.ok
    by_place = {term["place"]: term for term in report.terms}
    assert by_place["t^2+1"]["value"] == "2"
    assert by_place["t^2+1"]["deg"] == 2


def test_a_refusal_at_f_or_g_comes_before_f_dg_is_formed(monkeypatch):
    # the supports of f and g are read before h = f*g', in the order the
    # union over f, g and h reads them, so the refusal is the same one
    from reciprocity_lab.segalwilson import sw_verify
    derivatives = []
    derivative = RationalFunction.derivative

    def counted(self):
        derivatives.append(self)
        return derivative(self)

    monkeypatch.setattr(RationalFunction, "derivative", counted)
    t = tt(Q)
    f = (t ** 4 + 2) * (t - 1) / (t * t + 1)
    g = t * t + 3
    for verify in (residue_theorem_verify, sw_verify):
        with pytest.raises(UncertifiedFactorError) as refused:
            verify(f, g)
        assert str(refused.value) == \
            "uncertified irreducible factor t^4+2 of t^5-t^4+2*t-2"
        with pytest.raises(UncertifiedFactorError) as refused:
            verify(g, f)
        assert str(refused.value) == \
            "uncertified irreducible factor t^4+2 of t^5-t^4+2*t-2"
        # a pair from two fields is refused first, as forming f*g' refuses it
        with pytest.raises(MixedFieldError, match="mixed fields: Q vs Fp:5"):
            verify(f, tt(F5))
    assert derivatives == []
