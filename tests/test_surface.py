import random
from math import prod

import pytest

from reciprocity_lab.errors import (DomainError, MixedFieldError,
                                    ZeroInputError)
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.parsing import parse_place
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.surface import (curve_place, curve_tame,
                                     curve_valuation, hk4, horozov3,
                                     lambda_shift, nu_symbol,
                                     nu_verify, parshin3, phi_z,
                                     reciprocity_verify_2d,
                                     restrict_to_curve, surface_generators,
                                     vbar)
from reciprocity_lab.symbols1d import tame_symbol

from helpers import F3, F5, F13, Q, rand_surface_fn

LAW_ARITY = {"horozov": 3, "parshin": 3, "hk4": 4}


def gens(base):
    return surface_generators(base)


def place_s(base, shift=0):
    poly = Polynomial.variable(base, "s")
    if shift:
        poly = poly - Polynomial.constant(base, base.from_int(shift), "s")
    return Place.finite(poly)


def test_curve_valuation_examples():
    s, t = gens(Q)
    assert curve_valuation(s * t) == 1
    assert curve_valuation(s) == 0
    assert curve_valuation((t * t + s) / t ** 3) == -3
    with pytest.raises(ZeroInputError):
        curve_valuation(t - t)


def test_unit_part_restriction_examples():
    s, t = gens(Q)
    assert str(phi_z(s * t)) == "s"
    assert str(phi_z(s)) == "s"
    assert str(phi_z((1 + s * t) / (s - t))) == "(1)/(s)"
    f = (1 + s * t) / (s - t)
    g = s * t * t
    assert phi_z(f * g) == phi_z(f) * phi_z(g)


def test_reduced_valuation_examples():
    s, t = gens(Q)
    x = place_s(Q)
    assert vbar(s * t, x) == 1
    assert vbar(s + t, x) == 1
    assert vbar(1 + s * t, x) == 0


def test_reduced_valuation_shift_law():
    s, t = gens(Q)
    x = place_s(Q)
    z_old = t
    samples = [s * t, (t * t + s) / t ** 3, (s + t) * t ** 2, 1 + s * t]
    for z_new in (t * (1 + t), s * t):
        lam = lambda_shift(z_new, z_old, x)
        for f in samples:
            assert vbar(f, x, z_new) == \
                vbar(f, x, z_old) + lam * curve_valuation(f)


def test_parameter_must_vanish_to_first_order():
    s, t = gens(Q)
    with pytest.raises(DomainError):
        phi_z(s * t, z=t * t)
    with pytest.raises(DomainError):
        phi_z(s * t, z=s)


@pytest.mark.parametrize("pair", ["double-order", "mixed-order"])
def test_lambda_shift_checks_both_parameters_like_phi_z(pair):
    s, t = gens(Q)
    x = place_s(Q)
    z_new, z_old = (s * t * t, t * t) if pair == "double-order" \
        else (t * t, t)
    with pytest.raises(DomainError,
                       match="the parameter must vanish to first order "
                             "along the curve"):
        lambda_shift(z_new, z_old, x)


def test_parameter_from_another_model_is_rejected():
    s5, t5 = gens(F5)
    sq, tq = gens(Q)
    su, u = surface_generators(F5, t_var="u")
    x = place_s(F5)
    for z in (sq * tq, su * u):
        for f in (1 + s5 * t5, s5 * t5):
            with pytest.raises(MixedFieldError):
                phi_z(f, z=z)
            with pytest.raises(MixedFieldError):
                nu_symbol(f, s5, x, z=z)
            with pytest.raises(MixedFieldError):
                horozov3(f, s5, t5, x, z=z)
            with pytest.raises(MixedFieldError):
                parshin3(f, s5, t5, x, z=z)
            with pytest.raises(MixedFieldError):
                hk4(f, s5, t5, s5, x, z=z)
            for kind, arity in LAW_ARITY.items():
                functions = [f, s5, t5, s5][:arity]
                with pytest.raises(MixedFieldError):
                    reciprocity_verify_2d(kind, functions, z=z)


def test_surface_inputs_need_coefficient_functions():
    plain = RationalFunction.variable(Q)
    with pytest.raises(DomainError):
        curve_valuation(plain)


def test_intersection_symbol_examples():
    s, t = gens(Q)
    x = place_s(Q)
    assert nu_symbol(s * t, s, x) == -1
    assert nu_symbol(t, s, x) == -1
    assert nu_symbol(s * t, s * t, x) == 0
    assert nu_symbol(s, s * t, x) == 1


def test_intersection_symbol_is_z_independent():
    rng = random.Random(313)
    s, t = gens(F5)
    x = place_s(F5)
    for _ in range(10):
        f = rand_surface_fn(rng, F5)
        g = rand_surface_fn(rng, F5)
        base_value = nu_symbol(f, g, x)
        for z in (t * (1 + t), s * t):
            assert nu_symbol(f, g, x, z=z) == base_value


def test_intersection_sum_example():
    s, t = gens(Q)
    report = nu_verify(s * t, s)
    assert report.ok
    assert report.law == "nu-sum"
    by_place = {term["place"]: term["nu"] for term in report.terms}
    assert by_place["s"] == -1
    assert by_place["inf"] == 1
    assert str(report.value) == "0"


def test_intersection_sum_on_constants_is_empty():
    s, _ = gens(Q)
    f = s / s
    report = nu_verify(f * 3, f * 7)
    assert report.ok
    assert all(term["nu"] == 0 for term in report.terms)


def test_intersection_sum_random():
    rng = random.Random(317)
    for base in (F5, Q):
        for _ in range(12):
            f = rand_surface_fn(rng, base)
            g = rand_surface_fn(rng, base)
            report = nu_verify(f, g)
            assert report.ok, report.to_json(indent=2)


def test_curve_tame_sign_and_ratio():
    s, t = gens(Q)
    got = curve_tame(t, t)
    assert str(got) == "-1"
    unit = 1 + s * t
    assert str(curve_tame(unit, unit * 0 + 1)) == "1"
    mixed = curve_tame(t * t, s)
    assert str(mixed) == "(1)/(s^2)"


def test_horozov_symbol_frozen_values():
    s, t = gens(Q)
    x = place_s(Q)
    assert horozov3(t, s, s, x) == Q.scalar(1)
    one = s / s
    assert horozov3(s, one, s, x) == Q.scalar(1)
    assert horozov3(s, t, 1 - s, x) == Q.scalar(1)


def test_parshin_symbol_frozen_value_and_refinement():
    s, t = gens(Q)
    x = place_s(Q)
    assert parshin3(t, s, s, x) == Q.scalar(-1)
    cyclic = horozov3(t, s, s, x) * horozov3(s, t, s, x) * \
        horozov3(s, s, t, x)
    assert parshin3(t, s, s, x) == cyclic


def test_parshin_equals_cyclic_horozov_product_randomly():
    rng = random.Random(331)
    for base in (F5, Q):
        x = place_s(base)
        for _ in range(15):
            f = rand_surface_fn(rng, base)
            g = rand_surface_fn(rng, base)
            h = rand_surface_fn(rng, base)
            cyclic = horozov3(f, g, h, x) * horozov3(h, f, g, x) * \
                horozov3(g, h, f, x)
            assert parshin3(f, g, h, x) == cyclic


def test_parshin_all_equal_collapses_to_formula_value():
    s, t = gens(Q)
    x = place_s(Q)
    f = s * t
    cyclic = horozov3(f, f, f, x) ** 3
    assert parshin3(f, f, f, x) == cyclic


def test_parshin_is_z_independent():
    rng = random.Random(337)
    s, t = gens(F5)
    x = place_s(F5)
    for _ in range(8):
        f = rand_surface_fn(rng, F5)
        g = rand_surface_fn(rng, F5)
        h = rand_surface_fn(rng, F5)
        want = parshin3(f, g, h, x)
        for z in (t * (1 + t), s * t):
            assert parshin3(f, g, h, x, z=z) == want


def test_parshin_at_a_degree_two_place_equals_the_cyclic_horozov_product():
    rng = random.Random(359)
    for base, c in ((Q, 1), (F5, 2)):
        s, t = gens(base)
        pi = s * s + c
        x = Place.finite(Polynomial.variable(base, "s") ** 2
                         + Polynomial.constant(base, base.from_int(c), "s"))
        assert x.degree == 2
        triples = [(pi * t, s + t, 1 + s * t), (t, pi, s)]
        for _ in range(10):
            triples.append(tuple(rand_surface_fn(rng, base) * pi ** e
                                 for e in (rng.randint(-2, 2), 1,
                                           rng.randint(0, 1))))
        nontrivial = 0
        for f, g, h in triples:
            cyclic = horozov3(f, g, h, x) * horozov3(h, f, g, x) * \
                horozov3(g, h, f, x)
            value = parshin3(f, g, h, x)
            assert value == cyclic
            nontrivial += value != base.scalar(1)
        assert nontrivial


def test_unit_triples_give_one():
    s, _ = gens(Q)
    x = place_s(Q, shift=2)
    f = 1 + s
    g = 2 + s
    h = (3 + s) / (1 - s)
    triple = (f, g, h)
    assert all(curve_valuation(u) == 0 for u in triple)
    assert all(vbar(u, x) == 0 for u in triple)
    assert parshin3(f, g, h, x) == Q.scalar(1)


def test_hk4_frozen_value_and_z_independence():
    s, t = gens(Q)
    x = place_s(Q)
    assert hk4(t, t, s, s, x) == Q.scalar(1)
    rng = random.Random(347)
    for _ in range(8):
        quad = [rand_surface_fn(rng, Q, max_factors=2) for _ in range(4)]
        want = hk4(*quad, x)
        for z in (t * (1 + t), s * t):
            assert hk4(*quad, x, z=z) == want


def test_hk4_unit_slot_reduces_to_restricted_tame():
    from reciprocity_lab.symbols1d import tame_symbol
    s, t = gens(Q)
    x = place_s(Q)
    f1 = 1 + s * t
    f2 = (2 + s) / (1 - s) + t
    f3 = s + t * t
    f4 = (s - 3) * (1 + t)
    quad = (f1, f2, f3, f4)
    assert all(curve_valuation(u) == 0 for u in quad)
    got = hk4(*quad, x)
    want = tame_symbol(curve_tame(f1, f2), curve_tame(f3, f4), x)
    assert got == want


def test_reciprocity_products_2d():
    s, t = gens(Q)
    report = reciprocity_verify_2d("parshin", [t, s, 1 - s])
    assert report.ok
    names = {term["place"] for term in report.terms}
    assert {"s", "s-1", "inf"} <= names
    rng = random.Random(349)
    for base in (F5, Q, F3, F13):
        for kind, arity in LAW_ARITY.items():
            for _ in range(4):
                functions = [rand_surface_fn(rng, base, max_factors=2)
                             for _ in range(arity)]
                report = reciprocity_verify_2d(kind, functions)
                assert report.ok, report.to_json(indent=2)
                assert report.value == "1"


def test_reciprocity_2d_rejects_unknown_kind_and_bad_arity():
    s, t = gens(Q)
    with pytest.raises(DomainError):
        reciprocity_verify_2d("steinberg", [s, t, s])
    with pytest.raises(DomainError):
        reciprocity_verify_2d("parshin", [s, t])
    with pytest.raises(DomainError):
        reciprocity_verify_2d("hk4", [s, t, s])


def test_restriction_needs_a_curve_unit():
    from reciprocity_lab.errors import NotAUnitError
    s, t = gens(Q)
    with pytest.raises(NotAUnitError):
        restrict_to_curve(s * t)


def _restrict_via_kst(f, z):
    """The restricted unit part by k(s)(t) arithmetic: evaluate
    f * z**(-v) at the place t = 0 and project to k(s)."""
    x = curve_place(f)
    (value,) = (f * z ** (-f.valuation(x))).evaluate(x).raw
    return value


def test_t_adic_restriction_matches_the_kst_route():
    rng = random.Random(353)
    for base in (F5, Q):
        s, t = gens(base)
        x = place_s(base, shift=1)
        for _ in range(12):
            f = rand_surface_fn(rng, base)
            g = rand_surface_fn(rng, base)
            assert curve_valuation(f) == f.valuation(curve_place(f))
            for z in (t, t * (1 + t), s * t):
                got = phi_z(f, z)
                want = _restrict_via_kst(f, z)
                assert (got.num, got.den) == (want.num, want.den)
                assert lambda_shift(z, t, x) == \
                    _restrict_via_kst(t / z, t).valuation(x)
            vf, vg = curve_valuation(f), curve_valuation(g)
            want = _restrict_via_kst(f ** vg / g ** vf, t)
            if (vf * vg) % 2:
                want = -want
            got = curve_tame(f, g)
            assert (got.num, got.den) == (want.num, want.den)


def test_restriction_of_a_curve_unit_is_phi_for_every_parameter():
    rng = random.Random(359)
    for base in (F5, Q):
        s, t = gens(base)
        for _ in range(12):
            f = rand_surface_fn(rng, base)
            unit = f / t ** curve_valuation(f)
            got = restrict_to_curve(unit)
            for z in (t, t * (1 + t), s * t):
                want = phi_z(unit, z)
                assert (got.num, got.den) == (want.num, want.den)
            want = _restrict_via_kst(unit, t)
            assert (got.num, got.den) == (want.num, want.den)


def _parshin_via_kst(f, g, h, x, z):
    """The Parshin symbol the long way: build the determinant monomial in
    k(s), evaluate it at x, and take the norm of the signed value; also
    the exponents (a, -b, c) it used."""
    vc = [curve_valuation(w) for w in (f, g, h)]
    phis = [phi_z(w, z) for w in (f, g, h)]
    vb = [p.valuation(x) for p in phis]
    a = vc[1] * vb[2] - vc[2] * vb[1]
    b = vc[0] * vb[2] - vc[2] * vb[0]
    c = vc[0] * vb[1] - vc[1] * vb[0]
    alpha = (vc[0] * vc[1] * vb[2] + vc[0] * vc[2] * vb[1]
             + vc[1] * vc[2] * vb[0] + vc[0] * vb[1] * vb[2]
             + vc[1] * vb[0] * vb[2] + vc[2] * vb[0] * vb[1])
    unit = (phis[0] ** a * phis[1] ** (-b) * phis[2] ** c).evaluate(x)
    ring = x.residue_field()
    value = ring.norm(ring.mul(ring.sign(alpha), unit.raw))
    return value, (a, -b, c)


def test_parshin_matches_the_evaluated_monomial():
    rng = random.Random(367)
    signs = set()
    for base, c in ((F5, 2), (Q, 1)):
        s, t = gens(base)
        pi = s * s + c
        quadratic = Place.finite(Polynomial.variable(base, "s") ** 2
                                 + Polynomial.constant(base, base.from_int(c),
                                                       "s"))
        for x, carrier in ((place_s(base), s), (place_s(base, 1), s - 1),
                           (quadratic, pi)):
            for _ in range(6):
                triple = [rand_surface_fn(rng, base)
                          * carrier ** rng.randint(-2, 2) for _ in range(3)]
                for z in (None, t * (1 + t), s * t):
                    want, exponents = _parshin_via_kst(*triple, x, z)
                    assert parshin3(*triple, x, z=z) == want
                    signs.update((i, (e > 0) - (e < 0))
                                 for i, e in enumerate(exponents))
    assert signs == {(i, e) for i in range(3) for e in (-1, 0, 1)}


def _minus_one(phi):
    return RationalFunction.constant(phi.field, -1, phi.var)


def _horozov_reference(f, g, h, x, z):
    """The definition: tame(phi0, phi2)^c1 * tame(phi1, -1)^(c0 c2)."""
    c = [curve_valuation(w) for w in (f, g, h)]
    phis = [phi_z(w, z) for w in (f, g, h)]
    return (tame_symbol(phis[0], phis[2], x) ** c[1]
            * tame_symbol(phis[1], _minus_one(phis[1]), x) ** (c[0] * c[2]))


def _hk4_reference(f1, f2, f3, f4, x, z):
    """The definition: prod_i tame(phi_i, -1)^(prod_{j != i} c_j) times
    the tame symbol of the two curve-level tame symbols of the pairs."""
    quad = (f1, f2, f3, f4)
    c = [curve_valuation(w) for w in quad]
    value = tame_symbol(curve_tame(f1, f2), curve_tame(f3, f4), x)
    for i, w in enumerate(quad):
        phi = phi_z(w, z)
        value = value * tame_symbol(phi, _minus_one(phi), x) ** \
            prod(c[:i] + c[i + 1:])
    return value


_REFERENCES = {
    "horozov": (horozov3, _horozov_reference),
    "parshin": (parshin3, lambda f, g, h, x, z: (
        _horozov_reference(f, g, h, x, z) * _horozov_reference(h, f, g, x, z)
        * _horozov_reference(g, h, f, x, z))),
    "hk4": (hk4, _hk4_reference),
}


def test_exponent_tables_match_the_definitions_at_every_report_place():
    # each function carries at most one of the two nonlinear places, so
    # over Q every restriction still factors with certificates
    rng = random.Random(373)
    degrees = set()
    compared = 0
    for base, a, b in ((F5, 1, 1), (F13, 0, 2), (Q, 0, -2)):
        s, t = gens(base)
        carriers = (s * s + 2, s ** 3 + a * s + b)
        for z in (t, t * (1 + t), s * t):
            for kind, (symbol, reference) in _REFERENCES.items():
                for _ in range(5):
                    functions = [
                        rand_surface_fn(rng, base, max_factors=2)
                        * rng.choice(carriers) ** rng.randint(-2, 2)
                        for _ in range(LAW_ARITY[kind])]
                    report = reciprocity_verify_2d(kind, functions, z=z)
                    assert report.ok, report.to_json(indent=2)
                    for term in report.terms:
                        x = parse_place(term["place"], base, "s")
                        want = reference(*functions, x, z)
                        assert symbol(*functions, x, z=z) == want
                        assert term["value"] == str(want)
                        degrees.add(x.degree)
                        compared += 1
    assert degrees == {1, 2, 3}
    assert compared > 500, compared
