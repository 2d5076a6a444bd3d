"""One reading of a function at a place, one builder of local symbols.

The reference route below is the one the symbols took before
`RationalFunction.split` and `symbols1d.monomial_symbol`: `valuation`
divides pi out of num and then den, `unit_value` divides it out of both a
second time and divides their reductions in the residue field, and the
symbol multiplies the unit values into `Field.monomial`.  Every symbol
must give the same value both ways, and the new route must split each
function once and invert at most once per place.
"""
import random

import pytest

from reciprocity_lab import funcfield, surface
from reciprocity_lab.errors import DomainError
from reciprocity_lab.funcfield import Place, RationalFunction, support_union
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.residue_field import ResidueField
from reciprocity_lab.surface import (curve_tame, hk4, horozov3, parshin3,
                                     surface_generators)
from reciprocity_lab.symbols1d import hilbert_symbol, tame_symbol, weil_verify

from helpers import F2, F5, F13, Q, rand_fn, rand_fn_q, rand_surface_fn

# irreducible over Q and certified by its factorizer (degree <= 3)
Q_PLACES = {1: ((-3, 1), (2, 1), (0, 1)), 2: ((1, 0, 1), (-2, 0, 1)),
            3: ((-2, 0, 0, 1), (1, 1, 0, 1))}


# -- the reference route ---------------------------------------------------


def _strip(p, pi):
    count = 0
    while True:
        q, r = p.divmod(pi)
        if not r.is_zero():
            return count, p
        count += 1
        p = q


def ref_valuation(f, x):
    if x.is_infinity:
        return f.den.degree - f.num.degree
    count, _ = _strip(f.num, x.pi)
    if count:
        return count
    return -_strip(f.den, x.pi)[0]


def ref_unit_value(f, x):
    L = x.residue_field()
    if x.is_infinity:
        return L.from_base(f.field.div(f.num.leading_coefficient(),
                                       f.den.leading_coefficient()))
    _, num = _strip(f.num, x.pi)
    _, den = _strip(f.den, x.pi)
    return L.div(L.from_coeffs(num.coeffs), L.from_coeffs(den.coeffs))


def ref_tame_raw(f, g, x):
    vf, vg = ref_valuation(f, x), ref_valuation(g, x)
    factors = [(ref_unit_value(h, x), e) for h, e in ((f, vg), (g, -vf)) if e]
    return x.residue_field().monomial(vf * vg, factors), vf, vg


def ref_monomial_local(exponents, vc, phis, x):
    alpha, es = exponents(vc, tuple(ref_valuation(p, x) for p in phis))
    ring = x.residue_field()
    return ring.norm(ring.monomial(
        alpha, [(ref_unit_value(p, x), e) for p, e in zip(phis, es) if e]))


def ref_surface_symbol(kind, functions, x, z):
    vc, phis = zip(*surface._curve_data(functions, z))
    return ref_monomial_local(surface._MONOMIAL_KINDS[kind][1], vc, phis, x)


def ref_curve_tame(f, g):
    (vf, uf), (vg, ug) = surface._curve_data((f, g), None)
    return f.field.monomial(vf * vg, ((uf, vg), (ug, -vf)))


# -- inputs ------------------------------------------------------------------


def random_place(rng, field, degree, var="t"):
    if field is Q:
        coeffs = rng.choice(Q_PLACES[degree])
        return Place.finite(Polynomial(Q, coeffs, var))
    while True:
        coeffs = [rng.randrange(field.p) for _ in range(degree)] + [1]
        try:
            return Place.finite(Polynomial(field, coeffs, var))
        except DomainError:
            continue


def places_of_each_degree(rng, field, var="t"):
    return [random_place(rng, field, d, var) for d in (1, 2, 3)] + \
        [Place.at_infinity(field, var)]


def function_at(rng, field, x, k):
    """A random function with a zero (k > 0) or pole (k < 0) of order at
    least |k| at the finite place x; pi**k sits in num or den."""
    base = rand_fn_q(rng, 3) if field is Q else rand_fn(rng, field, 3)
    if x.is_infinity:
        return base
    return base * RationalFunction.from_polynomial(x.pi) ** k


def one_variable_cases():
    rng = random.Random(1813)
    for field in (F2, F5, F13, Q):
        for x in places_of_each_degree(rng, field):
            for a, b in ((0, 0), (2, 0), (0, -3), (1, 1), (-2, 3), (-1, -2),
                         (3, 3)):
                for _ in range(3):
                    f = function_at(rng, field, x, a)
                    g = function_at(rng, field, x, b)
                    yield field, x, f, g


# -- tests -----------------------------------------------------------------


def test_split_reads_the_valuation_and_both_cofactors():
    seen = set()
    for field, x, f, _ in one_variable_cases():
        v, u, w = f.split(x)
        assert v == f.valuation(x) == ref_valuation(f, x)
        assert f.unit_value(x) == ref_unit_value(f, x)
        if x.is_infinity:
            assert u == Polynomial(field, f.num.coeffs[-1:], f.var)
            assert w == Polynomial(field, f.den.coeffs[-1:], f.var)
        else:
            pi = RationalFunction.from_polynomial(x.pi)
            assert f * pi ** (-v) == RationalFunction(u, w)
            assert not u.divmod(x.pi)[1].is_zero()
            assert not w.divmod(x.pi)[1].is_zero()
        seen.add((x.degree, x.is_infinity, (v > 0) - (v < 0)))
    # zeros, poles and units at places of degree 1-3, and infinity
    assert {(d, False, s) for d in (1, 2, 3) for s in (-1, 0, 1)} <= seen
    assert any(key[1] for key in seen)


def test_one_variable_symbols_match_the_reference_route():
    exponents = set()
    for field, x, f, g in one_variable_cases():
        raw, vf, vg = ref_tame_raw(f, g, x)
        want = x.residue_field().norm(raw)
        assert tame_symbol(f, g, x) == want
        assert tame_symbol(g, f, x) == x.residue_field().norm(
            ref_tame_raw(g, f, x)[0])
        if x.degree == 1:
            # at a rational place the norm is the residue value itself
            assert tame_symbol(f, g, x) == field.scalar(raw[0])
        if field is not Q:
            q = field.p
            for m in (m for m in range(1, q) if (q - 1) % m == 0):
                assert hilbert_symbol(f, g, x, m) == want ** ((q - 1) // m)
        exponents.add((vf != 0, vg != 0))
    assert exponents == {(False, False), (True, False), (False, True),
                         (True, True)}


def test_weil_terms_match_the_reference_route():
    rng = random.Random(1817)
    compared = 0
    for field in (F2, F5, F13, Q):
        for x in places_of_each_degree(rng, field)[:3]:
            for a, b in ((1, 2), (-2, 1), (0, -1)):
                f = function_at(rng, field, x, a)
                g = function_at(rng, field, x, b)
                report = weil_verify(f, g)
                assert report.ok, report.to_json(indent=2)
                places = support_union(f, g)
                assert [t["place"] for t in report.terms] == \
                    [str(y) for y in places]
                for term, y in zip(report.terms, places):
                    raw, vf, vg = ref_tame_raw(f, g, y)
                    assert (term["v_f"], term["v_g"]) == (vf, vg)
                    assert term["value"] == str(y.residue_field().norm(raw))
                    compared += 1
    assert compared > 100, compared


SURFACE_SYMBOLS = {"horozov": (3, horozov3), "parshin": (3, parshin3),
                   "hk4": (4, hk4)}


def surface_cases():
    rng = random.Random(1819)
    for base in (F2, F5, F13, Q):
        s, t = surface_generators(base)
        places = places_of_each_degree(rng, base, "s")
        for z in (None, t * (1 + t), s * t):
            for kind, (arity, symbol) in SURFACE_SYMBOLS.items():
                for _ in range(3):
                    functions = []
                    for _ in range(arity):
                        x = rng.choice(places[:3])
                        carrier = RationalFunction.constant(
                            s.field, RationalFunction.from_polynomial(x.pi),
                            "t")
                        functions.append(rand_surface_fn(rng, base, 2)
                                         * carrier ** rng.randint(-2, 2))
                    yield base, places, z, kind, symbol, functions


def test_surface_symbols_match_the_reference_route():
    compared = 0
    degrees = set()
    for base, places, z, kind, symbol, functions in surface_cases():
        phis = [phi for _, phi in surface._curve_data(functions, z)]
        at = set(support_union(*phis, include_infinity=True)) | set(places)
        for x in sorted(at, key=lambda y: y.sort_key()):
            want = ref_surface_symbol(kind, functions, x, z)
            assert symbol(*functions, x, z=z) == want
            degrees.add(x.degree)
            compared += 1
    assert degrees == {1, 2, 3}
    assert compared > 500, compared


def test_curve_tame_matches_the_reference_route():
    rng = random.Random(1823)
    for base in (F2, F5, F13, Q):
        for _ in range(20):
            f = rand_surface_fn(rng, base, 3)
            g = rand_surface_fn(rng, base, 3)
            assert curve_tame(f, g) == ref_curve_tame(f, g)
            assert curve_tame(g, f) == ref_curve_tame(g, f)


@pytest.fixture
def op_counts(monkeypatch):
    """Calls of ResidueField.inv, and the divisions by each place's pi that
    funcfield makes."""
    counts = {"inv": 0, "by_pi": 0}
    inv, divide = ResidueField.inv, funcfield.divide
    divisors = []

    def counted_inv(self, a):
        counts["inv"] += 1
        return inv(self, a)

    def counted_divide(F, a, b):
        if any(b is pi.coeffs for pi in divisors):
            counts["by_pi"] += 1
        return divide(F, a, b)

    monkeypatch.setattr(ResidueField, "inv", counted_inv)
    monkeypatch.setattr(funcfield, "divide", counted_divide)
    counts["divisors"] = divisors
    return counts


def _one_split(functions, x):
    """Divisions by pi that reading each function at x once takes: through
    the first power that leaves a remainder, in num, and in den only when
    pi does not divide num."""
    if x.is_infinity:
        return 0
    vs = [f.valuation(x) for f in functions]
    return sum(v + 1 if v > 0 else 2 - v for v in vs)


def _evaluate(op_counts, x, functions, call):
    expected = _one_split(functions, x)
    op_counts["inv"] = op_counts["by_pi"] = 0
    op_counts["divisors"][:] = [] if x.is_infinity else [x.pi]
    value = call()
    assert op_counts["inv"] <= 1
    assert op_counts["by_pi"] == expected
    op_counts["divisors"][:] = []
    return value


def test_a_local_symbol_splits_each_function_once_and_inverts_once(op_counts):
    inverted = 0
    for field, x, f, g in one_variable_cases():
        calls = [lambda: tame_symbol(f, g, x)]
        if field is not Q:
            calls.append(lambda: hilbert_symbol(f, g, x, 1))
        for call in calls:
            _evaluate(op_counts, x, (f, g), call)
            inverted += op_counts["inv"]
        if f.valuation(x) == 0:
            value = _evaluate(op_counts, x, (f,), lambda: f.evaluate(x))
            assert value.raw == ref_unit_value(f, x)
    for _, places, z, kind, symbol, functions in surface_cases():
        phis = [phi for _, phi in surface._curve_data(functions, z)]
        for x in places:
            _evaluate(op_counts, x, phis,
                      lambda: symbol(*functions, x, z=z))
            inverted += op_counts["inv"]
    assert inverted > 100


def test_a_constant_cofactor_is_not_inverted(op_counts):
    # den = 1 at every place, so the tame symbol of t + 1 and t at the
    # place t needs no inversion: its only negative exponent is on w = 1
    t = RationalFunction.variable(F5)
    x = Place.finite(Polynomial.variable(F5))
    assert _evaluate(op_counts, x, (t + 1, t),
                     lambda: tame_symbol(t + 1, t, x)).raw == 1
    assert op_counts["inv"] == 0
