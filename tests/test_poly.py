import random
from fractions import Fraction

import pytest

from reciprocity_lab.errors import ZeroInputError
from reciprocity_lab.fields import field_from_descriptor
from reciprocity_lab.funcfield import FractionField, RationalFunction
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.residue_field import ResidueField

from helpers import F2, F5, F13, Q, rand_poly


def test_degree_and_leading_coefficient():
    p = Polynomial(Q, [Fraction(1), Fraction(0), Fraction(3)])
    assert p.degree == 2
    assert p.leading_coefficient() == Fraction(3)
    assert Polynomial.zero(Q).degree is None
    assert Polynomial.one(F5).degree == 0


def test_construction_trims_leading_zeros():
    p = Polynomial(F5, [1, 2, 0, 0])
    assert p.degree == 1
    assert p == Polynomial(F5, [1, 2])


def test_ring_operations():
    t = Polynomial.variable(Q)
    p = (t + 1) * (t - 1)
    assert p == t * t - 1
    assert (p + 1).coefficient(0) == Fraction(0)
    assert (-p) + p == Polynomial.zero(Q)
    assert (t + 2) ** 3 == t ** 3 + 6 * t * t + 12 * t + 8


def test_divmod_identity():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng, F5, 6)
        b = rand_poly(rng, F5, 3, nonzero=True)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_division_by_zero_polynomial():
    t = Polynomial.variable(Q)
    with pytest.raises(ZeroInputError):
        t.divmod(Polynomial.zero(Q))


def test_gcd_is_monic_and_divides():
    t = Polynomial.variable(F5)
    a = (t + 1) ** 2 * (t + 3)
    b = (t + 1) * (t + 2)
    g = a.gcd(b)
    assert g == t + 1
    assert g.is_monic()
    rng = random.Random(5)
    for _ in range(25):
        p = rand_poly(rng, Q, 4, nonzero=True)
        q = rand_poly(rng, Q, 4, nonzero=True)
        g = p.gcd(q)
        assert (p % g).is_zero() and (q % g).is_zero()


def test_derivative_product_rule():
    rng = random.Random(7)
    for field in (F5, Q):
        for _ in range(25):
            a = rand_poly(rng, field, 5)
            b = rand_poly(rng, field, 5)
            lhs = (a * b).derivative()
            rhs = a.derivative() * b + a * b.derivative()
            assert lhs == rhs


def test_taylor_shift_matches_evaluation():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_poly(rng, Q, 5)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        shifted = p.taylor_shift(c)
        for point in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            assert shifted.evaluate(point) == p.evaluate(point + c)


def _shift_cases(rng):
    """(polynomial, center) pairs over prime fields, Q and residue fields."""
    F1000003 = field_from_descriptor("Fp:1000003")
    for field in (F2, F13, F1000003, Q):
        for _ in range(8):
            center = (Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      if field == Q else field.from_int(rng.randint(0, 99)))
            yield rand_poly(rng, field, 7), center
    T5, T2, TQ = (Polynomial.variable(field, "T") for field in (F5, F2, Q))
    for modulus in (T5 ** 2 + 2, T5 ** 3 + T5 + 1, T2 ** 3 + T2 + 1,
                    TQ ** 2 + 1):
        ring = ResidueField(modulus)
        base = modulus.field

        def draw():
            return ring.from_coeffs([base.from_int(rng.randint(-9, 9))
                                     for _ in range(modulus.degree)])

        for _ in range(6):
            coeffs = [draw() for _ in range(rng.randint(0, 7))]
            # the class T of the variable, as a local expansion shifts by,
            # or any other element
            center = (ring.from_coeffs((base.zero, base.one))
                      if rng.random() < 0.5 else draw())
            yield Polynomial(ring, coeffs), center


def test_truncated_taylor_shift_is_a_prefix_of_the_full_shift():
    rng = random.Random(29)
    cases = 0
    for p, center in _shift_cases(rng):
        full = p.taylor_shift(center)
        assert len(full.coeffs) == len(p.coeffs)
        for k in range(len(p.coeffs) + 2):
            assert p.taylor_shift(center, terms=k) == \
                Polynomial(p.field, full.coeffs[:k], p.var), (p, center, k)
        cases += 1
    assert cases == 56


def test_resultant_detects_common_roots():
    t = Polynomial.variable(F5)
    assert F5.is_zero((t + 1).resultant(t * t - 1))
    assert not F5.is_zero((t + 1).resultant(t * t + 2))
    # multiplicative in the first slot
    rng = random.Random(3)
    for _ in range(15):
        a = rand_poly(rng, F5, 3, nonzero=True)
        b = rand_poly(rng, F5, 3, nonzero=True)
        c = rand_poly(rng, F5, 3, nonzero=True)
        assert F5.eq((a * b).resultant(c),
                     F5.mul(a.resultant(c), b.resultant(c)))


def test_squarefree_decomposition_recomposes():
    rng = random.Random(17)
    for field in (F2, F5, Q):
        for _ in range(20):
            f = rand_poly(rng, field, 5, nonzero=True)
            parts = f.squarefree_part_decomposition()
            rebuilt = Polynomial.constant(field, 1).scale(
                f.leading_coefficient())
            for g, m in parts:
                rebuilt = rebuilt * g ** m
            assert rebuilt == f


def test_squarefree_parts_are_squarefree_over_q():
    t = Polynomial.variable(Q)
    f = (t + 1) ** 3 * (t - 2) ** 2 * t
    parts = dict()
    for g, m in f.squarefree_part_decomposition():
        parts[m] = g
        assert g.gcd(g.derivative()).degree == 0
    assert parts[3] == t + 1
    assert parts[2] == t - 2
    assert parts[1] == t


def test_rendering_corner_cases():
    t = Polynomial.variable(Q)
    assert str(Polynomial.zero(Q)) == "0"
    assert str(t ** 2 - 1) == "t^2-1"
    assert str(Polynomial(Q, [Fraction(-1, 2)])) == "-1/2"
    assert str(Polynomial(Q, [Fraction(0), Fraction(1, 2)])) == "1/2*t"
    assert str(-t) == "-t"


def test_monic_normalization():
    p = Polynomial(F5, [2, 4])
    m = p.monic()
    assert m.is_monic()
    assert m == Polynomial(F5, [3, 1])
    assert Polynomial.zero(F5).monic().is_zero()


def test_evaluate_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(20):
        a = rand_poly(rng, F5, 4)
        b = rand_poly(rng, F5, 4)
        x = F5.from_int(rng.randint(0, 4))
        assert (a * b).evaluate(x) == F5.mul(a.evaluate(x), b.evaluate(x))
        assert (a + b).evaluate(x) == F5.add(a.evaluate(x), b.evaluate(x))


def count_calls(monkeypatch, cls, name):
    """Patch cls.name with a wrapper that appends one entry per call."""
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_powers_make_the_minimal_number_of_products(monkeypatch):
    # square-and-multiply needs floor(log2 n) + popcount(n) - 1 products:
    # no squaring past the top bit, no product with one
    T = Polynomial.variable(F5, "T")
    cubic = ResidueField(T ** 3 + T + 1)
    cases = (
        (Polynomial, "__mul__", lambda n: Polynomial.variable(Q) ** n),
        (ResidueField, "mul", lambda n: cubic.pow((1, 2, 0), n)),
    )
    for cls, name, raise_to in cases:
        calls = count_calls(monkeypatch, cls, name)
        for n in range(1, 41):
            calls.clear()
            raise_to(n)
            assert len(calls) == n.bit_length() + bin(n).count("1") - 2, \
                (cls.__name__, n)
        monkeypatch.undo()


def test_products_skip_zero_coefficients_on_both_sides(monkeypatch):
    ks = FractionField(F5, "s")
    s = RationalFunction.variable(F5, "s")
    left = Polynomial(ks, [ks.one, s], "t")
    cube = Polynomial.monomial(ks, 3, var="t")
    calls = count_calls(monkeypatch, FractionField, "mul")
    assert left * cube == left.shift(3)
    assert len(calls) == 2
    calls.clear()
    assert cube * left == left.shift(3)
    assert len(calls) == 2
