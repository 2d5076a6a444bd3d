import random
from fractions import Fraction

import pytest

from reciprocity_lab.errors import DomainError, ZeroInputError
from reciprocity_lab.fields import field_from_descriptor
from reciprocity_lab.funcfield import FractionField, RationalFunction
from reciprocity_lab.poly import Polynomial, divide
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


def _division_fields():
    """(field, draw) pairs: draw(rng) is a random coefficient, often zero."""
    F1000003 = field_from_descriptor("Fp:1000003")
    ks = FractionField(F5, "s")

    def rational(rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def large(rng):
        return rng.randrange(1000003) if rng.random() < 0.7 else 0

    def function_of_s(rng):
        return RationalFunction(rand_poly(rng, F5, 2, "s"),
                                rand_poly(rng, F5, 1, "s", nonzero=True))

    yield F2, lambda rng: F2.from_int(rng.randint(0, 1))
    yield F13, lambda rng: F13.from_int(rng.randint(-3, 3))
    yield F1000003, large
    yield F5, lambda rng: F5.from_int(rng.randint(0, 4))
    yield Q, rational
    yield ks, function_of_s


def test_divmod_identity():
    rng = random.Random(11)
    for field, draw in _division_fields():

        def poly(deg, nonzero=False):
            while True:
                p = Polynomial(field, [draw(rng) for _ in range(deg + 1)])
                if not (nonzero and p.is_zero()):
                    return p

        pairs = [(Polynomial.zero(field), poly(2, nonzero=True)),
                 (poly(1), poly(4, nonzero=True)),
                 (poly(5), poly(0, nonzero=True))]
        for _ in range(30):
            b = poly(rng.randint(0, 3), nonzero=True)
            pairs.append((poly(rng.randint(0, 6)),
                          b.monic() if rng.random() < 0.5 else b))
        for a, b in pairs:
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
            assert len(divide(field, a.coeffs, b.coeffs)[1]) == b.degree
        # over F_2 every divisor is monic
        assert field is F2 or any(not b.is_monic() and not b.is_constant()
                                  for _, b in pairs)


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


def _sympy_poly(sympy, x, p: Polynomial):
    if p.field.char == 0:
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in p.coeffs]
        return sympy.Poly(coeffs[::-1], x, domain=sympy.QQ)
    return sympy.Poly(list(p.coeffs[::-1]), x, domain=sympy.GF(p.field.p))


def _from_sympy(field, value):
    """A sympy number as a raw value of field."""
    if field.char == 0:
        return Fraction(int(value.p), int(value.q))
    return field.from_int(int(value))


def test_gcd_and_resultant_agree_with_sympy():
    # The resultant's oracle is the determinant of the Sylvester matrix, the
    # definition: sympy's Poly.resultant (1.14) has the opposite sign on
    # some pairs of odd degree product, e.g. Res(t + 3, t^3) = -27.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester
    x = sympy.Symbol("x")
    rng = random.Random(29)
    F1000003 = field_from_descriptor("Fp:1000003")
    for field in (Q, F2, F5, F13, F1000003):
        for _ in range(30):
            # degrees 0-8 with a shared factor of degree 0-3
            shared = rand_poly(rng, field, 3, nonzero=True)
            a = rand_poly(rng, field, 8 - shared.degree, nonzero=True) * shared
            b = rand_poly(rng, field, 8 - shared.degree, nonzero=True) * shared
            sa, sb = _sympy_poly(sympy, x, a), _sympy_poly(sympy, x, b)
            gcd = [_from_sympy(field, c) for c in sa.gcd(sb).all_coeffs()]
            assert a.gcd(b) == Polynomial(field, gcd[::-1]), (a, b)
            matrix = sylvester(sa.as_expr(), sb.as_expr(), x)
            assert a.resultant(b) == _from_sympy(field, matrix.det()), (a, b)


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
    for _ in range(20):
        f = rand_poly(rng, Q, 5, nonzero=True)
        parts = f.squarefree_part_decomposition()
        rebuilt = Polynomial.constant(Q, 1).scale(f.leading_coefficient())
        for g, m in parts:
            rebuilt = rebuilt * g ** m
        assert rebuilt == f


def test_squarefree_decomposition_refuses_prime_fields(monkeypatch):
    # over F_p a part can have derivative 0; factor_polynomial splits there
    gcds = []
    monkeypatch.setattr(Polynomial, "gcd",
                        lambda self, other: gcds.append(None))
    t2, t5 = Polynomial.variable(F2), Polynomial.variable(F5)
    for f in (t2 ** 2 + 1, t2 ** 3 + t2, (t5 + 1) ** 5 * t5, t5 ** 10 + 2,
              Polynomial.zero(F5)):
        with pytest.raises(DomainError, match="factor_polynomial"):
            f.squarefree_part_decomposition()
    assert gcds == []


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_squarefree_decomposition_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(71)
    t = Polynomial.variable(Q)

    def fraction():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    for _ in range(150):
        # a constant cofactor times 1-4 powers of pieces of degree 1-3 with
        # fractional coefficients, which may repeat or share factors
        f = Polynomial.constant(Q, fraction() or Fraction(7, 3))
        for _ in range(rng.randint(1, 4)):
            low = [fraction() for _ in range(rng.randint(1, 3))]
            lead = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            f = f * Polynomial(Q, low + [lead]) ** rng.randint(1, 6)
        if rng.random() < 0.2:
            f = f * t ** rng.randint(1, 6)
        parts = f.squarefree_part_decomposition()
        mults = [m for _, m in parts]
        assert mults == sorted(set(mults)), str(f)
        _, items = sympy.sqf_list(_sympy_poly(sympy, x, f))
        expected = []
        for g, m in items:
            coeffs = [_from_sympy(Q, c) for c in g.all_coeffs()[::-1]]
            expected.append((tuple(c / coeffs[-1] for c in coeffs), m))
        assert sorted((g.coeffs, m) for g, m in parts) == sorted(expected), \
            str(f)


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
    cube = Polynomial.variable(ks, "t") ** 3
    calls = count_calls(monkeypatch, FractionField, "mul")
    assert left * cube == left.shift(3)
    assert len(calls) == 2
    calls.clear()
    assert cube * left == left.shift(3)
    assert len(calls) == 2
