import random
from fractions import Fraction

import pytest

from reciprocity_lab.errors import DomainError, ZeroInputError
from reciprocity_lab.fields import Field, PrimeField, field_from_descriptor
from reciprocity_lab.funcfield import FractionField, RationalFunction
from reciprocity_lab import poly
from reciprocity_lab.poly import (Polynomial, convolve, divide, monic_gcd,
                                  mul_mod, squarefree_parts, trim)
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
    assert p.exact_div(t - 1) == t + 1
    # both inputs are nonzero: these are domain failures, not zero inputs
    with pytest.raises(DomainError, match="negative power of a polynomial"):
        t ** -1
    with pytest.raises(DomainError, match="division was not exact"):
        (t ** 2 + 1).exact_div(t)


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
            if rng.random() < 0.5:
                b = Polynomial(field, monic_gcd(field, b.coeffs, ()))
            pairs.append((poly(rng.randint(0, 6)), b))
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
        assert p.divmod(g)[1].is_zero() and q.divmod(g)[1].is_zero()


CERTIFICATE_PRIME = 2 ** 61 - 1


def reference_gcd(a, b) -> tuple:
    """Monic gcd of two Fraction sequences by Euclid's loop with long
    division on Fractions: the route the certificate must agree with."""
    a, b = list(trim(Q, a)), list(trim(Q, b))
    while b:
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            for j, y in enumerate(b):
                r[len(r) - len(b) + j] -= c * y
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return tuple(c / a[-1] for c in a)


def _certificate_cases(rng):
    """(a, b, whether the certificate may prove them coprime) over Q with
    fractional coefficients: coprime pairs, pairs with a common factor,
    pairs whose leading numerator or a denominator P divides, a coprime
    pair that shares a factor mod P, and pairs with a linear side."""
    P = CERTIFICATE_PRIME

    def rand_q(deg):
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 40))
                  for _ in range(deg)]
        return Polynomial(Q, coeffs + [Fraction(rng.randint(1, 99),
                                                rng.randint(1, 9))])

    t = Polynomial.variable(Q)
    cases = []
    for _ in range(40):
        a, b = rand_q(rng.randint(2, 8)), rand_q(rng.randint(2, 8))
        if a.gcd(b).degree == 0:
            cases.append((a, b, True))
        shared = rand_q(rng.randint(1, 3))
        cases.append((a * shared, b * shared, False))
    cases += [
        (P * t ** 3 + t + 1, t ** 2 + 2, False),
        # coprime mod P only because the common factor P*t + 1 drops
        # its degree there
        ((P * t + 1) * (t ** 2 + 1), (P * t + 1) * (t ** 2 + 3), False),
        (t ** 3 + t + 1, (t ** 2).scale(Fraction(2 * P, 3)) + 5, False),
        (t ** 3 + t.scale(Fraction(1, P)) + 1, t ** 2 + 2, False),
        (t ** 2 + 1, t ** 2 + 1 + P, False),
        (t ** 2 + 1, t ** 2 + 1, False),
    ]
    for _ in range(10):
        linear = Polynomial(Q, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                Fraction(1)])
        other = rand_q(rng.randint(1, 6)) * rng.choice([linear, t + 1])
        cases += [(linear, other, False), (other, linear, False)]
    return cases


def test_coprimality_certificate_matches_fraction_euclid(monkeypatch):
    outcomes = []
    certificate = poly._coprime_mod_p

    def recorded(a, b):
        outcomes.append(certificate(a, b))
        return outcomes[-1]

    monkeypatch.setattr(poly, "_coprime_mod_p", recorded)
    proved = 0
    for a, b, provable in _certificate_cases(random.Random(97)):
        outcomes.clear()
        want = reference_gcd(a.coeffs, b.coeffs)
        assert monic_gcd(Q, a.coeffs, b.coeffs) == want, (a, b)
        assert a.gcd(b).coeffs == want, (a, b)
        if min(a.degree, b.degree) < 2:
            # a linear side never pays for the certificate
            assert outcomes == [], (a, b)
            continue
        assert len(outcomes) == 2, (a, b)
        assert outcomes[0] == outcomes[1]
        if provable:
            assert outcomes[0] and want == (Fraction(1),), (a, b)
            proved += 1
        else:
            # P in a leading numerator or a denominator, or a common
            # factor mod P: Euclid's loop decides
            assert not outcomes[0], (a, b)
    assert proved >= 30


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_coprimality_certificate_agrees_with_sympy_gcd():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for a, b, _ in _certificate_cases(random.Random(101)):
        got = monic_gcd(Q, a.coeffs, b.coeffs)
        expected = sympy.gcd(_sympy_poly(sympy, x, a), _sympy_poly(sympy, x, b))
        coeffs = [_from_sympy(Q, c) for c in expected.all_coeffs()[::-1]]
        assert got == tuple(c / coeffs[-1] for c in coeffs), (a, b)


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
    m = Polynomial(F5, monic_gcd(F5, p.coeffs, ()))
    assert m.is_monic()
    assert m == Polynomial(F5, [3, 1])
    assert monic_gcd(F5, (), ()) == ()


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
    shifted = Polynomial(ks, (ks.zero,) * 3 + left.coeffs, "t")
    calls = count_calls(monkeypatch, FractionField, "mul")
    assert left * cube == shifted
    assert len(calls) == 2
    calls.clear()
    assert cube * left == shifted
    assert len(calls) == 2


class GenericPrimeField(Field):
    """F_p with PrimeField's arithmetic that is not a PrimeField, so the
    kernels run their generic loops on it: the reference for their F_p
    loops on ints."""

    def __init__(self, p: int):
        self.prime = PrimeField(p)
        self.char = p
        self.descriptor = f"generic-Fp:{p}"
        self.zero, self.one = self.prime.zero, self.prime.one

    def __getattr__(self, name):
        return getattr(self.prime, name)


KERNEL_PRIMES = (2, 3, 5, 13, 1000003)


def _kernel_sequences(rng, p, count):
    """Coefficient lists of length 0-8, about a third of their entries 0,
    ending in a nonzero entry."""
    out = []
    for _ in range(count):
        seq = [rng.randrange(p) if rng.random() < 0.65 else 0
               for _ in range(rng.randint(0, 8))]
        if seq:
            seq[-1] = rng.randrange(1, p)
        out.append(seq)
    return out


def _squarefree_inputs(rng, p):
    """A random unit times 1-4 powers of monic pieces of degree 1-3; for
    p <= 13 also inputs with p-th-power parts, whose derivative vanishes in
    part or whole."""
    F = PrimeField(p)
    t = Polynomial.variable(F)
    cases = []
    for _ in range(25):
        f = Polynomial.constant(F, rng.randrange(1, p))
        for _ in range(rng.randint(1, 4)):
            piece = Polynomial(F, [rng.randrange(p)
                                   for _ in range(rng.randint(1, 3))] + [1])
            f = f * piece ** rng.randint(1, 4)
        cases.append(f)
    if p <= 13:
        cases += [(t ** p + 1) ** 2 * t ** 3, t ** (2 * p) + 2,
                  (t + 1) ** (p + 1) * (t ** 2 + 1) ** p, t ** p * (t + 2),
                  t ** (3 * p) * (t ** p - 1) ** 2 * (t + 1)]
    if p <= 3:
        cases.append((t ** 2 + t + 1) ** (p * p))
    return cases


def test_prime_field_kernels_agree_with_their_generic_loops():
    rng = random.Random(83)
    for p in KERNEL_PRIMES:
        F, G = PrimeField(p), GenericPrimeField(p)
        seqs = _kernel_sequences(rng, p, 40) + [[], [1], [0, 1]]
        for _ in range(300):
            a, b = rng.choice(seqs), rng.choice(seqs)
            full = len(a) + len(b) - 1
            for length in (None, 0, 1, max(full - 2, 0), full, full + 3):
                assert convolve(F, a, b, length) == convolve(G, a, b, length), \
                    (p, a, b, length)
            if b:
                # monic and non-monic divisors, longer and shorter than a
                monic = [c * pow(b[-1], -1, p) % p for c in b]
                for divisor in (b, monic):
                    got = divide(F, a, divisor)
                    assert got == divide(G, a, divisor), (p, a, divisor)
                    assert len(got[1]) == len(divisor) - 1
                # products mod a monic m, against the product then division
                c = rng.choice(seqs)
                want = divide(G, convolve(G, a, c), monic)[1]
                assert mul_mod(F, a, c, monic) == want, (p, a, c, monic)
                assert mul_mod(G, a, c, monic) == want, (p, a, c, monic)
            common = rng.choice(seqs) or [1]
            x, y = convolve(F, a, common), convolve(F, b, common)
            for u, v in ((a, b), (x, y), (a, []), ([], b), ([], [])):
                u, v = trim(F, u), trim(F, v)
                assert monic_gcd(F, u, v) == monic_gcd(G, u, v), (p, u, v)
        for f in _squarefree_inputs(rng, p):
            parts = squarefree_parts(F, f.coeffs)
            assert parts == squarefree_parts(G, f.coeffs), (p, str(f))
            mults = [m for _, m in parts]
            assert mults == sorted(set(mults)), (p, str(f))
            rebuilt = Polynomial.one(F)
            for g, m in parts:
                rebuilt = rebuilt * Polynomial(F, g) ** m
            assert rebuilt == Polynomial(F, monic_gcd(F, f.coeffs, ())), \
                (p, str(f))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_prime_field_squarefree_parts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(89)
    checked = 0
    for p in KERNEL_PRIMES:
        for f in _squarefree_inputs(rng, p):
            expr = sum(int(c) * x ** k for k, c in enumerate(f.coeffs))
            _, items = sympy.sqf_list(expr, x, modulus=p)
            expected = []
            for g, m in items:
                coeffs = [int(c) % p
                          for c in reversed(sympy.Poly(g, x).all_coeffs())]
                inv = pow(coeffs[-1], -1, p)
                expected.append((tuple(c * inv % p for c in coeffs), int(m)))
            assert squarefree_parts(f.field, f.coeffs) == sorted(
                expected, key=lambda item: item[1]), (p, str(f))
            checked += 1
    assert checked >= 140
