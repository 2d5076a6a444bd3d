import random
from fractions import Fraction

import pytest

from reciprocity_lab import factor
from reciprocity_lab.errors import DomainError, ZeroInputError
from reciprocity_lab.factor import (_factor_prime_field as factor_prime_field,
                                    _factor_rationals_limited
                                    as factor_rationals_limited,
                                    _frobenius, _frobenius_rows,
                                    _x_to_the_p, factor_polynomial)
from reciprocity_lab.fields import field_from_descriptor, power
from reciprocity_lab.poly import Polynomial

from helpers import F2, F3, F5, F13, Q, certified_irreducible, rand_poly

F101 = field_from_descriptor("Fp:101")
F1000003 = field_from_descriptor("Fp:1000003")
ORACLE_FIELDS = (F2, F3, F5, F13, F1000003)


def test_quadratic_irreducible_over_f3_splits_over_f5():
    t3 = Polynomial.variable(F3)
    t5 = Polynomial.variable(F5)
    assert certified_irreducible(t3 * t3 + 1)
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
                assert certified_irreducible(item.base)


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
    assert certified_irreducible(f)
    g = t * t + 1
    assert certified_irreducible(g)


def test_quartic_cofactor_is_flagged_uncertified():
    t = Polynomial.variable(Q)
    f = (t * t + 1) * (t * t + 2)
    fac = factor_rationals_limited(f)
    assert not fac.fully_certified()
    assert not certified_irreducible(f)
    # the product identity still holds even without certificates
    assert fac.product() == f


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroInputError):
        factor_polynomial(Polynomial.zero(F5))


def test_constants_have_no_factors():
    fac = factor_polynomial(Polynomial.constant(F5, 3))
    assert fac.factors == ()
    assert fac.unit.raw == 3
    assert not certified_irreducible(Polynomial.constant(Q, 4))


def test_seeded_factorization_is_deterministic():
    rng = random.Random(31)
    for _ in range(10):
        f = rand_poly(rng, F5, 6, nonzero=True)
        a = factor_prime_field(f, seed=123)
        b = factor_prime_field(f, seed=123)
        assert a.factors == b.factors


def test_every_seed_gives_the_same_factorization(monkeypatch):
    # the factorization into monic irreducibles is unique, so the seed only
    # picks the Cantor-Zassenhaus splitting path; a seeded call splits past
    # the cache, so every seed is really tried
    splits = []
    split = factor._split_equal_degree

    def counted(*args):
        splits.append(args)
        return split(*args)

    monkeypatch.setattr(factor, "_split_equal_degree", counted)
    rng = random.Random(37)
    fields = (F2, F3, F5, field_from_descriptor("Fp:13"),
              field_from_descriptor("Fp:1000003"))
    for field in fields:
        for _ in range(12):
            coeffs = [rng.randrange(field.p) for _ in range(rng.randint(1, 10))]
            f = Polynomial(field, coeffs + [rng.randrange(1, field.p)])
            expected = factor_prime_field(f)
            for seed in (0, 1, 7, rng.randint(0, 10 ** 9)):
                splits.clear()
                got = factor_prime_field(f, seed=seed)
                assert splits
                assert got.unit == expected.unit
                assert got.factors == expected.factors


def test_residue_theorem_factors_each_squarefree_part_once(monkeypatch):
    # den(h) = den(f) * den(g)^2 for h = f*g': its squarefree parts are
    # den(f) and den(g), which the supports of f and g have factored
    from reciprocity_lab.funcfield import RationalFunction
    from reciprocity_lab.symbols1d import residue_theorem_verify
    moduli = []
    distinct_degree = factor._distinct_degree

    def recorded(F, f):
        moduli.append(str(Polynomial(F, f)))
        return distinct_degree(F, f)

    monkeypatch.setattr(factor, "_distinct_degree", recorded)
    t = RationalFunction.variable(F5)
    f = 1 / (t * t + 2)
    g = 1 / (t * t + t + 1)
    report = residue_theorem_verify(f, g)
    assert report.ok
    assert str(f * g.derivative()) == "(3*t+4)/(t^6+2*t^5+t^3+2*t^2+4*t+2)"
    # den(f), den(g), then the part t+3 of num(h); den(h) comes from the cache
    assert moduli == ["t^2+2", "t^2+t+1", "t+3"]


def test_surface_coefficient_polynomials_are_out_of_scope():
    from reciprocity_lab.funcfield import FractionField
    ks = FractionField(Q, "s")
    f = Polynomial.variable(ks, "t")
    with pytest.raises(DomainError):
        factor_polynomial(f)


def _reference_power_mod(h: Polynomial, n: int, f: Polynomial) -> Polynomial:
    return power(lambda a, b: (a * b).divmod(f)[1], Polynomial.one(f.field),
                 h.divmod(f)[1], n)


def test_frobenius_rows_are_the_powers_of_x_to_the_p_i():
    rng = random.Random(41)
    for field in ORACLE_FIELDS:
        p = field.p
        x = Polynomial.variable(field)
        for n in (1, 2, 3, 5, 8):
            f = Polynomial(field, [rng.randrange(p) for _ in range(n)] + [1])
            rows = _frobenius_rows(field, f.coeffs)
            assert len(rows) == n
            for i, row in enumerate(rows):
                assert len(row) == n
                assert Polynomial(field, row) == _reference_power_mod(x, p * i, f)
            h = tuple(rng.randrange(p) for _ in range(n))
            assert Polynomial(field, _frobenius(field, rows, h)) == \
                _reference_power_mod(Polynomial(field, h), p, f)


def test_x_to_the_p_is_the_reference_power(monkeypatch):
    rng = random.Random(53)
    products = []
    mul_mod = factor._mul_mod

    def counted(*args):
        products.append(args)
        return mul_mod(*args)

    monkeypatch.setattr(factor, "_mul_mod", counted)
    for field in ORACLE_FIELDS:
        p = field.p
        x = Polynomial.variable(field)
        for n in range(1, 9):
            f = Polynomial(field, [rng.randrange(p) for _ in range(n)] + [1])
            products.clear()
            got = _x_to_the_p(field, f.coeffs)
            assert len(got) == n
            assert Polynomial(field, got) == _reference_power_mod(x, p, f)
            # one squaring per bit of p below the top one; a set bit adds a
            # shift, not a product
            assert len(products) == p.bit_length() - 1



def test_frobenius_rows_are_reduced_only_where_they_are_read(monkeypatch):
    # the rest of each distinct-degree step reduces them, and so does a
    # block of several irreducibles before equal-degree splitting; a block
    # of one irreducible never reads them
    moduli = []
    reduce_rows = factor._reduce_rows

    def recorded(F, rows, g):
        moduli.append(str(Polynomial(F, g)))
        return reduce_rows(F, rows, g)

    monkeypatch.setattr(factor, "_reduce_rows", recorded)
    t = Polynomial.variable(F5)
    for f, factors, reduced in (
            ((t + 1) * (t ** 2 + 2) * (t ** 4 + 2), ["t+1", "t^2+2", "t^4+2"],
             ["t^6+2*t^4+2*t^2+4", "t^4+2"]),
            (t * (t + 1) * (t ** 3 + t + 1), ["t", "t+1", "t^3+t+1"],
             ["t^3+t+1", "t^2+t"])):
        moduli.clear()
        fac = factor_prime_field(f)
        assert [str(item.base) for item in fac.factors] == factors
        assert moduli == reduced

def _oracle_inputs(rng, field):
    """Dense polynomials and products of small pieces with multiplicities,
    all of degree <= 18; for p <= 5 also g(t^p), whose derivative is zero,
    and pieces to the power p."""
    p = field.p
    out = []
    for _ in range(12):
        deg = rng.randint(0, 18)
        out.append(Polynomial(field, [rng.randrange(p) for _ in range(deg)]
                              + [rng.randrange(1, p)]))
    for _ in range(12):
        f = Polynomial.constant(field, rng.randrange(1, p))
        while True:
            piece = Polynomial(field, [rng.randrange(p) for _ in
                                       range(rng.randint(1, 4))] + [1])
            piece = piece ** rng.choice([1, 2, 3, p] if p <= 5 else [1, 2, 3])
            if f.degree + piece.degree > 18:
                break
            f = f * piece
        out.append(f)
    if p <= 5:
        for _ in range(6):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 18 // p))]
            spread = [0] * (p * len(g) + 1)
            spread[::p] = g + [rng.randrange(1, p)]
            out.append(Polynomial(field, spread))
    return out


def _sympy_factorization(f: Polynomial):
    """(unit, sorted [(monic coefficient tuple, multiplicity)]) from
    sympy.factor_list, its symmetric residues moved to 0..p-1."""
    sympy = pytest.importorskip("sympy")
    p = f.field.p
    x = sympy.Symbol("x")
    expr = sum(int(c) * x ** k for k, c in enumerate(f.coeffs))
    unit, items = sympy.factor_list(expr, x, modulus=p)
    unit = int(unit) % p
    factors = []
    for g, mult in items:
        mult = int(mult)
        coeffs = [int(c) % p for c in reversed(sympy.Poly(g, x).all_coeffs())]
        lead_inv = pow(coeffs[-1], -1, p)
        unit = unit * pow(coeffs[-1], mult, p) % p
        factors.append((tuple(c * lead_inv % p for c in coeffs), mult))
    return unit, sorted(factors)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_prime_field_factorization_agrees_with_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(43)
    t2 = Polynomial.variable(F2)
    # over F_2, blocks of two or three same-degree irreducibles (d = 3..6)
    # that only the trace map splits, next to a repeated quadratic
    fixed = [(t2 ** 3 + t2 + 1) * (t2 ** 3 + t2 ** 2 + 1)
             * (t2 ** 2 + t2 + 1) ** 2,
             (t2 ** 4 + t2 + 1) * (t2 ** 4 + t2 ** 3 + 1)
             * (t2 ** 4 + t2 ** 3 + t2 ** 2 + t2 + 1),
             (t2 ** 5 + t2 ** 2 + 1) * (t2 ** 5 + t2 ** 3 + 1)
             * (t2 ** 5 + t2 ** 4 + t2 ** 3 + t2 + 1)
             * (t2 ** 3 + t2 + 1),
             (t2 ** 6 + t2 + 1) * (t2 ** 6 + t2 ** 3 + 1)
             * (t2 ** 6 + t2 ** 5 + t2 ** 4 + t2 + 1)]
    cases = fixed + [f for field in ORACLE_FIELDS
                     for f in _oracle_inputs(rng, field)]
    for f in cases:
        fac = factor_prime_field(f)
        got = sorted((item.base.coeffs, item.multiplicity)
                     for item in fac.factors)
        assert (fac.unit.raw, got) == _sympy_factorization(f), str(f)


def test_prime_field_factorization_builds_a_polynomial_per_factor(
        monkeypatch):
    rng = random.Random(61)
    cases = [f for field in ORACLE_FIELDS for f in _oracle_inputs(rng, field)]
    built = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    for f in cases:
        built.clear()
        fac = factor_prime_field(f)
        assert len(built) <= len(fac.factors), str(f)


def _rational_oracle_input(rng):
    """A product over Q of a rational unit, linear factors a/b with |a| up
    to 10^30 and b up to 10^6, sometimes t, and at most one random
    quadratic, cubic or quartic cofactor, each to a power of 1 or 2."""
    t = Polynomial.variable(Q)
    f = Polynomial.constant(Q, Fraction(rng.choice([1, -1, 6, -35, 210])
                                        * rng.randint(1, 10 ** 6),
                                        rng.randint(1, 10 ** 4)))
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(-10 ** rng.choice([1, 6, 30]),
                        10 ** rng.choice([1, 6, 30]))
        b = rng.randint(1, rng.choice([1, 40, 10 ** 6]))
        # b*t - a, times an integer: non-primitive, and monic only for b = 1
        linear = (b * t - a) * rng.choice([1, 2, 15])
        f = f * linear ** rng.choice([1, 1, 2])
    if rng.random() < 0.3:
        f = f * t ** rng.choice([1, 2])
    if rng.random() < 0.6:
        deg = rng.choice([2, 3, 4])
        coeffs = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(deg)]
        cofactor = Polynomial(Q, coeffs + [rng.randint(1, 50)])
        if not cofactor.coeffs[0]:
            cofactor = cofactor + 1
        f = f * cofactor ** rng.choice([1, 1, 2])
    return f


def _sympy_rational_factors(f: Polynomial) -> list:
    """sorted [(monic coefficient tuple, multiplicity)] from sympy.factor_list
    over Q."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(f.coeffs))
    _, items = sympy.factor_list(expr, x)
    out = []
    for g, mult in items:
        coeffs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(sympy.Poly(g, x).all_coeffs())]
        out.append((tuple(c / coeffs[-1] for c in coeffs), int(mult)))
    return sorted(out)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_rational_factorization_agrees_with_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(47)
    t = Polynomial.variable(Q)
    # 1, 31, 61 and 91 collide mod 2, 3 and 5, and 7 divides the leading
    # coefficient, so the roots are lifted from residues mod 11
    spread = 210 * (t - 1) * (t - 31) * (t - 61) * (t - 91)
    cases = [spread, spread * (t * t + 1),
             spread * t ** 2 * Polynomial.constant(Q, Fraction(1, 7))]
    cases += [_rational_oracle_input(rng) for _ in range(240)]
    for f in cases:
        fac = factor_polynomial(f)
        assert fac.product() == f
        expected = _sympy_rational_factors(f)
        got = sorted((item.base.coeffs, item.multiplicity)
                     for item in fac.factors if item.base.degree == 1)
        assert got == [item for item in expected if len(item[0]) == 2], str(f)
        for item in fac.factors:
            if item.base.degree <= 3:
                assert item.certified, str(f)
                assert (item.base.coeffs, item.multiplicity) in expected


def test_factors_and_factorizations_are_immutable_values():
    # equal and hashed by their fields, like the frozen dataclasses they were
    t = Polynomial.variable(F5)
    a, b = factor.Factor(t + 1, 2), factor.Factor(t + 1, 2, True)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.certified is True
    for other in (factor.Factor(t + 2, 2), factor.Factor(t + 1, 1),
                  factor.Factor(t + 1, 2, False)):
        assert other != a and {other, a} != {a}
    assert a != (t + 1, 2, True) and a != "Factor"
    fac = factor_polynomial(t * t - 1)
    again = factor.Factorization(fac.unit, tuple(fac.factors))
    assert again == fac and hash(again) == hash(fac)
    assert factor.Factorization(fac.unit, fac.factors[:1]) != fac
    assert fac != again.factors[0]
    for value, name in ((a, "multiplicity"), (fac, "factors"),
                        (a, "new_field")):
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (a.base, a.multiplicity) == (t + 1, 2)
    assert repr(factor.Factor(t, 1, False)) == \
        f"Factor(base={t!r}, multiplicity=1, certified=False)"
    assert repr(fac) == f"Factorization(unit={fac.unit!r}, " \
                        f"factors={fac.factors!r})"
