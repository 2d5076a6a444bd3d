from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reciprocity_lab.errors import (DomainError, MixedFieldError, ParseError,
                                    ZeroInputError)
from reciprocity_lab.fields import (_MR_BASES, _MR_PSI, FieldScalar,
                                    PrimeField, RationalField, _is_prime,
                                    field_from_descriptor)
from reciprocity_lab.funcfield import FractionField, RationalFunction
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.residue_field import ResidueField

from helpers import F5, F7, F13, Q


def test_rational_arithmetic_is_exact():
    a = Q.scalar(Fraction(1, 3))
    b = Q.scalar(Fraction(1, 6))
    assert a + b == Q.scalar(Fraction(1, 2))
    assert (a / b).raw == Fraction(2)
    assert a - a == 0


def test_prime_field_canonical_representatives():
    assert F5.from_int(-1) == 4
    assert F5.from_int(12) == 2
    assert F5.add(3, 4) == 2
    assert F5.neg(0) == 0


def test_inverse_of_zero_is_an_error():
    with pytest.raises(ZeroInputError):
        F5.inv(0)
    with pytest.raises(ZeroInputError):
        Q.inv(Fraction(0))
    with pytest.raises(ZeroInputError):
        F7.pow(0, -2)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(MixedFieldError):
        F5.scalar(1) + F7.scalar(1)
    with pytest.raises(MixedFieldError):
        Q.scalar(1) * F5.scalar(1)
    with pytest.raises(MixedFieldError):
        F5.coerce(Fraction(1, 2))


def test_int_literals_coerce_into_the_ambient_field():
    x = F7.scalar(3)
    assert x + 5 == 1
    assert 2 * x == 6
    assert 1 / x == 5
    assert (2 - x) == 6


def test_scalar_power_and_inverse():
    x = F13.scalar(2)
    assert x ** 12 == 1
    assert x ** -1 == 7
    assert x ** -1 * x == 1
    y = Q.scalar(Fraction(2, 3))
    assert y ** -2 == Q.scalar(Fraction(9, 4))


def test_sign_helper():
    assert F5.sign(0) == 1
    assert F5.sign(3) == 4
    assert Q.sign(2) == Fraction(1)
    assert Q.sign(-1) == Fraction(-1)


def _monomial_cases():
    ring = ResidueField(Polynomial(F5, [2, 0, 1], "T"))  # T^2 + 2
    ks = FractionField(Q, "s")
    s = RationalFunction.variable(Q, "s")
    return [
        (Q, (Fraction(2, 3), Fraction(-5, 7), Fraction(4))),
        (F13, (2, 5, 11)),
        (ring, ((1, 1), (3, 2), (0, 4))),
        (ks, (s + 1, s / (s - 2), ks.from_int(3))),
    ]


@pytest.mark.parametrize("field, elements", _monomial_cases(),
                         ids=["Q", "F13", "F5[T]/(T^2+2)", "Q(s)"])
def test_monomial_is_the_signed_product_of_powers(field, elements,
                                                  monkeypatch):
    inversions = []
    inv = type(field).inv
    monkeypatch.setattr(type(field), "inv",
                        lambda self, a: inversions.append(a) or inv(self, a))
    a, b, c = elements

    def want(sign, factors):
        value = field.sign(sign)
        for x, e in factors:
            value = field.mul(value, field.pow(x, e))
        return value

    for sign in (0, 1, -3):
        assert field.eq(field.monomial(sign, []), field.sign(sign))
        assert field.eq(field.monomial(sign, [(a, 0)]), field.sign(sign))
        for factors in ([(a, 2), (b, 1), (c, 3)], [(a, 0), (b, 4)]):
            inversions.clear()
            assert field.eq(field.monomial(sign, factors), want(sign, factors))
            assert inversions == []
        for factors in ([(a, -2), (b, -1)], [(c, -3)],
                        [(a, 3), (b, -2), (c, 0), (a, -1)]):
            expected = want(sign, factors)
            inversions.clear()
            assert field.eq(field.monomial(sign, factors), expected)
            assert len(inversions) == 1
    # a zero exponent never touches its element, even zero itself
    assert field.eq(field.monomial(0, [(field.zero, 0), (a, 1)]), a)


def test_rationals_past_the_text_limit_are_refused_before_str():
    # 2^14284 - 1 has 4300 digits; 2^14285 - 1 has 4301
    widest = 2 ** 14284 - 1
    assert len(Q.render(Fraction(widest))) == 4300
    assert len(Q.render(Fraction(-1, widest))) == 4303
    for value in (Fraction(widest + 1), Fraction(-widest - 1),
                  Fraction(1, widest + 1)):
        with pytest.raises(DomainError):
            Q.render(value)


def test_descriptor_parsing():
    assert field_from_descriptor("Q") is field_from_descriptor("Q")
    assert isinstance(field_from_descriptor("Fp:11"), PrimeField)
    with pytest.raises(ParseError):
        field_from_descriptor("Fp:abc")
    with pytest.raises(ParseError):
        field_from_descriptor("R")
    with pytest.raises(DomainError):
        field_from_descriptor("Fp:6")


def test_primality_of_moduli_is_exact():
    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(-3, 2000):
        if trial_division(n):
            assert PrimeField(n).p == n
        else:
            with pytest.raises(DomainError):
                PrimeField(n)
    # strong pseudoprimes to every base up to 7, 23 and 37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(DomainError):
            PrimeField(n)
    for p in (2 ** 61 - 1, 10 ** 18 + 3, 3317044064679887385961813):
        assert PrimeField(p).p == p


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1
                                  for r in range(1, s))


def test_miller_rabin_runs_the_shortest_proven_prefix_of_bases():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, int(limit ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    assert [_is_prime(n) for n in range(limit)] == [bool(b) for b in sieve]
    # psi_k passes the first k bases: the prefix `_is_prime` runs on it
    # must be longer than the one it runs below psi_k
    for k, psi in enumerate(_MR_PSI[:-1], 1):
        assert all(_strong_probable_prime(psi, a) for a in _MR_BASES[:k])
        assert not _is_prime(psi)
    with pytest.raises(DomainError, match="too large"):
        _is_prime(_MR_PSI[-1])


def test_moduli_beyond_the_certified_range_are_rejected():
    with pytest.raises(DomainError, match="too large"):
        PrimeField(3317044064679887385961981)
    with pytest.raises(DomainError, match="too large"):
        PrimeField(2 ** 127 - 1)


def test_scalar_equality_and_hash():
    assert F5.scalar(7) == F5.scalar(2)
    assert hash(F5.scalar(7)) == hash(F5.scalar(2))
    assert F5.scalar(1) != F7.scalar(1)
    assert F5.scalar(3) != 4
    assert str(Q.scalar(Fraction(-1, 2))) == "-1/2"


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_axioms(a, b, c):
    f = F13
    x, y, z = f.from_int(a), f.from_int(b), f.from_int(c)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    if not f.is_zero(x):
        assert f.mul(x, f.inv(x)) == f.one


@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
def test_rational_scalar_ops_match_fraction_ops(a, b):
    x = FieldScalar(Q, a)
    y = FieldScalar(Q, b)
    assert (x + y).raw == a + b
    assert (x * y).raw == a * b
    assert (-x).raw == -a
    if b != 0:
        assert (x / y).raw == a / b


def test_field_repr_is_the_descriptor():
    assert repr(Q) == "Q"
    assert repr(F13) == "Fp:13"
    assert isinstance(Q, RationalField)


def test_package_exports_resolve():
    import reciprocity_lab
    missing = [name for name in reciprocity_lab.__all__
               if not hasattr(reciprocity_lab, name)]
    assert missing == []
