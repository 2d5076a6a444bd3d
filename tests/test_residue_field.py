import random
from fractions import Fraction

import pytest

from reciprocity_lab import residue_field
from reciprocity_lab.errors import DomainError, MixedFieldError, ZeroInputError
from reciprocity_lab.fields import Field
from reciprocity_lab.parsing import parse_surface
from reciprocity_lab.poly import Polynomial, divide
from reciprocity_lab.residue_field import ResidueField
from reciprocity_lab.surface import curve_place

from helpers import F3, F5, F7, F13, Q, certified_irreducible, rand_fn


def quadratic_ring(field, b, c, var="T"):
    """k[T]/(T^2 + b T + c)."""
    modulus = Polynomial(field, [field.from_int(c), field.from_int(b),
                                 field.one], var)
    return ResidueField(modulus)


def det2(field, a0, a1, b, c):
    """Determinant of multiplication by a0 + a1 T on the basis {1, T}."""
    # columns: (a0, a1) and (-c a1, a0 - b a1)
    return field.sub(field.mul(a0, field.sub(a0, field.mul(field.from_int(b), a1))),
                     field.mul(a1, field.neg(field.mul(field.from_int(c), a1))))


def test_norm_matches_multiplication_matrix_determinant():
    rng = random.Random(37)
    for field in (F5, F7):
        for b, c in ((0, 2), (1, 1), (3, 4)):
            modulus = Polynomial(field, [field.from_int(c),
                                         field.from_int(b), field.one], "T")
            if not certified_irreducible(modulus):
                continue
            ring = quadratic_ring(field, b, c)
            for _ in range(25):
                a0 = field.from_int(rng.randint(0, 6))
                a1 = field.from_int(rng.randint(0, 6))
                raw = ring.from_coeffs([a0, a1])
                assert ring.norm_raw(raw) == det2(field, a0, a1, b, c)


def test_trace_of_the_generator():
    # in k[T]/(T^2 + bT + c) the class of T has trace -b and norm c
    for field, b, c in ((F3, 0, 1), (F5, 1, 2), (F7, 3, 5)):
        ring = quadratic_ring(field, b, c)
        gen = ring.from_coeffs([field.zero, field.one])
        assert ring.trace_raw(gen) == field.neg(field.from_int(b))
        assert ring.norm_raw(gen) == field.from_int(c)


def test_norm_is_multiplicative_and_trace_additive():
    rng = random.Random(41)
    t = Polynomial.variable(F5, "T")
    ring = ResidueField(t ** 3 + t + 1)
    for _ in range(40):
        a = ring.from_coeffs([F5.from_int(rng.randint(0, 4)) for _ in range(3)])
        b = ring.from_coeffs([F5.from_int(rng.randint(0, 4)) for _ in range(3)])
        assert ring.norm_raw(ring.mul(a, b)) == \
            F5.mul(ring.norm_raw(a), ring.norm_raw(b))
        assert ring.trace_raw(ring.add(a, b)) == \
            F5.add(ring.trace_raw(a), ring.trace_raw(b))


def test_base_elements_norm_and_trace():
    ring = quadratic_ring(F7, 0, 3)
    c = ring.from_base(F7.from_int(4))
    assert ring.norm_raw(c) == F7.pow(4, 2)
    assert ring.trace_raw(c) == F7.mul(2, 4)


def test_inverse_roundtrip_and_zero_rejection():
    rng = random.Random(43)
    ring = quadratic_ring(F5, 0, 2)
    for _ in range(20):
        raw = ring.from_coeffs([F5.from_int(rng.randint(0, 4)),
                                F5.from_int(rng.randint(0, 4))])
        if ring.is_zero(raw):
            continue
        assert ring.eq(ring.mul(raw, ring.inv(raw)), ring.one)
    with pytest.raises(ZeroInputError):
        ring.inv(ring.zero)
    # T - 1 is a zero divisor of k[T]/(T^2 - 1)
    split = quadratic_ring(Q, 0, -1)
    with pytest.raises(ZeroInputError, match="not a unit"):
        split.inv(split.from_coeffs([-1, 1]))
    # the modulus must be monic of degree >= 1
    for coeffs in ([1, 2], [2], []):
        with pytest.raises(DomainError, match="monic"):
            ResidueField(Polynomial(Q, coeffs, "T"))


def test_elem_wrapper_arithmetic():
    ring = quadratic_ring(F3, 0, 1)
    gen = ring.scalar(ring.from_coeffs([0, 1]))
    assert (gen * gen) == ring.scalar(ring.from_int(-1))
    assert ring.norm((gen ** 4).raw) == 1
    assert (gen + (-gen)) == ring.scalar(ring.zero)
    assert (1 / gen) == -gen


def test_trivial_ring_round_trip():
    ring = ResidueField.trivial(Q)
    raw = ring.scalar(5).raw
    assert raw == (5,)
    assert ring.norm(raw) == 5
    assert ring.trace(raw) == 5


def test_classes_of_different_places_do_not_mix():
    ring = quadratic_ring(F5, 0, 2)
    other = quadratic_ring(F5, 0, 3)
    assert isinstance(ring, Field)
    with pytest.raises(MixedFieldError):
        ring.scalar(1) + other.scalar(1)
    with pytest.raises(MixedFieldError):
        ring.coerce((1,))


def test_frobenius_fixed_points_have_full_norm():
    # over F_p the norm of a base scalar c in a degree-d extension is c^d
    t = Polynomial.variable(F3, "T")
    ring = ResidueField(t ** 3 - t + 1)
    for c in range(1, 3):
        raw = ring.from_base(F3.from_int(c))
        assert ring.norm_raw(raw) == F3.pow(c, 3)


def test_products_and_reduction_match_polynomial_division():
    # the shared convolution and division kernels against a schoolbook
    # product and a schoolbook long division, which subtracts shifted
    # multiples of the monic modulus until the degree drops below it
    rng = random.Random(47)
    cases = (
        (ResidueField(Polynomial(F5, [1, 2, 0, 1], "T")),
         lambda: F5.from_int(rng.randint(0, 4))),
        (ResidueField(Polynomial(Q, [3, Fraction(1, 2), 1], "T")),
         lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3))),
    )
    for ring, draw in cases:
        F, d = ring.base, ring.degree

        def remainder(coeffs):
            rem = Polynomial(F, coeffs, "T")
            while not rem.is_zero() and rem.degree >= d:
                shifted = (F.zero,) * (rem.degree - d) + ring.modulus.coeffs
                rem -= Polynomial(F, shifted, "T").scale(
                    rem.leading_coefficient())
            return rem.coeffs + (F.zero,) * (d - len(rem.coeffs))

        for _ in range(60):
            a = tuple(draw() for _ in range(d))
            b = tuple(draw() for _ in range(d))
            plain = [F.zero] * (2 * d - 1)
            for i in range(d):
                for j in range(d):
                    plain[i + j] = F.add(plain[i + j], F.mul(a[i], b[j]))
            assert ring.mul(a, b) == remainder(plain)
            assert ring.from_coeffs(plain) == remainder(plain)
            longer = [draw() for _ in range(rng.randint(0, 3 * d))]
            assert ring.from_coeffs(longer) == remainder(longer)


def test_products_never_invert_in_the_base_field(monkeypatch):
    # pi is monic, so reducing a product mod pi needs no division in k
    rng = random.Random(53)
    for ring in (quadratic_ring(F5, 1, 2),
                 ResidueField(Polynomial(F7, [2, 0, 0, 1], "T")),
                 ResidueField(Polynomial(Q, [3, Fraction(1, 2), 1], "T"))):
        F = ring.base
        elements = [ring.from_coeffs([F.from_int(rng.randint(-9, 9))
                                      for _ in range(rng.randint(1, 7))])
                    for _ in range(12)]
        pairs = [(a, ring.inv(a)) for a in elements if not ring.is_zero(a)]
        inverted = []
        original = type(F).inv

        def counted(self, a):
            inverted.append(a)
            return original(self, a)

        monkeypatch.setattr(type(F), "inv", counted)
        assert all(ring.mul(a, b) == ring.one for a, b in pairs)
        assert len({ring.mul(a, b) for a in elements for b in elements}) > 1
        assert len(pairs) > 6 and not inverted
        monkeypatch.undo()


def test_short_sequences_are_padded_as_divide_returns_them(monkeypatch):
    # a sequence no longer than deg pi is its own remainder: from_coeffs
    # pads it without dividing, and returns exactly divide's remainder,
    # entries reduced mod p over F_p; a longer one still divides
    rng = random.Random(59)

    def monic(field, degree, var="T"):
        return Polynomial(field, [field.from_int(rng.randint(-9, 9))
                                  for _ in range(degree)] + [field.one], var)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    k_s = curve_place(parse_surface("s*t", F5)).residue_field()
    s = parse_surface("s", F5).num.coeffs[0]
    cases = [(ResidueField(monic(F, d)),
              lambda p=F.p: rng.choice((rng.randint(-3 * p, 3 * p),
                                        rng.randint(-10 ** 30, 10 ** 30))))
             for F in (F5, F13) for d in (1, 2, 3)]
    cases += [(ResidueField(monic(Q, d)), rational) for d in (1, 2, 3)]
    cases += [(k_s, lambda: rand_fn(rng, F5, 2, "s")),
              (ResidueField(Polynomial(k_s.base, [s, k_s.base.zero,
                                                  k_s.base.one], "T")),
               lambda: rand_fn(rng, F5, 2, "s"))]
    divided = []

    def counted(F, a, b):
        divided.append(len(a))
        return divide(F, a, b)

    monkeypatch.setattr(residue_field, "divide", counted)
    checked = 0
    for ring, draw in cases:
        d = ring.degree
        for length in range(2 * d + 2):
            for _ in range(4):
                coeffs = tuple(draw() for _ in range(length))
                want = divide(ring.base, coeffs, ring.modulus.coeffs)[1]
                divided.clear()
                got = ring.from_coeffs(coeffs)
                assert type(got) is tuple and got == want, (ring, coeffs)
                assert divided == ([length] if length > d else [])
                checked += 1
    assert checked == 4 * sum(2 * ring.degree + 2 for ring, _ in cases)
    # every entry of an F_p remainder is reduced
    ring = cases[1][0]
    assert ring.from_coeffs((-1, 26)) == (4, 1)
