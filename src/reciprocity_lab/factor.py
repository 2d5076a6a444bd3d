"""Factorization of univariate polynomials over F_p and (partially) Q.

Over a prime field this is distinct-degree decomposition followed by seeded
Cantor-Zassenhaus equal-degree splitting (the trace map for p = 2), so the
result is complete and certified.  Over Q we stop at what exact elementary
means certify: squarefree splitting, rational-root extraction, and the
degree-2/3 irreducibility test; any surviving cofactor of degree >= 4 is
returned flagged as not certified irreducible.  Rational roots are lifted
by Newton's iteration from the simple roots mod the least suitable prime p;
p grows with the degree and the digits of f, not with its coefficients.

Over F_p the modular arithmetic runs on coefficient tuples through
`poly.convolve` and `poly.divide`.  For each monic squarefree part f
of degree n, x^p mod f is computed once (about log2 p + popcount(p)
products) and extended to the Frobenius matrix, the rows x^(p*i) mod f for
i < n (n - 2 more products).  Since h(x)^p = h(x^p) over F_p, every later
p-th power mod f is that matrix applied to h: n^2 integer multiply-adds
instead of a square-and-multiply chain.  A distinct-degree step costs one
application and one gcd; a block that splits off takes the rows reduced
mod itself, and the rest continues with its own reduced rows.  Equal-degree
splitting of a block of degree-d factors forms r^((p^d-1)/2) as
(r * r^p * ... * r^(p^(d-1)))^((p-1)/2): d - 1 applications and d - 1
products, then one power of exponent (p-1)/2.  For p = 2 the trace map is a
sum of d - 1 applications.  (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 14.)

Factor order is deterministic: ascending degree, then ascending coefficient
tuples.  The factorization into monic irreducibles is unique, so the
Cantor-Zassenhaus seed only picks the splitting path, never the factors;
the library never passes one, so DEFAULT_SEED always applies.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ZeroInputError
from .fields import FieldScalar, PrimeField, RationalField, power
from .poly import Polynomial, convolve, divide

DEFAULT_SEED = 20140901


@dataclass(frozen=True)
class Factor:
    base: Polynomial
    multiplicity: int
    certified: bool = True


@dataclass(frozen=True)
class Factorization:
    unit: FieldScalar
    factors: tuple[Factor, ...]

    def product(self) -> Polynomial:
        field = self.unit.field
        var = self.factors[0].base.var if self.factors else "t"
        acc = Polynomial.constant(field, self.unit.raw, var)
        for item in self.factors:
            acc = acc * item.base ** item.multiplicity
        return acc

    def fully_certified(self) -> bool:
        return all(item.certified for item in self.factors)


def _sorted_factors(items: list[Factor]) -> tuple[Factor, ...]:
    return tuple(sorted(items, key=lambda it: it.base.sort_key()))


def _mul_mod(F: PrimeField, a, b, m) -> tuple:
    """The product a*b modulo the monic m, on coefficient tuples."""
    return divide(F, convolve(F, a, b), m)[1]


def _frobenius_rows(F: PrimeField, m) -> list[tuple]:
    """Rows x^(p*i) mod m for i < deg(m), m monic: the matrix of the
    Frobenius map h -> h^p on F_p[x]/(m)."""
    one = divide(F, (F.one,), m)[1]
    xp = power(lambda a, b: _mul_mod(F, a, b, m), one,
               divide(F, (F.zero, F.one), m)[1], F.p)
    rows = [one, xp]
    while len(rows) < len(m) - 1:
        rows.append(_mul_mod(F, rows[-1], xp, m))
    return rows[:len(m) - 1]


def _frobenius(F: PrimeField, rows: list[tuple], h) -> tuple:
    """h^p modulo the modulus of `rows`: since h(x)^p = h(x^p) over F_p,
    it is the combination of the rows with the coefficients of h."""
    # raw F_p values are the ints 0..p-1: sum exactly, reduce once
    acc = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            acc = [a + c * r for a, r in zip(acc, row)]
    return tuple(a % F.p for a in acc)


def _reduce_rows(F: PrimeField, rows: list[tuple], g: Polynomial) -> list[tuple]:
    """The Frobenius rows modulo g, a monic divisor of their modulus."""
    return [divide(F, row, g.coeffs)[1] for row in rows[:g.degree]]


def _distinct_degree(f: Polynomial) -> list[tuple[int, Polynomial, list]]:
    """Split a monic squarefree f into products of same-degree irreducibles,
    each with its Frobenius rows (read only when the block splits further)."""
    F = f.field
    out = []
    rest = f
    rows = _frobenius_rows(F, f.coeffs) if f.degree > 1 else []
    h = (F.zero, F.one)
    d = 0
    while not rest.is_constant():
        d += 1
        if 2 * d > rest.degree:
            out.append((rest.degree, rest, rows))
            break
        h = _frobenius(F, rows, h)  # x^(p^d) mod rest
        shifted = list(h)
        shifted[1] = F.sub(shifted[1], F.one)
        g = rest.gcd(Polynomial(F, shifted, f.var))
        if not g.is_constant():
            out.append((d, g, _reduce_rows(F, rows, g)))
            rest = rest.exact_div(g)
            rows = _reduce_rows(F, rows, rest)
            h = divide(F, h, rest.coeffs)[1]
    return out


def _split_equal_degree(f: Polynomial, d: int, rows: list[tuple],
                        rng: random.Random) -> list[Polynomial]:
    """Cantor-Zassenhaus splitting of a monic product of degree-d irreducibles,
    given the Frobenius rows modulo f."""
    F = f.field
    p = F.p
    if f.degree == d:
        return [f]
    n = f.degree
    m = f.coeffs
    while True:
        r = tuple(rng.randrange(p) for _ in range(n))
        if not any(r[1:]):
            continue
        acc = term = r
        if p == 2:
            # the trace map r + r^2 + r^4 + ... + r^(2^(d-1))
            for _ in range(d - 1):
                term = _frobenius(F, rows, term)
                acc = tuple(F.add(a, b) for a, b in zip(acc, term))
        else:
            # (p^d - 1)/2 = (p - 1)/2 * (1 + p + ... + p^(d-1)), so
            # r^((p^d - 1)/2) = (r * r^p * ... * r^(p^(d-1)))^((p - 1)/2)
            for _ in range(d - 1):
                term = _frobenius(F, rows, term)
                acc = _mul_mod(F, acc, term, m)
            acc = list(power(lambda a, b: _mul_mod(F, a, b, m), rows[0], acc,
                             (p - 1) // 2))
            acc[0] = F.sub(acc[0], F.one)
        g = f.gcd(Polynomial(F, acc, f.var))
        if not g.is_constant() and g.degree < f.degree:
            rest = f.exact_div(g)
            return (_split_equal_degree(g, d, _reduce_rows(F, rows, g), rng)
                    + _split_equal_degree(rest, d, _reduce_rows(F, rows, rest),
                                          rng))


def _factor_prime_field(f: Polynomial, seed: int | None = None) -> Factorization:
    """Complete factorization over F_p into monic irreducibles.

    The seed (default DEFAULT_SEED) drives the random splittings; the
    factors are unique and reported in canonical order, so every seed gives
    the same result.
    """
    field = f.field
    if not isinstance(field, PrimeField):
        raise DomainError(f"prime-field factorization over {field.descriptor}")
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    unit = FieldScalar(field, f.leading_coefficient())
    items: list[Factor] = []
    for squarefree, mult in f.squarefree_part_decomposition():
        for d, block, rows in _distinct_degree(squarefree):
            for irreducible in _split_equal_degree(block, d, rows, rng):
                items.append(Factor(irreducible.monic(), mult, True))
    return Factorization(unit, _sorted_factors(items))


def _rational_roots(f: Polynomial) -> list[Fraction]:
    """All rational roots of a squarefree f over Q, lifted from roots mod p.

    Cleared to integers, with t split off once, f has lead and const != 0.
    A root a/b in lowest terms has b | lead and a | const, so y = lead*a/b
    has |y| <= |lead*const|.  At the least prime p not dividing lead where
    every root mod p is simple, a/b reduces to one, whose lift r mod p^k is
    unique (Hensel; von zur Gathen & Gerhard, sec. 15.4).  Once p^k >
    2|lead*const|, y is the symmetric residue of lead*r; each candidate is
    checked exactly.  Primes q < p not dividing lead divide disc(f) != 0, so
    p grows at most with deg f times the digits of f; q costs q evaluations.
    """
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * lcm) for c in f.coeffs]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    lead, const = ints[-1], ints[0]
    deriv = [k * c for k, c in enumerate(ints)][1:]

    def at(coeffs, x, m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % m
        return acc

    p, used = 1, lead  # lead times the primes tried so far
    while True:
        p += 1
        if math.gcd(p, used) == 1:  # p is a prime that does not divide lead
            used *= p
            residues = [r for r in range(p) if at(ints, r, p) == 0]
            if all(at(deriv, r, p) for r in residues):
                break
    bound = 2 * abs(lead * const)
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - at(ints, r, m) * pow(at(deriv, r, m), -1, m)) % m
        y = lead * r % m
        cand = Fraction(y - m if 2 * y > m else y, lead)
        if f.evaluate(cand) == 0:
            roots.append(cand)
    return roots


def _factor_rationals_limited(f: Polynomial) -> Factorization:
    """Factor over Q as far as elementary certified tests reach.

    Splits off the squarefree-coprime parts, extracts every rational root,
    and certifies quadratic/cubic cofactors irreducible by the absence of
    rational roots.  A cofactor of degree >= 4 may still be reducible, so it
    is returned with certified=False rather than silently trusted.
    """
    field = f.field
    if not isinstance(field, RationalField):
        raise DomainError(f"rational factorization over {field.descriptor}")
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    unit = FieldScalar(field, f.leading_coefficient())
    items: list[Factor] = []
    for squarefree, mult in f.squarefree_part_decomposition():
        rest = squarefree
        for root in sorted(_rational_roots(squarefree)):
            linear = Polynomial(field, [-root, Fraction(1)], f.var)
            rest = rest.exact_div(linear)
            items.append(Factor(linear, mult, True))
        if not rest.is_constant():
            items.append(Factor(rest.monic(), mult, rest.degree <= 3))
    return Factorization(unit, _sorted_factors(items))


_factor_cache: dict = {}
_CACHE_LIMIT = 4096


def factor_polynomial(f: Polynomial) -> Factorization:
    """Factor over the polynomial's ground field, with a small process cache.

    The cache is keyed by (field, variable, coefficients).  It needs no
    lock: every read and store is one dict operation, a factorization is a
    pure function of its key, and a race between threads can only factor
    a polynomial twice or empty the cache twice.
    """
    key = (f.field.descriptor, f.var, f.coeffs)
    hit = _factor_cache.get(key)
    if hit is not None:
        return hit
    if isinstance(f.field, PrimeField):
        result = _factor_prime_field(f)
    else:
        result = _factor_rationals_limited(f)
    if len(_factor_cache) >= _CACHE_LIMIT:
        _factor_cache.clear()
    _factor_cache[key] = result
    return result


def is_irreducible(f: Polynomial) -> bool:
    """True when f is certified irreducible over its ground field.

    False covers both a genuine splitting and, over Q, a single factor the
    limited factorizer could not certify (t^4 + 2, say); callers that must
    tell the two apart read the certified flag of `factor_polynomial`.
    """
    if f.is_zero() or f.is_constant():
        return False
    fac = factor_polynomial(f)
    if len(fac.factors) != 1 or fac.factors[0].multiplicity != 1:
        return False
    return fac.factors[0].certified
