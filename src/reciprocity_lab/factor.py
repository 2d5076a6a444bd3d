"""Factorization of univariate polynomials over F_p and (partially) Q.

Over a prime field this is distinct-degree decomposition followed by seeded
Cantor-Zassenhaus equal-degree splitting (the trace map for p = 2), so the
result is complete and certified.  Over Q we stop at what exact elementary
means certify: squarefree splitting, rational-root extraction, and the
degree-2/3 irreducibility test; any surviving cofactor of degree >= 4 is
returned flagged as not certified irreducible.  Rational roots are lifted
by Newton's iteration from the simple roots mod the least suitable prime p;
p grows with the degree and the digits of f, not with its coefficients.

Over F_p the whole path runs on plain lists of ints 0..p-1, from the monic
input to the output factors, and a `Polynomial` is built only for each
output factor.  One kernel divides by a monic modulus: sums stay exact ints
and each entry is reduced mod p once.  Products mod f, the monic gcd, exact
division, Yun's squarefree split (with the p-th root g(x^p) -> g(x) where
the derivative vanishes) and the two steps below are built on it.  For each
monic squarefree part f of degree n, x^p mod f is computed once, left to
right over the bits of p: floor(log2 p) squarings, and for each set bit
below the top one a product with x, which is a shift and one reduction
step (19 squarings at p = 1000003, where square-and-multiply takes 27
products).  It is extended to the Frobenius matrix, the rows x^(p*i) mod f
for i < n (n - 2 more products).  Since h(x)^p = h(x^p) over F_p, every later
p-th power mod f is that matrix applied to h: n^2 integer multiply-adds
instead of a square-and-multiply chain.  A distinct-degree step costs one
application and one gcd; the rest continues with the rows reduced mod
itself, and a block that splits off reduces them only if it holds more than
one irreducible, which is when equal-degree splitting reads them.  Equal-degree
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
from .poly import Polynomial

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


def _divide_monic(F: PrimeField, a, m) -> tuple[list, list]:
    """Quotient and remainder of the int list a by the monic m over F_p.

    The entries of a may be any ints, such as an unreduced product: sums
    stay exact and each entry is reduced once, when it is read as a quotient
    or a remainder coefficient.  The remainder has deg(m) entries,
    zero-padded.
    """
    p = F.p
    n = len(m) - 1
    low = m[:n]
    work = list(a)
    quot = []
    for i in range(len(work) - 1, n - 1, -1):
        c = work[i] % p
        quot.append(c)
        if c:
            k = i - n
            for b in low:
                work[k] -= c * b
                k += 1
    quot.reverse()
    rem = [w % p for w in work[:n]]
    rem.extend([0] * (n - len(rem)))
    return quot, rem


def _trim(a: list) -> list:
    """a without its trailing zeros, trimmed in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _product(a, b) -> list:
    """The exact, unreduced integer product of two int lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            k = i
            for y in b:
                out[k] += x * y
                k += 1
    return out


def _mul_mod(F: PrimeField, a, b, m) -> list:
    """The product a*b modulo the monic m."""
    return _divide_monic(F, _product(a, b), m)[1]


def _monic(F: PrimeField, a: list) -> list:
    """a divided by its leading coefficient."""
    if a[-1] == 1:
        return a
    p = F.p
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(F: PrimeField, a: list, b: list) -> list:
    """Monic gcd of two trimmed int lists, a nonzero."""
    while b:
        b = _monic(F, b)
        a, b = b, _trim(_divide_monic(F, a, b)[1])
    return _monic(F, a)


def _squarefree_parts(F: PrimeField, f: list) -> list[tuple[list, int]]:
    """Yun's squarefree decomposition of the monic f: (monic squarefree part,
    multiplicity), pairwise coprime, ascending in multiplicity.

    The cofactor whose derivative vanishes is g(x^p) = h(x)^p over F_p, and
    its p-th root h takes every p-th coefficient.  At the level of p^j the
    multiplicities are p^j * k with p not dividing k, so no two parts share
    one.
    """
    p = F.p
    out = []

    def rec(g: list, scale: int):
        if len(g) <= 1:
            return
        d = _trim([k * c % p for k, c in enumerate(g)][1:])
        if not d:
            rec(g[::p], scale * p)
            return
        c = _gcd(F, g, d)
        w = _divide_monic(F, g, c)[0]
        mult = scale
        while len(w) > 1:
            y = _gcd(F, w, c)
            z = _divide_monic(F, w, y)[0]
            if len(z) > 1:
                out.append((z, mult))
            c = _divide_monic(F, c, y)[0]
            w = y
            mult += scale
        rec(c[::p], scale * p)

    rec(f, 1)
    return sorted(out, key=lambda item: item[1])


def _x_to_the_p(F: PrimeField, m) -> list:
    """x^p modulo the monic m, left to right over the bits of p: a squaring
    for each bit below the top one and, where that bit is set, a product
    with x, which is a shift and one reduction step."""
    h = _divide_monic(F, [0, 1], m)[1]
    for bit in bin(F.p)[3:]:
        h = _mul_mod(F, h, h, m)
        if bit == "1":
            h = _divide_monic(F, [0] + h, m)[1]
    return h


def _frobenius_rows(F: PrimeField, m) -> list[list]:
    """Rows x^(p*i) mod m for i < deg(m), m monic: the matrix of the
    Frobenius map h -> h^p on F_p[x]/(m)."""
    xp = _x_to_the_p(F, m)
    rows = [_divide_monic(F, [1], m)[1], xp]
    while len(rows) < len(m) - 1:
        rows.append(_mul_mod(F, rows[-1], xp, m))
    return rows[:len(m) - 1]


def _frobenius(F: PrimeField, rows: list, h) -> list:
    """h^p modulo the modulus of `rows`: since h(x)^p = h(x^p) over F_p,
    it is the combination of the rows with the coefficients of h."""
    p = F.p
    acc = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            acc = [a + c * r for a, r in zip(acc, row)]
    return [a % p for a in acc]


def _reduce_rows(F: PrimeField, rows: list, g: list) -> list:
    """The Frobenius rows modulo g, a monic divisor of their modulus."""
    return [_divide_monic(F, row, g)[1] for row in rows[:len(g) - 1]]


def _distinct_degree(F: PrimeField, f: list) -> list[tuple[int, list, list]]:
    """Split a monic squarefree f into products of same-degree irreducibles,
    each with the Frobenius rows modulo a multiple of it (the rest it split
    off from), which only a block that splits further reduces and reads."""
    out = []
    rest = f
    rows = _frobenius_rows(F, f) if len(f) > 2 else []
    h = [0, 1]
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((len(rest) - 1, rest, rows))
            break
        h = _frobenius(F, rows, h)  # x^(p^d) mod rest
        shifted = list(h)
        shifted[1] = (shifted[1] - 1) % F.p
        g = _gcd(F, rest, _trim(shifted))
        if len(g) > 1:
            out.append((d, g, rows))
            rest = _divide_monic(F, rest, g)[0]
            rows = _reduce_rows(F, rows, rest)
            h = _divide_monic(F, h, rest)[1]
    return out


def _split_equal_degree(F: PrimeField, f: list, d: int, rows: list,
                        rng: random.Random) -> list[list]:
    """Cantor-Zassenhaus splitting of a monic product of degree-d irreducibles,
    given the Frobenius rows modulo a multiple of f."""
    p = F.p
    n = len(f) - 1
    if n == d:
        return [f]
    rows = _reduce_rows(F, rows, f)
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        if not any(r[1:]):
            continue
        acc = term = r
        if p == 2:
            # the trace map r + r^2 + r^4 + ... + r^(2^(d-1))
            for _ in range(d - 1):
                term = _frobenius(F, rows, term)
                acc = [a ^ b for a, b in zip(acc, term)]
        else:
            # (p^d - 1)/2 = (p - 1)/2 * (1 + p + ... + p^(d-1)), so
            # r^((p^d - 1)/2) = (r * r^p * ... * r^(p^(d-1)))^((p - 1)/2)
            for _ in range(d - 1):
                term = _frobenius(F, rows, term)
                acc = _mul_mod(F, acc, term, f)
            acc = power(lambda a, b: _mul_mod(F, a, b, f), rows[0], acc,
                        (p - 1) // 2)
            acc[0] = (acc[0] - 1) % p
        g = _gcd(F, f, _trim(acc))
        if 1 < len(g) < len(f):
            rest = _divide_monic(F, f, g)[0]
            return (_split_equal_degree(F, g, d, rows, rng)
                    + _split_equal_degree(F, rest, d, rows, rng))


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
    for part, mult in _squarefree_parts(field, _monic(field, list(f.coeffs))):
        for d, block, rows in _distinct_degree(field, part):
            for irreducible in _split_equal_degree(field, block, d, rows, rng):
                items.append(Factor(Polynomial(field, irreducible, f.var),
                                    mult, True))
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
