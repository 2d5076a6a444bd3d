"""Factorization of univariate polynomials over F_p and (partially) Q.

Both fields share one loop (`_factor`): Yun's monic squarefree parts
(`poly.squarefree_parts`), each factored once while the process cache
keeps it.  The cache maps a coefficient tuple to its sorted factors, for
each polynomial asked for and for each of its parts, so a repeated
polynomial skips Yun's loop and a part shared by two polynomials, such as
den(f) inside den(f*g'), is split once.  Over a prime field a part is split
by distinct-degree decomposition followed by seeded Cantor-Zassenhaus
equal-degree splitting (the trace map for p = 2), so the result is
complete and certified.  Over Q we stop at what exact elementary means
certify: rational-root extraction and the degree-2/3 irreducibility test;
any surviving cofactor of degree >= 4 is returned flagged as not certified
irreducible.  Rational roots are lifted by Newton's iteration from the
simple roots mod the least suitable prime p; p grows with the degree and
the digits of f, not with its coefficients.

Over F_p the whole path runs on coefficient sequences of ints 0..p-1, from
the input to the output factors, and a `Polynomial` is built only for each
output factor.  It runs on the kernels of `poly`, which work on ints over
F_p with exact sums and one reduction mod p per entry: `mul_mod` (imported
as `_mul_mod`) for products mod f, `divide` for exact division, `monic_gcd`,
and `squarefree_parts` for Yun's squarefree split (with the p-th root
g(x^p) -> g(x) where the derivative vanishes).  For each monic squarefree
part f of degree n, x^p mod f is computed once, left to right over the bits
of p: floor(log2 p) squarings, and for each set bit below the top one a
product with x, which is a shift and one reduction step (19 squarings at
p = 1000003, where square-and-multiply takes 27 products).  It is extended
to the Frobenius matrix, the rows x^(p*i) mod f for i < n (n - 2 more
products).  Since h(x)^p = h(x^p) over F_p, every later p-th power mod f is
that matrix applied to h: n^2 integer multiply-adds instead of a
square-and-multiply chain.  A distinct-degree step costs one application and
one gcd; the rest continues with the rows reduced mod itself, and a block
that splits off reduces them only if it holds more than one irreducible,
which is when equal-degree splitting reads them.
Equal-degree splitting of a block of degree-d factors forms
r^((p^d-1)/2) as (r * r^p * ... * r^(p^(d-1)))^((p-1)/2): d - 1
applications and d - 1 products, then one power of exponent (p-1)/2.  For
p = 2 the trace map is a sum of d - 1 applications.  (von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 14.)

Factor order is deterministic: ascending degree, then ascending coefficient
tuples.  Irreducibility is read off the factors, as `Place.finite` does: one
certified factor of multiplicity 1.  The factorization into monic
irreducibles is unique, so the Cantor-Zassenhaus seed only picks the
splitting path, never the factors; the library never passes one, so
DEFAULT_SEED always applies, afresh for each part.  A test that passes a
seed splits every part again, past the cache.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

from .errors import DomainError, ZeroInputError
from .fields import FieldScalar, PrimeField, RationalField, power
from .poly import (Polynomial, divide, monic_gcd, mul_mod as _mul_mod,
                   squarefree_parts, trim)

DEFAULT_SEED = 20140901


class _Frozen:
    """A value whose fields `__init__` writes once into `__dict__`: equal
    and hashed by them in that order, shown as Name(field=value, ...), and
    assigning or deleting an attribute raises AttributeError, as for a
    frozen dataclass."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in self.__dict__.items())
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot delete {name!r}")


class Factor(_Frozen):
    """A monic factor and its multiplicity; `certified` is False only for
    a cofactor over Q not proven irreducible."""

    def __init__(self, base: Polynomial, multiplicity: int,
                 certified: bool = True):
        fields = self.__dict__
        fields["base"] = base
        fields["multiplicity"] = multiplicity
        fields["certified"] = certified


class Factorization(_Frozen):
    """unit * prod base**multiplicity over the factors, in canonical order."""

    def __init__(self, unit: FieldScalar, factors: tuple[Factor, ...]):
        fields = self.__dict__
        fields["unit"] = unit
        fields["factors"] = factors

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


def _x_to_the_p(F: PrimeField, m) -> tuple:
    """x^p modulo the monic m, left to right over the bits of p: a squaring
    for each bit below the top one and, where that bit is set, a product
    with x, which is a shift and one reduction step."""
    h = divide(F, (0, 1), m)[1]
    for bit in bin(F.p)[3:]:
        h = _mul_mod(F, h, h, m)
        if bit == "1":
            h = divide(F, (0,) + h, m)[1]
    return h


def _frobenius_rows(F: PrimeField, m) -> list[tuple]:
    """Rows x^(p*i) mod m for i < deg(m), m monic: the matrix of the
    Frobenius map h -> h^p on F_p[x]/(m)."""
    xp = _x_to_the_p(F, m)
    rows = [divide(F, (1,), m)[1], xp]
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
    return [divide(F, row, g)[1] for row in rows[:len(g) - 1]]


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
        g = monic_gcd(F, rest, trim(F, shifted))
        if len(g) > 1:
            out.append((d, g, rows))
            rest = divide(F, rest, g)[0]
            rows = _reduce_rows(F, rows, rest)
            h = divide(F, h, rest)[1]
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
            acc = [(acc[0] - 1) % p, *acc[1:]]
        g = monic_gcd(F, f, trim(F, acc))
        if 1 < len(g) < len(f):
            rest = divide(F, f, g)[0]
            return (_split_equal_degree(F, g, d, rows, rng)
                    + _split_equal_degree(F, rest, d, rows, rng))


def _split_prime_part(field: PrimeField, part: tuple, var: str,
                      seed: int = DEFAULT_SEED) -> list[Factor]:
    """The monic irreducible factors of a monic squarefree part over F_p,
    each certified: distinct-degree blocks split by Cantor-Zassenhaus."""
    rng = random.Random(seed)
    return [Factor(Polynomial(field, irreducible, var), 1, True)
            for d, block, rows in _distinct_degree(field, part)
            for irreducible in _split_equal_degree(field, block, d, rows,
                                                   rng)]


def _factor_prime_field(f: Polynomial, seed: int | None = None) -> Factorization:
    """Complete factorization over F_p into monic irreducibles.

    The seed (default DEFAULT_SEED) drives the random splittings; the
    factors are unique and reported in canonical order, so every seed gives
    the same result.  An explicit seed splits every part afresh, past the
    cache.
    """
    field = f.field
    if not isinstance(field, PrimeField):
        raise DomainError(f"prime-field factorization over {field.descriptor}")
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    if seed is None:
        return _factor(f, _split_prime_part, _factor_cache)
    return _factor(f, partial(_split_prime_part, seed=seed), {})


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


def _split_rational_part(field: RationalField, part: tuple,
                         var: str) -> list[Factor]:
    """The factors of a monic squarefree part over Q as far as elementary
    certified tests reach: every rational root, and a quadratic or cubic
    cofactor certified irreducible by having none.  A cofactor of degree
    >= 4 may still be reducible, so it is returned with certified=False
    rather than silently trusted."""
    rest = Polynomial(field, part, var)
    out = []
    for root in sorted(_rational_roots(rest)):
        linear = Polynomial(field, [-root, Fraction(1)], var)
        rest = rest.exact_div(linear)
        out.append(Factor(linear, 1, True))
    # a monic part divided by monic linears stays monic
    if not rest.is_constant():
        out.append(Factor(rest, 1, rest.degree <= 3))
    return out


def _factor_rationals_limited(f: Polynomial) -> Factorization:
    """Factor over Q as far as elementary certified tests reach
    (`_split_rational_part` on each squarefree part)."""
    field = f.field
    if not isinstance(field, RationalField):
        raise DomainError(f"rational factorization over {field.descriptor}")
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    return _factor(f, _split_rational_part, _factor_cache)


_factor_cache: dict = {}
_CACHE_LIMIT = 4096


def _factor(f: Polynomial, split_part, cache: dict) -> Factorization:
    """The factorization of a nonzero f from Yun's monic squarefree parts
    (`squarefree_parts`), each split by split_part(field, part, var) into
    its factors of multiplicity 1.

    `cache` maps (field, variable, coefficients) to the sorted factors of
    that polynomial, for each f and each of its parts, so a repeated f
    skips Yun's loop and a part met before, in f or as a part of another
    polynomial, is split once.  A monic squarefree part is its own
    factorization with multiplicity 1, so the two kinds of key agree.  The
    cache needs no lock: every read and store is one dict operation, the
    factors are a pure function of the key, and a race between threads
    can only factor a polynomial twice or empty the cache twice.
    """
    field, var = f.field, f.var
    key = (field.descriptor, var, f.coeffs)
    factors = cache.get(key)
    if factors is None:
        items = []
        for part, mult in squarefree_parts(field, f.coeffs):
            part_key = (field.descriptor, var, part)
            found = cache.get(part_key)
            if found is None:
                found = _sorted_factors(split_part(field, part, var))
                _store(cache, part_key, found)
            items.extend(found if mult == 1 else
                         (Factor(item.base, mult, item.certified)
                          for item in found))
        factors = _sorted_factors(items)
        _store(cache, key, factors)
    return Factorization(FieldScalar(field, f.leading_coefficient()), factors)


def _store(cache: dict, key, factors) -> None:
    """Keep factors under key, emptying the cache first when it is full."""
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[key] = factors


def factor_polynomial(f: Polynomial) -> Factorization:
    """Factor over the polynomial's ground field, F_p or Q, each monic
    squarefree part once while the process cache keeps it."""
    if isinstance(f.field, PrimeField):
        return _factor_prime_field(f)
    return _factor_rationals_limited(f)
