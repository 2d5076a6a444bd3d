"""Factorization of univariate polynomials over F_p and (partially) Q.

Over a prime field this is distinct-degree decomposition followed by seeded
Cantor-Zassenhaus equal-degree splitting (the trace map for p = 2), so the
result is complete and certified.  Over Q we stop at what exact elementary
means certify: squarefree splitting, rational-root extraction, and the
degree-2/3 irreducibility test; any surviving cofactor of degree >= 4 is
returned flagged as not certified irreducible.

Factor order is deterministic: ascending degree, then ascending coefficient
tuples.  The factorization into monic irreducibles is unique, so the
Cantor-Zassenhaus seed only picks the splitting path, never the factors;
the library never passes one, so DEFAULT_SEED always applies.
"""
from __future__ import annotations

import math
import random
import threading
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


def _pow_mod(base: Polynomial, exponent: int, modulus: Polynomial) -> Polynomial:
    return power(lambda a, b: (a * b) % modulus,
                 Polynomial.one(base.field, base.var), base % modulus, exponent)


def _distinct_degree(f: Polynomial) -> list[tuple[int, Polynomial]]:
    """Split a monic squarefree f into products of same-degree irreducibles."""
    p = f.field.char
    x = Polynomial.variable(f.field, f.var)
    out = []
    h = x
    rest = f
    d = 0
    while not rest.is_constant():
        d += 1
        if 2 * d > rest.degree:
            out.append((rest.degree, rest))
            break
        h = _pow_mod(h, p, rest)
        g = rest.gcd(h - x)
        if not g.is_constant():
            out.append((d, g))
            rest = rest.exact_div(g)
            h = h % rest
    return out


def _split_equal_degree(f: Polynomial, d: int, rng: random.Random) -> list[Polynomial]:
    """Cantor-Zassenhaus splitting of a monic product of degree-d irreducibles."""
    field = f.field
    p = field.char
    if f.degree == d:
        return [f]
    n = f.degree
    while True:
        r = Polynomial(field, [rng.randrange(p) for _ in range(n)], f.var)
        if r.is_constant():
            continue
        if p == 2:
            # trace map over F_2: r + r^2 + r^4 + ... + r^(2^(d-1))
            acc = r % f
            term = r % f
            for _ in range(d - 1):
                term = (term * term) % f
                acc = (acc + term) % f
            g = f.gcd(acc)
        else:
            s = _pow_mod(r, (p ** d - 1) // 2, f)
            g = f.gcd(s - 1)
        if not g.is_constant() and g.degree < f.degree:
            rest = f.exact_div(g)
            return _split_equal_degree(g, d, rng) + _split_equal_degree(rest, d, rng)


def factor_prime_field(f: Polynomial, seed: int | None = None) -> Factorization:
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
        for d, block in _distinct_degree(squarefree):
            for irreducible in _split_equal_degree(block, d, rng):
                items.append(Factor(irreducible.monic(), mult, True))
    return Factorization(unit, _sorted_factors(items))


def _rational_roots(f: Polynomial) -> list[Fraction]:
    """All rational roots of a squarefree f over Q, via the integer root bound."""
    if f.is_constant():
        return []
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * lcm) for c in f.coeffs]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints and ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return roots
    lead, const = ints[-1], ints[0]
    seen = set(roots)
    for num in _divisors(abs(const)):
        for den in _divisors(abs(lead)):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand in seen:
                    continue
                seen.add(cand)
                if f.evaluate(cand) == 0:
                    roots.append(cand)
    return roots


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def factor_rationals_limited(f: Polynomial) -> Factorization:
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
        if rest.is_constant():
            continue
        if rest.degree <= 3:
            # degree 1 would have been a root; 2 and 3 with no rational root
            # are irreducible over Q
            items.append(Factor(rest.monic(), mult, True))
        else:
            items.append(Factor(rest.monic(), mult, False))
    return Factorization(unit, _sorted_factors(items))


_factor_cache: dict = {}
_factor_lock = threading.Lock()
_CACHE_LIMIT = 4096


def factor_polynomial(f: Polynomial) -> Factorization:
    """Factor over the polynomial's ground field, with a small process cache.

    The cache is keyed by (field, variable, coefficients) behind a lock.
    """
    key = (f.field.descriptor, f.var, f.coeffs)
    with _factor_lock:
        hit = _factor_cache.get(key)
    if hit is not None:
        return hit
    if isinstance(f.field, PrimeField):
        result = factor_prime_field(f)
    else:
        result = factor_rationals_limited(f)
    with _factor_lock:
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
