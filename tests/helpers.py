"""Shared random generators for the test suite.

Over Q the support enumeration needs certified factorizations, so rational
test functions are built from linear factors (and occasionally one fixed
quadratic); over F_p any dense polynomial factors fine.
"""
import random
from fractions import Fraction

from reciprocity_lab.factor import factor_polynomial
from reciprocity_lab.fields import field_from_descriptor
from reciprocity_lab.funcfield import RationalFunction
from reciprocity_lab.lattices import MonomialLattice
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.surface import surface_generators

Q = field_from_descriptor("Q")
F2 = field_from_descriptor("Fp:2")
F3 = field_from_descriptor("Fp:3")
F5 = field_from_descriptor("Fp:5")
F7 = field_from_descriptor("Fp:7")
F13 = field_from_descriptor("Fp:13")


def certified_irreducible(f):
    """True when f is one certified irreducible factor of multiplicity 1,
    read off `factor_polynomial` the way `Place.finite` reads it; False for
    a constant, a genuine splitting or an uncertified cofactor over Q."""
    factors = factor_polynomial(f).factors
    return (len(factors) == 1 and factors[0].multiplicity == 1
            and factors[0].certified)


def irreducible_polynomials(field, degree, count=2, var="t"):
    """The first `count` certified irreducible monic polynomials of a
    degree, lower coefficients drawn from 0, 1, -1, 2, -2 and 3.  Over Q
    no quartic is certified, so the quartics there are t^4 + 2 and
    t^4 + 3t + 3, irreducible by Eisenstein's criterion at 2 and 3."""
    if field is Q and degree == 4:
        return [Polynomial(Q, coeffs, var)
                for coeffs in ([2, 0, 0, 0, 1], [3, 3, 0, 0, 1])]
    values = [0, 1, -1, 2, -2, 3]
    found = []
    for n in range(len(values) ** degree):
        coeffs = []
        for _ in range(degree):
            n, r = divmod(n, len(values))
            coeffs.append(field.from_int(values[r]))
        pi = Polynomial(field, coeffs + [field.one], var)
        if pi not in found and certified_irreducible(pi):
            found.append(pi)
            if len(found) == count:
                break
    return found


def rand_poly(rng, field, max_deg, var="t", nonzero=False):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [field.from_int(rng.randint(-9, 9)) for _ in range(deg + 1)]
        p = Polynomial(field, coeffs, var)
        if not (nonzero and p.is_zero()):
            return p


def rand_fn(rng, field, max_deg=4, var="t"):
    """Random nonzero rational function over a prime field (dense)."""
    num = rand_poly(rng, field, max_deg, var, nonzero=True)
    den = rand_poly(rng, field, max_deg, var, nonzero=True)
    return RationalFunction(num, den)


def rand_fn_q(rng, max_deg=6, var="t", quadratic=True):
    """Random nonzero rational function over Q with certifiable support."""
    t = RationalFunction.variable(Q, var)
    f = RationalFunction.constant(Q, rng.choice([1, 2, 3, -1, -2, 5]), var)
    budget = rng.randint(0, max_deg)
    if quadratic and budget >= 2 and rng.random() < 0.3:
        f = f * (t * t + rng.choice([1, 2, 3])) ** rng.choice([1, -1])
        budget -= 2
    while budget > 0:
        e = rng.randint(1, min(2, budget))
        # mostly small roots, so 0, shared places and cancellations occur;
        # a quarter wide, so the root search meets large numerators
        if rng.random() < 0.75:
            root = rng.randint(-4, 4)
        else:
            root = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 40))
        f = f * (t - RationalFunction.constant(Q, root, var)) ** (
            e * rng.choice([1, -1]))
        budget -= e
    return f


def rand_fn_for(rng, field, max_deg=5):
    if field is Q:
        return rand_fn_q(rng, max_deg)
    return rand_fn(rng, field, max_deg)


def rand_surface_fn(rng, base, max_factors=3):
    """Product of c * p(s)^e * t^b and curve units 1 + p(s)*t^m.

    Over F_p, p is s - a or a random monic polynomial of degree 2 or 3, so
    s-support places of higher degree occur.  Over Q p stays s - a: the Q
    factorizer certifies only low-degree factors.
    """
    s, t = surface_generators(base)
    # only constants that are nonzero in the field, so f is never zero
    units = [c for c in (1, 2, -1, 3) if base.char == 0 or c % base.char]
    f = (t ** 0) * rng.choice(units)
    f = f * t ** rng.randint(-2, 2)
    for _ in range(rng.randint(0, max_factors)):
        kind = rng.random()
        p = s - rng.randint(-3, 3)
        if base is not Q and rng.random() < 0.5:
            p = (p * s ** rng.randint(1, 2) + rng.randint(0, 9) * s
                 + rng.randint(0, 9))
        if kind < 0.5:
            f = f * p ** rng.choice([1, 2, -1, -2])
        else:
            f = f * (1 + p * t ** rng.randint(1, 2))
    return f


def rand_lattice(rng, span=12):
    """Random monomial lattice mixing every constructor shape."""
    kind = rng.randrange(6)
    if kind == 0:
        return MonomialLattice.ray(rng.randint(-span, span))
    if kind == 1:
        return MonomialLattice.ray(rng.randint(-span, span)).complement()
    if kind == 2:
        members = {rng.randint(-span, span) for _ in range(rng.randint(0, 5))}
        return MonomialLattice.finite(members)
    if kind == 3:
        modulus = rng.randint(1, 4)
        residues = [r for r in range(modulus) if rng.random() < 0.6]
        return MonomialLattice.progression(residues or [0], modulus)
    if kind == 4:
        modulus = rng.randint(1, 4)
        residues = [r for r in range(modulus) if rng.random() < 0.6]
        return MonomialLattice.progression_ray(residues or [0], modulus,
                                               rng.randint(-span, span))
    base = MonomialLattice.ray(rng.randint(-span // 2, span // 2))
    noise = MonomialLattice.finite(
        {rng.randint(-span, span) for _ in range(rng.randint(1, 4))})
    return base.symmetric_difference(noise) if rng.random() < 0.5 \
        else base.union(noise)


def lattice_with_oracle(rng, depth=2, span=10):
    """A random lattice together with an independent membership closure."""
    if depth == 0:
        kind = rng.randrange(5)
        if kind == 0:
            n0 = rng.randint(-span, span)
            return MonomialLattice.ray(n0), (lambda n, n0=n0: n >= n0)
        if kind == 1:
            n0 = rng.randint(-span, span)
            return MonomialLattice.ray(n0).complement(), \
                (lambda n, n0=n0: n < n0)
        if kind == 2:
            members = frozenset(rng.randint(-span, span)
                                for _ in range(rng.randint(0, 4)))
            return MonomialLattice.finite(members), \
                (lambda n, m=members: n in m)
        if kind == 3:
            d = rng.randint(1, 4)
            res = frozenset(r for r in range(d) if rng.random() < 0.6)
            return MonomialLattice.progression(res, d), \
                (lambda n, d=d, res=res: n % d in res)
        d = rng.randint(1, 4)
        res = frozenset(r for r in range(d) if rng.random() < 0.6)
        n0 = rng.randint(-span, span)
        return MonomialLattice.progression_ray(res, d, n0), \
            (lambda n, d=d, res=res, n0=n0: n >= n0 and n % d in res)
    a, fa = lattice_with_oracle(rng, depth - 1, span)
    b, fb = lattice_with_oracle(rng, depth - 1, span)
    op = rng.randrange(5)
    if op == 0:
        return a.union(b), (lambda n: fa(n) or fb(n))
    if op == 1:
        return a.intersect(b), (lambda n: fa(n) and fb(n))
    if op == 2:
        return a.difference(b), (lambda n: fa(n) and not fb(n))
    if op == 3:
        return a.symmetric_difference(b), (lambda n: fa(n) != fb(n))
    k = rng.randint(-4, 4)
    return a.shift(k), (lambda n: fa(n - k))
