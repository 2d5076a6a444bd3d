"""The tame and Hilbert symbols against a sympy oracle, at places of every
degree and at infinity.

At a finite place pi with f = pi^a u_f and g = pi^b u_g the tame symbol is

    (-1)^(a b deg pi) * N(u_f)^b * N(u_g)^(-a),

where N(c) is the determinant of multiplication by c on k[T]/(pi), built
column by column from sympy's remainders mod pi (`sympy_oracle.py`).  sympy's resultant is
not used for N: its sign differs from prod c(alpha) for some degrees (see
`test_poly.py`).  The place at infinity is the place u = 0 after the
substitution t = 1/u, and the Hilbert symbol is the tame value to the
(q - 1)/m.  Places come from sympy's factorizations of the numerators and
denominators, so the library's own factoring does not choose them.
"""
import random
from collections import Counter

import pytest

from reciprocity_lab.funcfield import Place
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.symbols1d import hilbert_symbol, tame_symbol

from helpers import F5, F13, Q, rand_fn, rand_fn_q

pytest.importorskip("sympy")
from sympy_oracle import Oracle  # noqa: E402

# places checked per degree, at least; the draws below give about twice this
MIN_PLACES = {1: 160, 2: 40, 3: 25}


def _draws():
    rng = random.Random(2013)
    for _ in range(30):
        yield Q, rand_fn_q(rng), rand_fn_q(rng)
    for field in (F5, F13):
        for _ in range(45):
            yield field, rand_fn(rng, field), rand_fn(rng, field)


def test_tame_and_hilbert_symbols_agree_with_the_oracle():
    checked = Counter()
    pairs = 0
    for field, f, g in _draws():
        pairs += 1
        oracle = Oracle(field)
        sf = (oracle.poly(f.num.coeffs), oracle.poly(f.den.coeffs))
        sg = (oracle.poly(g.num.coeffs), oracle.poly(g.den.coeffs))
        cases = [(Place.finite(Polynomial(field, oracle.low_coeffs(pi))),
                  sf, sg, pi)
                 for pi in oracle.places(sf + sg)]
        cases.append((Place.at_infinity(field), oracle.at_infinity(sf),
                      oracle.at_infinity(sg), oracle.poly([0, 1])))
        for place, ff, gg, pi in cases:
            want = oracle.tame(ff, gg, pi)
            assert tame_symbol(f, g, place).raw == want, (str(f), str(g), place)
            if field is not Q:
                q = field.p
                for m in (m for m in range(1, q) if (q - 1) % m == 0):
                    got = hilbert_symbol(f, g, place, m).raw
                    assert got == pow(want, (q - 1) // m, q), (
                        str(f), str(g), place, m)
            checked["inf" if place.is_infinity else place.degree] += 1
    assert checked["inf"] == pairs
    for degree, least in MIN_PLACES.items():
        assert checked[degree] >= least, checked
