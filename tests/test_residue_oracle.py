"""Residues of f dg, classical and by commutator trace, against a sympy
oracle, at places of every degree and at infinity.

With h = f g', pi^k exactly dividing den(h) and C = den(h) / pi^k, let
A = num(h) * C^(-1) mod pi^k.  The residue at pi, traced down to the
ground field, is

    [t^(k deg pi - 1)] A / lc(pi)^k.

The place at infinity is the place u = 0 of h(1/u) d(1/u).  The oracle does
its arithmetic in sympy only (`sympy_oracle.py`), and places come from
sympy's factorizations, so the library's factoring does not choose them.
"""
import random
from collections import Counter

import pytest

from reciprocity_lab.errors import ReciprocityError
from reciprocity_lab.funcfield import Place
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.tate import abstract_residue_trace, classical_residue

from helpers import F5, F13, Q, rand_fn, rand_fn_q

pytest.importorskip("sympy")
from sympy_oracle import Oracle  # noqa: E402

# places checked per degree, at least; the draws below give about twice this
MIN_PLACES = {1: 190, 2: 50, 3: 23}


def _draws():
    rng = random.Random(1968)
    for _ in range(30):
        yield Q, rand_fn_q(rng, max_deg=5), rand_fn_q(rng, max_deg=5)
    for field in (F5, F13):
        for _ in range(50):
            yield field, rand_fn(rng, field), rand_fn(rng, field)


def test_residues_agree_with_the_partial_fraction_oracle():
    checked = Counter()
    pairs = refused = 0
    for field, f, g in _draws():
        pairs += 1
        oracle = Oracle(field)
        nf, df = (oracle.poly(f.num.coeffs), oracle.poly(f.den.coeffs))
        ng, dg = (oracle.poly(g.num.coeffs), oracle.poly(g.den.coeffs))
        # h = f g' = nf (ng' dg - ng dg') / (df dg^2), not in lowest terms
        h = (nf * (ng.diff() * dg - ng * dg.diff()), df * dg ** 2)
        cases = [(Place.finite(Polynomial(field, oracle.low_coeffs(pi))),
                  h, pi)
                 for pi in oracle.places((nf, df, ng, dg))]
        cases.append((Place.at_infinity(field),
                      oracle.differential_at_infinity(h),
                      oracle.poly([0, 1])))
        try:
            for place, (num, den), pi in cases:
                want = oracle.residue(num, den, pi)
                context = (str(f), str(g), str(place))
                assert classical_residue(f, g, place).raw == want, context
                assert abstract_residue_trace(f, g, place).raw == want, context
                checked["inf" if place.is_infinity else place.degree] += 1
        except ReciprocityError as exc:
            refused += 1
            print(f"refused: f = {f}, g = {g}: {type(exc).__name__}: {exc}")
    print(f"{pairs} pairs, {refused} refused, places checked: {dict(checked)}")
    assert checked["inf"] == pairs - refused
    for degree, least in MIN_PLACES.items():
        assert checked[degree] >= least, (checked, refused)
