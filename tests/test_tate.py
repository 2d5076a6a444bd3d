import random
from collections import Counter

import pytest

from reciprocity_lab import tate
from reciprocity_lab.errors import DomainError, ZeroInputError
from reciprocity_lab.funcfield import Place, RationalFunction, support_union
from reciprocity_lab.lattices import MonomialLattice
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.tate import (_data_spread as data_spread,
                                  _support_bound, abstract_residue_trace,
                                  classical_residue, minimal_window)
from reciprocity_lab.xsymbol import curve_residue_family

from helpers import F3, F5, Q, rand_fn, rand_fn_q, rand_lattice

TRUNCATIONS = ("f", "g", "both")


def tt(field):
    return RationalFunction.variable(field)


def at(poly):
    return Place.finite(poly)


def test_residues_of_a_partial_fraction_split():
    # f dg with f = 1/(t^2 - t), g = t: poles at 0 and 1, regular at infinity
    t = tt(Q)
    f = 1 / (t * t - t)
    g = t
    p0 = at(Polynomial.variable(Q))
    p1 = at(Polynomial.variable(Q) - Polynomial.one(Q))
    inf = Place.at_infinity(Q)
    assert classical_residue(f, g, p0) == Q.scalar(-1)
    assert classical_residue(f, g, p1) == Q.scalar(1)
    assert classical_residue(f, g, inf) == Q.scalar(0)


def test_logarithmic_residue_counts_valuation():
    rng = random.Random(193)
    for field in (F5, Q):
        for _ in range(12):
            g = rand_fn_q(rng) if field is Q else rand_fn(rng, field)
            places = support_union(g, include_infinity=True)
            for x in places:
                got = classical_residue(1 / g, g, x)
                v = g.valuation(x)
                assert got == field.scalar(v * x.degree)


def test_exact_differentials_have_no_residue():
    rng = random.Random(197)
    inf = Place.at_infinity(Q)
    for _ in range(10):
        f = rand_fn_q(rng)
        for x in support_union(f, include_infinity=True):
            # f df = d(f^2)/2 in characteristic zero
            assert classical_residue(f, f, x) == Q.scalar(0)
        one = RationalFunction.constant(Q, 1)
        assert classical_residue(one, f, inf) == Q.scalar(0)


def test_double_pole_keeps_only_the_simple_part():
    t = tt(Q)
    p0 = at(Polynomial.variable(Q))
    f = 3 / t + 5 / (t * t)
    assert classical_residue(f, t, p0) == Q.scalar(3)
    assert classical_residue(1 / (t * t), t, p0) == Q.scalar(0)


def test_residue_at_a_quadratic_place_traces_down():
    pi = Polynomial.variable(F3) * Polynomial.variable(F3) + Polynomial.one(F3)
    x = at(pi)
    assert x.degree == 2
    g = RationalFunction.from_polynomial(pi)
    assert classical_residue(1 / g, g, x) == F3.scalar(2)
    assert abstract_residue_trace(1 / g, g, x) == F3.scalar(2)


def test_abstract_residue_simple_pole():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    assert abstract_residue_trace(1 / t, t, x) == Q.scalar(1)


def test_abstract_residue_order_two():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    f = 1 / (t * t)
    g = t * t
    assert abstract_residue_trace(f, g, x) == Q.scalar(2)
    for tr in TRUNCATIONS:
        assert abstract_residue_trace(f, g, x, truncate=tr) == Q.scalar(2)


def test_abstract_residue_of_units_vanishes():
    t = tt(F5)
    x = at(Polynomial.variable(F5))
    f = (t + 1) / (t + 2)
    g = t + 3
    assert abstract_residue_trace(f, g, x) == F5.scalar(0)


def test_abstract_agrees_with_classical_on_random_data():
    rng = random.Random(199)
    for field in (F5, Q):
        for _ in range(15):
            if field is Q:
                f = rand_fn_q(rng, max_deg=4)
                g = rand_fn_q(rng, max_deg=4)
            else:
                f = rand_fn(rng, field, max_deg=3)
                g = rand_fn(rng, field, max_deg=3)
            places = support_union(f, g, include_infinity=True)
            for x in places[:3]:
                want = classical_residue(f, g, x)
                base = minimal_window(f, g, x)
                for tr in TRUNCATIONS:
                    assert abstract_residue_trace(f, g, x, truncate=tr) == want
                assert abstract_residue_trace(f, g, x, window=base + 3) == want


def test_window_below_the_admissible_bound_is_rejected():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    f = 1 / (t * t * t)
    bound = minimal_window(f, t, x)
    with pytest.raises(DomainError):
        abstract_residue_trace(f, t, x, window=bound - 1)


def test_lattice_choice_is_immaterial():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    f = (t + 2) / (t * t)
    g = t * t - t
    want = classical_residue(f, g, x)
    lattices = [
        MonomialLattice.ray(0),
        MonomialLattice.ray(-4),
        MonomialLattice.from_ray_spec(2, added={-1, -3}),
        MonomialLattice.from_ray_spec(0, removed={1, 4}),
    ]
    for lattice in lattices:
        for tr in TRUNCATIONS:
            got = abstract_residue_trace(f, g, x, lattice=lattice, truncate=tr)
            assert got == want


def test_each_trace_computes_its_support_once(monkeypatch):
    calls = Counter()

    def counted(name):
        inner = getattr(tate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(tate, name, wrapper)

    counted("_support_bound")
    counted("banded_commutator_trace")
    rng = random.Random(211)
    f = rand_fn(rng, F5, max_deg=3)
    g = rand_fn(rng, F5, max_deg=3)
    lattices = [MonomialLattice.ray(0), MonomialLattice.ray(2).complement(),
                MonomialLattice.from_ray_spec(1, added={-2}, removed={3})]
    for x in support_union(f, g, include_infinity=True):
        for lattice in lattices:
            abstract_residue_trace(f, g, x, lattice=lattice)
    assert calls["banded_commutator_trace"] > 0
    assert calls["_support_bound"] == calls["banded_commutator_trace"]
    calls.clear()
    family = curve_residue_family(f, g)
    for lattice in family.b_map.values():
        family.symbol.evaluate(lattice)
    assert calls["banded_commutator_trace"] > 0
    assert calls["_support_bound"] == calls["banded_commutator_trace"]


def test_zero_inputs_are_rejected():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    zero = t - t
    with pytest.raises(ZeroInputError):
        classical_residue(zero, t, x)
    with pytest.raises(ZeroInputError):
        abstract_residue_trace(t, zero, x)
    with pytest.raises(ZeroInputError):
        minimal_window(zero, zero, x)


def test_window_bound_grows_with_data_spread():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    h = (t * t + 1) / (t * t * t - t)
    assert data_spread(h) == 5
    # v_x = -1 on both sides; the radius covers |v(f)| + |v(g)| + spread + 2
    narrow = minimal_window(1 / t, 1 / t, x)
    assert narrow >= 1 + 1 + 2 + 2
    assert minimal_window(h, 1 / t, x) >= 1 + 1 + 6 + 2 > narrow


def reference_support_bound(lattice, vf, vg):
    """The bound from S ^ (S + i) and S ^ (S - i) for every band offset i."""
    support = MonomialLattice.empty()
    for i in range(min(vf, -vg, 0), max(vf, -vg, 0) + 1):
        for direction in (i, -i):
            diff = lattice.symmetric_difference(lattice.shift(direction))
            if not diff.is_finite():
                raise DomainError("not commensurable with its shifts")
            support = support.union(diff)
    if support.is_empty():
        return 0, 0
    members = [n for n in range(support.lo, support.hi) if n in support]
    return members[0], members[-1]


def test_support_bound_matches_the_loop_over_every_offset():
    def outcome(fn, *args):
        try:
            return fn(*args)
        except DomainError:
            return DomainError

    rng = random.Random(337)
    lattices = [rand_lattice(rng) for _ in range(10)]
    lattices += [MonomialLattice.progression({0}, 2),
                 MonomialLattice.progression_ray({1, 2}, 3, -2),
                 MonomialLattice.empty()]
    refused = 0
    for lattice in lattices:
        for vf in range(-4, 5):
            for vg in range(-4, 5):
                want = outcome(reference_support_bound, lattice, vf, vg)
                assert outcome(_support_bound, lattice, vf, vg) == want
                refused += want is DomainError
    assert refused
