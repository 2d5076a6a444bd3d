import itertools
import random
from collections import Counter

import pytest

from reciprocity_lab import tate
from reciprocity_lab.errors import (DomainError, MixedFieldError,
                                   PrecisionError, ZeroInputError)
from reciprocity_lab.funcfield import Place, RationalFunction, support_union
from reciprocity_lab.lattices import MonomialLattice
from reciprocity_lab.parsing import parse_place, parse_rational
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.tate import (_data_spread as data_spread, _radius,
                                  _support_bound, abstract_residue_trace,
                                  classical_residue, minimal_window)
from reciprocity_lab.xsymbol import curve_residue_family

from helpers import (F3, F5, F13, Q, certified_irreducible, rand_fn, rand_fn_q,
                     rand_lattice)

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
    places = support_union(f, g, include_infinity=True)
    for x in places:
        for lattice in lattices:
            abstract_residue_trace(f, g, x, lattice=lattice)
    distinct = len(places) * len(lattices)
    assert calls["banded_commutator_trace"] == distinct > 0
    assert calls["_support_bound"] == distinct
    # a repeated lattice, also built anew, is served by the trace's memo
    for x in places:
        for lattice in lattices + [MonomialLattice.ray(0)]:
            abstract_residue_trace(f, g, x, lattice=lattice, truncate="g")
    assert calls["banded_commutator_trace"] == 2 * distinct + len(places)
    assert calls["_support_bound"] == distinct
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
    # a refusal is not cached: the second call raises again
    for _ in range(2):
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


def test_a_support_that_misses_a_diagonal_entry_is_refused():
    t = tt(Q)
    x = at(Polynomial.variable(Q))
    trace = tate.CommutatorTrace(1 / t, t, x)
    lattice = MonomialLattice.ray(0)
    low, high = _support_bound(lattice, trace.vf, trace.vg)
    window = minimal_window(1 / t, t, x)

    def banded(low, high, truncate="f"):
        return tate.banded_commutator_trace(trace.ring, trace.f_band,
                                            trace.g_band, low, high,
                                            lattice, window, truncate)

    # the trace is 1, so some diagonal entry in [low, high] is nonzero
    assert trace.ring.trace(banded(low, high)) == Q.scalar(1)
    for missing in ((high + 1, high + 1), (low - 1, low - 1)):
        with pytest.raises(PrecisionError,
                           match="outside its predicted support"):
            banded(*missing)
    with pytest.raises(DomainError, match="unknown truncation choice"):
        banded(low, high, truncate="x")


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


def reference_banded_trace(ring, f_band, g_band, low, high, lattice, window,
                           truncate="f"):
    """The commutator diagonal from both operators materialized as finite
    matrices over the extended index range, entry by entry."""
    if truncate not in ("f", "g", "both"):
        raise DomainError(f"unknown truncation choice {truncate!r}")
    reach = max([abs(n) for n in (*f_band, *g_band)] + [0])
    block = range(-window, window + 1)
    extended = set(range(-window - reach, window + reach + 1))

    project_f = truncate in ("f", "both")
    project_g = truncate in ("g", "both")
    fmat = {}
    gmat = {}
    for col in extended:
        for i, coeff in f_band.items():
            row = col + i
            if row in extended and (not project_f or row in lattice):
                fmat[(row, col)] = coeff
        for m, coeff in g_band.items():
            row = col + m
            if row in extended and (not project_g or row in lattice):
                gmat[(row, col)] = coeff

    acc = ring.zero
    for j in block:
        entry = ring.zero
        for i in f_band:
            c = j - i
            left = fmat.get((j, c))
            right = gmat.get((c, j))
            if left is not None and right is not None:
                entry = ring.add(entry, ring.mul(left, right))
        for m in g_band:
            c = j - m
            left = gmat.get((j, c))
            right = fmat.get((c, j))
            if left is not None and right is not None:
                entry = ring.sub(entry, ring.mul(left, right))
        if not ring.is_zero(entry) and not (low <= j <= high):
            raise PrecisionError(
                f"commutator diagonal leaked outside its predicted support at {j}")
        acc = ring.add(acc, entry)
    return acc


def small_places(field, degree, count):
    """The first `count` monic irreducible polynomials of a degree, as places,
    with lower coefficients drawn from 0, 1, -1, 2, -2 and 3."""
    values = [0, 1, -1, 2, -2, 3]
    found = []
    for n in range(len(values) ** degree):
        coeffs = []
        for _ in range(degree):
            n, r = divmod(n, len(values))
            coeffs.append(field.from_int(values[r]))
        pi = Polynomial(field, coeffs + [field.one], "t")
        if pi not in found and certified_irreducible(pi):
            found.append(pi)
            if len(found) == count:
                break
    return [Place.finite(pi) for pi in found]


def value_or_leak(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return PrecisionError


def traces_at_small_places(rng):
    """A CommutatorTrace over F_5, F_13 and Q at two places of each degree
    1-3, for random f and g with nonzero valuations there."""
    for field in (F5, F13, Q):
        for degree in (1, 2, 3):
            for x in small_places(field, degree, 2):
                pi = RationalFunction.from_polynomial(x.pi)
                if field is Q:
                    f, g = rand_fn_q(rng, max_deg=3), rand_fn_q(rng, max_deg=3)
                else:
                    f = rand_fn(rng, field, max_deg=3)
                    g = rand_fn(rng, field, max_deg=3)
                yield tate.CommutatorTrace(f * pi ** rng.choice([-2, -1, 1]),
                                           g * pi ** rng.choice([-1, 1, 2]), x)


def test_banded_kernel_matches_the_materialized_matrices():
    rng = random.Random(409)
    compared = narrowed_leaks = 0
    for trace in traces_at_small_places(rng):
        bands = (trace.ring, trace.f_band, trace.g_band)
        lattices = [rand_lattice(rng) for _ in range(5)]
        lattices.append(MonomialLattice.progression_ray({1, 2}, 3, -2))
        for lattice in lattices:
            try:
                low, high = _support_bound(lattice, trace.vf, trace.vg)
            except DomainError:
                continue
            bound = _radius(lattice, (low, high), trace.vf, trace.vg,
                            trace.spread)
            for window, tr in itertools.product((bound, bound + 3),
                                                 TRUNCATIONS):
                rest = (lattice, window, tr)
                want = reference_banded_trace(*bands, low, high, *rest)
                got = tate.banded_commutator_trace(*bands, low, high, *rest)
                assert got == want, (str(lattice), window, tr)
                compared += 1
                # a support narrowed by one on each side: both routes
                # refuse, or both give the same value
                narrow = (low + 1, high - 1)
                got = value_or_leak(tate.banded_commutator_trace, *bands,
                                    *narrow, *rest)
                assert got == value_or_leak(reference_banded_trace, *bands,
                                            *narrow, *rest)
                narrowed_leaks += got is PrecisionError
    assert compared >= 300
    assert 0 < narrowed_leaks < compared


def test_equal_inputs_share_one_commutator_trace(monkeypatch):
    built = Counter()

    class Counted(tate.CommutatorTrace):
        __slots__ = ()

        def __init__(self, *args):
            built["traces"] += 1
            super().__init__(*args)

    monkeypatch.setattr(tate, "CommutatorTrace", Counted)
    values = set()
    for tr in TRUNCATIONS:
        # a separate parse each time: equal values, distinct objects
        f = parse_rational("(t^2+1)/(t^3-t)", Q)
        g = parse_rational("t^2-3", Q)
        x = parse_place("t-1", Q)
        values.add(abstract_residue_trace(f, g, x, truncate=tr))
    assert built["traces"] == 1
    assert values == {classical_residue(f, g, x)}


def test_the_memo_keeps_fields_and_variables_apart():
    text_f, text_g = "(t^2+1)/(t^3-t)", "t^2-3"
    x = parse_place("t-1", Q)
    abstract_residue_trace(parse_rational(text_f, Q),
                           parse_rational(text_g, Q), x)
    assert tate._commutator_trace.cache_info().currsize == 1
    in_s = (parse_rational(text_f.replace("t", "s"), Q, "s"),
            parse_rational(text_g.replace("t", "s"), Q, "s"))
    over_f5 = (parse_rational(text_f, F5), parse_rational(text_g, F5))
    for f, g in (in_s, over_f5):
        with pytest.raises(MixedFieldError):
            abstract_residue_trace(f, g, x)


def test_the_memo_stays_bounded():
    t = tt(F13)
    x = Place.at_infinity(F13)
    for k in range(100):
        abstract_residue_trace(t + k % 13, t ** (1 + k // 13), x)
    info = tate._commutator_trace.cache_info()
    assert info.misses == 100
    assert info.currsize <= tate._TRACE_MEMO
