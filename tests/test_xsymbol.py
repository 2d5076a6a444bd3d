import random

import pytest

from reciprocity_lab.errors import DomainError, HypothesisViolation
from reciprocity_lab.funcfield import RationalFunction
from reciprocity_lab.lattices import (BlockShiftOperator, MonomialLattice,
                                      MonomialOperator)
from reciprocity_lab.xsymbol import (IndexSymbol, ResidueSymbol, TameSymbol,
                                     XSymbolFamily, curve_index_family,
                                     curve_residue_family, curve_tame_family,
                                     general_reciprocity_run,
                                     independence_check, xsymbol_axiom_check)

from helpers import F5, Q, rand_fn, rand_fn_q


def rand_ray_spec(rng):
    n0 = rng.randint(-5, 5)
    added = {n0 - rng.randint(1, 6) for _ in range(rng.randint(0, 3))}
    removed = {n0 + rng.randint(0, 6) for _ in range(rng.randint(0, 3))}
    return MonomialLattice.from_ray_spec(n0, added, removed)


def rand_two_sided(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rand_ray_spec(rng)
    if kind == 1:
        return rand_ray_spec(rng).complement()
    if kind == 2:
        return MonomialLattice.finite({rng.randint(-8, 8)
                                       for _ in range(rng.randint(0, 4))})
    if kind == 3:
        return MonomialLattice.everything()
    return MonomialLattice.empty()


def test_index_symbol_axioms():
    rng = random.Random(211)
    for _ in range(50):
        sym = IndexSymbol(MonomialOperator(Q, 1, rng.randint(-4, 4)))
        assert xsymbol_axiom_check(sym, rand_two_sided(rng),
                                   rand_two_sided(rng))


def test_residue_symbol_axioms():
    rng = random.Random(223)
    checked = 0
    while checked < 50:
        f = rand_fn(rng, F5, max_deg=3)
        g = rand_fn(rng, F5, max_deg=3)
        sym = curve_residue_family(f, g).symbol
        for _ in range(5):
            assert xsymbol_axiom_check(sym, rand_two_sided(rng),
                                       rand_two_sided(rng))
            checked += 1


def test_tame_symbol_axioms():
    rng = random.Random(227)
    checked = 0
    while checked < 50:
        f = rand_fn_q(rng, max_deg=4)
        g = rand_fn_q(rng, max_deg=4)
        sym = curve_tame_family(f, g).symbol
        for _ in range(5):
            assert xsymbol_axiom_check(sym, rand_two_sided(rng),
                                       rand_two_sided(rng))
            checked += 1


def test_trivial_lattices_take_the_identity_value():
    sym = IndexSymbol(MonomialOperator(Q, 1, 3))
    assert sym.evaluate(MonomialLattice.empty()) == sym.identity()
    assert sym.evaluate(MonomialLattice.everything()) == sym.identity()
    rng = random.Random(229)
    f = rand_fn(rng, F5, max_deg=3)
    g = rand_fn(rng, F5, max_deg=3)
    for sym in (curve_residue_family(f, g).symbol,
                curve_tame_family(f, g).symbol):
        assert sym.eq(sym.evaluate(MonomialLattice.empty()), sym.identity())
        assert sym.eq(sym.evaluate(MonomialLattice.everything()),
                      sym.identity())


def test_commensurable_lattices_share_a_value():
    rng = random.Random(233)
    for _ in range(30):
        sym = IndexSymbol(MonomialOperator(Q, 1, rng.randint(-4, 4)))
        a = rand_ray_spec(rng)
        noise = MonomialLattice.finite({rng.randint(-10, 10)
                                        for _ in range(3)})
        b = a.symmetric_difference(noise)
        assert sym.evaluate(a) == sym.evaluate(b)


def test_independence_examples():
    evens = MonomialLattice.progression_ray((0,), 2)
    odds = MonomialLattice.progression_ray((1,), 2)
    assert independence_check([evens, odds])
    assert not independence_check([MonomialLattice.ray(0),
                                   MonomialLattice.ray(3)])
    assert independence_check([MonomialLattice.ray(0),
                               MonomialLattice.finite({1, 2})])
    assert independence_check([MonomialLattice.empty(),
                               MonomialLattice.everything()])


def test_curve_index_family_reciprocity():
    rng = random.Random(239)
    for field in (F5, Q):
        for _ in range(10):
            f = rand_fn_q(rng) if field is Q else rand_fn(rng, field)
            report = general_reciprocity_run(curve_index_family(f))
            assert report.ok
            assert report.law == "general-reciprocity"
            assert report.value == report.expected
            total = sum(int(term["value"]) for term in report.terms)
            assert total == 0


def test_curve_index_family_records_degree_weighted_valuations():
    t = RationalFunction.variable(F5)
    f = (t * t * t) / (t * t + 2)
    family = curve_index_family(f)
    report = general_reciprocity_run(family)
    values = sorted(int(term["value"]) for term in report.terms)
    assert values == [-3, -1, 1, 3] or sum(values) == 0
    assert report.details["b_sets"] == 1 << len(family.lattices)


def test_curve_residue_family_reciprocity():
    rng = random.Random(241)
    for field in (F5, Q):
        for _ in range(8):
            if field is Q:
                f, g = rand_fn_q(rng, max_deg=4), rand_fn_q(rng, max_deg=4)
            else:
                f, g = rand_fn(rng, field, 3), rand_fn(rng, field, 3)
            report = general_reciprocity_run(curve_residue_family(f, g))
            assert report.ok, report.to_json(indent=2)


def test_curve_tame_family_reciprocity():
    rng = random.Random(251)
    for field in (F5, Q):
        for _ in range(8):
            if field is Q:
                f, g = rand_fn_q(rng, max_deg=4), rand_fn_q(rng, max_deg=4)
            else:
                f, g = rand_fn(rng, field, 3), rand_fn(rng, field, 3)
            report = general_reciprocity_run(curve_tame_family(f, g))
            assert report.ok, report.to_json(indent=2)
            assert report.value == report.expected == "1"


def test_single_member_family():
    sym = IndexSymbol(MonomialOperator(Q, 1, 2))
    family = XSymbolFamily.with_derived_b(sym, [MonomialLattice.ray(0)])
    report = general_reciprocity_run(family)
    assert report.ok
    assert report.value == "2" and report.expected == "2"


def test_family_size_cap():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    lattices = [MonomialLattice.progression_ray((j,), 11) for j in range(11)]
    with pytest.raises(DomainError):
        XSymbolFamily.with_derived_b(sym, lattices)


def test_violation_missing_empty_assignment():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    family = XSymbolFamily(sym, [MonomialLattice.ray(0)],
                           {frozenset({0}): MonomialLattice.empty()})
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"


def test_violation_index_out_of_range():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    family = XSymbolFamily(sym, [MonomialLattice.ray(0)],
                           {frozenset(): MonomialLattice.ray(0),
                            frozenset({5}): MonomialLattice.empty()})
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"


def test_violation_member_not_contained():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    family = XSymbolFamily(sym, [MonomialLattice.ray(0)],
                           {frozenset(): MonomialLattice.ray(4),
                            frozenset({0}): MonomialLattice.empty()})
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"
    assert "A_0" in err.value.detail


def test_violation_inconsistent_assignment():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    a0 = MonomialLattice.progression_ray((0,), 2)
    a1 = MonomialLattice.progression_ray((1,), 2)
    b_map = {
        frozenset(): a0.union(a1),
        frozenset({0}): a1,
        frozenset({1}): a0,
        frozenset({0, 1}): MonomialLattice.finite({0}),
    }
    family = XSymbolFamily(sym, [a0, a1], b_map)
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"
    assert "differs" in err.value.detail


def test_violation_dependent_family():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    family = XSymbolFamily.with_derived_b(
        sym, [MonomialLattice.ray(0), MonomialLattice.ray(0)])
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "b"


def test_violation_nontrivial_value_on_trivial_complement():
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    a0 = MonomialLattice.finite({3})
    b_map = {
        frozenset(): MonomialLattice.ray(0),
        frozenset({0}): MonomialLattice.ray(0),
    }
    family = XSymbolFamily(sym, [a0], b_map)
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "c"
    assert "B_[]" in err.value.detail


def test_tame_symbol_rejects_partial_periodic_patterns():
    rng = random.Random(257)
    f = rand_fn(rng, F5, max_deg=3)
    g = rand_fn(rng, F5, max_deg=3)
    places = [x for x, _ in f.support()] or None
    if places is None:
        pytest.skip("constant sample")
    sym = TameSymbol(f, g, places[:1], modulus=2)
    with pytest.raises(DomainError):
        sym.evaluate(MonomialLattice.progression_ray((0,), 4))


def test_block_shift_index_symbol_mixes_blocks():
    op = BlockShiftOperator(2, {0: 2, 1: -4})
    sym = IndexSymbol(op)
    evens = MonomialLattice.progression_ray((0,), 2)
    odds = MonomialLattice.progression_ray((1,), 2)
    assert sym.evaluate(evens) == 1
    assert sym.evaluate(odds) == -2
    assert sym.evaluate(evens.union(odds)) == -1


def test_manual_and_derived_assignments_agree():
    sym = IndexSymbol(MonomialOperator(Q, 1, 2))
    a0 = MonomialLattice.progression_ray((0,), 2)
    a1 = MonomialLattice.progression_ray((1,), 2)
    derived = XSymbolFamily.with_derived_b(sym, [a0, a1])
    manual = XSymbolFamily(sym, [a0, a1], {
        frozenset(): a0.union(a1),
        frozenset({0}): a1,
        frozenset({1}): a0,
        frozenset({0, 1}): MonomialLattice.empty(),
    })
    for J, lattice in manual.b_map.items():
        assert derived.b_map[J] == lattice
    assert general_reciprocity_run(manual).ok
