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

from helpers import F5, Q, rand_fn, rand_fn_q, rand_lattice


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
        assert sym.evaluate(MonomialLattice.empty()) == sym.identity()
        assert sym.evaluate(MonomialLattice.everything()) == sym.identity()


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


def reference_derived_b(lattices, base=None):
    """B_J = base + sum of A_i over i not in J, one union chain per J."""
    n = len(lattices)
    b_map = {}
    for mask in range(1 << n):
        J = frozenset(i for i in range(n) if mask & (1 << i))
        acc = MonomialLattice.empty() if base is None else base
        for i in range(n):
            if i not in J:
                acc = acc.union(lattices[i])
        b_map[J] = acc
    return b_map


def test_derived_assignments_match_one_union_chain_per_set():
    rng = random.Random(307)
    sym = IndexSymbol(MonomialOperator(Q, 1, 1))
    for n in range(7):
        for _ in range(3):
            lattices = [rand_lattice(rng) for _ in range(n)]
            base = None if rng.random() < 0.5 else rand_lattice(rng)
            got = XSymbolFamily.with_derived_b(sym, lattices, base).b_map
            want = reference_derived_b(lattices, base)
            assert list(got) == list(want)
            assert all(got[J] == want[J] and str(got[J]) == str(want[J])
                       for J in want)


def reference_independence(lattices):
    """Each member against the union of all the others, built afresh."""
    for i, lattice in enumerate(lattices):
        rest = MonomialLattice.empty()
        for j, other in enumerate(lattices):
            if j != i:
                rest = rest.union(other)
        if not lattice.intersect(rest).is_finite():
            return False
    return True


def test_independence_matches_the_union_of_the_others():
    rng = random.Random(311)
    seen = set()
    for _ in range(300):
        size = rng.randint(0, 5)
        if rng.random() < 0.5:
            group = [rand_lattice(rng) for _ in range(size)]
        else:
            # blocks of one progression each, with finite noise
            modulus = max(size, 1)
            group = [MonomialLattice.progression_ray((j,), modulus,
                                                     rng.randint(-3, 3))
                     .symmetric_difference(MonomialLattice.finite(
                         {rng.randint(-6, 6)}))
                     for j in range(size)]
            if group and rng.random() < 0.3:
                twin = rng.randrange(size)
                group.insert(rng.randint(0, size),
                             group[twin].shift(modulus))
        want = reference_independence(group)
        assert independence_check(group) == want
        seen.add(want)
    assert seen == {True, False}


def test_memoized_residue_values_match_a_fresh_symbol():
    rng = random.Random(331)
    for _ in range(8):
        f = rand_fn(rng, F5, max_deg=3)
        g = rand_fn(rng, F5, max_deg=3)
        family = curve_residue_family(f, g)
        sym = family.symbol
        places = sym.places
        n = sym.modulus
        for lattice in family.b_map.values():
            sym.evaluate(lattice)
        residues = {j for j in range(n) if rng.random() < 0.6}
        n0 = rng.randint(-4, 4)
        added = {n0 - rng.randint(1, 5) for _ in range(2)}
        pairs = [
            (MonomialLattice.progression_ray(residues, n, n0),
             MonomialLattice.ray(n0).intersect(
                 MonomialLattice.progression(residues, n))),
            (MonomialLattice.from_ray_spec(n0, added, {n0 + 1}),
             MonomialLattice.ray(n0 + 2).union(MonomialLattice.finite(
                 added | {n0}))),
            (MonomialLattice.everything().difference(
                MonomialLattice.lower_ray(n0)),
             MonomialLattice.ray(n0 - 3).shift(3)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            value = sym.evaluate(a)
            traced = len(sym._traced)
            assert sym.evaluate(b) == value
            assert len(sym._traced) == traced
            assert ResidueSymbol(f, g, places).evaluate(b) == value
