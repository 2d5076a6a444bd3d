import random

import pytest

from reciprocity_lab.errors import (DomainError, HypothesisViolation,
                                    ZeroInputError)
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.lattices import BlockShiftOperator, MonomialLattice
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.report import VerificationReport
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
        sym = IndexSymbol(BlockShiftOperator(1, {0: rng.randint(-4, 4)}))
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
    sym = IndexSymbol(BlockShiftOperator(1, {0: 3}))
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
        sym = IndexSymbol(BlockShiftOperator(1, {0: rng.randint(-4, 4)}))
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
    sym = IndexSymbol(BlockShiftOperator(1, {0: 2}))
    family = XSymbolFamily.with_derived_b(sym, [MonomialLattice.ray(0)])
    report = general_reciprocity_run(family)
    assert report.ok
    assert report.value == "2" and report.expected == "2"


def test_family_size_cap():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    lattices = [MonomialLattice.progression_ray((j,), 11) for j in range(11)]
    with pytest.raises(DomainError):
        XSymbolFamily.with_derived_b(sym, lattices)


def test_violation_missing_empty_assignment():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    family = XSymbolFamily(sym, [MonomialLattice.ray(0)],
                           {frozenset({0}): MonomialLattice.empty()})
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"


def test_violation_index_out_of_range():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    family = XSymbolFamily(sym, [MonomialLattice.ray(0)],
                           {frozenset(): MonomialLattice.ray(0),
                            frozenset({5}): MonomialLattice.empty()})
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"


def test_violation_member_not_contained():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    family = XSymbolFamily(sym, [MonomialLattice.ray(0)],
                           {frozenset(): MonomialLattice.ray(4),
                            frozenset({0}): MonomialLattice.empty()})
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"
    assert "A_0" in err.value.detail


def test_violation_inconsistent_assignment():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
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
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    family = XSymbolFamily.with_derived_b(
        sym, [MonomialLattice.ray(0), MonomialLattice.ray(0)])
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "b"


def test_violation_nontrivial_value_on_trivial_complement():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
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
    sym = TameSymbol(f, g, places[:1])
    with pytest.raises(DomainError):
        sym.evaluate(MonomialLattice.progression_ray((0,), 4))


def reference_class_exponent(local):
    """upper - lower of a block-local lattice, classifying each pattern on
    its own: full counts 1, empty 0, and a partial pattern has no class."""
    def flag(pattern):
        if len(pattern) == local.modulus:
            return 1
        if pattern:
            raise DomainError("block-local lattice is not commensurable "
                              "with a ray, a lower set, the full line, "
                              "or a finite set")
        return 0

    return flag(local.high_pat) - flag(local.low_pat)


def rand_class_lattice(rng):
    """A ray, lower set, finite, full or empty set, or a progression (ray)
    with modulus 2-6, changed at finitely many points."""
    kind = rng.randrange(7)
    n0 = rng.randint(-6, 6)
    if kind == 0:
        base = MonomialLattice.ray(n0)
    elif kind == 1:
        base = MonomialLattice.ray(n0).complement()
    elif kind == 2:
        base = MonomialLattice.finite({rng.randint(-8, 8) for _ in range(3)})
    elif kind == 3:
        base = MonomialLattice.everything()
    elif kind == 4:
        base = MonomialLattice.empty()
    else:
        modulus = rng.randint(2, 6)
        residues = [r for r in range(modulus) if rng.random() < 0.5] or [0]
        base = (MonomialLattice.progression(residues, modulus) if kind == 5
                else MonomialLattice.progression_ray(residues, modulus, n0))
    noise = MonomialLattice.finite({rng.randint(-10, 10)
                                    for _ in range(rng.randint(0, 3))})
    return base.symmetric_difference(noise)


def test_tame_exponent_agrees_with_the_per_pattern_classifier():
    """The exponent read off the canonical form (modulus 1 and the pattern
    sizes) equals the per-pattern classification, or both refuse."""
    t = RationalFunction.variable(Q)
    # at t - p the tame symbol of (prod (t - p), t) is 1/p, so
    # the value over distinct primes p fixes every block's exponent
    primes = (2, 3, 5, 7, 11, 13)
    f = RationalFunction.constant(Q, 1)
    for p in primes:
        f = f * (t - p)
    places = [Place.finite(Polynomial(Q, [-p, 1])) for p in primes]
    symbols = [TameSymbol(f, t, places[:step]) for step in range(1, 7)]
    rng = random.Random(263)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        lattice = rand_class_lattice(rng)
        for step, sym in enumerate(symbols, 1):
            for shift in (-3, 0, 2):
                shifted = lattice.shift(shift)
                try:
                    want = Q.one_scalar()
                    for offset, value in enumerate(sym.values):
                        local = shifted.extract_progression(offset, step)
                        want = want * value ** reference_class_exponent(local)
                except DomainError:
                    want = DomainError
                try:
                    got = sym.evaluate(shifted)
                except DomainError:
                    got = DomainError
                assert got == want, (shifted, step)
                outcomes[want is DomainError] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_symbols_of_a_zero_function_are_refused():
    t = RationalFunction.variable(F5)
    zero = t - t
    for cls in (TameSymbol, ResidueSymbol):
        for places in ([], [Place.finite(Polynomial.variable(F5))]):
            for f, g in ((zero, t), (t, zero)):
                with pytest.raises(ZeroInputError):
                    cls(f, g, places)


def test_block_shift_index_symbol_mixes_blocks():
    op = BlockShiftOperator(2, {0: 2, 1: -4})
    sym = IndexSymbol(op)
    evens = MonomialLattice.progression_ray((0,), 2)
    odds = MonomialLattice.progression_ray((1,), 2)
    assert sym.evaluate(evens) == 1
    assert sym.evaluate(odds) == -2
    assert sym.evaluate(evens.union(odds)) == -1


def test_manual_and_derived_assignments_agree():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 2}))
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


def reference_derived_b(lattices):
    """B_J = sum of A_i over i not in J, one union chain per J."""
    n = len(lattices)
    b_map = {}
    for mask in range(1 << n):
        J = frozenset(i for i in range(n) if mask & (1 << i))
        acc = MonomialLattice.empty()
        for i in range(n):
            if i not in J:
                acc = acc.union(lattices[i])
        b_map[J] = acc
    return b_map


def test_derived_assignments_match_one_union_chain_per_set():
    rng = random.Random(307)
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    for n in range(7):
        for _ in range(3):
            lattices = [rand_lattice(rng) for _ in range(n)]
            got = XSymbolFamily.with_derived_b(sym, lattices).b_map
            want = reference_derived_b(lattices)
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
                MonomialLattice.ray(n0).complement()),
             MonomialLattice.ray(n0 - 3).shift(3)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            value = sym.evaluate(a)
            traced = len(sym._traced)
            assert sym.evaluate(b) == value
            assert len(sym._traced) == traced
            assert ResidueSymbol(f, g, places).evaluate(b) == value


def test_partial_assignment_is_refused_under_clause_a():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    a0 = MonomialLattice.progression_ray((0,), 2)
    a1 = MonomialLattice.progression_ray((1,), 2)
    family = XSymbolFamily(sym, [a0, a1], {
        frozenset(): a0.union(a1),
        frozenset({0, 1}): MonomialLattice.empty(),
    })
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(family)
    assert err.value.clause == "a"
    assert "[0] has no lattice" in err.value.detail


def test_mismatch_names_the_generator_that_fails():
    sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
    a0 = MonomialLattice.progression_ray((0,), 2)
    a1 = MonomialLattice.progression_ray((1,), 2)
    b_map = XSymbolFamily.with_derived_b(sym, [a0, a1]).b_map
    b_map[frozenset({0})] = MonomialLattice.everything()
    with pytest.raises(HypothesisViolation) as err:
        general_reciprocity_run(XSymbolFamily(sym, [a0, a1], b_map))
    assert err.value.clause == "a"
    assert err.value.detail == "B_[0] differs from B_[0, 1] plus A_1"


def reference_reciprocity_run(family):
    """The closed-form hypothesis checks: every pair J' < J of index sets,
    and independence of the members of J with B_J for every J."""
    sym = family.symbol
    lattices = family.lattices
    b_map = family.b_map
    n = len(lattices)
    if frozenset() not in b_map:
        raise HypothesisViolation("a", "no lattice assigned to the empty set")
    for J, b_lattice in b_map.items():
        if any(i < 0 or i >= n for i in J):
            raise HypothesisViolation("a", f"index set {sorted(J)} out of range")
        for i in range(n):
            if i not in J and not lattices[i].difference(b_lattice).is_empty():
                raise HypothesisViolation(
                    "a", f"A_{i} is not contained in B_{sorted(J)}")
    keys = sorted(b_map, key=lambda J: (len(J), sorted(J)))
    for J in keys:
        for Jp in keys:
            if not Jp < J:
                continue
            expected = b_map[J]
            for i in J - Jp:
                expected = expected.union(lattices[i])
            if expected != b_map[Jp]:
                raise HypothesisViolation(
                    "a", f"B_{sorted(Jp)} differs from B_{sorted(J)} plus "
                         f"the family members of {sorted(J - Jp)}")
    for J in keys:
        group = [lattices[i] for i in sorted(J)] + [b_map[J]]
        if not independence_check(group):
            raise HypothesisViolation(
                "b", f"family members of {sorted(J)} and B_{sorted(J)} are "
                     "not independent for commensurability")
    values = [sym.evaluate(a) for a in lattices]
    for J in keys:
        if all(values[i] == sym.identity() for i in range(n) if i not in J):
            b_value = sym.evaluate(b_map[J])
            if b_value != sym.identity():
                raise HypothesisViolation(
                    "c", f"B_{sorted(J)} has value {sym.render(b_value)} "
                         "despite trivial complement values")
    lhs = sym.evaluate(b_map[frozenset()])
    rhs = sym.identity()
    terms = []
    for i, value in enumerate(values):
        rhs = sym.combine(rhs, value)
        terms.append({"member": i, "lattice": str(lattices[i]),
                      "value": sym.render(value)})
    return VerificationReport(
        law="general-reciprocity",
        field_descriptor=getattr(getattr(sym, "field", None), "descriptor",
                                 "Z"),
        inputs={"symbol": sym.name, "family_size": str(n)},
        terms=terms,
        value=sym.render(lhs),
        expected=sym.render(rhs),
        ok=lhs == rhs,
        details={"b_sets": len(b_map)},
    )


def rand_member(rng, modulus, j):
    kind = rng.randrange(5)
    if kind == 0:
        return rand_ray_spec(rng)
    if kind == 1:
        return rand_ray_spec(rng).complement()
    if kind == 2:
        return MonomialLattice.finite({rng.randint(-8, 8)
                                       for _ in range(rng.randint(0, 3))})
    # one progression per member, as the curve families build them
    noise = MonomialLattice.finite({rng.randint(-6, 6)
                                    for _ in range(rng.randint(0, 2))})
    ray = MonomialLattice.progression_ray((j % modulus,), modulus,
                                          rng.randint(-4, 4))
    return ray.symmetric_difference(noise) if kind == 3 else ray


def rand_complete_family(rng):
    """A complete assignment from a random top, perturbed one of four ways."""
    n = rng.randint(0, 5)
    modulus = n + rng.randint(0, 2) or 1
    lattices = [rand_member(rng, modulus, j) for j in range(n)]
    if n and rng.random() < 0.15:
        # a dependent member: a shifted copy of another one
        twin = rng.choice(lattices).shift(modulus * rng.randint(-1, 1))
        lattices[rng.randrange(n)] = twin
    top = MonomialLattice.empty() if rng.random() < 0.6 else \
        MonomialLattice.finite({rng.randint(-8, 8)})
    b_map = {J: top.union(lattice)
             for J, lattice in reference_derived_b(lattices).items()}
    keys = list(b_map)
    kind = rng.randrange(4)
    J = rng.choice(keys)
    if kind == 1:
        b_map[J] = b_map[J].union(MonomialLattice.finite(
            {rng.randint(-10, 10)}))
    elif kind == 2:
        b_map[J] = rand_two_sided(rng)
    elif kind == 3:
        wide = rand_two_sided(rng)
        b_map = {K: lattice.union(wide) for K, lattice in b_map.items()}
    rng.shuffle(keys)
    b_map = {K: b_map[K] for K in keys}
    if rng.random() < 0.5:
        op = BlockShiftOperator(1, {0: rng.randint(-3, 3)})
    else:
        op = BlockShiftOperator(modulus, {r: rng.randint(-2, 2) * modulus
                                          for r in range(modulus)})
    return XSymbolFamily(IndexSymbol(op), lattices, b_map)


def outcome(run, family):
    try:
        return "pass", run(family).to_json()
    except HypothesisViolation as err:
        # clause (a) details name different sets: the checks differ there
        return err.clause, None if err.clause == "a" else err.detail
    except DomainError:
        return "domain", None


def test_generator_checks_match_the_closed_form_checks():
    rng = random.Random(347)
    seen = set()
    for _ in range(2000):
        family = rand_complete_family(rng)
        want = outcome(reference_reciprocity_run, family)
        assert outcome(general_reciprocity_run, family) == want
        seen.add(want[0])
    assert seen == {"pass", "a", "b", "c", "domain"}
