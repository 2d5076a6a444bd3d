import random

import pytest

from reciprocity_lab.errors import DomainError, ParseError
from reciprocity_lab.lattices import (LITERAL_BOUND, BlockShiftOperator,
                                      MonomialLattice, lattice_index,
                                      parse_lattice)

from helpers import lattice_with_oracle, rand_lattice

SPAN = range(-60, 61)


def test_membership_matches_an_independent_oracle():
    rng = random.Random(83)
    for _ in range(120):
        lattice, member = lattice_with_oracle(rng)
        for n in SPAN:
            assert (n in lattice) == member(n), (lattice, n)


def test_set_operations_against_python_sets():
    rng = random.Random(89)
    for _ in range(80):
        a, fa = lattice_with_oracle(rng, depth=1)
        b, fb = lattice_with_oracle(rng, depth=1)
        sa = {n for n in SPAN if fa(n)}
        sb = {n for n in SPAN if fb(n)}
        checks = [
            (a.union(b), sa | sb),
            (a.intersect(b), sa & sb),
            (a.difference(b), sa - sb),
            (a.symmetric_difference(b), sa ^ sb),
        ]
        for lattice, expected in checks:
            got = {n for n in range(-40, 41) if n in lattice}
            assert got == {n for n in expected if -40 <= n <= 40}
        comp = a.complement()
        assert all((n in comp) != fa(n) for n in range(-40, 41))


def test_structural_equality_is_set_equality():
    assert MonomialLattice.ray(0).union(MonomialLattice.finite({-2})) == \
        MonomialLattice.from_ray_spec(0, added={-2})
    assert MonomialLattice.progression({0, 2}, 4) == \
        MonomialLattice.progression({0, 2}, 4).shift(4)
    assert MonomialLattice.ray(3) == \
        MonomialLattice.ray(0).difference(MonomialLattice.finite({0, 1, 2}))
    assert MonomialLattice.everything() == \
        MonomialLattice.ray(5).union(MonomialLattice.ray(5).complement())
    assert MonomialLattice.empty() == MonomialLattice.finite(())


def test_sum_and_intersection_examples():
    a = MonomialLattice.ray(0)
    b = MonomialLattice.ray(3).union(MonomialLattice.finite({-2}))
    assert a.union(b) == MonomialLattice.from_ray_spec(0, added={-2})
    assert a.intersect(b) == MonomialLattice.ray(3)
    assert a.union(a) == a and a.intersect(a) == a
    c = MonomialLattice.from_ray_spec(0, removed={1})
    d = MonomialLattice.finite({1}).union(MonomialLattice.ray(5))
    assert c.union(d) == MonomialLattice.ray(0)
    assert c.intersect(d) == MonomialLattice.ray(5)


def test_commensurability_witness():
    a = MonomialLattice.ray(0)
    assert a.commensurable(MonomialLattice.ray(2)) == (True, 2)
    assert a.commensurable(a) == (True, 0)
    fancy = MonomialLattice.from_ray_spec(1, removed={3})
    assert a.union(MonomialLattice.finite({-5})).commensurable(fancy) == \
        (True, 3)
    even = MonomialLattice.progression({0}, 2)
    ok, _ = a.commensurable(even)
    assert not ok


def test_lattice_index_examples():
    ray = MonomialLattice.ray(0)
    assert lattice_index(BlockShiftOperator(1, {0: 3}), ray) == 3
    assert lattice_index(BlockShiftOperator(1, {0: 0}), ray) == 0
    bumpy = ray.union(MonomialLattice.finite({-2}))
    assert lattice_index(BlockShiftOperator(1, {0: 1}), bumpy) == 1


def test_index_additivity_examples_and_random():
    op = BlockShiftOperator(1, {0: 2})
    a = MonomialLattice.ray(0)
    b = MonomialLattice.ray(1)
    assert lattice_index(op, a) + lattice_index(op, b) == \
        lattice_index(op, a.union(b)) + lattice_index(op, a.intersect(b)) == 4
    down = BlockShiftOperator(1, {0: -1})
    holed = MonomialLattice.from_ray_spec(0, removed={4})
    assert lattice_index(down, a) + lattice_index(down, holed) == \
        lattice_index(down, a.union(holed)) + \
        lattice_index(down, a.intersect(holed))
    rng = random.Random(97)
    for _ in range(150):
        shift = rng.randint(-4, 4)
        op = BlockShiftOperator(1, {0: shift})
        x = rand_lattice(rng)
        y = rand_lattice(rng)
        if not _shift_friendly(x, shift) or not _shift_friendly(y, shift):
            continue
        assert lattice_index(op, x) + lattice_index(op, y) == \
            lattice_index(op, x.union(y)) + lattice_index(op, x.intersect(y))


def _shift_friendly(lattice, shift):
    return lattice.symmetric_difference(lattice.shift(shift)).is_finite()


def test_index_is_invariant_under_commensurable_change():
    rng = random.Random(101)
    for _ in range(100):
        a = MonomialLattice.ray(rng.randint(-6, 6))
        noise = MonomialLattice.finite({rng.randint(-12, 12)
                                        for _ in range(rng.randint(0, 4))})
        b = a.symmetric_difference(noise)
        op = BlockShiftOperator(1, {0: rng.randint(-5, 5)})
        assert lattice_index(op, a) == lattice_index(op, b)


def test_index_counts_shift_displacement():
    # i(sigma, A) for sigma = t^m over any ray is m
    for m in range(-5, 6):
        for n0 in (-3, 0, 7):
            op = BlockShiftOperator(1, {0: m})
            assert lattice_index(op, MonomialLattice.ray(n0)) == m


def test_block_shift_operator():
    op = BlockShiftOperator(2, {0: 2, 1: -2})
    lattice = MonomialLattice.ray(0)
    image = op.apply(lattice)
    expected = {m for m in range(-10, 40)
                if (m % 2 == 0 and m >= 2) or (m % 2 == 1 and m >= -1)}
    assert {m for m in range(-10, 40) if m in image} == expected
    assert lattice_index(op, MonomialLattice.progression_ray((0,), 2)) == 1
    assert lattice_index(op, MonomialLattice.progression_ray((1,), 2)) == -1
    assert lattice_index(op, lattice) == 0


def test_non_commensurable_shift_has_no_index():
    op = BlockShiftOperator(1, {0: 1})
    even = MonomialLattice.progression({0}, 2)
    with pytest.raises(DomainError):
        lattice_index(op, even)


def test_operator_validation():
    for modulus in (0, -2):
        with pytest.raises(DomainError):
            BlockShiftOperator(modulus, {})


def test_lattice_validation():
    # modulus 0, window bounds out of order, a run outside the window
    for args in ((0, 0, 0, (), (), ()), (1, 2, 1, (), (), ()),
                 (1, 0, 3, ((2, 5),), (), ()), (1, 0, 3, ((-1, 1),), (), ())):
        with pytest.raises(DomainError):
            MonomialLattice(*args)
    with pytest.raises(DomainError):
        MonomialLattice.ray(0).extract_progression(0, 0)


def test_extract_progression_splits_by_residue():
    lattice = MonomialLattice.ray(0)
    evens = lattice.extract_progression(0, 2)
    odds = lattice.extract_progression(1, 2)
    assert evens == MonomialLattice.ray(0)
    assert odds == MonomialLattice.ray(0)
    assert lattice.restrict_to_progression((0,), 2).extract_progression(0, 2) \
        == MonomialLattice.ray(0)


def test_parse_lattice_grammar():
    assert parse_lattice("ray:0") == MonomialLattice.ray(0)
    assert parse_lattice("ray:-3") == MonomialLattice.ray(-3)
    got = parse_lattice("ray:1;add:-4,-2;del:3")
    assert got == MonomialLattice.from_ray_spec(1, added={-4, -2},
                                                removed={3})
    with pytest.raises(ParseError):
        parse_lattice("ray")
    with pytest.raises(ParseError):
        parse_lattice("ray:x")
    with pytest.raises(ParseError):
        parse_lattice("ray:0;mul:3")
    assert parse_lattice("ray:0;;add:-1") == parse_lattice("ray:0;add:-1")
    with pytest.raises(ParseError):
        parse_lattice("add:1")
    # bad set data surfaces as a parse failure too
    for text in ("ray:0;add:5", "ray:0;del:-1"):
        with pytest.raises(ParseError):
            parse_lattice(text)


def test_parse_lattice_bounds_its_integers():
    top = LITERAL_BOUND
    got = parse_lattice(f"ray:{top};add:{-top};del:{top}")
    assert got == MonomialLattice.from_ray_spec(top, added={-top},
                                                removed={top})
    for text in (f"ray:{top + 1}", f"ray:{-top - 1}",
                 f"ray:0;add:{-top - 1}", f"ray:0;del:{top + 1}"):
        with pytest.raises(ParseError):
            parse_lattice(text)


def test_size_and_finiteness():
    assert MonomialLattice.finite({1, 5, 9}).size() == 3
    assert MonomialLattice.empty().size() == 0
    assert MonomialLattice.empty().is_empty()
    assert not MonomialLattice.ray(0).is_finite()
    assert not MonomialLattice.ray(0).complement().is_finite()
    with pytest.raises(DomainError):
        MonomialLattice.ray(0).size()


def test_commensurable_is_an_equivalence_on_generated_sets():
    rng = random.Random(107)
    for _ in range(60):
        base = rand_lattice(rng)
        a = base.symmetric_difference(MonomialLattice.finite(
            {rng.randint(-10, 10) for _ in range(2)}))
        b = base.symmetric_difference(MonomialLattice.finite(
            {rng.randint(-10, 10) for _ in range(2)}))
        ok_ab, _ = a.commensurable(b)
        ok_ba, _ = b.commensurable(a)
        assert ok_ab and ok_ba
        assert a.commensurable(a) == (True, 0)


def test_rendering_round_trips_through_sort_key():
    rng = random.Random(109)
    seen = {}
    for _ in range(80):
        lattice = rand_lattice(rng)
        key = str(lattice)
        if key in seen:
            assert seen[key] == lattice
        seen[key] = lattice
