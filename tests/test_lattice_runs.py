"""The run-based MonomialLattice against the frozenset representation it
replaced, kept here as a reference route.

Both classes canonicalize on construction, so every operation must give
the same lattice field for field: modulus, split, window members and both
patterns, and with them the same str.  extract_progression is also checked
against its earlier run-based route, which widened the window and tested
the positions outside its image one at a time.  The last test checks
that a window tens of millions wide costs nothing extra once it is a run.
"""
import random
import time
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from reciprocity_lab.errors import DomainError
from reciprocity_lab.lattices import (BlockShiftOperator, MonomialLattice,
                                      lattice_index)

from helpers import rand_lattice


class FrozensetLattice:
    """The window as an explicit frozenset of members, walked one integer
    at a time: the representation the run-based class replaced."""

    __slots__ = ("modulus", "lo", "hi", "window", "low_pat", "high_pat")

    def __init__(self, modulus: int, lo: int, hi: int, window,
                 low_pat, high_pat):
        if modulus < 1:
            raise DomainError("modulus must be positive")
        if lo > hi:
            raise DomainError("window bounds out of order")
        window = frozenset(window)
        low_pat = frozenset(r % modulus for r in low_pat)
        high_pat = frozenset(r % modulus for r in high_pat)
        if any(n < lo or n >= hi for n in window):
            raise DomainError("window member outside the window")

        d = _reference_joint_period(modulus, low_pat, high_pat)
        if d != modulus:
            low_pat = frozenset(r for r in low_pat if r < d)
            high_pat = frozenset(r for r in high_pat if r < d)
            modulus = d
        window = set(window)
        while hi > lo and ((hi - 1) in window) == ((hi - 1) % modulus in high_pat):
            hi -= 1
            window.discard(hi)
        while lo < hi and (lo in window) == (lo % modulus in low_pat):
            window.discard(lo)
            lo += 1
        if lo == hi:
            if low_pat == high_pat:
                lo = hi = 0
            else:
                # the split is movable wherever the patterns agree; pin it at
                # the lowest valid spot so equal sets canonicalize identically
                while ((hi - 1) % modulus in low_pat) == ((hi - 1) % modulus in high_pat):
                    hi -= 1
                    lo -= 1
        self.modulus = modulus
        self.lo = lo
        self.hi = hi
        self.window = frozenset(window)
        self.low_pat = low_pat
        self.high_pat = high_pat

    # -- constructors -------------------------------------------------------

    @classmethod
    def ray(cls, n0: int) -> "FrozensetLattice":
        """All exponents >= n0."""
        return cls(1, n0, n0, (), (), (0,))

    @classmethod
    def finite(cls, members) -> "FrozensetLattice":
        members = frozenset(members)
        if not members:
            return cls(1, 0, 0, (), (), ())
        return cls(1, min(members), max(members) + 1, members, (), ())

    @classmethod
    def empty(cls) -> "FrozensetLattice":
        return cls(1, 0, 0, (), (), ())

    @classmethod
    def everything(cls) -> "FrozensetLattice":
        return cls(1, 0, 0, (), (0,), (0,))

    @classmethod
    def progression(cls, residues, modulus: int) -> "FrozensetLattice":
        """The full two-sided progression {n : n mod modulus in residues}."""
        return cls(modulus, 0, 0, (), residues, residues)

    @classmethod
    def progression_ray(cls, residues, modulus: int, n0: int = 0) -> "FrozensetLattice":
        """{n >= n0 : n mod modulus in residues}."""
        return cls(modulus, n0, n0, (), (), residues)

    @classmethod
    def from_ray_spec(cls, n0: int, added=(), removed=()) -> "FrozensetLattice":
        """[n0, oo) plus `added` (all < n0) minus `removed` (all >= n0)."""
        added = frozenset(added)
        removed = frozenset(removed)
        if any(n >= n0 for n in added):
            raise DomainError("added exponents must lie below the ray start")
        if any(n < n0 for n in removed):
            raise DomainError("removed exponents must lie inside the ray")
        out = cls.ray(n0)
        if added:
            out = out.union(cls.finite(added))
        if removed:
            out = out.difference(cls.finite(removed))
        return out

    # -- membership ---------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < self.lo:
            return n % self.modulus in self.low_pat
        if n >= self.hi:
            return n % self.modulus in self.high_pat
        return n in self.window

    def members_in(self, start: int, stop: int) -> list[int]:
        return [n for n in range(start, stop) if n in self]

    def is_empty(self) -> bool:
        return (not self.window and not self.low_pat and not self.high_pat)

    def is_finite(self) -> bool:
        return not self.low_pat and not self.high_pat

    def size(self) -> int:
        if not self.is_finite():
            raise DomainError("infinite lattice has no cardinality")
        return len(self.window)

    # -- set algebra ----------------------------------------------------------

    def _aligned(self, other: "FrozensetLattice"):
        if not isinstance(other, FrozensetLattice):
            raise DomainError(f"cannot combine lattice with {other!r}")
        d = lcm(self.modulus, other.modulus)
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return d, lo, hi

    def _pattern(self, which: str, modulus: int) -> frozenset:
        pat = self.low_pat if which == "low" else self.high_pat
        return frozenset(r for r in range(modulus) if r % self.modulus in pat)

    def _combine(self, other: "FrozensetLattice", setop) -> "FrozensetLattice":
        d, lo, hi = self._aligned(other)
        low = setop(self._pattern("low", d), other._pattern("low", d))
        high = setop(self._pattern("high", d), other._pattern("high", d))
        mine = set(self.members_in(lo, hi))
        theirs = set(other.members_in(lo, hi))
        return FrozensetLattice(d, lo, hi, setop(mine, theirs), low, high)

    def union(self, other: "FrozensetLattice") -> "FrozensetLattice":
        return self._combine(other, lambda a, b: a | b)

    def intersect(self, other: "FrozensetLattice") -> "FrozensetLattice":
        return self._combine(other, lambda a, b: a & b)

    def difference(self, other: "FrozensetLattice") -> "FrozensetLattice":
        return self._combine(other, lambda a, b: a - b)

    def symmetric_difference(self, other: "FrozensetLattice") -> "FrozensetLattice":
        return self._combine(other, lambda a, b: a ^ b)

    def complement(self) -> "FrozensetLattice":
        full = frozenset(range(self.modulus))
        return FrozensetLattice(
            self.modulus, self.lo, self.hi,
            frozenset(range(self.lo, self.hi)) - self.window,
            full - self.low_pat, full - self.high_pat)

    def shift(self, m: int) -> "FrozensetLattice":
        d = self.modulus
        return FrozensetLattice(
            d, self.lo + m, self.hi + m,
            frozenset(n + m for n in self.window),
            frozenset((r + m) % d for r in self.low_pat),
            frozenset((r + m) % d for r in self.high_pat))

    def restrict_to_progression(self, residues, modulus: int) -> "FrozensetLattice":
        return self.intersect(FrozensetLattice.progression(residues, modulus))

    def extract_progression(self, offset: int, step: int) -> "FrozensetLattice":
        """The set {m : offset + m*step in self}; local coordinates of a block."""
        if step < 1:
            raise DomainError("step must be positive")
        d = self.modulus // gcd(step, self.modulus)
        low = [s for s in range(d) if (offset + s * step) % self.modulus in self.low_pat]
        high = [s for s in range(d) if (offset + s * step) % self.modulus in self.high_pat]
        lo = -((offset - self.lo) // step) - 1
        hi = (self.hi - offset) // step + 2
        if lo > hi:
            lo = hi
        window = [m for m in range(lo, hi) if (offset + m * step) in self]
        return FrozensetLattice(d, lo, hi, window, low, high)

    def commensurable(self, other: "FrozensetLattice") -> tuple[bool, int | None]:
        """Whether the symmetric difference is finite, with its cardinality."""
        diff = self.symmetric_difference(other)
        if diff.is_finite():
            return True, diff.size()
        return False, None

    # -- plumbing -------------------------------------------------------------

    def _key(self):
        return (self.modulus, self.lo, self.hi, tuple(sorted(self.window)),
                tuple(sorted(self.low_pat)), tuple(sorted(self.high_pat)))

    def __eq__(self, other):
        if not isinstance(other, FrozensetLattice):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        if self.modulus == 1 and not self.low_pat and self.high_pat:
            body = f"ray:{self.hi}"
            if self.window:
                body += ";add:" + ",".join(str(n) for n in sorted(self.window))
            return body
        if self.is_finite():
            return "finite:{" + ",".join(str(n) for n in sorted(self.window)) + "}"
        low = ",".join(str(r) for r in sorted(self.low_pat))
        high = ",".join(str(r) for r in sorted(self.high_pat))
        win = ",".join(str(n) for n in sorted(self.window))
        return (f"ep:mod={self.modulus};low={{{low}}};split={self.lo}..{self.hi};"
                f"win={{{win}}};high={{{high}}}")

    def __repr__(self):
        return f"FrozensetLattice({self})"


def _reference_joint_period(modulus: int, low_pat: frozenset, high_pat: frozenset) -> int:
    """Smallest divisor of the modulus under which both patterns repeat."""
    for d in range(1, modulus + 1):
        if modulus % d:
            continue
        if all((r + d) % modulus in low_pat for r in low_pat) and \
           all((r - d) % modulus in low_pat for r in low_pat) and \
           all((r + d) % modulus in high_pat for r in high_pat) and \
           all((r - d) % modulus in high_pat for r in high_pat):
            return d
    return modulus



def reference_of(lattice):
    """The reference lattice with the same canonical fields."""
    members = [n for start, stop in lattice.runs for n in range(start, stop)]
    return FrozensetLattice(lattice.modulus, lattice.lo, lattice.hi, members,
                            lattice.low_pat, lattice.high_pat)


def reference_index(op, lattice):
    """lattice_index with the operator's set action run on the reference,
    residue class by residue class at every modulus, modulus 1 included."""
    image = FrozensetLattice.empty()
    for r in range(op.modulus):
        part = lattice.restrict_to_progression((r,), op.modulus)
        image = image.union(part.shift(op.shifts.get(r, 0)))
    gained = lattice.difference(image)
    lost = image.difference(lattice)
    if not (gained.is_finite() and lost.is_finite()):
        raise DomainError("operator does not preserve the commensurability class")
    return gained.size() - lost.size()


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def assert_same(new, ref):
    if new is DomainError or ref is DomainError:
        assert new is ref
        return
    assert (new.modulus, new.lo, new.hi) == (ref.modulus, ref.lo, ref.hi)
    members = [n for start, stop in new.runs for n in range(start, stop)]
    assert members == sorted(ref.window)
    assert (new.low_pat, new.high_pat) == (ref.low_pat, ref.high_pat)
    assert str(new) == str(ref)
    # runs are sorted, nonempty, disjoint and maximal
    assert all(start < stop for start, stop in new.runs)
    assert all(stop < start for (_, stop), (start, _) in
               zip(new.runs, new.runs[1:]))


BINARY = ("union", "intersect", "difference", "symmetric_difference")
OPERATORS = (BlockShiftOperator(1, {0: 3}), BlockShiftOperator(1, {0: -2}),
             BlockShiftOperator(2, {0: 2, 1: -4}),
             BlockShiftOperator(3, {0: 3, 1: 0, 2: -3}),
             BlockShiftOperator(2, {0: 1}))


def check_unary(new, ref):
    assert_same(new.complement(), ref.complement())
    for m in (-3, 0, 2, 5):
        assert_same(new.shift(m), ref.shift(m))
    for step in (1, 2, 3, 4):
        for offset in (-3, 0, 1, 5):
            assert_same(outcome(new.extract_progression, offset, step),
                        outcome(ref.extract_progression, offset, step))
    for op in OPERATORS:
        assert outcome(lattice_index, op, new) == \
            outcome(reference_index, op, ref)
    assert [n for n in range(-30, 31) if n in new] == ref.members_in(-30, 31)


def check_pair(a, ra, b, rb):
    for name in BINARY:
        assert_same(getattr(a, name)(b), getattr(ra, name)(rb))
    assert a.commensurable(b) == ra.commensurable(rb)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


def test_helper_lattices_agree_with_the_reference():
    rng = random.Random(401)
    lattices = [rand_lattice(rng) for _ in range(40)]
    refs = [reference_of(lattice) for lattice in lattices]
    for lattice, ref in zip(lattices, refs):
        # the reference canonicalizes the fields again and must keep them
        assert_same(lattice, ref)
        check_unary(lattice, ref)
    for _ in range(160):
        i, j = rng.randrange(40), rng.randrange(40)
        check_pair(lattices[i], refs[i], lattices[j], refs[j])


def build(cls, spec):
    """Evaluate a lattice recipe with either class's own constructors."""
    kind, *args = spec
    if kind == "from_ray_spec":
        n0, below, above = args
        return cls.from_ray_spec(n0, {n0 - k for k in below},
                                 {n0 + k for k in above})
    if kind in BINARY:
        return getattr(build(cls, args[0]), kind)(build(cls, args[1]))
    if kind in ("complement", "shift", "extract_progression"):
        return getattr(build(cls, args[0]), kind)(*args[1:])
    return getattr(cls, kind)(*args)


small = st.integers(-8, 8)
residues = st.frozensets(st.integers(0, 5), max_size=4)
leaves = st.one_of(
    st.tuples(st.just("ray"), small),
    st.tuples(st.just("complement"), st.tuples(st.just("ray"), small)),
    st.tuples(st.just("finite"), st.frozensets(small, max_size=5)),
    st.tuples(st.just("progression"), residues, st.integers(1, 4)),
    st.tuples(st.just("progression_ray"), residues, st.integers(1, 4), small),
    st.tuples(st.just("from_ray_spec"), small,
              st.frozensets(st.integers(1, 6), max_size=3),
              st.frozensets(st.integers(0, 6), max_size=3)),
)
recipes = st.recursive(leaves, lambda inner: st.one_of(
    st.tuples(st.sampled_from(BINARY), inner, inner),
    st.tuples(st.just("complement"), inner),
    st.tuples(st.just("shift"), inner, st.integers(-5, 5)),
    st.tuples(st.just("extract_progression"), inner, st.integers(-3, 3),
              st.integers(1, 4)),
), max_leaves=4)


@settings(max_examples=200)
@given(recipes, recipes)
def test_generated_lattices_agree_with_the_reference(spec_a, spec_b):
    a, ra = build(MonomialLattice, spec_a), build(FrozensetLattice, spec_a)
    b, rb = build(MonomialLattice, spec_b), build(FrozensetLattice, spec_b)
    assert_same(a, ra)
    assert_same(b, rb)
    check_unary(a, ra)
    check_pair(a, ra, b, rb)


def widened_extract_progression(lattice, offset, step):
    """extract_progression as it was before it took the window's image as
    its window: one position wider on each side, each position outside the
    image tested for membership one at a time."""
    d = lattice.modulus // gcd(step, lattice.modulus)
    low = [s for s in range(d)
           if (offset + s * step) % lattice.modulus in lattice.low_pat]
    high = [s for s in range(d)
            if (offset + s * step) % lattice.modulus in lattice.high_pat]
    lo = -((offset - lattice.lo) // step) - 1
    hi = (lattice.hi - offset) // step + 2
    runs = [(-((offset - start) // step), -((offset - stop) // step))
            for start, stop in lattice.runs]
    first = -((offset - lattice.lo) // step)
    last = -((offset - lattice.hi) // step)
    runs += [(m, m + 1) for m in (*range(lo, first), *range(last, hi))
             if (offset + m * step) in lattice]
    return MonomialLattice(d, lo, hi, runs, low, high)


def test_extract_progression_agrees_with_the_widened_route():
    rng = random.Random(23)
    for _ in range(3000):
        modulus = rng.randint(1, 6)
        lo = rng.randint(-8, 8)
        hi = lo + rng.randint(0, 12)
        members = [n for n in range(lo, hi) if rng.random() < 0.5]
        lattice = MonomialLattice(
            modulus, lo, hi, ((n, n + 1) for n in members),
            [r for r in range(modulus) if rng.random() < 0.5],
            [r for r in range(modulus) if rng.random() < 0.5])
        for _ in range(4):
            offset, step = rng.randint(-7, 7), rng.randint(1, 7)
            new = lattice.extract_progression(offset, step)
            old = widened_extract_progression(lattice, offset, step)
            assert (new.modulus, new.lo, new.hi, new.runs, new.low_pat,
                    new.high_pat) == (old.modulus, old.lo, old.hi, old.runs,
                                      old.low_pat, old.high_pat)
            assert all((m in new) == (offset + m * step in lattice)
                       for m in range(-40, 40))


def test_equal_sets_from_different_routes_are_equal_and_hash_alike():
    routes = [
        MonomialLattice.from_ray_spec(0, added={-3, -2}, removed={2}),
        MonomialLattice.ray(3).union(MonomialLattice.finite({-3, -2, 0, 1})),
        MonomialLattice.ray(-3).complement()
        .union(MonomialLattice.finite({-1, 2})).complement(),
        MonomialLattice.ray(-1).complement()
        .difference(MonomialLattice.ray(-3).complement())
        .union(MonomialLattice.ray(0).shift(3))
        .union(MonomialLattice.finite({0, 1})),
        MonomialLattice.progression_ray({0, 1}, 2, 3)
        .union(MonomialLattice.finite({-3, -2, 0, 1})),
    ]
    assert len({hash(lattice) for lattice in routes}) == 1
    assert all(lattice == routes[0] for lattice in routes)
    assert len({str(lattice) for lattice in routes}) == 1


def test_a_wide_window_costs_only_its_runs():
    def timed(fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        assert time.perf_counter() - start < 1.0
        return value

    far = -30_000_000
    wide = timed(MonomialLattice.from_ray_spec, 0, {far})
    assert timed(wide.union, MonomialLattice.ray(5)) == wide
    assert timed(wide.intersect, MonomialLattice.ray(7).complement()) == \
        MonomialLattice.finite({far, *range(7)})
    comp = timed(wide.complement)
    assert comp.runs == ((far + 1, 0),)
    assert (comp.low_pat, comp.high_pat) == ({0}, frozenset())
    assert timed(comp.complement) == wide
    assert timed(wide.shift, 4) == MonomialLattice.from_ray_spec(4, {far + 4})
    assert timed(str, wide) == "ray:0;add:-30000000"
    # gained {far, 0, 1, 2}, lost {far + 3}
    assert timed(lattice_index, BlockShiftOperator(1, {0: 3}), wide) == 3
