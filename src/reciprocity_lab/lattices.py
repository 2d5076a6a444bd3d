"""Monomial lattices: eventually periodic subsets of Z and their index theory.

A lattice stands for the span of {t^i : i in S} inside a Laurent model.  The
representation covers every set needed here: rays [n0, oo) with finitely many
exceptions, finite sets, arithmetic progressions, lower sets, and disjoint
unions of these.  Membership below `lo` follows `low_pat` (mod `modulus`),
membership at or above `hi` follows `high_pat`, and the window [lo, hi) is
explicit.  Canonicalization makes structural equality coincide with set
equality.

The index of a shift operator over a lattice counts |S \\ sigma(S)| minus
|sigma(S) \\ S| when both are finite; on curve models it reproduces
deg(x) * v_x(f).
"""
from __future__ import annotations

from math import gcd, lcm

from .errors import DomainError, ParseError
from .fields import Field


class MonomialLattice:
    """An eventually periodic subset of Z, canonicalized on construction."""

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

        d = _joint_period(modulus, low_pat, high_pat)
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
    def ray(cls, n0: int) -> "MonomialLattice":
        """All exponents >= n0."""
        return cls(1, n0, n0, (), (), (0,))

    @classmethod
    def lower_ray(cls, n0: int) -> "MonomialLattice":
        """All exponents < n0."""
        return cls(1, n0, n0, (), (0,), ())

    @classmethod
    def finite(cls, members) -> "MonomialLattice":
        members = frozenset(members)
        if not members:
            return cls(1, 0, 0, (), (), ())
        return cls(1, min(members), max(members) + 1, members, (), ())

    @classmethod
    def empty(cls) -> "MonomialLattice":
        return cls(1, 0, 0, (), (), ())

    @classmethod
    def everything(cls) -> "MonomialLattice":
        return cls(1, 0, 0, (), (0,), (0,))

    @classmethod
    def progression(cls, residues, modulus: int) -> "MonomialLattice":
        """The full two-sided progression {n : n mod modulus in residues}."""
        return cls(modulus, 0, 0, (), residues, residues)

    @classmethod
    def progression_ray(cls, residues, modulus: int, n0: int = 0) -> "MonomialLattice":
        """{n >= n0 : n mod modulus in residues}."""
        return cls(modulus, n0, n0, (), (), residues)

    @classmethod
    def from_ray_spec(cls, n0: int, added=(), removed=()) -> "MonomialLattice":
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

    def is_bounded_below(self) -> bool:
        return not self.low_pat

    def size(self) -> int:
        if not self.is_finite():
            raise DomainError("infinite lattice has no cardinality")
        return len(self.window)

    # -- set algebra ----------------------------------------------------------

    def _aligned(self, other: "MonomialLattice"):
        if not isinstance(other, MonomialLattice):
            raise DomainError(f"cannot combine lattice with {other!r}")
        d = lcm(self.modulus, other.modulus)
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return d, lo, hi

    def _pattern(self, which: str, modulus: int) -> frozenset:
        pat = self.low_pat if which == "low" else self.high_pat
        return frozenset(r for r in range(modulus) if r % self.modulus in pat)

    def _combine(self, other: "MonomialLattice", setop) -> "MonomialLattice":
        d, lo, hi = self._aligned(other)
        low = setop(self._pattern("low", d), other._pattern("low", d))
        high = setop(self._pattern("high", d), other._pattern("high", d))
        mine = set(self.members_in(lo, hi))
        theirs = set(other.members_in(lo, hi))
        return MonomialLattice(d, lo, hi, setop(mine, theirs), low, high)

    def union(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, lambda a, b: a | b)

    def intersect(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, lambda a, b: a & b)

    def difference(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, lambda a, b: a - b)

    def symmetric_difference(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, lambda a, b: a ^ b)

    def complement(self) -> "MonomialLattice":
        full = frozenset(range(self.modulus))
        return MonomialLattice(
            self.modulus, self.lo, self.hi,
            frozenset(range(self.lo, self.hi)) - self.window,
            full - self.low_pat, full - self.high_pat)

    def shift(self, m: int) -> "MonomialLattice":
        d = self.modulus
        return MonomialLattice(
            d, self.lo + m, self.hi + m,
            frozenset(n + m for n in self.window),
            frozenset((r + m) % d for r in self.low_pat),
            frozenset((r + m) % d for r in self.high_pat))

    def restrict_to_progression(self, residues, modulus: int) -> "MonomialLattice":
        return self.intersect(MonomialLattice.progression(residues, modulus))

    def extract_progression(self, offset: int, step: int) -> "MonomialLattice":
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
        return MonomialLattice(d, lo, hi, window, low, high)

    def affine_image(self, offset: int, step: int) -> "MonomialLattice":
        """The set {offset + n*step : n in self}; a right inverse of
        extract_progression at the same offset and step."""
        if step < 1:
            raise DomainError("step must be positive")
        d = self.modulus * step
        low = [(offset + s * step) % d for s in self.low_pat]
        high = [(offset + s * step) % d for s in self.high_pat]
        window = [offset + n * step for n in self.window]
        return MonomialLattice(d, offset + self.lo * step,
                               offset + self.hi * step, window, low, high)

    def commensurable(self, other: "MonomialLattice") -> tuple[bool, int | None]:
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
        if not isinstance(other, MonomialLattice):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def sort_key(self):
        return self._key()

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
        return f"MonomialLattice({self})"


def _joint_period(modulus: int, low_pat: frozenset, high_pat: frozenset) -> int:
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


# Largest |n| a lattice literal may name.  The window [lo, hi) is explicit
# and walked one integer at a time, so a literal far from 0 would make every
# lattice operation on it slow; +-1000 keeps each command well under a second.
LITERAL_BOUND = 1000


def parse_lattice(text: str) -> MonomialLattice:
    """Parse "ray:<n0>;add:<i,...>;del:<i,...>" (add and del optional).

    Every integer must lie in [-LITERAL_BOUND, LITERAL_BOUND].
    """
    n0 = None
    added: list[int] = []
    removed: list[int] = []
    for chunk in text.strip().split(";"):
        if not chunk:
            continue
        head, _, body = chunk.partition(":")
        head = head.strip()
        try:
            if head == "ray":
                n0 = int(body)
            elif head == "add":
                added = [int(s) for s in body.split(",") if s.strip()]
            elif head == "del":
                removed = [int(s) for s in body.split(",") if s.strip()]
            else:
                raise ParseError(f"unknown lattice clause {head!r}")
        except ValueError as exc:
            raise ParseError(f"bad integer in lattice literal: {chunk!r}") from exc
    if n0 is None:
        raise ParseError("lattice literal needs a ray:<n0> clause")
    for n in (n0, *added, *removed):
        if abs(n) > LITERAL_BOUND:
            raise ParseError(f"lattice literal integer {n} is outside "
                             f"[-{LITERAL_BOUND}, {LITERAL_BOUND}]")
    try:
        return MonomialLattice.from_ray_spec(n0, added, removed)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


class MonomialOperator:
    """t^i -> c * t^(i+m): an invertible monomial multiplication operator."""

    __slots__ = ("field", "coeff", "shift")

    def __init__(self, field: Field, coeff, shift: int):
        coeff = field.coerce(coeff)
        if field.is_zero(coeff):
            raise DomainError("monomial operator needs a nonzero coefficient")
        self.field = field
        self.coeff = coeff
        self.shift = shift

    def apply(self, lattice: MonomialLattice) -> MonomialLattice:
        return lattice.shift(self.shift)

    def __repr__(self):
        return f"MonomialOperator({self.field.render(self.coeff)}*t^{self.shift})"


class BlockShiftOperator:
    """Shift each residue class mod D by its own amount; models block action.

    Used to encode one multiplication operator acting on several local
    factors at once: residues of the same block move together.
    """

    __slots__ = ("modulus", "shifts")

    def __init__(self, modulus: int, shifts: dict[int, int]):
        if modulus < 1:
            raise DomainError("modulus must be positive")
        self.modulus = modulus
        self.shifts = {r % modulus: s for r, s in shifts.items()}

    def apply(self, lattice: MonomialLattice) -> MonomialLattice:
        out = MonomialLattice.empty()
        for r in range(self.modulus):
            part = lattice.restrict_to_progression((r,), self.modulus)
            out = out.union(part.shift(self.shifts.get(r, 0)))
        return out

    def __repr__(self):
        inner = ", ".join(f"{r}:{s:+d}" for r, s in sorted(self.shifts.items()))
        return f"BlockShiftOperator(mod {self.modulus}; {inner})"


def lattice_index(op, lattice: MonomialLattice) -> int:
    """|S \\ sigma(S)| - |sigma(S) \\ S| for sigma the operator's set action.

    Raises when the operator moves the lattice out of its commensurability
    class, since then neither difference is finite.
    """
    image = op.apply(lattice)
    gained = lattice.difference(image)
    lost = image.difference(lattice)
    if not (gained.is_finite() and lost.is_finite()):
        raise DomainError("operator does not preserve the commensurability class")
    return gained.size() - lost.size()


def index_additivity_check(op, a: MonomialLattice, b: MonomialLattice) -> bool:
    """index(A) + index(B) == index(A union B) + index(A intersect B)."""
    lhs = lattice_index(op, a) + lattice_index(op, b)
    rhs = lattice_index(op, a.union(b)) + lattice_index(op, a.intersect(b))
    return lhs == rhs
