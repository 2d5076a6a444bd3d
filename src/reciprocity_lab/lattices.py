"""Monomial lattices: eventually periodic subsets of Z and their index theory.

A lattice stands for the span of {t^i : i in S} inside a Laurent model.  The
representation covers every set needed here: rays [n0, oo) with finitely many
exceptions, finite sets, arithmetic progressions, lower sets, and disjoint
unions of these.  Membership below `lo` follows `low_pat` (mod `modulus`),
membership at or above `hi` follows `high_pat`, and inside the window
[lo, hi) the members are `runs`: a sorted tuple of disjoint, maximal
half-open intervals (start, stop).  Set operations merge run endpoints, so
their cost follows the number of runs, not the width of the window; a
stretch under a full pattern is one run and one under an empty pattern is
none.  Canonicalization makes structural equality coincide with set
equality.

The one operator type is `BlockShiftOperator`, which shifts each residue
class mod D by its own amount; with D = 1 it is the plain shift t^i ->
t^(i+m).  The index of such an operator over a lattice counts
|S \\ sigma(S)| minus |sigma(S) \\ S| when both are finite; on curve models
it reproduces deg(x) * v_x(f).  The layer is set algebra on Z only: it
depends on no field, since a scalar factor changes no index.
"""
from __future__ import annotations

from bisect import bisect_right
from math import gcd, inf, lcm
from operator import and_, or_, xor

from .errors import DomainError, ParseError


class MonomialLattice:
    """An eventually periodic subset of Z, canonicalized on construction."""

    __slots__ = ("modulus", "lo", "hi", "runs", "low_pat", "high_pat")

    def __init__(self, modulus: int, lo: int, hi: int, runs,
                 low_pat, high_pat):
        if modulus < 1:
            raise DomainError("modulus must be positive")
        if lo > hi:
            raise DomainError("window bounds out of order")
        runs = _merged(runs)
        low_pat = frozenset(r % modulus for r in low_pat)
        high_pat = frozenset(r % modulus for r in high_pat)
        if runs and (runs[0][0] < lo or runs[-1][1] > hi):
            raise DomainError("window member outside the window")

        d = _joint_period(modulus, low_pat, high_pat)
        if d != modulus:
            low_pat = frozenset(r for r in low_pat if r < d)
            high_pat = frozenset(r for r in high_pat if r < d)
            modulus = d
        # trim the window from the top, then from the bottom, while its
        # membership agrees with the pattern outside; each step takes the
        # whole stretch (a run or a gap) where the pattern is full or empty
        while hi > lo:
            member = bool(runs) and runs[-1][1] == hi
            start = runs[-1][0] if member else (runs[-1][1] if runs else lo)
            cut = _agree_until(hi, start, modulus, high_pat, member)
            if cut == hi:
                break
            hi = cut
            if member:
                if cut == start:
                    runs.pop()
                else:
                    runs[-1] = (start, cut)
        first = 0
        while lo < hi:
            member = first < len(runs) and runs[first][0] == lo
            stop = runs[first][1] if member else \
                (runs[first][0] if first < len(runs) else hi)
            cut = _agree_until(lo, stop, modulus, low_pat, member)
            if cut == lo:
                break
            lo = cut
            if member:
                if cut == stop:
                    first += 1
                else:
                    runs[first] = (cut, stop)
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
        self.runs = tuple(runs[first:])
        self.low_pat = low_pat
        self.high_pat = high_pat

    # -- constructors -------------------------------------------------------

    @classmethod
    def ray(cls, n0: int) -> "MonomialLattice":
        """All exponents >= n0."""
        return cls(1, n0, n0, (), (), (0,))

    @classmethod
    def finite(cls, members) -> "MonomialLattice":
        members = sorted(set(members))
        if not members:
            return cls(1, 0, 0, (), (), ())
        return cls(1, members[0], members[-1] + 1,
                   ((n, n + 1) for n in members), (), ())

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
        i = bisect_right(self.runs, (n, inf))
        return i > 0 and n < self.runs[i - 1][1]

    def _window_members(self):
        return [n for start, stop in self.runs for n in range(start, stop)]

    def is_empty(self) -> bool:
        return (not self.runs and not self.low_pat and not self.high_pat)

    def is_finite(self) -> bool:
        return not self.low_pat and not self.high_pat

    def size(self) -> int:
        if not self.is_finite():
            raise DomainError("infinite lattice has no cardinality")
        return sum(stop - start for start, stop in self.runs)

    # -- set algebra ----------------------------------------------------------

    def _runs_over(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Runs of the members in [lo, hi), a range containing the window."""
        return (_pattern_runs(self.low_pat, self.modulus, lo, self.lo)
                + list(self.runs)
                + _pattern_runs(self.high_pat, self.modulus, self.hi, hi))

    def _combine(self, other: "MonomialLattice", keep) -> "MonomialLattice":
        """{n : keep(n in self, n in other)}, for keep(False, False) false."""
        if not isinstance(other, MonomialLattice):
            raise DomainError(f"cannot combine lattice with {other!r}")
        d = lcm(self.modulus, other.modulus)
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        low = [r for r in range(d)
               if keep(r % self.modulus in self.low_pat,
                       r % other.modulus in other.low_pat)]
        high = [r for r in range(d)
                if keep(r % self.modulus in self.high_pat,
                        r % other.modulus in other.high_pat)]
        runs = _merge_runs(self._runs_over(lo, hi), other._runs_over(lo, hi),
                           keep)
        return MonomialLattice(d, lo, hi, runs, low, high)

    def union(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, or_)

    def intersect(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, and_)

    def difference(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, lambda a, b: a and not b)

    def symmetric_difference(self, other: "MonomialLattice") -> "MonomialLattice":
        return self._combine(other, xor)

    def complement(self) -> "MonomialLattice":
        full = frozenset(range(self.modulus))
        ends = (self.lo, *(n for run in self.runs for n in run), self.hi)
        return MonomialLattice(
            self.modulus, self.lo, self.hi, zip(ends[::2], ends[1::2]),
            full - self.low_pat, full - self.high_pat)

    def shift(self, m: int) -> "MonomialLattice":
        d = self.modulus
        return MonomialLattice(
            d, self.lo + m, self.hi + m,
            ((start + m, stop + m) for start, stop in self.runs),
            frozenset((r + m) % d for r in self.low_pat),
            frozenset((r + m) % d for r in self.high_pat))

    def extract_progression(self, offset: int, step: int) -> "MonomialLattice":
        """The set {m : offset + m*step in self}; local coordinates of a block."""
        if step < 1:
            raise DomainError("step must be positive")
        d = self.modulus // gcd(step, self.modulus)
        low = [s for s in range(d) if (offset + s * step) % self.modulus in self.low_pat]
        high = [s for s in range(d) if (offset + s * step) % self.modulus in self.high_pat]
        # offset + m*step lies in [start, stop) exactly for m in
        # [ceil((start - offset) / step), ceil((stop - offset) / step)).
        # So the window [self.lo, self.hi) pulls back to [lo, hi): below lo
        # the point lies below self.lo and follows `low`, and from hi on it
        # lies at or above self.hi and follows `high`
        lo = -((offset - self.lo) // step)
        hi = -((offset - self.hi) // step)
        runs = [(-((offset - start) // step), -((offset - stop) // step))
                for start, stop in self.runs]
        return MonomialLattice(d, lo, hi, runs, low, high)

    def commensurable(self, other: "MonomialLattice") -> tuple[bool, int | None]:
        """Whether the symmetric difference is finite, with its cardinality."""
        diff = self.symmetric_difference(other)
        if diff.is_finite():
            return True, diff.size()
        return False, None

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MonomialLattice):
            return NotImplemented
        return (self.modulus == other.modulus and self.lo == other.lo
                and self.hi == other.hi and self.runs == other.runs
                and self.low_pat == other.low_pat
                and self.high_pat == other.high_pat)

    def __hash__(self):
        return hash((self.modulus, self.lo, self.hi, self.runs,
                     self.low_pat, self.high_pat))

    def __str__(self):
        if self.modulus == 1 and not self.low_pat and self.high_pat:
            body = f"ray:{self.hi}"
            if self.runs:
                body += ";add:" + ",".join(map(str, self._window_members()))
            return body
        if self.is_finite():
            return "finite:{" + ",".join(map(str, self._window_members())) + "}"
        low = ",".join(str(r) for r in sorted(self.low_pat))
        high = ",".join(str(r) for r in sorted(self.high_pat))
        win = ",".join(map(str, self._window_members()))
        return (f"ep:mod={self.modulus};low={{{low}}};split={self.lo}..{self.hi};"
                f"win={{{win}}};high={{{high}}}")

    def __repr__(self):
        return f"MonomialLattice({self})"


def _merged(runs) -> list[tuple[int, int]]:
    """Sorted, disjoint, maximal runs covering the union of the given ones."""
    out: list[tuple[int, int]] = []
    for start, stop in sorted(runs):
        if start >= stop:
            continue
        if out and start <= out[-1][1]:
            if stop > out[-1][1]:
                out[-1] = (out[-1][0], stop)
        else:
            out.append((start, stop))
    return out


def _pattern_runs(pat: frozenset, modulus: int, start: int,
                  stop: int) -> list[tuple[int, int]]:
    """Runs of {n in [start, stop) : n mod modulus in pat}."""
    if start >= stop or not pat:
        return []
    if len(pat) == modulus:
        return [(start, stop)]
    return [(n, n + 1) for n in range(start, stop) if n % modulus in pat]


def _merge_runs(xs: list, ys: list, keep) -> list[tuple[int, int]]:
    """Runs of {n : keep(n in xs, n in ys)} in one sweep over the endpoints."""
    cuts = sorted({n for run in xs for n in run} | {n for run in ys for n in run})
    out: list[tuple[int, int]] = []
    i = j = 0
    for start, stop in zip(cuts, cuts[1:]):
        while i < len(xs) and xs[i][1] <= start:
            i += 1
        while j < len(ys) and ys[j][1] <= start:
            j += 1
        if keep(i < len(xs) and xs[i][0] <= start,
                j < len(ys) and ys[j][0] <= start):
            if out and out[-1][1] == start:
                out[-1] = (out[-1][0], stop)
            else:
                out.append((start, stop))
    return out


def _agree_until(edge: int, far: int, modulus: int, pat: frozenset,
                 member: bool) -> int:
    """Walk from the window edge `edge` toward `far` while each n passed has
    (n mod modulus in pat) == member, and return where the walk stops.

    Windows are half-open, so a step up from n passes n and a step down
    from n passes n - 1.
    """
    if len(pat) == modulus or not pat:
        return far if (len(pat) == modulus) == member else edge
    step, back = (1, 0) if far > edge else (-1, 1)
    while edge != far and ((edge - back) % modulus in pat) == member:
        edge += step
    return edge


def _joint_period(modulus: int, low_pat: frozenset, high_pat: frozenset) -> int:
    """Smallest divisor of the modulus under which both patterns repeat.

    Period 1 means every pattern is empty or full.  Adding d mod the modulus
    is a bijection, so a pattern it maps into itself it maps onto itself,
    and -d needs no separate check.
    """
    if len(low_pat) in (0, modulus) and len(high_pat) in (0, modulus):
        return 1
    for d in range(2, modulus):
        if modulus % d == 0 and all(
                frozenset((r + d) % modulus for r in pat) == pat
                for pat in (low_pat, high_pat)):
            return d
    return modulus


# Largest |n| a lattice literal may name.  Set operations cost about the
# number of runs, but the commutator trace visits every diagonal index of a
# block that reaches the window's ends, so its cost grows with a literal's
# distance from 0.  One abstract_residue_trace against ray:1000, ray:-1000
# or ray:0;add:-1000;del:1000 takes 1.5-5 ms (2-vCPU VM, Python 3.11.7), so
# +-1000 keeps each command well under a second.
LITERAL_BOUND = 1000


def parse_lattice(text: str) -> MonomialLattice:
    """Parse "ray:<n0>;add:<i,...>;del:<i,...>" (add and del optional).

    Each clause may appear once, and every integer must lie in
    [-LITERAL_BOUND, LITERAL_BOUND].
    """
    clauses: dict[str, list[int]] = {}
    for chunk in text.strip().split(";"):
        if not chunk:
            continue
        head, _, body = chunk.partition(":")
        head = head.strip()
        if head not in ("ray", "add", "del"):
            raise ParseError(f"unknown lattice clause {head!r}")
        if head in clauses:
            raise ParseError(f"repeated lattice clause {head!r}")
        try:
            clauses[head] = ([int(body)] if head == "ray" else
                             [int(s) for s in body.split(",") if s.strip()])
        except ValueError as exc:
            raise ParseError(f"bad integer in lattice literal: {chunk!r}") from exc
    if "ray" not in clauses:
        raise ParseError("lattice literal needs a ray:<n0> clause")
    [n0] = clauses["ray"]
    added, removed = clauses.get("add", []), clauses.get("del", [])
    for n in (n0, *added, *removed):
        if abs(n) > LITERAL_BOUND:
            raise ParseError(f"lattice literal integer {n} is outside "
                             f"[-{LITERAL_BOUND}, {LITERAL_BOUND}]")
    try:
        return MonomialLattice.from_ray_spec(n0, added, removed)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


class BlockShiftOperator:
    """Shift each residue class mod D by its own amount; models block action.

    Used to encode one multiplication operator acting on several local
    factors at once: residues of the same block move together.  Modulus 1
    is multiplication by t^m on a single local factor.
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
            part = lattice.intersect(MonomialLattice.progression((r,), self.modulus))
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

