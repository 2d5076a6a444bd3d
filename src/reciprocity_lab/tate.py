"""Residues of f dg at places: classical coefficient and commutator trace.

The classical residue of f dg is `differential_residue` of h = f * g': it
reads the coefficient of the (-1) power off a local Laurent expansion of h
and traces it down to the ground field.  A caller that needs the residues
of one f dg at many places builds h once and passes it to every place.

The abstract residue realizes the same number as the trace of a commutator
[f1, g1] on the local Laurent model: f1 projects onto a monomial lattice
after multiplying by f, g1 multiplies by g.  Both operators are banded
matrices over the residue field, read entry by entry from the expansion
bands of f and g and the lattice, on an index block wide enough that every
entry of the commutator's diagonal is exact; the block support of that
diagonal is predicted set-theoretically from the lattice and asserted,
never assumed.  Truncating f, g, or both gives the same answer, which the
test suite exercises, and a test keeps the route that builds both matrices
as its reference.

`CommutatorTrace`, built once per (f, g, x) and kept in a small memo by
`abstract_residue_trace`, is the one recipe: against each lattice it
computes the predicted support once, keeps it in a small memo of its own,
and uses it both to bound the window and to check every diagonal entry.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, PrecisionError, ZeroInputError
from .fields import FieldScalar
from .funcfield import Place, RationalFunction
from .lattices import MonomialLattice
from .localfield import expand

_MARGIN = 3
# CommutatorTraces kept by abstract_residue_trace; its callers ask for one
# (f, g, x) a few times in a row (one per truncation, one per lattice)
_TRACE_MEMO = 16
# supports kept by each CommutatorTrace; a caller comparing truncations or
# windows asks one trace for the same lattice several times
_SUPPORT_MEMO = 16


def differential_residue(h: RationalFunction, x: Place) -> FieldScalar:
    """tr_{k(x)/k} of the local residue of h dt; an exact ground field value."""
    ring = x.residue_field()
    if h.is_zero():
        raw = ring.zero
    elif x.is_infinity:
        # t = 1/u turns h dt into -h u^-2 du
        raw = ring.neg(expand(h, x, 1).coefficient(1))
    else:
        raw = expand(h, x, -1).coefficient(-1)
    return ring.trace(raw)


def classical_residue(f: RationalFunction, g: RationalFunction,
                      x: Place) -> FieldScalar:
    """tr_{k(x)/k} of the local residue of f dg = f g' dt."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("residue of a zero differential input")
    return differential_residue(f * g.derivative(), x)


def _local_band(h: RationalFunction, x: Place, upto: int) -> dict[int, tuple]:
    """Nonzero local expansion coefficients of h through the exponent `upto`."""
    series = expand(h, x, upto)
    ring = series.ring
    return {n: series.coefficient(n)
            for n in range(series.vmin, series.prec)
            if not ring.is_zero(series.coefficient(n))}


def _support_bound(lattice: MonomialLattice, vf: int, vg: int) -> tuple[int, int]:
    """Exact two-sided bound on where the commutator diagonal can live.

    The diagonal at j involves [j in S] - [j+i in S] for band offsets i
    between v(f) and -v(g); it vanishes outside the symmetric differences
    S ^ (S + i) for |i| up to max(|v(f)|, |v(g)|).  For k > 0,
    S ^ (S - k) is D - k with D = S ^ (S + k), so each k needs one D.  An
    infinite symmetric difference means the trace does not stabilize for
    this lattice and these functions.
    """
    support = MonomialLattice.empty()
    for k in range(1, max(abs(vf), abs(vg)) + 1):
        diff = lattice.symmetric_difference(lattice.shift(k))
        if not diff.is_finite():
            raise DomainError(
                "lattice is not commensurable with its shifts; "
                "the commutator has no finite trace here")
        support = support.union(diff).union(diff.shift(-k))
    if support.is_empty():
        return 0, 0
    return support.runs[0][0], support.runs[-1][1] - 1


def _radius(lattice: MonomialLattice, support: tuple[int, int], vf: int,
            vg: int, spread_sum: int) -> int:
    """Block radius from valuations, data spread, support and lattice ends."""
    low, high = support
    return max(abs(vf) + abs(vg) + spread_sum + 2, abs(low) + 2, abs(high) + 2,
               abs(lattice.lo) + 2, abs(lattice.hi) + 2)


def _data_spread(h: RationalFunction) -> int:
    """Exponent range of the data defining h's local expansions."""
    return (h.num.degree or 0) + (h.den.degree or 0)


def minimal_window(f: RationalFunction, g: RationalFunction, x: Place) -> int:
    """Smallest admissible index block radius for the commutator trace on
    the standard lattice, the ray [0, oo)."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("zero input to the abstract residue")
    lattice = MonomialLattice.ray(0)
    vf = f.valuation(x)
    vg = g.valuation(x)
    return _radius(lattice, _support_bound(lattice, vf, vg), vf, vg,
                   _data_spread(f) + _data_spread(g))


class CommutatorTrace:
    """The commutator trace of one pair f, g at one place x, for any lattice.

    Holds what the lattice does not change: the residue field, v_x(f),
    v_x(g), the data spread and the expansion bands.  The diagonal pairs the
    n-th coefficient of f with the (-n)-th of g, which starts at v_x(g), so
    f is read through -v_x(g) and g through -v_x(f); both bands run _MARGIN
    further.
    """

    __slots__ = ("ring", "vf", "vg", "spread", "f_band", "g_band",
                 "_supports")

    def __init__(self, f: RationalFunction, g: RationalFunction, x: Place):
        if f.is_zero() or g.is_zero():
            raise ZeroInputError("zero input to the abstract residue")
        self.ring = x.residue_field()
        self.vf = f.valuation(x)
        self.vg = g.valuation(x)
        self.spread = _data_spread(f) + _data_spread(g)
        self.f_band = _local_band(f, x, -self.vg + _MARGIN)
        self.g_band = _local_band(g, x, -self.vf + _MARGIN)
        self._supports: dict = {}

    def trace(self, lattice: MonomialLattice, window: int | None = None,
              truncate: str = "f") -> FieldScalar:
        """Ground-field trace of [f1, g1]; the support bounds and checks it.

        The support is computed once per lattice while the trace's small
        memo keeps it; a lattice whose support is refused raises again.
        """
        support = self._supports.get(lattice)
        if support is None:
            support = _support_bound(lattice, self.vf, self.vg)
            if len(self._supports) >= _SUPPORT_MEMO:
                self._supports.clear()
            self._supports[lattice] = support
        bound = _radius(lattice, support, self.vf, self.vg, self.spread)
        if window is None:
            window = bound
        elif window < bound:
            raise DomainError(
                f"window {window} is below the admissible bound {bound}")
        raw = banded_commutator_trace(self.ring, self.f_band, self.g_band,
                                      *support, lattice, window, truncate)
        return self.ring.trace(raw)


def abstract_residue_trace(f: RationalFunction, g: RationalFunction, x: Place,
                           window: int | None = None,
                           lattice: MonomialLattice | None = None,
                           truncate: str = "f") -> FieldScalar:
    """Trace of [f1, g1] on the local model, down to the ground field.

    `truncate` picks which operators get the lattice projection: "f" gives
    f1 = P o M_f with g1 = M_g, "g" the symmetric choice, "both" projects
    both.  All choices agree and equal classical_residue(f, g, x).
    """
    lattice = MonomialLattice.ray(0) if lattice is None else lattice
    return _commutator_trace(f, g, x).trace(lattice, window, truncate)


@lru_cache(maxsize=_TRACE_MEMO)
def _commutator_trace(f: RationalFunction, g: RationalFunction,
                      x: Place) -> CommutatorTrace:
    """The CommutatorTrace of (f, g, x), built once while it stays cached.

    f, g and x compare by field, variable and coefficients, so equal keys
    have equal bands, and a function of another variable or field is
    another key.  An input the constructor refuses is not cached: it raises
    again on every call.
    """
    return CommutatorTrace(f, g, x)


def banded_commutator_trace(ring, f_band: dict[int, tuple],
                            g_band: dict[int, tuple], low: int, high: int,
                            lattice: MonomialLattice, window: int,
                            truncate: str = "f"):
    """Raw residue-field trace of [f1, g1] from precomputed expansion bands.

    The operators are read from their bands, never built: M_f[r, c] is
    f_(r-c) when row r is kept (r in the lattice when f is projected), and
    M_g likewise.  At j in the block, M_f[j, j-i] M_g[j-i, j] and
    M_g[j, j+i] M_f[j+i, j] are both p_i = f_i g_(-i), so the diagonal
    entry is the sum of p_i times the difference of the two presence tests.
    Each p_i is formed once, and the ring is touched only where that
    difference is nonzero.  Since |i| is at most the band reach, j - i and
    j + i stay in the index range the block extends to, so only the
    projection decides presence.

    [low, high] is the predicted support of the commutator diagonal; an
    entry that is nonzero outside it raises PrecisionError.
    """
    if truncate not in ("f", "g", "both"):
        raise DomainError(f"unknown truncation choice {truncate!r}")
    project_f = truncate in ("f", "both")
    project_g = truncate in ("g", "both")
    products = {i: ring.mul(coeff, g_band[-i])
                for i, coeff in f_band.items() if -i in g_band}

    acc = ring.zero
    for j in range(-window, window + 1):
        kept = j in lattice
        entry = ring.zero
        for i, product in products.items():
            left = ((kept or not project_f)
                    and (not project_g or j - i in lattice))
            right = ((kept or not project_g)
                     and (not project_f or j + i in lattice))
            if left != right:
                entry = (ring.add if left else ring.sub)(entry, product)
        # an entry no product touched is ring.zero itself
        if entry is ring.zero or ring.is_zero(entry):
            continue
        if not low <= j <= high:
            raise PrecisionError(
                f"commutator diagonal leaked outside its predicted support at {j}")
        acc = ring.add(acc, entry)
    return acc
