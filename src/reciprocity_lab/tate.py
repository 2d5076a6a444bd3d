"""Residues of f dg at places: classical coefficient and commutator trace.

The classical residue reads the coefficient of the (-1) power off a local
Laurent expansion of f * g' and traces it down to the ground field.

The abstract residue realizes the same number as the trace of a commutator
[f1, g1] on the local Laurent model: f1 projects onto a monomial lattice
after multiplying by f, g1 multiplies by g.  Both operators are materialized
as finite banded matrices over the residue field on an index block wide
enough that every matrix entry of the commutator's diagonal is exact; the
block support of that diagonal is predicted set-theoretically from the
lattice and asserted, never assumed.  Truncating f, g, or both gives the
same answer, which the test suite exercises.

`CommutatorTrace`, built once per (f, g, x), is the one recipe: against
each lattice it computes the predicted support once, which both bounds the
window and checks the materialized diagonal.
"""
from __future__ import annotations

from .errors import DomainError, PrecisionError, ZeroInputError
from .fields import FieldScalar
from .funcfield import Place, RationalFunction
from .lattices import MonomialLattice
from .localfield import expand

_MARGIN = 3


def classical_residue(f: RationalFunction, g: RationalFunction,
                      x: Place) -> FieldScalar:
    """tr_{k(x)/k} of the local residue of f dg; an exact ground field value."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("residue of a zero differential input")
    h = f * g.derivative()
    ring = x.residue_field()
    if h.is_zero():
        raw = ring.zero
    elif x.is_infinity:
        # t = 1/u turns f dg into -(f g')(u) u^-2 du
        raw = ring.neg(expand(h, x, 1).coefficient(1))
    else:
        raw = expand(h, x, -1).coefficient(-1)
    return ring.trace(raw)


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


def minimal_window(f: RationalFunction, g: RationalFunction, x: Place,
                   lattice: MonomialLattice | None = None) -> int:
    """Smallest admissible index block radius for the commutator trace."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("zero input to the abstract residue")
    lattice = MonomialLattice.ray(0) if lattice is None else lattice
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

    __slots__ = ("ring", "vf", "vg", "spread", "f_band", "g_band")

    def __init__(self, f: RationalFunction, g: RationalFunction, x: Place):
        if f.is_zero() or g.is_zero():
            raise ZeroInputError("zero input to the abstract residue")
        self.ring = x.residue_field()
        self.vf = f.valuation(x)
        self.vg = g.valuation(x)
        self.spread = _data_spread(f) + _data_spread(g)
        self.f_band = _local_band(f, x, -self.vg + _MARGIN)
        self.g_band = _local_band(g, x, -self.vf + _MARGIN)

    def trace(self, lattice: MonomialLattice, window: int | None = None,
              truncate: str = "f") -> FieldScalar:
        """Ground-field trace of [f1, g1]; the support bounds and checks it."""
        support = _support_bound(lattice, self.vf, self.vg)
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
    return CommutatorTrace(f, g, x).trace(lattice, window, truncate)


def banded_commutator_trace(ring, f_band: dict[int, tuple],
                            g_band: dict[int, tuple], low: int, high: int,
                            lattice: MonomialLattice, window: int,
                            truncate: str = "f"):
    """Raw residue-field trace of [f1, g1] from precomputed expansion bands.

    [low, high] is the predicted support of the commutator diagonal; an
    entry that is nonzero outside it raises PrecisionError.  Callers that
    evaluate one pair of functions against many lattices can reuse the
    bands; the matrices are still rebuilt per call.
    """
    if truncate not in ("f", "g", "both"):
        raise DomainError(f"unknown truncation choice {truncate!r}")
    reach = max([abs(n) for n in (*f_band, *g_band)] + [0])
    block = range(-window, window + 1)
    extended = set(range(-window - reach, window + reach + 1))

    # finite matrices over the extended index range, entries in k(x)
    project_f = truncate in ("f", "both")
    project_g = truncate in ("g", "both")
    fmat: dict[tuple[int, int], tuple] = {}
    gmat: dict[tuple[int, int], tuple] = {}
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
