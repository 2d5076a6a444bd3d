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


def commutator_bands(f: RationalFunction, g: RationalFunction, x: Place,
                     vf: int, vg: int) -> tuple[dict, dict]:
    """Expansion bands of f and g at x, as far as the commutator trace reads.

    vf and vg are the valuations at x.  The diagonal pairs the n-th
    coefficient of f with the (-n)-th of g, which starts at vg, so f is read
    through -vg and g through -vf; both bands run _MARGIN further.
    """
    return _local_band(f, x, -vg + _MARGIN), _local_band(g, x, -vf + _MARGIN)


def _support_bound(lattice: MonomialLattice, vf: int, vg: int) -> tuple[int, int]:
    """Exact two-sided bound on where the commutator diagonal can live.

    The diagonal at j involves [j in S] - [j+i in S] for band offsets i
    between v(f) and -v(g); it vanishes outside the symmetric differences
    S ^ (S shifted).  An infinite symmetric difference means the trace does
    not stabilize for this lattice and these functions.
    """
    support = MonomialLattice.empty()
    for i in range(min(vf, -vg, 0), max(vf, -vg, 0) + 1):
        for direction in (i, -i):
            diff = lattice.symmetric_difference(lattice.shift(direction))
            if not diff.is_finite():
                raise DomainError(
                    "lattice is not commensurable with its shifts; "
                    "the commutator has no finite trace here")
            support = support.union(diff)
    if support.is_empty():
        return 0, 0
    members = sorted(support.window)
    return members[0], members[-1]


def window_bound(lattice: MonomialLattice, vf: int, vg: int,
                 spread_sum: int) -> int:
    """Block radius from valuations, defining-data spread, and lattice shape."""
    formula = abs(vf) + abs(vg) + spread_sum + 2
    low, high = _support_bound(lattice, vf, vg)
    return max(formula, abs(low) + 2, abs(high) + 2,
               abs(lattice.lo) + 2, abs(lattice.hi) + 2)


def data_spread(h: RationalFunction) -> int:
    """Exponent range of the data defining h's local expansions."""
    return (h.num.degree or 0) + (h.den.degree or 0)


def minimal_window(f: RationalFunction, g: RationalFunction, x: Place,
                   lattice: MonomialLattice | None = None) -> int:
    """Smallest admissible index block radius for the commutator trace."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("zero input to the abstract residue")
    lattice = MonomialLattice.ray(0) if lattice is None else lattice
    return window_bound(lattice, f.valuation(x), g.valuation(x),
                        data_spread(f) + data_spread(g))


def abstract_residue_trace(f: RationalFunction, g: RationalFunction, x: Place,
                           window: int | None = None,
                           lattice: MonomialLattice | None = None,
                           truncate: str = "f") -> FieldScalar:
    """Trace of [f1, g1] on the local model, down to the ground field.

    `truncate` picks which operators get the lattice projection: "f" gives
    f1 = P o M_f with g1 = M_g, "g" the symmetric choice, "both" projects
    both.  All choices agree and equal classical_residue(f, g, x).
    """
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("zero input to the abstract residue")
    lattice = MonomialLattice.ray(0) if lattice is None else lattice
    vf = f.valuation(x)
    vg = g.valuation(x)
    bound = window_bound(lattice, vf, vg, data_spread(f) + data_spread(g))
    if window is None:
        window = bound
    elif window < bound:
        raise DomainError(f"window {window} is below the admissible bound {bound}")

    ring = x.residue_field()
    f_band, g_band = commutator_bands(f, g, x, vf, vg)
    raw = banded_commutator_trace(ring, f_band, g_band, vf, vg,
                                  lattice, window, truncate)
    return ring.trace(raw)


def banded_commutator_trace(ring, f_band: dict[int, tuple],
                            g_band: dict[int, tuple], vf: int, vg: int,
                            lattice: MonomialLattice, window: int,
                            truncate: str = "f"):
    """Raw residue-field trace of [f1, g1] from precomputed expansion bands.

    Callers that evaluate one pair of functions against many lattices can
    reuse the bands; the matrices are still rebuilt per call.
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

    low, high = _support_bound(lattice, vf, vg)
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
