"""Curve-level symbols on k(t) and their reciprocity verifiers.

Every multiplicative local symbol is an exponent table over one builder,
`monomial_symbol`: the table maps the valuations b of the functions at x to
(alpha, e), and the symbol is Norm[(-1)^alpha * prod u_i^e_i], with u_i the
unit values at x and the norm taken from the residue field down to k.  The
builder splits each function once (`RationalFunction.split`) and hands the
reduced cofactors to `Field.monomial` of the residue field, so it inverts
at most once per place.  The tame symbol is the table `tame_exponents`,

    alpha = v_x(f) v_x(g),    e = (v_x(g), -v_x(f)),

which `surface.curve_tame` reads too, in k(s); the Horozov, Parshin and
four-slot tables live in `surface`.  Multiplying the tame symbol over all
places gives 1 (the product over the joint support of f and g, since every
other factor is a norm of 1).  The same machinery yields the
sum-of-valuations formula, the residue theorem, and the Hilbert norm
residue symbol over prime fields, the tame symbol to the (q - 1)/m, whose
m `hilbert_verify` checks once before any place.

The Weil, Hilbert and residue-theorem verifiers hand a local symbol, its
places and its group to `report.place_law_report`, which combines the terms
and builds the report; only the sum of valuations, whose details carry no
count of trivial terms, keeps its own loop.  The residue theorem builds
f dg = h dt once (`residue_differential`) and reads each place's residue
off h.
"""
from __future__ import annotations

from operator import add, mul

from .errors import DomainError, ZeroInputError
from .fields import FieldScalar, PrimeField
from .funcfield import Place, RationalFunction, support_union
from .report import VerificationReport, place_law_report
from .tate import abstract_residue_trace, differential_residue


def monomial_symbol(functions, exponents, x: Place):
    """The multiplicative local symbol at x of an exponent table, and the
    valuations b of the functions at x.

    The table gives (alpha, e) = exponents(b), and the symbol is the norm
    down to k of (-1)**alpha * prod u_i**e_i, u_i the unit value of the
    i-th function at x.  Each function is split once; the reductions of
    its u and w enter `Field.monomial` of k(x) with exponents e_i and -e_i,
    so the powers stay in k(x) instead of blowing up polynomial degrees,
    and the symbol inverts at most once.  A constant w is 1 (den is monic)
    and is left out, so a symbol whose negative exponents all fall on such
    w inverts nothing.
    """
    splits = [f.split(x) for f in functions]
    b = tuple(v for v, _, _ in splits)
    alpha, es = exponents(b)
    ring = x.residue_field()
    factors = []
    for (_, u, w), e in zip(splits, es):
        if e:
            factors.append((ring.from_polynomial(u), e))
            if w.degree:
                factors.append((ring.from_polynomial(w), -e))
    return ring.norm(ring.monomial(alpha, factors)), b


def tame_exponents(v):
    """The tame symbol's table: (-1)**(v_f v_g) * u_f**v_g / u_g**v_f."""
    return v[0] * v[1], (v[1], -v[0])


def _tame(f: RationalFunction, g: RationalFunction, x: Place):
    """(tame symbol at x, (v_x(f), v_x(g)))."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("tame symbol of the zero function")
    return monomial_symbol((f, g), tame_exponents, x)


def tame_symbol(f: RationalFunction, g: RationalFunction, x: Place) -> FieldScalar:
    """The k-valued tame symbol: norm of the unit part with the degree sign."""
    return _tame(f, g, x)[0]


def milnor_symbol(f: RationalFunction, g: RationalFunction, x: Place) -> FieldScalar:
    """The rational-point form of the tame symbol; only for degree-1 places."""
    if x.degree != 1:
        raise DomainError("the rational-point symbol needs a degree-1 place")
    return tame_symbol(f, g, x)


def _hilbert_power(f: RationalFunction, m: int) -> int:
    """(q - 1) / m, after checking that f lies over a prime field F_q with
    m | q - 1."""
    if not isinstance(f.field, PrimeField):
        raise DomainError("norm residue symbols need a finite ground field")
    q = f.field.p
    if m < 1 or (q - 1) % m:
        raise DomainError(f"m = {m} does not divide q - 1 = {q - 1}")
    return (q - 1) // m


def hilbert_symbol(f: RationalFunction, g: RationalFunction, x: Place,
                   m: int) -> FieldScalar:
    """Norm residue symbol over a prime field F_q: the tame value to the (q-1)/m.

    The sign stays inside the norm; the result is an m-th root of unity
    inside F_q.
    """
    return tame_symbol(f, g, x) ** _hilbert_power(f, m)


def sum_of_valuations_verify(f: RationalFunction) -> VerificationReport:
    """Check sum over places of deg(x) * v_x(f) = 0."""
    if f.is_zero():
        raise ZeroInputError("the zero function has no divisor")
    terms = []
    total = 0
    for place, v in f.support():
        term = {"place": str(place), "deg": place.degree, "v": v,
                "value": place.degree * v}
        total += place.degree * v
        terms.append(term)
    return VerificationReport(
        law="sum-of-valuations",
        field_descriptor=f.field.descriptor,
        inputs={"f": str(f)},
        terms=terms,
        value=str(total),
        expected="0",
        ok=total == 0,
        details={"places": len(terms)},
    )


def weil_verify(f: RationalFunction, g: RationalFunction) -> VerificationReport:
    """Check the product of tame symbols over the joint support equals 1."""
    def local(x):
        val, (vf, vg) = _tame(f, g, x)
        return val, {"v_f": vf, "v_g": vg, "value": str(val)}

    return place_law_report("weil", f.field.descriptor,
                            {"f": str(f), "g": str(g)}, support_union(f, g),
                            local, f.field.one_scalar(), mul)


def hilbert_verify(f: RationalFunction, g: RationalFunction,
                   m: int) -> VerificationReport:
    """Check the product of Hilbert norm residue symbols equals 1."""
    power = _hilbert_power(f, m)

    def local(x):
        val = tame_symbol(f, g, x) ** power
        return val, {"value": str(val)}

    return place_law_report("hilbert", f.field.descriptor,
                            {"f": str(f), "g": str(g), "m": str(m)},
                            support_union(f, g), local, f.field.one_scalar(),
                            mul)


def residue_differential(
        f: RationalFunction,
        g: RationalFunction) -> tuple[RationalFunction, list[Place]]:
    """f dg as h dt with h = f*g', and the places where its residue can be
    nonzero: the joint support of f, g and h, plus infinity."""
    h = f * g.derivative()
    funcs = [f, g] + ([h] if not h.is_zero() else [])
    return h, support_union(*funcs, include_infinity=True)


def residue_theorem_verify(f: RationalFunction, g: RationalFunction,
                           oracle: bool = False) -> VerificationReport:
    """Check sum over places of tr res_x(f dg) = 0, optionally cross-checked.

    With `oracle` set, every classical coefficient residue is recomputed as
    an abstract commutator trace and the two must agree.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("residue theorem needs nonzero functions")
    h, places = residue_differential(f, g)

    def local(x):
        val = differential_residue(h, x)
        term = {"value": str(val)}
        if oracle:
            other = abstract_residue_trace(f, g, x)
            if other != val:
                raise DomainError(
                    f"classical and commutator residues disagree at {x}")
            term["oracle"] = str(other)
        return val, term

    # a disagreement raises, so every place that ran agreed
    extra = {"oracle_agreements": len(places)} if oracle else {}
    return place_law_report("residue-theorem", f.field.descriptor,
                            {"f": str(f), "g": str(g)}, places, local,
                            f.field.zero_scalar(), add, **extra)
