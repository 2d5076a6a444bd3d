"""Curve-level symbols on k(t) and their reciprocity verifiers.

The tame symbol at a place x is
(-1)^(deg(x) v_x(f) v_x(g)) * Norm[(f^v_x(g) / g^v_x(f))(x)], with the norm
taken from the residue field down to k.  Multiplying over all places gives 1
(the product over the joint support of f and g, since every other factor is
a norm of 1).  The same machinery yields the sum-of-valuations formula, the
residue theorem, and the Hilbert norm residue symbol over prime fields.

The Weil, Hilbert and residue-theorem verifiers hand a local symbol, its
places and its group to `report.place_law_report`, which combines the terms
and builds the report; only the sum of valuations, whose details carry no
count of trivial terms, keeps its own loop.
"""
from __future__ import annotations

from operator import add, mul

from .errors import DomainError, ZeroInputError
from .fields import FieldScalar, PrimeField
from .funcfield import Place, RationalFunction, support_union
from .report import VerificationReport, place_law_report
from .tate import abstract_residue_trace, classical_residue


def _tame_raw(f: RationalFunction, g: RationalFunction, x: Place):
    """Raw residue-field value of (-1)^(v_x(f) v_x(g)) (f^v_x(g) / g^v_x(f))(x)."""
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("tame symbol of the zero function")
    vf = f.valuation(x)
    vg = g.valuation(x)
    ring = x.residue_field()
    # f^vg / g^vf is a unit at x; rebuilding it from the unit parts of f and
    # g keeps the powers inside the residue field instead of blowing up
    # polynomial degrees.
    uf = ring.pow(f.unit_value(x), vg)
    ug = ring.pow(g.unit_value(x), vf)
    return ring.mul(ring.sign(vf * vg), ring.div(uf, ug))


def tame_symbol_elem(f: RationalFunction, g: RationalFunction,
                     x: Place) -> FieldScalar:
    """(-1)^(v_x(f) v_x(g)) (f^v_x(g) / g^v_x(f))(x) inside the residue field."""
    return x.residue_field().scalar(_tame_raw(f, g, x))


def tame_symbol(f: RationalFunction, g: RationalFunction, x: Place) -> FieldScalar:
    """The k-valued tame symbol: norm of the unit part with the degree sign."""
    return x.residue_field().norm(_tame_raw(f, g, x))


def milnor_symbol(f: RationalFunction, g: RationalFunction, x: Place) -> FieldScalar:
    """The rational-point form of the tame symbol; only for degree-1 places."""
    if x.degree != 1:
        raise DomainError("the rational-point symbol needs a degree-1 place")
    return x.residue_field().to_base_scalar(_tame_raw(f, g, x))


def hilbert_symbol(f: RationalFunction, g: RationalFunction, x: Place,
                   m: int) -> FieldScalar:
    """Norm residue symbol over a prime field F_q: the tame value to the (q-1)/m.

    The sign stays inside the norm; the result is an m-th root of unity
    inside F_q.
    """
    field = _require_prime_field(f)
    q = field.p
    if m < 1 or (q - 1) % m:
        raise DomainError(f"m = {m} does not divide q - 1 = {q - 1}")
    return x.residue_field().norm(_tame_raw(f, g, x)) ** ((q - 1) // m)


def _require_prime_field(f: RationalFunction) -> PrimeField:
    if not isinstance(f.field, PrimeField):
        raise DomainError("norm residue symbols need a finite ground field")
    return f.field


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
        val = tame_symbol(f, g, x)
        return val, {"v_f": f.valuation(x), "v_g": g.valuation(x),
                     "value": str(val)}

    return place_law_report("weil", f.field.descriptor,
                            {"f": str(f), "g": str(g)}, support_union(f, g),
                            local, f.field.one_scalar(), mul)


def hilbert_verify(f: RationalFunction, g: RationalFunction,
                   m: int) -> VerificationReport:
    """Check the product of Hilbert norm residue symbols equals 1."""
    field = _require_prime_field(f)

    def local(x):
        val = hilbert_symbol(f, g, x, m)
        return val, {"value": str(val)}

    return place_law_report("hilbert", field.descriptor,
                            {"f": str(f), "g": str(g), "m": str(m)},
                            support_union(f, g), local, field.one_scalar(),
                            mul)


def residue_theorem_places(f: RationalFunction,
                           g: RationalFunction) -> list[Place]:
    """Joint support of f, g, and f*g', plus infinity: residues vanish elsewhere."""
    h = f * g.derivative()
    funcs = [f, g] + ([h] if not h.is_zero() else [])
    return support_union(*funcs, include_infinity=True)


def residue_theorem_verify(f: RationalFunction, g: RationalFunction,
                           oracle: bool = False) -> VerificationReport:
    """Check sum over places of tr res_x(f dg) = 0, optionally cross-checked.

    With `oracle` set, every classical coefficient residue is recomputed as
    an abstract commutator trace and the two must agree.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("residue theorem needs nonzero functions")
    places = residue_theorem_places(f, g)

    def local(x):
        val = classical_residue(f, g, x)
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
