"""Symbols along a fixed curve on a rational surface.

The surface model is the (s, t) plane: the function field is k(s)(t), the
curve C is the divisor t = 0, and the function field of C is k(s).  A
surface function is an ordinary rational function in t whose coefficient
field is the fraction field k(s), so places of C are places of k(s) and
every curve-level symbol lands in the ground field k through the
one-variable machinery.

The parameter z is any surface function vanishing to first order along C;
it defaults to t.  The three-slot symbol of Horozov depends on z, the
others do not, and the z-free claims are exercised against rescaled
parameters in the test suite.

Everything the symbols need along C is read off the canonical form
f = num/den, with num = a_i t^i + (higher) and den = b_j t^j + (higher),
a_i and b_j nonzero in k(s):

    v_C(f)          = i - j
    phi_t(f)        = a_i / b_j
    phi_z(f)        = phi_t(f) * phi_t(z)**(-v_C(f))
    curve_tame(f,g) = (-1)**(v_C(f) v_C(g)) * phi_t(f)**v_C(g) / phi_t(g)**v_C(f)

so no element of k(s)(t) is built, and no gcd over k(s) runs, to restrict.

`_local_symbol` builds the Horozov, Parshin or four-slot symbol as a function
of the place x: `horozov3`, `parshin3` and `hk4` evaluate it at one place,
and `reciprocity_verify_2d` multiplies it over C in `place_law_report`.
"""
from __future__ import annotations

from functools import partial
from operator import add, mul

from .errors import DomainError, MixedFieldError, NotAUnitError, ZeroInputError
from .fields import Field, FieldScalar, ensure_same_field
from .funcfield import FractionField, Place, RationalFunction, support_union
from .poly import Polynomial
from .report import VerificationReport, place_law_report
from .symbols1d import tame_symbol


def surface_generators(base: Field, s_var: str = "s",
                       t_var: str = "t") -> tuple[RationalFunction, RationalFunction]:
    """The pair (s, t) as elements of k(s)(t)."""
    coeff = FractionField(base, s_var)
    s_raw = RationalFunction.variable(base, s_var)
    return (RationalFunction.constant(coeff, s_raw, t_var),
            RationalFunction.variable(coeff, t_var))


def _coefficient_field(f: RationalFunction) -> FractionField:
    if not isinstance(f.field, FractionField):
        raise DomainError("surface symbols need k(s) coefficients; "
                          "build inputs from surface_generators")
    return f.field


def _nonzero(*functions: RationalFunction) -> None:
    for f in functions:
        if f.is_zero():
            raise ZeroInputError("surface symbols are defined on nonzero functions")


def curve_place(f: RationalFunction) -> Place:
    """The place t = 0 of k(s)(t) cutting out the curve."""
    coeff = _coefficient_field(f)
    return Place.finite(Polynomial.variable(coeff, f.var), check=False)


def _t_adic(f: RationalFunction) -> tuple[int, RationalFunction]:
    """(v_C(f), phi_t(f)) read off the lowest t-coefficients of num and den."""
    _nonzero(f)
    _coefficient_field(f)
    i = f.num.lowest_index()
    j = f.den.lowest_index()
    return i - j, f.num.coeffs[i] / f.den.coeffs[j]


def _same_model(f: RationalFunction, g: RationalFunction) -> None:
    ensure_same_field(f.field, g.field)
    if f.var != g.var:
        raise MixedFieldError(f"mixed variables {f.var}, {g.var}")


def curve_valuation(f: RationalFunction) -> int:
    """Order of vanishing of f along the curve."""
    return _t_adic(f)[0]


def restrict_to_curve(f: RationalFunction) -> RationalFunction:
    """The class of a curve-unit f in k(s); f must have curve valuation 0."""
    v, phi = _t_adic(f)
    if v:
        raise NotAUnitError(f"function has a zero or pole at {f.var}")
    return phi


def _parameter(f: RationalFunction, z: RationalFunction | None) -> RationalFunction:
    if z is None:
        return RationalFunction.variable(f.field, f.var)
    if curve_valuation(z) != 1:
        raise DomainError("the parameter must vanish to first order "
                          "along the curve")
    _same_model(f, z)
    return z


def phi_z(f: RationalFunction,
          z: RationalFunction | None = None) -> RationalFunction:
    """Restriction of the curve-unit part f * z**(-v_C(f)), in k(s).

    Multiplicative in f; the value changes with z when v_C(f) != 0.
    """
    _nonzero(f)
    z = _parameter(f, z)
    v, phi = _t_adic(f)
    return phi / _t_adic(z)[1] ** v if v else phi


def vbar(f: RationalFunction, x: Place,
         z: RationalFunction | None = None) -> int:
    """Valuation at x of the restricted unit part; shifts by v_C(f) times
    the unit-rescaling level when z changes."""
    return phi_z(f, z).valuation(x)


def lambda_shift(z_new: RationalFunction, z_old: RationalFunction,
                 x: Place) -> int:
    """Correction level between two parameters: v_x of (z_old/z_new) on C.

    Substituting parameters shifts the reduced valuation by exactly this
    level times the curve valuation:

        vbar(f, x, z_new) = vbar(f, x, z_old) + lambda_shift(z_new, z_old, x) * v_C(f)

    The inverted ratio is forced by the definition of the restricted unit
    part: the new parameter enters with exponent -v_C(f).
    """
    _same_model(z_new, z_old)
    v_old, phi_old = _t_adic(z_old)
    v_new, phi_new = _t_adic(z_new)
    if v_old != v_new:
        raise NotAUnitError(f"function has a zero or pole at {z_old.var}")
    return (phi_old / phi_new).valuation(x)


def nu_symbol(f: RationalFunction, g: RationalFunction, x: Place,
              z: RationalFunction | None = None) -> int:
    """The intersection pairing at x against the curve.

    The determinant of the 2 x 2 array of restricted and curve valuations;
    antisymmetric, and the z-dependence of the top row cancels.
    """
    _nonzero(f, g)
    z = _parameter(f, z)
    return (vbar(f, x, z) * curve_valuation(g)
            - vbar(g, x, z) * curve_valuation(f))


def nu_verify(f: RationalFunction, g: RationalFunction) -> VerificationReport:
    """Degree-weighted sum of the intersection pairing over the curve is 0."""
    _nonzero(f, g)
    base = _coefficient_field(f).base
    vcf = curve_valuation(f)
    vcg = curve_valuation(g)
    pf = phi_z(f)
    pg = phi_z(g)

    def local(x):
        det = pf.valuation(x) * vcg - pg.valuation(x) * vcf
        return x.degree * det, {"nu": det, "term": x.degree * det}

    return place_law_report("nu-sum", base.descriptor,
                            {"f": str(f), "g": str(g)},
                            support_union(pf, pg, include_infinity=True),
                            local, 0, add)


def curve_tame(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """The curve-level tame symbol, a function on C rather than a scalar."""
    _nonzero(f, g)
    vf, uf = _t_adic(f)
    vg, ug = _t_adic(g)
    _same_model(f, g)
    unit = uf ** vg / ug ** vf
    return -unit if (vf * vg) % 2 else unit


def _horozov_local(vc, phis, minus_one, x: Place) -> FieldScalar:
    first = tame_symbol(phis[0], phis[2], x) ** vc[1]
    second = tame_symbol(phis[1], minus_one, x) ** (vc[0] * vc[2])
    return first * second


def _parshin_local(vc, phis, x: Place) -> FieldScalar:
    vb = tuple(p.valuation(x) for p in phis)
    a = vc[1] * vb[2] - vc[2] * vb[1]
    b = vc[0] * vb[2] - vc[2] * vb[0]
    c = vc[0] * vb[1] - vc[1] * vb[0]
    alpha = (vc[0] * vc[1] * vb[2] + vc[0] * vc[2] * vb[1]
             + vc[1] * vc[2] * vb[0] + vc[0] * vb[1] * vb[2]
             + vc[1] * vb[0] * vb[2] + vc[2] * vb[0] * vb[1])
    # the monomial has curve valuation 0 and x-valuation 0 identically,
    # so restriction and evaluation never leave the unit locus
    unit = (phis[0] ** a * phis[1] ** (-b) * phis[2] ** c).evaluate(x)
    ring = x.residue_field()
    return ring.norm(ring.mul(ring.sign(alpha), unit.raw))


def _hk4_local(vc, phis, tames, minus_one, base, x: Place) -> FieldScalar:
    value = base.one_scalar()
    for i, p in enumerate(phis):
        exponent = 1
        for j in range(4):
            if j != i:
                exponent *= vc[j]
        value = value * tame_symbol(p, minus_one, x) ** exponent
    return value * tame_symbol(*tames, x)


def _local_symbol(kind: str, functions, z):
    """The local symbol of `kind` at the parameter z, as a function of x,
    and the functions whose supports on C carry its nontrivial values."""
    _nonzero(*functions)
    base = _coefficient_field(functions[0]).base
    z = _parameter(functions[0], z)
    vc = tuple(curve_valuation(w) for w in functions)
    phis = tuple(phi_z(w, z) for w in functions)
    if kind == "parshin":
        return partial(_parshin_local, vc, phis), phis
    minus_one = RationalFunction.constant(base, -1, functions[0].field.var)
    if kind == "horozov":
        return partial(_horozov_local, vc, phis, minus_one), phis
    tames = (curve_tame(*functions[:2]), curve_tame(*functions[2:]))
    return (partial(_hk4_local, vc, phis, tames, minus_one, base),
            phis + tames)


def horozov3(f: RationalFunction, g: RationalFunction, h: RationalFunction,
             x: Place, z: RationalFunction | None = None) -> FieldScalar:
    """Three-slot local symbol at x; genuinely depends on the parameter z.

    Tame value of the restricted outer pair to the middle curve valuation,
    times a sign-type tame factor of the middle restriction.
    """
    return _local_symbol("horozov", (f, g, h), z)[0](x)


def parshin3(f: RationalFunction, g: RationalFunction, h: RationalFunction,
             x: Place, z: RationalFunction | None = None) -> FieldScalar:
    """Antisymmetric three-slot local symbol at a closed point x of C.

    The signed value of the monomial with the six 2 x 2 determinant
    exponents lies in k(x)^*; like the tame symbol, the k-valued symbol is
    its norm down to k.  The parameter z drops out, and the value equals
    the cyclic product of three-slot symbols (f,g,h)(h,f,g)(g,h,f) at the
    same z, at places of any degree.
    """
    return _local_symbol("parshin", (f, g, h), z)[0](x)


def hk4(f1: RationalFunction, f2: RationalFunction, f3: RationalFunction,
        f4: RationalFunction, x: Place,
        z: RationalFunction | None = None) -> FieldScalar:
    """Four-slot local symbol at x; independent of the parameter z.

    Four sign-type tame factors with triple-product curve exponents, times
    the tame value at x of the two curve-level tame symbols of the pairs.
    """
    return _local_symbol("hk4", (f1, f2, f3, f4), z)[0](x)


_ARITY = {"horozov": 3, "parshin": 3, "hk4": 4}


def reciprocity_verify_2d(kind: str, functions,
                          z: RationalFunction | None = None) -> VerificationReport:
    """Product of a local surface symbol over the places of the curve.

    kind selects the symbol; the place list is the joint support on C of
    the restricted unit parts (plus, for the four-slot symbol, the two
    curve-level tame symbols), which exhausts the nontrivial terms.
    """
    if kind not in _ARITY:
        raise DomainError(f"unknown surface symbol {kind!r}")
    functions = tuple(functions)
    if len(functions) != _ARITY[kind]:
        raise DomainError(f"{kind} takes {_ARITY[kind]} functions, "
                          f"got {len(functions)}")
    symbol, carriers = _local_symbol(kind, functions, z)

    def local(x):
        value = symbol(x)
        return value, {"value": str(value)}

    base = functions[0].field.base
    return place_law_report(
        f"{kind}-product", base.descriptor,
        {f"f{i + 1}": str(w) for i, w in enumerate(functions)},
        support_union(*carriers, include_infinity=True), local,
        base.one_scalar(), mul)
