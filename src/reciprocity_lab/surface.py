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

so no element of k(s)(t) is built, and no gcd over k(s) runs, to restrict.

Each call reads this data once per input, and once for z, in `_curve_data`,
which also defaults and checks z.  `_local_symbol` builds the intersection
pairing or the Horozov, Parshin or four-slot symbol from it as a function of
the place x: `nu_symbol`, `horozov3`, `parshin3` and `hk4` evaluate it at one
place, and `nu_verify` and `reciprocity_verify_2d` sum or multiply it over C
in `place_law_report`.

The three multiplicative symbols are, like the tame symbol, exponent
tables over `symbols1d.monomial_symbol`: the norm down to k of one signed
monomial (-1)^alpha * prod u_i^e_i in the unit values u_i of the
phi_z(f_i) at x, built by the residue field's `Field.monomial`; no tame
symbol is evaluated and nothing is built in k(s).  With c_i = v_C(f_i) and
b_i = v_x(phi_z(f_i)):

    tame     alpha = b0 b1
             e     = (b1, -b0)
    horozov  alpha = c1 b0 b2 + c0 c2 b1
             e     = (c1 b2, 0, -c1 b0)
    parshin  alpha = c0 c1 b2 + c0 c2 b1 + c1 c2 b0
                     + c0 b1 b2 + c1 b0 b2 + c2 b0 b1
             e     = (c1 b2 - c2 b1, c2 b0 - c0 b2, c0 b1 - c1 b0)
    hk4      w1 = c1 b0 - c0 b1,  w2 = c3 b2 - c2 b3
             alpha = sum_i b_i prod_{j != i} c_j
                     + w1 w2 + c0 c1 w2 + c2 c3 w1
             e     = (c1 w2, -c0 w2, -c3 w1, c2 w1)

The tame row is `symbols1d.tame_exponents`.  Read with the curve
valuations c in place of b, and in k(s) instead of k(x), it gives the
curve-level tame symbol

    curve_tame(f, g) = (-1)**(c0 c1) * phi_t(f)**c1 / phi_t(g)**c0.

Horozov's table multiplies out tame(phi0, phi2)^c1 * tame(phi1, -1)^(c0 c2).
The four-slot table multiplies out prod_i tame(phi_i, -1)^(prod_{j != i} c_j)
times tame(curve_tame(f1, f2), curve_tame(f3, f4)), so hk4 builds neither
curve-level tame symbol.  Every kind's places are the joint support of its
phi_z plus infinity: supp curve_tame(f, g) lies in
supp phi(f) + supp phi(g) + {inf}.
"""
from __future__ import annotations

from functools import partial
from math import prod
from operator import add, mul

from .errors import DomainError, MixedFieldError, NotAUnitError, ZeroInputError
from .fields import Field, FieldScalar, ensure_same_field
from .funcfield import FractionField, Place, RationalFunction, support_union
from .poly import Polynomial
from .report import VerificationReport, place_law_report
from .symbols1d import monomial_symbol, tame_exponents


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


def curve_place(f: RationalFunction) -> Place:
    """The place t = 0 of k(s)(t) cutting out the curve."""
    coeff = _coefficient_field(f)
    return Place(coeff, f.var, Polynomial.variable(coeff, f.var))


def _t_adic(f: RationalFunction) -> tuple[int, RationalFunction]:
    """(v_C(f), phi_t(f)) read off the lowest t-coefficients of num and den."""
    if f.is_zero():
        raise ZeroInputError("surface symbols are defined on nonzero functions")
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


def _parameter_phi(z: RationalFunction) -> RationalFunction:
    """phi_t(z) of a parameter z, which must vanish to first order along C."""
    vz, pz = _t_adic(z)
    if vz != 1:
        raise DomainError("the parameter must vanish to first order "
                          "along the curve")
    return pz


def _curve_data(functions, z: RationalFunction | None):
    """(v_C, phi_z) of each function, reading each t-adic expansion once.

    z defaults to t, where phi_z is phi_t; a given z is checked by
    `_parameter_phi`.  Every function must share the model of z (of the
    first function when z is absent).
    """
    data = [_t_adic(f) for f in functions]
    if z is not None:
        pz = _parameter_phi(z)
    for f in functions:
        _same_model(f, functions[0] if z is None else z)
    if z is None:
        return data
    return [(v, phi / pz ** v if v else phi) for v, phi in data]


def phi_z(f: RationalFunction,
          z: RationalFunction | None = None) -> RationalFunction:
    """Restriction of the curve-unit part f * z**(-v_C(f)), in k(s).

    Multiplicative in f; the value changes with z when v_C(f) != 0.
    """
    return _curve_data((f,), z)[0][1]


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
    part: the new parameter enters with exponent -v_C(f).  Both parameters
    must vanish to first order along C, as every z of this module must.
    """
    _same_model(z_new, z_old)
    return (_parameter_phi(z_old) / _parameter_phi(z_new)).valuation(x)


def nu_symbol(f: RationalFunction, g: RationalFunction, x: Place,
              z: RationalFunction | None = None) -> int:
    """The intersection pairing at x against the curve.

    The determinant of the 2 x 2 array of restricted and curve valuations;
    antisymmetric, and the z-dependence of the top row cancels.
    """
    return _local_symbol("nu", (f, g), z)[0](x)


def nu_verify(f: RationalFunction, g: RationalFunction) -> VerificationReport:
    """Degree-weighted sum of the intersection pairing over the curve is 0."""
    symbol, carriers = _local_symbol("nu", (f, g), None)

    def local(x):
        det = symbol(x)
        return x.degree * det, {"nu": det, "term": x.degree * det}

    return place_law_report("nu-sum", f.field.base.descriptor,
                            {"f": str(f), "g": str(g)},
                            support_union(*carriers, include_infinity=True),
                            local, 0, add)


def curve_tame(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """The curve-level tame symbol, a function on C rather than a scalar."""
    vc, phis = zip(*_curve_data((f, g), None))
    alpha, es = tame_exponents(vc)
    return f.field.monomial(alpha, list(zip(phis, es)))


def _nu_local(vc, phis, x: Place) -> int:
    return phis[0].valuation(x) * vc[1] - phis[1].valuation(x) * vc[0]


def _horozov_exponents(c, b):
    return (c[1] * b[0] * b[2] + c[0] * c[2] * b[1],
            (c[1] * b[2], 0, -c[1] * b[0]))


def _parshin_exponents(c, b):
    alpha = (c[0] * c[1] * b[2] + c[0] * c[2] * b[1] + c[1] * c[2] * b[0]
             + c[0] * b[1] * b[2] + c[1] * b[0] * b[2] + c[2] * b[0] * b[1])
    return alpha, (c[1] * b[2] - c[2] * b[1], c[2] * b[0] - c[0] * b[2],
                   c[0] * b[1] - c[1] * b[0])


def _hk4_exponents(c, b):
    w1 = c[1] * b[0] - c[0] * b[1]
    w2 = c[3] * b[2] - c[2] * b[3]
    alpha = (sum(b[i] * prod(c[:i] + c[i + 1:]) for i in range(4))
             + w1 * w2 + c[0] * c[1] * w2 + c[2] * c[3] * w1)
    return alpha, (c[1] * w2, -c[0] * w2, -c[3] * w1, c[2] * w1)


# each multiplicative kind: arity, and (v_C, v_x of the phi_z) -> (alpha, e)
_MONOMIAL_KINDS = {"horozov": (3, _horozov_exponents),
                   "parshin": (3, _parshin_exponents),
                   "hk4": (4, _hk4_exponents)}


def _local_symbol(kind: str, functions, z):
    """The local symbol of `kind` at the parameter z, as a function of x,
    and the functions whose supports on C carry its nontrivial values."""
    vc, phis = zip(*_curve_data(functions, z))
    if kind == "nu":
        return partial(_nu_local, vc, phis), phis
    exponents = partial(_MONOMIAL_KINDS[kind][1], vc)
    return lambda x: monomial_symbol(phis, exponents, x)[0], phis


def horozov3(f: RationalFunction, g: RationalFunction, h: RationalFunction,
             x: Place, z: RationalFunction | None = None) -> FieldScalar:
    """Three-slot local symbol at x; genuinely depends on the parameter z.

    Tame value of the restricted outer pair to the middle curve valuation,
    times the tame symbol of the middle restriction against -1 to the
    product of the outer curve valuations.
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

    Four tame symbols of the restrictions against -1, each to the product
    of the other three curve valuations, times the tame value at x of the
    two curve-level tame symbols of the pairs, multiplied out into one
    monomial: nothing is built in k(s).
    """
    return _local_symbol("hk4", (f1, f2, f3, f4), z)[0](x)


def reciprocity_verify_2d(kind: str, functions,
                          z: RationalFunction | None = None) -> VerificationReport:
    """Product of a local surface symbol over the places of the curve.

    kind selects the symbol; the place list is the joint support on C of
    the restricted unit parts plus infinity, which exhausts the nontrivial
    terms.
    """
    if kind not in _MONOMIAL_KINDS:
        raise DomainError(f"unknown surface symbol {kind!r}")
    functions = tuple(functions)
    arity = _MONOMIAL_KINDS[kind][0]
    if len(functions) != arity:
        raise DomainError(f"{kind} takes {arity} functions, "
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
