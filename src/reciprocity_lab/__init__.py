"""Exact symbols and reciprocity laws on rational function fields.

Everything is exact: scalars are rationals or prime-field classes, places
are monic irreducible polynomials or the point at infinity, and every
verification is an identity check, never a numerical comparison.
"""

from .errors import (DomainError, HypothesisViolation, MixedFieldError,
                     NotAUnitError, ParseError, PrecisionError,
                     ReciprocityError, UncertifiedFactorError, ZeroInputError)
from .fields import (Field, FieldScalar, PrimeField, RationalField,
                     field_from_descriptor)
from .poly import Polynomial
from .factor import Factor, Factorization, factor_polynomial
from .residue_field import ResidueField
from .funcfield import FractionField, Place, RationalFunction, support_union
from .localfield import LaurentSeries, expand
from .lattices import (BlockShiftOperator, MonomialLattice, lattice_index,
                       parse_lattice)
from .tate import (abstract_residue_trace, banded_commutator_trace,
                   classical_residue, differential_residue, minimal_window)
from .report import VerificationReport
from .symbols1d import (hilbert_symbol, hilbert_verify, residue_differential,
                        residue_theorem_verify, sum_of_valuations_verify,
                        tame_symbol, weil_verify)
from .xsymbol import (IndexSymbol, ResidueSymbol, TameSymbol, XSymbolFamily,
                      curve_index_family, curve_residue_family,
                      curve_tame_family, general_reciprocity_run,
                      independence_check, xsymbol_axiom_check)
from .surface import (curve_place, curve_tame, curve_valuation, hk4, horozov3,
                      lambda_shift, nu_symbol, nu_verify, parshin3, phi_z,
                      reciprocity_verify_2d, restrict_to_curve,
                      surface_generators, vbar)
from .segalwilson import (DEFAULT_ORDER, TruncatedPowerSeries, cocycle_c,
                          cocycle_on_lattice, exp_z2, sw_verify)
from .parsing import parse_place, parse_rational, parse_surface

__version__ = "0.1.0"

__all__ = [
    "BlockShiftOperator", "DEFAULT_ORDER", "DomainError", "Factor",
    "Factorization", "Field", "FieldScalar", "FractionField",
    "HypothesisViolation", "IndexSymbol", "LaurentSeries", "MixedFieldError",
    "MonomialLattice", "NotAUnitError", "ParseError",
    "Place", "Polynomial", "PrecisionError", "PrimeField", "RationalField",
    "RationalFunction", "ReciprocityError", "ResidueField",
    "ResidueSymbol", "TameSymbol",
    "TruncatedPowerSeries", "UncertifiedFactorError", "VerificationReport",
    "XSymbolFamily", "ZeroInputError", "abstract_residue_trace",
    "banded_commutator_trace", "classical_residue", "cocycle_c",
    "cocycle_on_lattice", "curve_index_family", "curve_place",
    "curve_residue_family", "curve_tame", "curve_tame_family",
    "curve_valuation", "differential_residue", "exp_z2", "expand",
    "factor_polynomial",
    "field_from_descriptor", "general_reciprocity_run", "hilbert_symbol",
    "hilbert_verify", "hk4", "horozov3", "independence_check",
    "lambda_shift", "lattice_index", "minimal_window", "nu_symbol",
    "nu_verify", "parse_lattice", "parse_place", "parse_rational",
    "parse_surface", "parshin3", "phi_z",
    "reciprocity_verify_2d", "residue_differential",
    "residue_theorem_verify", "restrict_to_curve", "sum_of_valuations_verify",
    "support_union", "surface_generators", "sw_verify", "tame_symbol",
    "vbar", "weil_verify", "xsymbol_axiom_check",
]
