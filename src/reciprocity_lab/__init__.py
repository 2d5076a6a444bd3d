"""Exact symbols and reciprocity laws on rational function fields.

Everything is exact: scalars are rationals or prime-field classes, places
are monic irreducible polynomials or the point at infinity, and every
verification is an identity check, never a numerical comparison.

Importing the package loads none of its modules.  Each name of `__all__`
is looked up in the module that defines it on first access (PEP 562
`__getattr__`) and kept here after that; so is each module named in
`_SOURCES`.  A command-line run therefore pays only for the modules its
command calls.
"""

from importlib import import_module

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

# the module that defines each name of __all__
_SOURCES = {
    "errors": ("DomainError", "HypothesisViolation", "MixedFieldError",
               "NotAUnitError", "ParseError", "PrecisionError",
               "ReciprocityError", "UncertifiedFactorError",
               "ZeroInputError"),
    "fields": ("Field", "FieldScalar", "PrimeField", "RationalField",
               "field_from_descriptor"),
    "poly": ("Polynomial",),
    "factor": ("Factor", "Factorization", "factor_polynomial"),
    "residue_field": ("ResidueField",),
    "funcfield": ("FractionField", "Place", "RationalFunction",
                  "support_union"),
    "localfield": ("LaurentSeries", "expand"),
    "lattices": ("BlockShiftOperator", "MonomialLattice", "lattice_index",
                 "parse_lattice"),
    "tate": ("abstract_residue_trace", "banded_commutator_trace",
             "classical_residue", "differential_residue", "minimal_window"),
    "report": ("VerificationReport",),
    "symbols1d": ("hilbert_symbol", "hilbert_verify", "residue_differential",
                  "residue_theorem_verify", "sum_of_valuations_verify",
                  "tame_symbol", "weil_verify"),
    "xsymbol": ("IndexSymbol", "ResidueSymbol", "TameSymbol", "XSymbolFamily",
                "curve_index_family", "curve_residue_family",
                "curve_tame_family", "general_reciprocity_run",
                "independence_check", "xsymbol_axiom_check"),
    "surface": ("curve_place", "curve_tame", "curve_valuation", "hk4",
                "horozov3", "lambda_shift", "nu_symbol", "nu_verify",
                "parshin3", "phi_z", "reciprocity_verify_2d",
                "restrict_to_curve", "surface_generators", "vbar"),
    "segalwilson": ("TruncatedPowerSeries", "cocycle_c", "cocycle_on_lattice",
                    "exp_z2", "sw_verify"),
    "parsing": ("DEFAULT_ORDER", "parse_place", "parse_rational",
                "parse_surface"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}


def __getattr__(name):
    """A name of __all__, or one of the modules above, on first access."""
    if name in _SOURCES:
        return import_module(f".{name}", __name__)
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
