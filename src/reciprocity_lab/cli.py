"""Command-line front end.

One subcommand per symbol.  Commands that take --place evaluate the local
symbol there; verification commands (weil, sumval, restheorem, and the
--verify form of the surface and series commands) run the product or sum
over every place of the joint support and exit 0 exactly when the law
holds.  Exit codes: 0 verified or computed, 1 a verification failed, 2
input could not be parsed, 3 the inputs are outside a symbol's domain, 4 a
reciprocity hypothesis was violated.

Reports print as aligned text, or as canonical JSON with --json: keys are
sorted and separators fixed, so identical inputs are byte-identical.
Factorization into monic irreducibles is unique and reported in canonical
order, so no run depends on the splitting randomness.
"""
from __future__ import annotations

import argparse
import sys

from .errors import (DomainError, HypothesisViolation, MixedFieldError,
                     NotAUnitError, ParseError, PrecisionError,
                     UncertifiedFactorError, ZeroInputError)
from .fields import Field
from .lattices import MonomialOperator, lattice_index, parse_lattice
from .parsing import parse_field, parse_place, parse_rational, parse_surface
from .report import VerificationReport
from .segalwilson import DEFAULT_ORDER, ORDER_BOUND, cocycle_c, sw_verify
from .surface import (hk4, horozov3, nu_symbol, nu_verify, parshin3,
                      reciprocity_verify_2d)
from .symbols1d import (hilbert_symbol, hilbert_verify, residue_theorem_verify,
                        sum_of_valuations_verify, tame_symbol, weil_verify)
from .tate import classical_residue
from .xsymbol import (curve_index_family, curve_residue_family,
                      curve_tame_family, general_reciprocity_run,
                      xsymbol_axiom_check)

_DOMAIN_ERRORS = (DomainError, ZeroInputError, NotAUnitError,
                  UncertifiedFactorError, MixedFieldError, PrecisionError)


def _value_report(law: str, field: Field, inputs: dict, place: str,
                  value) -> VerificationReport:
    return VerificationReport(
        law=law, field_descriptor=field.descriptor, inputs=inputs,
        terms=[{"place": place, "value": str(value)}],
        value=str(value), expected=None, ok=True, details={})


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="Q",
                        help='ground field: "Q" or "Fp:<prime>"')
    common.add_argument("--json", action="store_true",
                        help="print the report as canonical JSON")

    parser = argparse.ArgumentParser(
        prog="reciprocity-lab",
        description="exact symbol computations and reciprocity checks "
                    "on rational function fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, **flags):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, (required, extra) in flags.items():
            p.add_argument(f"--{flag}", required=required, **extra)
        return p

    expr = {"type": str}
    cmd("tame", "tame symbol of (f, g) at a place",
        f=(True, expr), g=(True, expr), place=(True, expr))
    cmd("weil", "product of tame symbols over the joint support",
        f=(True, expr), g=(True, expr))
    cmd("sumval", "degree-weighted sum of valuations of f",
        f=(True, expr))
    cmd("residue", "residue of f dg at a place, traced to the ground field",
        f=(True, expr), g=(True, expr), place=(True, expr))
    p = cmd("restheorem", "sum of residues of f dg over all places",
            f=(True, expr), g=(True, expr))
    p.add_argument("--oracle", action="store_true",
                   help="cross-check each term against the commutator trace")
    cmd("hilbert", "norm residue symbol of order m (value with --place, "
        "reciprocity product without)",
        f=(True, expr), g=(True, expr), m=(True, {"type": int}),
        place=(False, expr))

    def surface_cmd(name, help_text, names):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag in names:
            p.add_argument(f"--{flag}", required=True, type=str)
        p.add_argument("--place", type=str,
                       help="a place of the curve, in the variable s")
        p.add_argument("--verify", action="store_true",
                       help="run the product (or sum) over the curve")
        p.add_argument("--z", type=str, default=None,
                       help="local parameter along the curve (default t)")
        return p

    surface_cmd("nu", "intersection pairing against the curve t = 0",
                ("f", "g"))
    surface_cmd("horozov", "three-slot local symbol on the surface",
                ("f", "g", "h"))
    surface_cmd("parshin", "antisymmetric three-slot symbol on the surface",
                ("f", "g", "h"))
    surface_cmd("hk4", "four-slot local symbol on the surface",
                ("f", "g", "h", "w"))

    p = cmd("sw", "exponential residue pairing (value with --place, "
            "product without)",
            f=(True, expr), g=(True, expr), place=(False, expr))
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help=f"truncation order in z (default {DEFAULT_ORDER}, "
                        f"from 0 to {ORDER_BOUND})")

    p = cmd("index", "lattice index of multiplication by f at a place",
            f=(True, expr), place=(False, expr))
    p.add_argument("--lattice", type=str, default="ray:0",
                   help='lattice literal "ray:<n0>;add:..;del:.." '
                        '(default ray:0)')
    p.add_argument("--verify", action="store_true",
                   help="run the full sum-of-valuations family instead")

    p = sub.add_parser("xsymbol", parents=[common],
                       help="symbol maps on monomial lattices")
    p.add_argument("--instance", required=True,
                   choices=("index", "residue", "tame"))
    p.add_argument("--f", required=True, type=str)
    p.add_argument("--g", type=str, default=None,
                   help="second function (required except for index)")
    p.add_argument("--check", required=True,
                   choices=("axioms", "reciprocity"))
    p.add_argument("--a", type=str, default=None,
                   help="first lattice literal for --check axioms")
    p.add_argument("--b", type=str, default=None,
                   help="second lattice literal for --check axioms")
    return parser


def _surface_inputs(args, names):
    field = parse_field(args.field)
    functions = [parse_surface(getattr(args, name), field) for name in names]
    z = parse_surface(args.z, field) if args.z else None
    place = parse_place(args.place, field, "s") if args.place else None
    return field, functions, z, place


def _xsymbol_family(args, field):
    f = parse_rational(args.f, field)
    if args.instance == "index":
        return curve_index_family(f)
    if args.g is None:
        raise ParseError(f"the {args.instance} instance needs --g")
    g = parse_rational(args.g, field)
    if args.instance == "residue":
        return curve_residue_family(f, g)
    return curve_tame_family(f, g)


def _dispatch(args) -> VerificationReport:
    command = args.command

    if command in ("tame", "weil", "sumval", "residue", "restheorem",
                   "hilbert", "sw", "index", "xsymbol"):
        field = parse_field(args.field)

    if command == "tame":
        f = parse_rational(args.f, field)
        g = parse_rational(args.g, field)
        x = parse_place(args.place, field)
        return _value_report("tame-symbol", field,
                             {"f": str(f), "g": str(g)}, str(x),
                             tame_symbol(f, g, x))
    if command == "weil":
        return weil_verify(parse_rational(args.f, field),
                           parse_rational(args.g, field))
    if command == "sumval":
        return sum_of_valuations_verify(parse_rational(args.f, field))
    if command == "residue":
        f = parse_rational(args.f, field)
        g = parse_rational(args.g, field)
        x = parse_place(args.place, field)
        return _value_report("residue", field,
                             {"f": str(f), "g": str(g)}, str(x),
                             classical_residue(f, g, x))
    if command == "restheorem":
        return residue_theorem_verify(parse_rational(args.f, field),
                                      parse_rational(args.g, field),
                                      oracle=args.oracle)
    if command == "hilbert":
        f = parse_rational(args.f, field)
        g = parse_rational(args.g, field)
        if args.place:
            x = parse_place(args.place, field)
            return _value_report("hilbert-symbol", field,
                                 {"f": str(f), "g": str(g), "m": str(args.m)},
                                 str(x), hilbert_symbol(f, g, x, args.m))
        return hilbert_verify(f, g, args.m)

    if command == "nu":
        field, (f, g), z, place = _surface_inputs(args, ("f", "g"))
        if args.verify or place is None:
            return nu_verify(f, g)
        return _value_report("nu-symbol", field, {"f": str(f), "g": str(g)},
                             str(place), nu_symbol(f, g, place, z))
    if command in ("horozov", "parshin", "hk4"):
        names = ("f", "g", "h", "w") if command == "hk4" else ("f", "g", "h")
        field, functions, z, place = _surface_inputs(args, names)
        if args.verify or place is None:
            return reciprocity_verify_2d(command, functions, z)
        local = {"horozov": horozov3, "parshin": parshin3, "hk4": hk4}[command]
        value = local(*functions, place, z=z)
        return _value_report(f"{command}-symbol", field,
                             {name: str(fn) for name, fn
                              in zip(names, functions)},
                             str(place), value)

    if command == "sw":
        if not 0 <= args.order <= ORDER_BOUND:
            raise ParseError(f"--order {args.order} is outside [0, {ORDER_BOUND}]")
        f = parse_rational(args.f, field)
        g = parse_rational(args.g, field)
        if args.place:
            x = parse_place(args.place, field)
            return _value_report("segal-wilson", field,
                                 {"f": str(f), "g": str(g),
                                  "order": str(args.order)},
                                 str(x), cocycle_c(f, g, x, args.order))
        return sw_verify(f, g, args.order)

    if command == "index":
        f = parse_rational(args.f, field)
        if args.verify:
            return general_reciprocity_run(curve_index_family(f))
        if args.place is None:
            raise ParseError("index needs --place (or --verify)")
        x = parse_place(args.place, field)
        lattice = parse_lattice(args.lattice)
        op = MonomialOperator(field, field.one, f.valuation(x))
        value = x.degree * lattice_index(op, lattice)
        return _value_report("index", field,
                             {"f": str(f), "lattice": str(lattice)},
                             str(x), value)

    if command == "xsymbol":
        family = _xsymbol_family(args, field)
        if args.check == "reciprocity":
            return general_reciprocity_run(family)
        if args.a is None or args.b is None:
            raise ParseError("--check axioms needs --a and --b")
        a = parse_lattice(args.a)
        b = parse_lattice(args.b)
        sym = family.symbol
        ok = xsymbol_axiom_check(sym, a, b)
        return VerificationReport(
            law="xsymbol-axioms", field_descriptor=field.descriptor,
            inputs={"instance": args.instance, "f": args.f,
                    "g": args.g or "", "a": str(a), "b": str(b)},
            terms=[{"lattice": str(a), "value": sym.render(sym.evaluate(a))},
                   {"lattice": str(b), "value": sym.render(sym.evaluate(b))}],
            value="pass" if ok else "fail", expected="pass", ok=ok,
            details={})
    raise ParseError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation ({exc.clause}): {exc.detail}",
              file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
