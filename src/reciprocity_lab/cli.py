"""Command-line front end.

One subcommand per symbol or law, each declared once in `_COMMANDS` with
its flags and its library calls.  A command given --place evaluates the
local symbol there.  Without --place, or with --verify on the surface
commands and index, it runs the product or sum over every place of the
joint support and exits 0 exactly when the law holds; weil, sumval and
restheorem take no --place, and tame and residue need one.  Exit codes: 0
verified or computed, 1 a verification failed, 2 input could not be
parsed, 3 the inputs are outside a symbol's domain (every library error
that is not a parse error or a violated hypothesis), 4 a reciprocity
hypothesis was violated.

Reports print as aligned text, or as canonical JSON with --json: keys are
sorted and separators fixed, so identical inputs are byte-identical.
Factorization into monic irreducibles is unique and reported in canonical
order, so no run depends on the splitting randomness.
"""
from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from .errors import HypothesisViolation, ParseError, ReciprocityError
from .fields import Field
from .lattices import BlockShiftOperator, lattice_index, parse_lattice
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

_REQUIRED = {"required": True, "type": str}
_OPTIONAL = {"type": str}
_SURFACE = {"place": {"type": str,
                      "help": "a place of the curve, in the variable s"},
            "verify": {"action": "store_true",
                       "help": "run the product (or sum) over the curve"},
            "z": {"type": str, "default": None,
                  "help": "local parameter along the curve (default t)"}}


class _Command(NamedTuple):
    """A subcommand: its function flags (in k(s, t) if `surface`, else in
    k(t)), then `flags`, each with its argparse keywords.  `params(args)`
    renders the other report inputs, checked before any function is
    parsed; `value(args, functions, x, z)` is the symbol at the place x,
    reported as `label`; `law(args, functions, z)` is the report over all
    places.  `run(args)` replaces these where a command's rules differ."""
    help: str
    functions: tuple = ()
    flags: dict = {}
    surface: bool = False
    params: Callable = lambda args: {}
    label: str | None = None
    value: Callable | None = None
    law: Callable | None = None
    run: Callable | None = None


def _value_report(law: str, field: Field, inputs: dict, x,
                  value) -> VerificationReport:
    return VerificationReport(
        law=law, field_descriptor=field.descriptor, inputs=inputs,
        terms=[{"place": str(x), "value": str(value)}],
        value=str(value), expected=None, ok=True, details={})


def _order(args) -> dict:
    if not 0 <= args.order <= ORDER_BOUND:
        raise ParseError(f"--order {args.order} is outside [0, {ORDER_BOUND}]")
    return {"order": str(args.order)}


def _index(args) -> VerificationReport:
    field = parse_field(args.field)
    f = parse_rational(args.f, field)
    if args.verify:
        return general_reciprocity_run(curve_index_family(f))
    if args.place is None:
        raise ParseError("index needs --place (or --verify)")
    x = parse_place(args.place, field)
    lattice = parse_lattice(args.lattice)
    op = BlockShiftOperator(1, {0: f.valuation(x)})
    return _value_report("index", field,
                         {"f": str(f), "lattice": str(lattice)}, x,
                         x.degree * lattice_index(op, lattice))


def _xsymbol(args) -> VerificationReport:
    field = parse_field(args.field)
    f = parse_rational(args.f, field)
    if args.instance == "index":
        family = curve_index_family(f)
    elif args.g is None:
        raise ParseError(f"the {args.instance} instance needs --g")
    elif args.instance == "residue":
        family = curve_residue_family(f, parse_rational(args.g, field))
    else:
        family = curve_tame_family(f, parse_rational(args.g, field))
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


# Library functions are looked up when a command runs, not here, so that a
# name patched on this module is the one called.
_COMMANDS = {
    "tame": _Command(
        "tame symbol of (f, g) at a place", ("f", "g"),
        {"place": _REQUIRED}, label="tame-symbol",
        value=lambda args, fs, x, z: tame_symbol(*fs, x)),
    "weil": _Command(
        "product of tame symbols over the joint support", ("f", "g"),
        law=lambda args, fs, z: weil_verify(*fs)),
    "sumval": _Command(
        "degree-weighted sum of valuations of f", ("f",),
        law=lambda args, fs, z: sum_of_valuations_verify(*fs)),
    "residue": _Command(
        "residue of f dg at a place, traced to the ground field", ("f", "g"),
        {"place": _REQUIRED}, label="residue",
        value=lambda args, fs, x, z: classical_residue(*fs, x)),
    "restheorem": _Command(
        "sum of residues of f dg over all places", ("f", "g"),
        {"oracle": {"action": "store_true", "help": "cross-check each term "
                    "against the commutator trace"}},
        law=lambda args, fs, z: residue_theorem_verify(*fs,
                                                       oracle=args.oracle)),
    "hilbert": _Command(
        "norm residue symbol of order m (value with --place, "
        "reciprocity product without)", ("f", "g"),
        {"m": {"required": True, "type": int}, "place": _OPTIONAL},
        params=lambda args: {"m": str(args.m)}, label="hilbert-symbol",
        value=lambda args, fs, x, z: hilbert_symbol(*fs, x, args.m),
        law=lambda args, fs, z: hilbert_verify(*fs, args.m)),
    "nu": _Command(
        "intersection pairing against the curve t = 0", ("f", "g"),
        _SURFACE, surface=True, label="nu-symbol",
        value=lambda args, fs, x, z: nu_symbol(*fs, x, z),
        law=lambda args, fs, z: nu_verify(*fs)),
    "horozov": _Command(
        "three-slot local symbol on the surface", ("f", "g", "h"),
        _SURFACE, surface=True, label="horozov-symbol",
        value=lambda args, fs, x, z: horozov3(*fs, x, z=z),
        law=lambda args, fs, z: reciprocity_verify_2d("horozov", fs, z)),
    "parshin": _Command(
        "antisymmetric three-slot symbol on the surface", ("f", "g", "h"),
        _SURFACE, surface=True, label="parshin-symbol",
        value=lambda args, fs, x, z: parshin3(*fs, x, z=z),
        law=lambda args, fs, z: reciprocity_verify_2d("parshin", fs, z)),
    "hk4": _Command(
        "four-slot local symbol on the surface", ("f", "g", "h", "w"),
        _SURFACE, surface=True, label="hk4-symbol",
        value=lambda args, fs, x, z: hk4(*fs, x, z=z),
        law=lambda args, fs, z: reciprocity_verify_2d("hk4", fs, z)),
    "sw": _Command(
        "exponential residue pairing (value with --place, product without)",
        ("f", "g"),
        {"place": _OPTIONAL,
         "order": {"type": int, "default": DEFAULT_ORDER,
                   "help": f"truncation order in z (default {DEFAULT_ORDER}, "
                           f"from 0 to {ORDER_BOUND})"}},
        params=_order, label="segal-wilson",
        value=lambda args, fs, x, z: cocycle_c(*fs, x, args.order),
        law=lambda args, fs, z: sw_verify(*fs, args.order)),
    "index": _Command(
        "lattice index of multiplication by f at a place",
        flags={"f": _REQUIRED, "place": _OPTIONAL,
               "lattice": {"type": str, "default": "ray:0",
                           "help": 'lattice literal "ray:<n0>;add:..;del:.." '
                                   '(default ray:0)'},
               "verify": {"action": "store_true", "help": "run the full "
                          "sum-of-valuations family instead"}},
        run=_index),
    "xsymbol": _Command(
        "symbol maps on monomial lattices",
        flags={"instance": {"required": True,
                            "choices": ("index", "residue", "tame")},
               "f": _REQUIRED,
               "g": {"type": str, "default": None,
                     "help": "second function (required except for index)"},
               "check": {"required": True,
                         "choices": ("axioms", "reciprocity")},
               "a": {"type": str, "default": None,
                     "help": "first lattice literal for --check axioms"},
               "b": {"type": str, "default": None,
                     "help": "second lattice literal for --check axioms"}},
        run=_xsymbol),
}


def _build_parser() -> argparse.ArgumentParser:
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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag in command.functions:
            p.add_argument(f"--{flag}", **_REQUIRED)
        for flag, keywords in command.flags.items():
            p.add_argument(f"--{flag}", **keywords)
    return parser


def _symbol_or_law(command: _Command, args) -> VerificationReport:
    """Parse --field, the functions, --z and --place, in that order; the
    law when --place is absent or --verify is set, else the value there."""
    field = parse_field(args.field)
    params = command.params(args)
    parse = parse_surface if command.surface else parse_rational
    functions = [parse(getattr(args, name), field)
                 for name in command.functions]
    z = None if getattr(args, "z", None) is None else parse(args.z, field)
    place = getattr(args, "place", None)
    x = (None if place is None
         else parse_place(place, field, "s" if command.surface else "t"))
    if x is None or getattr(args, "verify", False):
        return command.law(args, functions, z)
    inputs = {name: str(fn) for name, fn in zip(command.functions, functions)}
    return _value_report(command.label, field, {**inputs, **params}, x,
                         command.value(args, functions, x, z))


def _dispatch(args) -> VerificationReport:
    command = _COMMANDS[args.command]
    return command.run(args) if command.run else _symbol_or_law(command, args)


def main(argv=None) -> int:
    parser = _build_parser()
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
    except ReciprocityError as exc:
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
