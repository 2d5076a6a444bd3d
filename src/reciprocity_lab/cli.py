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

A process loads only what its command calls.  At import this module
loads the parser, the fields and the report; each command imports its
library module when it runs (`_Command.library`, or inside `run`), so weil
never loads `tate`, `lattices` or the surface code, and only sw loads
`segalwilson`.  The --order default and bound come from `parsing` for the
same reason.

Reports print as aligned text, or as canonical JSON with --json: keys are
sorted and separators fixed, so identical inputs are byte-identical.
Factorization into monic irreducibles is unique and reported in canonical
order, so no run depends on the splitting randomness.
"""
from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Callable, NamedTuple

from .errors import HypothesisViolation, ParseError, ReciprocityError
from .fields import Field, field_from_descriptor
from .parsing import (DEFAULT_ORDER, ORDER_BOUND, parse_place, parse_rational,
                      parse_surface)
from .report import VerificationReport

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
    parsed; `value(lib, args, functions, x, z)` is the symbol at the place
    x, reported as `label`; `law(lib, args, functions, z)` is the report
    over all places.  `lib` is the module of this package named by
    `library`, imported when the command runs.  `run(args)` replaces these
    where a command's rules differ, and imports what it calls itself."""
    help: str
    functions: tuple = ()
    flags: dict = {}
    surface: bool = False
    params: Callable = lambda args: {}
    library: str | None = None
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
    from .lattices import BlockShiftOperator, lattice_index, parse_lattice

    field = field_from_descriptor(args.field)
    f = parse_rational(args.f, field)
    if args.verify:
        from .xsymbol import curve_index_family, general_reciprocity_run
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
    from .lattices import parse_lattice
    from .xsymbol import (curve_index_family, curve_residue_family,
                          curve_tame_family, general_reciprocity_run,
                          xsymbol_axiom_check)

    field = field_from_descriptor(args.field)
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


# Library modules are imported when a command runs, not here, so that a
# command loads only the modules it calls; a name patched on its defining
# module is the one called.
_COMMANDS = {
    "tame": _Command(
        "tame symbol of (f, g) at a place", ("f", "g"),
        {"place": _REQUIRED}, library="symbols1d", label="tame-symbol",
        value=lambda lib, args, fs, x, z: lib.tame_symbol(*fs, x)),
    "weil": _Command(
        "product of tame symbols over the joint support", ("f", "g"),
        library="symbols1d",
        law=lambda lib, args, fs, z: lib.weil_verify(*fs)),
    "sumval": _Command(
        "degree-weighted sum of valuations of f", ("f",),
        library="symbols1d",
        law=lambda lib, args, fs, z: lib.sum_of_valuations_verify(*fs)),
    "residue": _Command(
        "residue of f dg at a place, traced to the ground field", ("f", "g"),
        {"place": _REQUIRED}, library="tate", label="residue",
        value=lambda lib, args, fs, x, z: lib.classical_residue(*fs, x)),
    "restheorem": _Command(
        "sum of residues of f dg over all places", ("f", "g"),
        {"oracle": {"action": "store_true", "help": "cross-check each term "
                    "against the commutator trace"}},
        library="symbols1d",
        law=lambda lib, args, fs, z: lib.residue_theorem_verify(
            *fs, oracle=args.oracle)),
    "hilbert": _Command(
        "norm residue symbol of order m (value with --place, "
        "reciprocity product without)", ("f", "g"),
        {"m": {"required": True, "type": int}, "place": _OPTIONAL},
        params=lambda args: {"m": str(args.m)}, library="symbols1d",
        label="hilbert-symbol",
        value=lambda lib, args, fs, x, z: lib.hilbert_symbol(*fs, x, args.m),
        law=lambda lib, args, fs, z: lib.hilbert_verify(*fs, args.m)),
    "nu": _Command(
        "intersection pairing against the curve t = 0", ("f", "g"),
        _SURFACE, surface=True, library="surface", label="nu-symbol",
        value=lambda lib, args, fs, x, z: lib.nu_symbol(*fs, x, z),
        law=lambda lib, args, fs, z: lib.nu_verify(*fs)),
    "horozov": _Command(
        "three-slot local symbol on the surface", ("f", "g", "h"),
        _SURFACE, surface=True, library="surface", label="horozov-symbol",
        value=lambda lib, args, fs, x, z: lib.horozov3(*fs, x, z=z),
        law=lambda lib, args, fs, z: lib.reciprocity_verify_2d("horozov", fs,
                                                               z)),
    "parshin": _Command(
        "antisymmetric three-slot symbol on the surface", ("f", "g", "h"),
        _SURFACE, surface=True, library="surface", label="parshin-symbol",
        value=lambda lib, args, fs, x, z: lib.parshin3(*fs, x, z=z),
        law=lambda lib, args, fs, z: lib.reciprocity_verify_2d("parshin", fs,
                                                               z)),
    "hk4": _Command(
        "four-slot local symbol on the surface", ("f", "g", "h", "w"),
        _SURFACE, surface=True, library="surface", label="hk4-symbol",
        value=lambda lib, args, fs, x, z: lib.hk4(*fs, x, z=z),
        law=lambda lib, args, fs, z: lib.reciprocity_verify_2d("hk4", fs, z)),
    "sw": _Command(
        "exponential residue pairing (value with --place, product without)",
        ("f", "g"),
        {"place": _OPTIONAL,
         "order": {"type": int, "default": DEFAULT_ORDER,
                   "help": f"truncation order in z (default {DEFAULT_ORDER}, "
                           f"from 0 to {ORDER_BOUND})"}},
        params=_order, library="segalwilson", label="segal-wilson",
        value=lambda lib, args, fs, x, z: lib.cocycle_c(*fs, x, args.order),
        law=lambda lib, args, fs, z: lib.sw_verify(*fs, args.order)),
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
    field = field_from_descriptor(args.field)
    params = command.params(args)
    parse = parse_surface if command.surface else parse_rational
    functions = [parse(getattr(args, name), field)
                 for name in command.functions]
    z = None if getattr(args, "z", None) is None else parse(args.z, field)
    place = getattr(args, "place", None)
    x = (None if place is None
         else parse_place(place, field, "s" if command.surface else "t"))
    lib = import_module(f".{command.library}", __package__)
    if x is None or getattr(args, "verify", False):
        return command.law(lib, args, functions, z)
    inputs = {name: str(fn) for name, fn in zip(command.functions, functions)}
    return _value_report(command.label, field, {**inputs, **params}, x,
                         command.value(lib, args, functions, x, z))


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
