"""Seeded workloads of the reciprocity-lab benchmark.

Every item is generated from (workload, seed, index) alone, as plain input
strings; the library only ever sees those strings.  Running an item parses
the strings, makes one public verifier call plus the item's cross-checks,
serializes the report to canonical JSON and checks that JSON.  The returned
text is what the golden digest covers.

Item kinds cycle with the index instead of being drawn at random, and the
sizes (degrees, exponents) are stratified over the cycles, so every run of a
few hundred items sees the same mix of fields, laws and sizes; the seed
draws the coefficients and how the sizes pair up.  This keeps the spread
between seeds small enough for the benchmark's bounds.

An item that raises one of the library's documented errors (a subclass of
`ReciprocityError`) is a refusal; a report with `ok` false or a cross-check
mismatch raises `CheckFailed`.  Anything else is a benchmark error.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from reciprocity_lab import cli
from reciprocity_lab.fields import field_from_descriptor
from reciprocity_lab.funcfield import support_union
from reciprocity_lab.lattices import MonomialLattice, parse_lattice
from reciprocity_lab.parsing import parse_place, parse_rational, parse_surface
from reciprocity_lab.report import VerificationReport
from reciprocity_lab.segalwilson import cocycle_on_lattice, sw_verify
from reciprocity_lab.surface import (hk4, horozov3, nu_symbol, nu_verify,
                                     parshin3, reciprocity_verify_2d)
from reciprocity_lab.symbols1d import (hilbert_verify, residue_theorem_verify,
                                       sum_of_valuations_verify, weil_verify)
from reciprocity_lab.tate import (abstract_residue_trace, classical_residue,
                                  minimal_window)
from reciprocity_lab.xsymbol import (curve_index_family, curve_residue_family,
                                     curve_tame_family,
                                     general_reciprocity_run,
                                     xsymbol_axiom_check)

SRC = Path(__file__).resolve().parent.parent / "src"


class CheckFailed(Exception):
    """A report with `ok` false, or a cross-check that did not hold."""


def item_rng(workload: str, seed: int, index) -> random.Random:
    # string seeds go through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def stratified(workload: str, seed: int, cycle: int, slot: int, n: int) -> int:
    """Value in range(n) of one size parameter (slot) of an item.

    Over each block of n cycles every value comes up once per slot, in an
    order drawn from the seed.  Callers give each item kind its own slots.
    """
    block, pos = divmod(cycle, n)
    order = list(range(n))
    item_rng(workload, seed, f"block{block}:slot{slot}").shuffle(order)
    return order[pos]


# -- input strings -------------------------------------------------------------


def _char(descriptor: str) -> int:
    return int(descriptor[3:]) if descriptor.startswith("Fp:") else 0


def poly_text(rng: random.Random, p: int, deg: int, var: str = "t") -> str:
    """Dense polynomial of the given degree, coefficients in [-9, 9].

    The leading coefficient is redrawn until it is nonzero in the field; the
    same generator serves Q (p = 0) and F_p.
    """
    coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
    while coeffs[-1] == 0 or (p and coeffs[-1] % p == 0):
        coeffs[-1] = rng.randint(-9, 9)
    parts = []
    for k in range(deg, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = var if k == 1 else f"{var}^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_texts(workload: str, seed: int, index: int, period: int,
                   p: int, max_deg: int) -> tuple[str, str]:
    """f and g as dense num/den pairs of degree <= max_deg (four slots)."""
    rng = item_rng(workload, seed, index)
    kind = index % period
    degrees = [stratified(workload, seed, index // period, 4 * kind + slot,
                          max_deg + 1) for slot in range(4)]
    polys = [poly_text(rng, p, deg) for deg in degrees]
    return f"({polys[0]})/({polys[1]})", f"({polys[2]})/({polys[3]})"


def scalar_value(text: str, p: int):
    """An exact field value read back from a report, for independent sums."""
    return Fraction(text) if p == 0 else int(text) % p


def canonical(report: VerificationReport) -> tuple[str, dict]:
    """The report's canonical JSON, checked to round-trip byte for byte."""
    text = report.to_json()
    data = json.loads(text)
    if json.dumps(data, sort_keys=True, separators=(",", ":")) != text:
        raise CheckFailed("report JSON is not canonical")
    if data != report.to_dict():
        raise CheckFailed("report JSON does not round-trip")
    if data["ok"] is not True:
        raise CheckFailed(f"{data['law']} report has ok={data['ok']}")
    return text, data


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- curve-laws ----------------------------------------------------------------

CURVE_FIELDS = ("Q", "Fp:5", "Fp:13", "Fp:1000003")


def curve_item(seed: int, index: int) -> dict:
    field = CURVE_FIELDS[index % 4]
    p = _char(field)
    laws = ("weil", "sumval", "restheorem", "sw" if p == 0 else "hilbert")
    f, g = rational_texts("curve-laws", seed, index, 16, p, 6)
    spec = {"field": field, "law": laws[(index // 4) % 4], "f": f, "g": g}
    if spec["law"] == "hilbert":
        divisors = _divisors(p - 1)
        spec["m"] = str(divisors[(index // 16) % len(divisors)])
    return spec


def run_curve(spec: dict, fields: dict) -> str:
    field = fields[spec["field"]]
    p = _char(spec["field"])
    law = spec["law"]
    f = parse_rational(spec["f"], field)
    if law == "sumval":
        text, data = canonical(sum_of_valuations_verify(f))
        _require(all(t["value"] == t["deg"] * t["v"] for t in data["terms"])
                 and sum(t["value"] for t in data["terms"]) == 0,
                 "valuation terms do not sum to zero")
        return text
    g = parse_rational(spec["g"], field)
    if law == "weil":
        text, data = canonical(weil_verify(f, g))
        places = [t["place"] for t in data["terms"]]
        _require(len(set(places)) == len(places) == data["details"]["places"],
                 "weil places repeat or miscount")
        _require(all(scalar_value(t["value"], p) != 0 for t in data["terms"]),
                 "a tame symbol is zero")
    elif law == "restheorem":
        text, data = canonical(residue_theorem_verify(f, g))
        total = sum(scalar_value(t["value"], p) for t in data["terms"])
        _require((total % p if p else total) == 0,
                 "residues do not sum to zero")
    elif law == "hilbert":
        m = int(spec["m"])
        text, data = canonical(hilbert_verify(f, g, m))
        _require(all(pow(int(t["value"]), m, p) == 1 for t in data["terms"]),
                 "a hilbert symbol is not an m-th root of unity")
    else:
        text, data = canonical(sw_verify(f, g))
        _require(sum(Fraction(t["residue"]) for t in data["terms"]) == 0,
                 "segal-wilson residues do not sum to zero")
    return text


# -- lattice-oracle --------------------------------------------------------------

ORACLE_KINDS = ("restheorem-oracle", "trace-vs-classical", "family", "axioms",
                "cocycle")


def ray_text(rng: random.Random) -> str:
    n0 = rng.randint(-5, 5)
    added = sorted({n0 - rng.randint(1, 6) for _ in range(rng.randint(0, 3))})
    removed = sorted({n0 + rng.randint(0, 6) for _ in range(rng.randint(0, 3))})
    text = f"ray:{n0}"
    if added:
        text += ";add:" + ",".join(map(str, added))
    if removed:
        text += ";del:" + ",".join(map(str, removed))
    return text


def two_sided_text(rng: random.Random) -> str:
    """A two-sided lattice literal: a ray, a lower set, a finite set, or Z/{}."""
    kind = rng.randrange(6)
    if kind in (0, 1):
        return ray_text(rng)
    if kind == 2:
        return "lower:" + ray_text(rng)
    if kind == 3:
        members = sorted({rng.randint(-8, 8) for _ in range(rng.randint(0, 4))})
        return "finite:" + ",".join(map(str, members))
    return ("all", "none")[kind - 4]


def two_sided_lattice(text: str) -> MonomialLattice:
    if text.startswith("lower:"):
        return parse_lattice(text[len("lower:"):]).complement()
    if text.startswith("finite:"):
        body = text[len("finite:"):]
        return MonomialLattice.finite(int(n) for n in body.split(",") if n)
    if text == "all":
        return MonomialLattice.everything()
    if text == "none":
        return MonomialLattice.empty()
    return parse_lattice(text)


def oracle_item(seed: int, index: int) -> dict:
    rng = item_rng("lattice-oracle", seed, f"{index}:lattices")
    kind = ORACLE_KINDS[index % 5]
    field = "Q" if kind == "cocycle" else ("Fp:5", "Q")[(index // 5) % 2]
    p = _char(field)
    # Family runs grow about 3x per place; degree 2 keeps families at 1-8
    # places, where degree 3 reaches 9 places and single items of seconds
    # that make throughput depend on the seed.
    f, g = rational_texts("lattice-oracle", seed, index, 30, p,
                          2 if kind == "family" else 3)
    spec = {"field": field, "kind": kind, "f": f, "g": g}
    if kind in ("family", "axioms"):
        spec["instance"] = ("index", "residue", "tame")[(index // 10) % 3]
    if kind == "axioms":
        spec["a"] = two_sided_text(rng)
        spec["b"] = two_sided_text(rng)
    if kind == "cocycle":
        spec["a"] = ray_text(rng)
        spec["b"] = ray_text(rng)
    return spec


def _family(instance: str, f, g):
    if instance == "index":
        return curve_index_family(f)
    if instance == "residue":
        return curve_residue_family(f, g)
    return curve_tame_family(f, g)


def _bench_report(law: str, field, inputs: dict, terms: list,
                  value: str, expected: str) -> VerificationReport:
    return VerificationReport(law=law, field_descriptor=field.descriptor,
                              inputs=inputs, terms=terms, value=value,
                              expected=expected, ok=value == expected)


def run_oracle(spec: dict, fields: dict) -> str:
    field = fields[spec["field"]]
    kind = spec["kind"]
    f = parse_rational(spec["f"], field)
    g = parse_rational(spec["g"], field)
    inputs = {"f": str(f), "g": str(g)}
    if kind == "restheorem-oracle":
        text, data = canonical(residue_theorem_verify(f, g, oracle=True))
        _require(data["details"]["oracle_agreements"] == len(data["terms"])
                 and all(t["oracle"] == t["value"] for t in data["terms"]),
                 "oracle and classical residues disagree")
        return text
    if kind == "trace-vs-classical":
        terms = []
        # the first two places, as in acceptance criterion 04
        for x in support_union(f, g, include_infinity=True)[:2]:
            want = str(classical_residue(f, g, x))
            window = minimal_window(f, g, x)
            got = {t: str(abstract_residue_trace(f, g, x, truncate=t))
                   for t in ("f", "g", "both")}
            got["wide"] = str(abstract_residue_trace(f, g, x,
                                                     window=window + 3))
            terms.append({"place": str(x), "classical": want, **got})
        agree = sum(all(t[k] == t["classical"] for k in ("f", "g", "both", "wide"))
                    for t in terms)
        report = _bench_report("oracle-equivalence", field, inputs, terms,
                               str(agree), str(len(terms)))
        return canonical(report)[0]
    if kind == "family":
        family = _family(spec["instance"], f, g)
        text, data = canonical(general_reciprocity_run(family))
        n = int(data["inputs"]["family_size"])
        _require(len(data["terms"]) == n and data["details"]["b_sets"] == 2 ** n,
                 "family report miscounts members or B-sets")
        return text
    if kind == "axioms":
        a = two_sided_lattice(spec["a"])
        b = two_sided_lattice(spec["b"])
        family = _family(spec["instance"], f, g)
        sym = family.symbol
        ok = xsymbol_axiom_check(sym, a, b)
        terms = [{"lattice": str(a), "value": sym.render(sym.evaluate(a))},
                 {"lattice": str(b), "value": sym.render(sym.evaluate(b))}]
        report = _bench_report("xsymbol-axioms", field,
                               {**inputs, "instance": spec["instance"]},
                               terms, "pass" if ok else "fail", "pass")
        return canonical(report)[0]
    # cocycle additivity at the first place of the joint support
    a = parse_lattice(spec["a"])
    b = parse_lattice(spec["b"])
    x = support_union(f, g, include_infinity=True)[0]
    lhs = cocycle_on_lattice(f, g, x, a) * cocycle_on_lattice(f, g, x, b)
    rhs = cocycle_on_lattice(f, g, x, a.union(b)) * \
        cocycle_on_lattice(f, g, x, a.intersect(b))
    report = _bench_report("cocycle-additivity", field,
                           {**inputs, "a": str(a), "b": str(b),
                            "place": str(x)},
                           [{"side": "lhs", "value": str(lhs)},
                            {"side": "rhs", "value": str(rhs)}],
                           str(lhs), str(rhs))
    return canonical(report)[0]


# -- surface-laws ------------------------------------------------------------------

SURFACE_LAWS = ("nu", "horozov", "parshin", "hk4")
SURFACE_ARITY = {"nu": 2, "horozov": 3, "parshin": 3, "hk4": 4}
Z_CHANGES = ("t*(1+t)", "s*t")


def surface_text(rng: random.Random, e: int, b: int, m: int) -> str:
    """c*(s-a)^e*t^b*(1+(s-a)*t^m): every restricted place has degree 1."""
    c = rng.choice((1, 2, 3, -1, -2))
    a = rng.randint(-3, 3)
    line = "s" if a == 0 else (f"(s-{a})" if a > 0 else f"(s+{-a})")
    text = str(c)
    if e:
        text += f"*{line}^{e}" if e != 1 else f"*{line}"
    if b:
        text += f"*t^{b}" if b != 1 else "*t"
    return text + f"*(1+{line}*t^{m})"


def surface_item(seed: int, index: int) -> dict:
    rng = item_rng("surface-laws", seed, index)
    law = SURFACE_LAWS[(index // 2) % 4]
    cycle, kind = divmod(index, 8)

    def size(slot: int, n: int) -> int:
        return stratified("surface-laws", seed, cycle, 12 * kind + slot, n)

    functions = [surface_text(rng, size(3 * j, 5) - 2, size(3 * j + 1, 5) - 2,
                              size(3 * j + 2, 2) + 1)
                 for j in range(SURFACE_ARITY[law])]
    return {"field": ("Fp:5", "Q")[index % 2], "law": law,
            "functions": functions,
            "z": Z_CHANGES[(index // 8) % 2], "slot": rng.randrange(64)}


def run_surface(spec: dict, fields: dict) -> str:
    """One verifier call, then the cross-check at one place of its report
    (picked by the item's slot) under one change of parameter z; checking
    every place under both z would cost several verifier calls more."""
    base = fields[spec["field"]]
    law = spec["law"]
    fns = [parse_surface(text, base) for text in spec["functions"]]
    z = parse_surface(spec["z"], base)
    if law == "nu":
        text, data = canonical(nu_verify(*fns))
    else:
        text, data = canonical(reciprocity_verify_2d(law, fns))
    term = data["terms"][spec["slot"] % len(data["terms"])]
    x = parse_place(term["place"], base, "s")
    if law == "nu":
        _require(nu_symbol(*fns, x, z=z) == term["nu"],
                 f"nu changes with the parameter at {x}")
    elif law == "horozov":
        f, g, h = fns
        cyclic = horozov3(f, g, h, x) * horozov3(h, f, g, x) \
            * horozov3(g, h, f, x)
        _require(parshin3(f, g, h, x) == cyclic,
                 f"parshin differs from the cyclic horozov product at {x}")
    else:
        local = parshin3 if law == "parshin" else hk4
        _require(str(local(*fns, x, z=z)) == term["value"],
                 f"{law} changes with the parameter at {x}")
    return text


# -- cli-readme --------------------------------------------------------------------

# The README command lines, each run with --json.
README_COMMANDS = (
    ("tame", "--field", "Fp:7", "--f", "t^2", "--g", "(t+1)/t", "--place", "t"),
    ("residue", "--f", "1/(t^2-t)", "--g", "t", "--place", "t-1"),
    ("sw", "--f", "1/t", "--g", "t", "--place", "t", "--order", "4"),
    ("weil", "--field", "Fp:5", "--f", "(t^2+2)/t", "--g", "t-1"),
    ("sumval", "--field", "Fp:5", "--f", "(t^2+2)/(t-1)^3"),
    ("restheorem", "--f", "(t+2)/(t^2-t)", "--g", "t^2", "--oracle"),
    ("hilbert", "--field", "Fp:13", "--f", "t^2-1", "--g", "t", "--m", "4"),
    ("sw", "--f", "(t+2)/t^2", "--g", "t^2-t"),
    ("nu", "--f", "s*t", "--g", "s+t", "--place", "s"),
    ("parshin", "--field", "Fp:5", "--f", "s*t", "--g", "s+t", "--h", "1+s*t",
     "--verify"),
    ("horozov", "--f", "s*t", "--g", "s+t", "--h", "1+s*t", "--place", "s",
     "--z", "t*(1+t)"),
    ("hk4", "--f", "s*t", "--g", "s+t", "--h", "1+s*t", "--w", "s", "--verify"),
    ("index", "--f", "t^2", "--lattice", "ray:0;add:-3;del:2", "--place", "t"),
    ("index", "--f", "t^3/(t^2+2)", "--verify"),
    ("xsymbol", "--instance", "residue", "--f", "1/t", "--g", "t^2-t",
     "--check", "axioms", "--a", "ray:0;add:-3", "--b", "ray:2"),
    ("xsymbol", "--instance", "tame", "--f", "t^2", "--g", "t-1",
     "--check", "reciprocity"),
)


def command_key(argv) -> str:
    return " ".join(argv)


def cli_item(seed: int, index: int) -> dict:
    """Each cycle runs every command once, in an order drawn from the seed."""
    cycle, pos = divmod(index, len(README_COMMANDS))
    order = list(range(len(README_COMMANDS)))
    item_rng("cli-readme", seed, cycle).shuffle(order)
    return {"argv": list(README_COMMANDS[order[pos]]) + ["--json"]}


def cli_subprocess(argv) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "reciprocity_lab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout


def cli_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_cli(spec: dict, golden: dict, in_process: bool = False) -> str:
    argv = spec["argv"]
    code, stdout = (cli_in_process if in_process else cli_subprocess)(argv)
    want = golden[command_key(argv)]
    _require(code == want["exit"], f"exit {code} != {want['exit']} for {argv}")
    _require(stdout == want["stdout"], f"stdout differs from golden for {argv}")
    data = json.loads(stdout)
    _require(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
             == stdout, f"stdout is not canonical JSON for {argv}")
    return stdout


WORKLOADS = {
    "curve-laws": (curve_item, run_curve, CURVE_FIELDS),
    "lattice-oracle": (oracle_item, run_oracle, ("Q", "Fp:5")),
    "surface-laws": (surface_item, run_surface, ("Q", "Fp:5")),
    "cli-readme": (cli_item, None, ("Q", "Fp:5", "Fp:7", "Fp:13")),
}


def build_fields(workload: str) -> dict:
    return {d: field_from_descriptor(d) for d in WORKLOADS[workload][2]}
