"""Span tracing of the library's layer boundaries, from outside the library.

`Tracer.install` replaces each listed function or method with a wrapper that
records one span per call: name, start, end, parent span and item id.  It
patches the defining class or module and every module that imported the
name (for example `funcfield.factor_polynomial` and `surface.tame_symbol`),
so calls made inside the library are seen too.  No library file changes.

Spans are kept in flat arrays in memory and written out when the run ends.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""
from __future__ import annotations

import array
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from reciprocity_lab import (factor, funcfield, lattices, localfield, parsing,
                             poly, report, residue_field, segalwilson,
                             surface, symbols1d, tate, xsymbol)


def _factor_hook(tracer, args, kwargs, result):
    f = args[0]
    seed = args[1] if len(args) > 1 else kwargs.get("seed")
    key = (f.field.descriptor, f.var, f.coeffs, seed)
    if key in tracer.factor_keys:
        tracer.counts["factor.repeats"] += 1
    tracer.factor_keys.add(key)
    if not result.fully_certified():
        tracer.counts["factor.uncertified"] += 1


def _expand_hook(tracer, args, kwargs, result):
    tracer.counts["localfield.expand.terms"] += len(result.coeffs)


def _commutator_hook(tracer, args, kwargs, result):
    f_band, g_band, window = args[1], args[2], args[6]
    tracer.counts["tate.commutator_trace.entries"] += \
        (2 * window + 1) * (len(f_band) + len(g_band))


def _family_hook(tracer, args, kwargs, result):
    n = len(args[0].lattices)
    tracer.counts["xsymbol.b_pairs"] += 3 ** n - 2 ** n
    tracer.family_max = max(tracer.family_max, n)


def _report_hook(tracer, args, kwargs, result):
    tracer.counts["report.bytes"] += len(result.encode())


def _normalize_name(args):
    num = args[1]
    return ("funcfield.normalize_ks"
            if isinstance(num.field, funcfield.FractionField)
            else "funcfield.normalize")


Poly = poly.Polynomial
RF = funcfield.RationalFunction
Lattice = lattices.MonomialLattice

# (span name or name chooser, owner, attribute names, counting hook)
TARGETS = (
    ("parsing.parse", parsing, ("parse_rational", "parse_surface",
                                "parse_place"), None),
    ("parsing.parse", lattices, ("parse_lattice",), None),
    ("poly.mul", Poly, ("__mul__",), None),
    ("poly.divmod", Poly, ("divmod",), None),
    ("poly.gcd", Poly, ("gcd",), None),
    ("poly.resultant", Poly, ("resultant",), None),
    ("poly.taylor_shift", Poly, ("taylor_shift",), None),
    ("poly.squarefree", Poly, ("squarefree_part_decomposition",), None),
    ("factor.factor_polynomial", factor, ("factor_polynomial",), _factor_hook),
    ("residue_field.norm", residue_field.ResidueField, ("norm_raw",), None),
    ("residue_field.trace", residue_field.ResidueField, ("trace_raw",), None),
    ("residue_field.inv", residue_field.ResidueField, ("inv",), None),
    (_normalize_name, RF, ("__init__",), None),
    ("funcfield.valuation", RF, ("valuation",), None),
    ("funcfield.unit_value", RF, ("unit_value",), None),
    ("funcfield.support", RF, ("support",), None),
    ("localfield.expand", localfield, ("expand",), _expand_hook),
    ("tate.classical_residue", tate, ("classical_residue",), None),
    ("tate.abstract_residue_trace", tate, ("abstract_residue_trace",), None),
    ("tate.commutator_trace", tate, ("banded_commutator_trace",),
     _commutator_hook),
    ("lattices.setop", Lattice, ("union", "intersect", "difference",
                                 "symmetric_difference", "complement",
                                 "shift", "extract_progression"), None),
    ("lattices.construct", Lattice, ("__init__",), None),
    ("lattices.lattice_index", lattices, ("lattice_index",), None),
    ("xsymbol.reciprocity_run", xsymbol, ("general_reciprocity_run",),
     _family_hook),
    ("xsymbol.evaluate", xsymbol.IndexSymbol, ("evaluate",), None),
    ("xsymbol.evaluate", xsymbol.ResidueSymbol, ("evaluate",), None),
    ("xsymbol.evaluate", xsymbol.TameSymbol, ("evaluate",), None),
    ("xsymbol.axiom_check", xsymbol, ("xsymbol_axiom_check",), None),
    ("symbols1d.tame_symbol", symbols1d, ("tame_symbol",), None),
    ("symbols1d.verify", symbols1d, ("weil_verify", "sum_of_valuations_verify",
                                     "hilbert_verify",
                                     "residue_theorem_verify"), None),
    ("surface.phi_z", surface, ("phi_z",), None),
    ("surface.curve_valuation", surface, ("curve_valuation",), None),
    ("surface.curve_tame", surface, ("curve_tame",), None),
    ("surface.restrict_to_curve", surface, ("restrict_to_curve",), None),
    ("surface.verify", surface, ("nu_verify", "reciprocity_verify_2d"), None),
    ("segalwilson.exp_z2", segalwilson, ("exp_z2",), None),
    ("segalwilson.series_mul", segalwilson.TruncatedPowerSeries,
     ("__mul__",), None),
    ("segalwilson.cocycle_on_lattice", segalwilson, ("cocycle_on_lattice",),
     None),
    ("report.to_json", report.VerificationReport, ("to_json",), _report_hook),
)

SPAN_NAMES = tuple(dict.fromkeys(
    name for target in TARGETS
    for name in ((target[0],) if isinstance(target[0], str)
                 else ("funcfield.normalize", "funcfield.normalize_ks"))))
COUNT_NAMES = ("factor.uncertified", "localfield.expand.terms",
               "tate.commutator_trace.entries", "xsymbol.b_pairs",
               "report.bytes")


class Tracer:
    """Spans in flat arrays: parallel start, end, name id, parent, item."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.items = array.array("i")
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self.factor_keys: set = set()
        self.family_max = 0
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, hook=None):
        """The traced version of fn; `name` is a span name or a chooser."""
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, items, stack = self.parents, self.items, self.stack
        fixed = self.name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(fixed if fixed is not None
                            else self.name_id(name(args)))
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()):
        """Patch every target at its definition and at each import site."""
        modules = [m for n, m in sys.modules.items()
                   if n == "reciprocity_lab" or n.startswith("reciprocity_lab.")]
        modules += list(extra_modules)
        for name, owner, attrs, hook in TARGETS:
            for attr in attrs:
                original = owner.__dict__[attr]
                traced = self.wrap(name, original, hook)
                places = [owner] + ([] if isinstance(owner, type) else modules)
                for place in places:
                    for key, value in list(vars(place).items()):
                        if value is original:
                            self._patched.append((place, key, original))
                            setattr(place, key, traced)

    def uninstall(self):
        for place, key, original in reversed(self._patched):
            setattr(place, key, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """X.calls and X.self_s for every span name, plus the counters."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = Counter()
        busy = Counter()
        for nid, value in zip(self.name_ids, selfs):
            calls[nid] += 1
            busy[nid] += value
        out = {}
        for name in SPAN_NAMES:
            nid = self._ids.get(name)
            out[f"{name}.calls"] = (calls[nid] if nid is not None else 0, "count")
            out[f"{name}.self_s"] = (busy[nid] if nid is not None else 0.0, "s")
        factor_calls = out["factor.factor_polynomial.calls"][0]
        out["factor.repeat_ratio"] = (
            self.counts["factor.repeats"] / factor_calls if factor_calls else 0.0,
            "ratio")
        for name in COUNT_NAMES:
            unit = "bytes" if name == "report.bytes" else "count"
            out[name] = (self.counts[name], unit)
        out["xsymbol.family_size.max"] = (self.family_max, "count")
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays plus a JSON index naming them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as out:
            for arr in (self.starts, self.ends, self.name_ids, self.parents,
                        self.items):
                arr.tofile(out)
        path.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.starts), "names": self.names,
            "arrays": ["start:d", "end:d", "name:i", "parent:i", "item:i"]}))


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the union of the children's intervals, clipped to it."""
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = [e - s for s, e in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[kid], lo), min(ends[kid], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out
