"""Uniform result envelope for verification runs.

Every verifier returns a VerificationReport: what law ran, over which field,
on which rendered inputs, the per-term contributions, the combined value,
the expected value, and whether they agree.  Serialization is deterministic
(sorted keys, no timestamps) so identical runs produce identical bytes.

Most laws share one shape: a local symbol with values in a group is combined
over the places of a curve, and the law says the total is the identity.
`place_law_report` is that assembly, once, for the Weil, Hilbert, residue
theorem, exponential pairing, intersection pairing and surface laws.
"""
from __future__ import annotations

import json


class VerificationReport:
    """A report is equal to another exactly when all its fields are; with
    no `details` it gets a fresh empty dict."""

    def __init__(self, law: str, field_descriptor: str, inputs: dict,
                 terms: list, value: str, expected: str | None, ok: bool,
                 details: dict | None = None):
        self.law = law
        self.field_descriptor = field_descriptor
        self.inputs = inputs
        self.terms = terms
        self.value = value
        self.expected = expected
        self.ok = ok
        self.details = {} if details is None else details

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in self.__dict__.items())
        return f"VerificationReport({shown})"

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "field": self.field_descriptor,
            "inputs": dict(sorted(self.inputs.items())),
            "terms": [dict(sorted(term.items())) for term in self.terms],
            "value": self.value,
            "expected": self.expected,
            "ok": self.ok,
            "details": dict(sorted(self.details.items())),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=(",", ": ") if indent else (",", ":"))

    def summary_lines(self) -> list[str]:
        lines = [f"law: {self.law}", f"field: {self.field_descriptor}"]
        for key, val in sorted(self.inputs.items()):
            lines.append(f"  {key} = {val}")
        for term in self.terms:
            shown = ", ".join(f"{k}={v}" for k, v in sorted(term.items()))
            lines.append(f"  term: {shown}")
        lines.append(f"value: {self.value}  expected: {self.expected}")
        lines.append("OK" if self.ok else "FAILED")
        return lines


def place_law_report(law: str, field_descriptor: str, inputs: dict, places,
                     local, identity, combine, **extra) -> VerificationReport:
    """Combine `local` over `places` with the group operation `combine`;
    the law holds when the total equals `identity`.

    `local(x)` returns the value at x and the entries of its term beside the
    place and its degree.  The details count the places, the terms whose
    value is the identity ("suppressed_trivial"), and add `extra`.
    """
    total = identity
    terms = []
    trivial = 0
    for x in places:
        value, entries = local(x)
        total = combine(total, value)
        trivial += value == identity
        terms.append({"place": str(x), "deg": x.degree, **entries})
    return VerificationReport(
        law=law, field_descriptor=field_descriptor, inputs=inputs,
        terms=terms, value=str(total), expected=str(identity),
        ok=total == identity,
        details={"places": len(terms), "suppressed_trivial": trivial,
                 **extra})
