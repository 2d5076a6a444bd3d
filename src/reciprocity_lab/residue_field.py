"""Residue fields k[T]/(pi) of places, with exact norm and trace down to k.

Raw elements are coefficient tuples of length deg(pi) over the ground
field's raw representation.  The norm of a class is Res(pi, a) (pi monic, so
this is the product of a over the roots of pi).  The trace is the top
coefficient of a pi' mod pi: it is the residue of a pi'/pi dt at pi, read
in k[t] as `tate.differential_residue` reads residues, and needs no
division, so it works in any characteristic.  Both are cross-checked in
the test suite against the multiplication-matrix oracle.

Products are `poly.mul_mod`, the product mod the monic pi: it inverts
nothing, keeps no quotient, and over F_p reduces each entry once.  `inv`
is `poly.inverse_mod`, the library's one extended-Euclid loop.
`from_coeffs` divides only a sequence longer than deg pi; a shorter one,
such as the constant unit values every split at infinity hands over, is
its own remainder and is only padded.

`ResidueField` is a `Field` like Q and F_p, so polynomials can take their
coefficients in it and its classes travel as `FieldScalar`s tagged with it.
"""
from __future__ import annotations

from .errors import DomainError, MixedFieldError, ZeroInputError
from .fields import Field, FieldScalar, PrimeField
from .poly import Polynomial, divide, inverse_mod, mul_mod


class ResidueField(Field):
    """k[T]/(pi) for a monic irreducible pi over the ground field."""

    __slots__ = ("base", "modulus", "degree", "char", "zero", "one")

    def __init__(self, modulus: Polynomial):
        if not modulus.is_monic() or modulus.degree < 1:
            raise DomainError("residue field modulus must be monic of degree >= 1")
        F = modulus.field
        self.base = F
        self.modulus = modulus
        self.degree = modulus.degree
        self.char = F.char
        self.zero = (F.zero,) * self.degree
        self.one = (F.one,) + (F.zero,) * (self.degree - 1)

    @classmethod
    def trivial(cls, base: Field) -> "ResidueField":
        """k itself, presented as k[T]/(T); used for the place at infinity."""
        return cls(Polynomial.variable(base, "T"))

    @property
    def descriptor(self) -> str:
        return f"{self.base.descriptor}[T]/({self.modulus})"

    # -- raw tuple arithmetic ------------------------------------------------

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == self.degree:
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise MixedFieldError(f"cannot coerce {value!r} into {self.descriptor}")

    def from_base(self, raw):
        F = self.base
        return (raw,) + (F.zero,) * (self.degree - 1)

    def from_int(self, n: int):
        return self.from_base(self.base.from_int(n))

    def from_coeffs(self, coeffs):
        """Reduce an arbitrary coefficient sequence mod pi into a raw tuple.

        A sequence no longer than deg pi is its own remainder: it is only
        zero-padded, with each entry reduced mod p over F_p, as `divide`
        would return it.
        """
        pad = self.degree - len(coeffs)
        if pad < 0:
            return divide(self.base, coeffs, self.modulus.coeffs)[1]
        if isinstance(self.base, PrimeField):
            p = self.base.p
            return tuple([c % p for c in coeffs]) + self.zero[:pad]
        return tuple(coeffs) + self.zero[:pad]

    def is_zero(self, a) -> bool:
        F = self.base
        return all(F.is_zero(c) for c in a)

    def eq(self, a, b) -> bool:
        F = self.base
        return all(F.eq(x, y) for x, y in zip(a, b))

    def add(self, a, b):
        F = self.base
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        F = self.base
        return tuple(F.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        F = self.base
        return tuple(F.neg(x) for x in a)

    def mul(self, a, b):
        F = self.base
        if self.degree == 1:
            return (F.mul(a[0], b[0]),)
        return mul_mod(F, a, b, self.modulus.coeffs)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroInputError("division by zero in a residue field")
        if self.degree == 1:
            return (self.base.inv(a[0]),)
        return inverse_mod(self.base, a, self.modulus.coeffs)

    # -- norm and trace ------------------------------------------------------

    def norm_raw(self, a):
        """Norm down to the ground field: Res(pi, a~) for a representative a~."""
        if self.is_zero(a):
            return self.base.zero
        if self.degree == 1:
            return a[0]
        rep = Polynomial(self.base, a, self.modulus.var)
        return self.modulus.resultant(rep)

    def trace_raw(self, a):
        """Trace down to the ground field: the top coefficient of a pi' mod pi."""
        if self.degree == 1:
            return a[0]
        pi = self.modulus
        return mul_mod(self.base, a, pi.derivative().coeffs, pi.coeffs)[-1]

    def norm(self, a) -> FieldScalar:
        return FieldScalar(self.base, self.norm_raw(a))

    def trace(self, a) -> FieldScalar:
        return FieldScalar(self.base, self.trace_raw(a))

    # -- plumbing --------------------------------------------------------------

    def sort_key(self, a):
        return tuple(self.base.sort_key(c) for c in a)

    def render(self, raw) -> str:
        return str(Polynomial(self.base, raw, "T"))

    def __eq__(self, other):
        return (isinstance(other, ResidueField)
                and self.base == other.base
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.base, self.modulus))
