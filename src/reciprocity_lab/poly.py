"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending by exponent as raw field values; the zero
polynomial is the empty tuple and its degree is the sentinel None, never -1,
so callers are forced to treat it explicitly.

This module also owns the kernels on bare coefficient sequences that every
dense type shares (k[t], k[T]/(pi), truncated k((w)) and k[z]/(z^(N+1))):
`convolve` (products), `divide` (quotient and remainder, the one division
loop over a generic field; factorization over F_p has its own on ints),
`trim` (dropping trailing zeros) and `series_quotient` (power-series
division).  `gcd` and `resultant` walk their remainder sequences as trimmed
tuples and build a `Polynomial` only for the result.

`Polynomial.squarefree_part_decomposition` is Yun's loop in characteristic 0
only, the first step of factoring over Q; factorization over F_p runs its
own on ints.
"""
from __future__ import annotations

from operator import mul as _mul

from .errors import DomainError, MixedFieldError, ZeroInputError
from .fields import Field, ensure_same_field, power


def convolve(F: Field, a, b, length: int | None = None) -> list:
    """Coefficients of the product of the sequences a and b over F.

    Entry k sums a[i]*b[j] over i + j = k, for k < `length` (default: the
    full product length).  Zero coefficients on either side cost nothing.
    """
    if length is None:
        length = len(a) + len(b) - 1
    out = [F.zero] * length
    right = [(j, y) for j, y in enumerate(b) if not F.is_zero(y)]
    for i, x in enumerate(a[:length]):
        if F.is_zero(x):
            continue
        for j, y in right:
            if i + j >= length:
                break
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def divide(F: Field, a, b) -> tuple[list, tuple]:
    """Quotient and remainder of the coefficient sequence a by b over F.

    b must end in a nonzero coefficient.  The remainder has exactly
    len(b) - 1 entries (zero-padded, not trimmed).  b is inverted only when
    it is not monic and a is not shorter than b.
    """
    d = len(b) - 1
    work = list(a)
    quot = [F.zero] * (len(work) - d)
    inv_lc = None if not quot or F.eq(b[-1], F.one) else F.inv(b[-1])
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if F.is_zero(c):
            continue
        if inv_lc is not None:
            c = F.mul(c, inv_lc)
        quot[i - d] = c
        for j in range(d):
            work[i - d + j] = F.sub(work[i - d + j], F.mul(c, b[j]))
    work.extend([F.zero] * (d - len(work)))
    return quot, tuple(work[:d])


def series_quotient(F: Field, num, den, terms: int) -> list:
    """First `terms` coefficients of the power series num/den over F;
    den[0] must be a unit."""
    inv0 = F.inv(den[0])
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else F.zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = F.sub(acc, F.mul(den[j], out[k - j]))
        out.append(F.mul(inv0, acc))
    return out


def trim(F: Field, coeffs) -> tuple:
    """The coefficients without their trailing zeros, as a tuple."""
    n = len(coeffs)
    while n > 0 and F.is_zero(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field: Field, coeffs, var: str = "t"):
        self.field = field
        self.var = var
        self.coeffs = trim(field, [field.coerce(c) if isinstance(c, int) else c
                                   for c in coeffs])

    @classmethod
    def zero(cls, field: Field, var: str = "t") -> "Polynomial":
        return cls(field, (), var)

    @classmethod
    def one(cls, field: Field, var: str = "t") -> "Polynomial":
        return cls(field, (field.one,), var)

    @classmethod
    def constant(cls, field: Field, value, var: str = "t") -> "Polynomial":
        return cls(field, (field.coerce(value),), var)

    @classmethod
    def variable(cls, field: Field, var: str = "t") -> "Polynomial":
        return cls(field, (field.zero, field.one), var)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def leading_coefficient(self):
        if not self.coeffs:
            raise ZeroInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def lowest_index(self) -> int:
        """Index of the lowest nonzero coefficient, the order at var = 0."""
        is_zero = self.field.is_zero
        for k, c in enumerate(self.coeffs):
            if not is_zero(c):
                return k
        raise ZeroInputError("zero polynomial has no lowest coefficient")

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.field.eq(self.coeffs[-1], self.field.one)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def _compat(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise MixedFieldError(f"expected a polynomial, got {other!r}")
        ensure_same_field(self.field, other.field)
        if self.var != other.var:
            raise MixedFieldError(f"mixed variables: {self.var} vs {other.var}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other, self.var)
        self._compat(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Polynomial(F, out, self.var)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return Polynomial(F, [F.neg(c) for c in self.coeffs], self.var)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other, self.var)
        self._compat(other)
        return Polynomial(self.field,
                          convolve(self.field, self.coeffs, other.coeffs),
                          self.var)

    __rmul__ = __mul__

    def scale(self, raw) -> "Polynomial":
        F = self.field
        return Polynomial(F, [F.mul(raw, c) for c in self.coeffs], self.var)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by var**k (k >= 0)."""
        if not self.coeffs:
            return self
        return Polynomial(self.field, (self.field.zero,) * k + self.coeffs, self.var)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ZeroInputError("negative power of a polynomial")
        return power(_mul, Polynomial.one(self.field, self.var), self, n)

    def divmod(self, other: "Polynomial"):
        self._compat(other)
        if other.is_zero():
            raise ZeroInputError("polynomial division by zero")
        quot, rem = divide(self.field, self.coeffs, other.coeffs)
        return (Polynomial(self.field, quot, self.var),
                Polynomial(self.field, rem, self.var))

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ZeroInputError("division was not exact")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor; gcd(0, 0) = 0."""
        self._compat(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        while b:
            a, b = b, trim(F, divide(F, a, b)[1])
        return Polynomial(F, a, self.var).monic()

    def derivative(self) -> "Polynomial":
        F = self.field
        out = [F.mul(F.from_int(k), c) for k, c in enumerate(self.coeffs)][1:]
        return Polynomial(F, out, self.var)

    def evaluate(self, point):
        """Horner evaluation at a raw field value."""
        F = self.field
        if isinstance(point, int):
            point = F.from_int(point)
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, point), c)
        return acc

    def taylor_shift(self, center, terms: int | None = None) -> "Polynomial":
        """Rewrite p(x) as a polynomial in (x - center), by synthetic division.

        Works in any characteristic (no factorials).  Returns q with
        q(w) = p(center + w), coefficients ascending in w; with `terms`,
        only the coefficients of w^k for k < `terms` (q mod w^terms), at
        O(terms * deg p) field operations instead of O(deg p ** 2).
        """
        F = self.field
        if isinstance(center, int):
            center = F.from_int(center)
        work = list(self.coeffs)
        n = len(work)
        out = []
        for k in range(n if terms is None else min(terms, n)):
            # one synthetic division by (x - center); remainder is coeff of w^k
            for i in range(n - 2, k - 1, -1):
                work[i] = F.add(work[i], F.mul(center, work[i + 1]))
            out.append(work[k])
        return Polynomial(F, out, self.var)

    def reverse(self) -> "Polynomial":
        """Coefficient reversal x**deg * p(1/x); zero maps to zero."""
        return Polynomial(self.field, tuple(reversed(self.coeffs)), self.var)

    def resultant(self, other: "Polynomial"):
        """Res(self, other) as a raw field value, by the Euclidean chain."""
        self._compat(other)
        F = self.field
        f, g = self.coeffs, other.coeffs
        if not f or not g:
            # Res with the zero polynomial vanishes unless both are constants.
            return F.zero
        res = F.one
        flip = False
        while True:
            df, dg = len(f) - 1, len(g) - 1
            if dg == 0:
                res = F.mul(res, F.pow(g[0], df))
                return F.neg(res) if flip else res
            if df < dg:
                flip ^= (df * dg) % 2 == 1
                f, g = g, f
                continue
            r = trim(F, divide(F, f, g)[1])
            if not r:
                return F.zero
            flip ^= (df * dg) % 2 == 1
            res = F.mul(res, F.pow(g[-1], df - len(r) + 1))
            f, g = g, r

    def squarefree_part_decomposition(self):
        """Yun's squarefree decomposition in characteristic 0: a list of
        (monic squarefree part, multiplicity), pairwise coprime, ascending
        in multiplicity, whose weighted product is the monic part.

        With c = gcd(f, f') and w = f/c, each step takes y = gcd(w, c): the
        part of multiplicity m is w/y, and the loop goes on with c/y and y.
        Over F_p a part can have derivative 0, so `factor_polynomial` splits
        there on its own (Yun, SYMSAC 1976).
        """
        F = self.field
        if F.char:
            raise DomainError(
                f"squarefree decomposition over {F.descriptor} needs "
                "characteristic 0; factor_polynomial splits over F_p")
        if self.is_zero():
            raise ZeroInputError("zero polynomial has no squarefree decomposition")
        f = self.monic()
        c = f.gcd(f.derivative())
        w = f.exact_div(c)
        parts = []
        m = 1
        while not w.is_constant():
            y = w.gcd(c)
            z = w.exact_div(y)
            if not z.is_constant():
                parts.append((z, m))
            c = c.exact_div(y)
            w = y
            m += 1
        return parts

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, other, self.var)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.var == other.var
                and len(self.coeffs) == len(other.coeffs)
                and all(self.field.eq(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.field, self.var, self.coeffs))

    def sort_key(self):
        return (len(self.coeffs), tuple(self.field.sort_key(c) for c in self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        F = self.field
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if F.is_zero(c):
                continue
            text = F.render(c)
            if k == 0:
                term = text
            else:
                head = self.var if k == 1 else f"{self.var}^{k}"
                if text == "1":
                    term = head
                elif text == "-1":
                    term = f"-{head}"
                else:
                    if _loose_sum(text):
                        text = f"({text})"
                    term = f"{text}*{head}"
            parts.append(term)
        body = parts[0]
        for term in parts[1:]:
            body += ("-" + term[1:]) if term.startswith("-") else ("+" + term)
        return body

    def __repr__(self):
        return f"Polynomial({self.field.descriptor}, {self})"


def _loose_sum(text: str) -> bool:
    """True when a rendered coefficient has a top-level sum, which would
    bind to a following product without parentheses."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False
