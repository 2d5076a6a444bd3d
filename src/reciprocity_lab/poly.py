"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending by exponent as raw field values; the zero
polynomial is the empty tuple and its degree is the sentinel None, never -1,
so callers are forced to treat it explicitly.

This module also owns the kernels on bare coefficient sequences that every
dense type shares (k[t], k[T]/(pi), truncated k((w)) and k[z]/(z^(N+1)))
and factorization over F_p: `convolve` (products), `mul_mod` (products
mod a monic m), `divide` (quotient and remainder; `_long_division` is the
one division loop), `monic_gcd` (the one Euclid loop), `squarefree_parts`
(the one Yun loop), `trim` (dropping trailing zeros) and `series_quotient`
(power-series division).  It is the only module that decides how
coefficients are multiplied and divided: the kernels check once per call
for F_p, where they run on ints, and otherwise call the field's methods.
Over F_p every product is summed exactly by the one product loop,
`_exact_products`; `convolve` reduces each entry kept once, and `mul_mod`
hands the exact sums to the division loop, which reduces each entry once
as it reads it.  Over Q, `monic_gcd` first tries to prove two sides of
degree >= 2 coprime from their images mod the prime 2^61 - 1, an exact
certificate (`_coprime_mod_p`); most canonical forms have gcd 1, and
Euclid's loop on Fractions runs only where the certificate cannot
decide.  `gcd` and `resultant` walk their remainder sequences as trimmed
tuples and build a `Polynomial` only for the result.
"""
from __future__ import annotations

from operator import mul as _mul

from .errors import DomainError, MixedFieldError, ZeroInputError
from .fields import (Field, PrimeField, RationalField, ensure_same_field,
                     power)

# The prime of the coprimality certificate over Q (`_coprime_mod_p`).
_CERTIFICATE_FIELD = PrimeField(2 ** 61 - 1)


def _exact_products(a, b) -> list:
    """Entries of the product of the int sequences a and b, summed exactly
    and never reduced; zeros of a are skipped.  The one product loop over
    F_p, which `convolve` and `mul_mod` reduce."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            k = i
            for y in b:
                out[k] += x * y
                k += 1
    return out


def convolve(F: Field, a, b, length: int | None = None) -> list:
    """Coefficients of the product of the sequences a and b over F.

    Entry k sums a[i]*b[j] over i + j = k, for k < `length` (default: the
    full product length), zero-padded past the product.  Over F_p the full
    product is summed in exact ints (`_exact_products`), and each entry
    kept is reduced once; over other fields zero coefficients on either
    side cost nothing.
    """
    if isinstance(F, PrimeField):
        p = F.p
        out = [c % p for c in _exact_products(a, b)[:length]]
        if length is None:
            return out
        return out + [0] * (length - len(out))
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


def _long_division(F: Field, work: list, b, inv_lc) -> tuple:
    """Divide the list `work` by b in place; return the remainder.

    b ends in a nonzero coefficient, and inv_lc is its inverse, or None
    when b is monic.  Each quotient coefficient is left where its leading
    entry was read, so work[len(b) - 1:] ends as the quotient.  The
    remainder has exactly len(b) - 1 entries (zero-padded, not trimmed).
    Over F_p the entries of work may be any ints: sums stay exact and each
    entry is reduced once, when it is read as a quotient or a remainder
    coefficient.
    """
    d = len(b) - 1
    if isinstance(F, PrimeField):
        p = F.p
        low = b[:d]
        for i in range(len(work) - 1, d - 1, -1):
            c = work[i] % p
            if c:
                if inv_lc is not None:
                    c = c * inv_lc % p
                k = i - d
                for y in low:
                    work[k] -= c * y
                    k += 1
            work[i] = c
        rem = [w % p for w in work[:d]]
    else:
        for i in range(len(work) - 1, d - 1, -1):
            c = work[i]
            if F.is_zero(c):
                work[i] = F.zero
                continue
            if inv_lc is not None:
                c = F.mul(c, inv_lc)
            work[i] = c
            for j in range(d):
                work[i - d + j] = F.sub(work[i - d + j], F.mul(c, b[j]))
        rem = work[:d]
    if len(rem) < d:
        rem += [F.zero] * (d - len(rem))
    return tuple(rem)


def divide(F: Field, a, b) -> tuple[list, tuple]:
    """Quotient and remainder of the coefficient sequence a by b over F.

    b must end in a nonzero coefficient.  The remainder has exactly
    len(b) - 1 entries (zero-padded, not trimmed).  b is inverted only when
    it is not monic and a is not shorter than b.  Over F_p the entries of a
    may be any ints, as in `_long_division`.
    """
    d = len(b) - 1
    work = list(a)
    inv_lc = None if len(work) <= d or F.eq(b[-1], F.one) else F.inv(b[-1])
    rem = _long_division(F, work, b, inv_lc)
    return work[d:], rem


def mul_mod(F: Field, a, b, m) -> tuple:
    """The product of a and b modulo the monic m, as len(m) - 1 entries.

    Over F_p the exact int sums of the product are divided, so each entry
    is reduced once; no quotient is kept and m's leading coefficient is
    never read.
    """
    if isinstance(F, PrimeField):
        return _long_division(F, _exact_products(a, b), m, None)
    return _long_division(F, convolve(F, a, b), m, None)


def _coprime_mod_p(a, b) -> bool:
    """True when the images of a and b over Q in F_P, P = 2^61 - 1, prove
    that a and b are coprime: P divides no denominator and neither leading
    numerator, and the gcd of the images is constant.

    A common factor g of a and b over Q, taken primitive in Z[t], divides
    both in Z[t] (Gauss), and its leading coefficient divides theirs, so
    its image keeps its degree and divides both images.  A constant gcd
    mod P therefore excludes it: the certificate is exact, and False only
    means that Euclid's loop must decide (Brown, J. ACM 1971; von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 6).
    """
    p = _CERTIFICATE_FIELD.p
    images = []
    for seq in (a, b):
        image = []
        for c in seq:
            den = c.denominator
            if den == 1:
                image.append(c.numerator % p)
            elif den % p:
                image.append(c.numerator * pow(den, -1, p) % p)
            else:
                return False
        if not image[-1]:
            return False
        images.append(image)
    return len(monic_gcd(_CERTIFICATE_FIELD, *images)) == 1


def monic_gcd(F: Field, a, b) -> tuple:
    """Monic greatest common divisor of the trimmed coefficient sequences
    a and b over F, by Euclid's loop; gcd(0, 0) = ().

    Over Q, when both have degree >= 2, `_coprime_mod_p` first tries to
    prove the gcd is 1 from one image mod a large prime; for a linear side
    Euclid's loop is one division anyway.
    """
    if (len(a) > 2 and len(b) > 2 and isinstance(F, RationalField)
            and _coprime_mod_p(a, b)):
        return (F.one,)
    while b:
        a, b = b, trim(F, divide(F, a, b)[1])
    if not a or F.eq(a[-1], F.one):
        return tuple(a)
    inv = F.inv(a[-1])
    return tuple(F.mul(inv, c) for c in a)


def squarefree_parts(F: Field, f) -> list[tuple[tuple, int]]:
    """Yun's squarefree decomposition of the nonzero trimmed sequence f: a
    list of (monic squarefree part, multiplicity), pairwise coprime,
    ascending in multiplicity, whose weighted product is f made monic.

    With c = gcd(f, f') and w = f/c, each step takes y = gcd(w, c): the part
    of multiplicity m is w/y, and the loop goes on with c/y and y.  Only in
    characteristic p can the derivative vanish: then f = g(x^p) = h(x)^p,
    its p-th root h keeps every p-th coefficient, and the multiplicities
    found in h are scaled by p.  At the level of p^j they are p^j * k with
    p not dividing k, so no two parts share one (Yun, SYMSAC 1976).
    """
    out = []
    scale = 1
    f = monic_gcd(F, f, ())
    while len(f) > 1:
        d = trim(F, [F.mul(F.from_int(k), c) for k, c in enumerate(f)][1:])
        if not d:
            f, scale = f[::F.char], scale * F.char
            continue
        c = monic_gcd(F, f, d)
        w = divide(F, f, c)[0]
        m = scale
        while len(w) > 1:
            y = monic_gcd(F, w, c)
            z = divide(F, w, y)[0]
            if len(z) > 1:
                out.append((tuple(z), m))
            c = divide(F, c, y)[0]
            w = y
            m += scale
        f = c
    return sorted(out, key=lambda item: item[1])


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

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise DomainError("negative power of a polynomial")
        return power(_mul, Polynomial.one(self.field, self.var), self, n)

    def divmod(self, other: "Polynomial"):
        self._compat(other)
        if other.is_zero():
            raise ZeroInputError("polynomial division by zero")
        quot, rem = divide(self.field, self.coeffs, other.coeffs)
        return (Polynomial(self.field, quot, self.var),
                Polynomial(self.field, rem, self.var))

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DomainError("division was not exact")
        return q

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor; gcd(0, 0) = 0."""
        self._compat(other)
        return Polynomial(self.field,
                          monic_gcd(self.field, self.coeffs, other.coeffs),
                          self.var)

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
        """Yun's squarefree decomposition (`squarefree_parts`) of the monic
        part, in characteristic 0: a list of (monic squarefree part,
        multiplicity), pairwise coprime and ascending in multiplicity.
        `factor_polynomial` runs the same loop on the coefficients over
        both Q and F_p.
        """
        F = self.field
        if F.char:
            raise DomainError(
                f"squarefree decomposition over {F.descriptor} needs "
                "characteristic 0; factor_polynomial splits over F_p")
        if self.is_zero():
            raise ZeroInputError("zero polynomial has no squarefree decomposition")
        return [(Polynomial(F, g, self.var), m)
                for g, m in squarefree_parts(F, self.coeffs)]

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
