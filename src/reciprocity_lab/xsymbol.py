"""Symbol maps on monomial lattices and the general reciprocity engine.

A finite direct sum of local Laurent models is folded into one integer index
line: block j of a family over places x_1..x_n owns the arithmetic
progression {m : m = offset_j mod D}, and a global lattice decomposes into
block-local lattices via extract_progression.  Three symbol instances are
provided:

* IndexSymbol: integer index of a shift operator, valued in (Z, +);
* ResidueSymbol: commutator-trace residues of a fixed pair f, g, valued in
  (k, +), computed per block against the block-local lattice;
* TameSymbol: tame symbol values of a fixed pair f, g, valued in (k*, x),
  as a class function of the block-local commensurability class.

Each satisfies the symbol axioms (trivial values, commensurability
invariance, additivity over sum and intersection), which the axiom checker
verifies on concrete pairs.  The reciprocity runner mechanically checks the
hypotheses of the general law on a supplied finite family and compares the
value on B_empty with the product over the family.
"""
from __future__ import annotations

from .errors import DomainError, HypothesisViolation, ZeroInputError
from .fields import Field, FieldScalar
from .funcfield import Place, RationalFunction, support_union
from .lattices import (BlockShiftOperator, MonomialLattice, MonomialOperator,
                       lattice_index)
from .report import VerificationReport
from .symbols1d import residue_theorem_places, tame_symbol
from .tate import CommutatorTrace


class IndexSymbol:
    """f(A) = index of a fixed shift operator over A, in the group (Z, +)."""

    name = "index"

    def __init__(self, operator: MonomialOperator | BlockShiftOperator):
        self.operator = operator

    def evaluate(self, lattice: MonomialLattice) -> int:
        return lattice_index(self.operator, lattice)

    def identity(self) -> int:
        return 0

    def combine(self, a: int, b: int) -> int:
        return a + b

    def render(self, a: int) -> str:
        return str(a)


class ResidueSymbol:
    """f(A) = sum of block residues of f dg against block-local lattices.

    Block j holds the commutator trace of f, g at places[j].  A block's
    traced value depends only on the block and its local lattice, and the
    family runs meet the same local lattices again and again; each distinct
    pair is traced once per instance.
    """

    name = "residue"

    def __init__(self, f: RationalFunction, g: RationalFunction,
                 places: list[Place], modulus: int | None = None):
        if f.is_zero() or g.is_zero():
            raise ZeroInputError("residue symbol of a zero function")
        self.field: Field = f.field
        self.modulus = len(places) if modulus is None else modulus
        if self.modulus < len(places):
            raise DomainError("need at least one progression per place")
        self.places = list(places)
        self._blocks = [CommutatorTrace(f, g, x) for x in places]
        self._traced: dict = {}

    def evaluate(self, lattice: MonomialLattice) -> FieldScalar:
        total = self.field.zero_scalar()
        for offset, block in enumerate(self._blocks):
            local = lattice.extract_progression(offset, self.modulus)
            if local.is_empty():
                continue
            key = (offset, local)
            if key not in self._traced:
                self._traced[key] = block.trace(local)
            total = total + self._traced[key]
        return total

    def identity(self) -> FieldScalar:
        return self.field.zero_scalar()

    def combine(self, a: FieldScalar, b: FieldScalar) -> FieldScalar:
        return a + b

    def render(self, a: FieldScalar) -> str:
        return str(a)


def _two_sided_class(local: MonomialLattice) -> tuple[int, int]:
    """(upper, lower) membership flags of a block-local commensurability class.

    upper is 1 when the set eventually contains everything above, lower is 1
    when it contains everything far below; partial periodic patterns have no
    class value and are rejected.
    """
    def flag(pattern) -> int:
        if len(pattern) == local.modulus:
            return 1
        if pattern:
            raise DomainError("block-local lattice is not commensurable "
                              "with a ray, a lower set, the full line, "
                              "or a finite set")
        return 0

    return flag(local.high_pat), flag(local.low_pat)


class TameSymbol:
    """f(A) = product of tame values to the class exponent of each block.

    A block contributes its tame symbol when the local lattice is a ray
    class, the inverse on a lower-set class, and nothing on finite or full
    classes; those four classes are the ones closed under sums and
    intersections, and the exponent upper - lower is additive across them.
    """

    name = "tame"

    def __init__(self, f: RationalFunction, g: RationalFunction,
                 places: list[Place], modulus: int | None = None):
        if f.is_zero() or g.is_zero():
            raise ZeroInputError("tame symbol of a zero function")
        self.field: Field = f.field
        self.modulus = len(places) if modulus is None else modulus
        if self.modulus < len(places):
            raise DomainError("need at least one progression per place")
        self.values = [tame_symbol(f, g, x) for x in places]

    def evaluate(self, lattice: MonomialLattice) -> FieldScalar:
        result = self.field.one_scalar()
        for offset, value in enumerate(self.values):
            local = lattice.extract_progression(offset, self.modulus)
            upper, lower = _two_sided_class(local)
            result = result * value ** (upper - lower)
        return result

    def identity(self) -> FieldScalar:
        return self.field.one_scalar()

    def combine(self, a: FieldScalar, b: FieldScalar) -> FieldScalar:
        return a * b

    def render(self, a: FieldScalar) -> str:
        return str(a)


def xsymbol_axiom_check(sym, a: MonomialLattice, b: MonomialLattice) -> bool:
    """All three symbol axioms on the pair (a, b): conjunction of the checks."""
    fa = sym.evaluate(a)
    fb = sym.evaluate(b)
    ok = True
    for lattice, value in ((a, fa), (b, fb)):
        if lattice.is_empty() or lattice == MonomialLattice.everything():
            ok = ok and value == sym.identity()
    commensurable, _ = a.commensurable(b)
    if commensurable:
        ok = ok and fa == fb
    lhs = sym.combine(fa, fb)
    rhs = sym.combine(sym.evaluate(a.union(b)), sym.evaluate(a.intersect(b)))
    return ok and lhs == rhs


def independence_check(lattices: list[MonomialLattice]) -> bool:
    """Each member meets the sum of the others in a finite set.

    Intersection distributes over union, so this holds exactly when every
    two members meet in a finite set; one pass checks each member against
    the union of the members before it.
    """
    for i in range(1, len(lattices)):
        earlier = lattices[0] if i == 1 else earlier.union(lattices[i - 1])
        if not lattices[i].intersect(earlier).is_finite():
            return False
    return True


class XSymbolFamily:
    """A symbol map, a finite lattice family {A_i}, and an assignment J -> B_J.

    b_map keys are frozensets of family indices; the empty key is the
    lattice whose value the reciprocity law equates with the full product.
    """

    __slots__ = ("symbol", "lattices", "b_map")

    def __init__(self, symbol, lattices, b_map: dict):
        self.symbol = symbol
        self.lattices = list(lattices)
        self.b_map = {frozenset(k): v for k, v in b_map.items()}

    @classmethod
    def with_derived_b(cls, symbol, lattices, base: MonomialLattice | None = None):
        """Build B_J = base + sum of A_i over i not in J, for every J.

        Going down from the full index set, B_J is B_{J + {i}} plus A_i for
        the least i outside J: one union per index set.
        """
        lattices = list(lattices)
        n = len(lattices)
        if n > 10:
            raise DomainError("derived assignments need a family of at most 10")
        full = (1 << n) - 1
        derived = {full: MonomialLattice.empty() if base is None else base}
        for mask in range(full - 1, -1, -1):
            i = (~mask & (mask + 1)).bit_length() - 1
            derived[mask] = derived[mask | (1 << i)].union(lattices[i])
        b_map = {frozenset(i for i in range(n) if mask & (1 << i)): derived[mask]
                 for mask in range(1 << n)}
        return cls(symbol, lattices, b_map)


def general_reciprocity_run(family: XSymbolFamily) -> VerificationReport:
    """Check hypotheses of the reciprocity law, then compare both sides.

    Raises HypothesisViolation naming the clause (a), (b) or (c) and the
    offending index set when the supplied data does not qualify.
    """
    sym = family.symbol
    lattices = family.lattices
    b_map = family.b_map
    n = len(lattices)
    if frozenset() not in b_map:
        raise HypothesisViolation("a", "no lattice assigned to the empty set")

    for J, b_lattice in b_map.items():
        if any(i < 0 or i >= n for i in J):
            raise HypothesisViolation("a", f"index set {sorted(J)} out of range")
        for i in range(n):
            if i not in J and not lattices[i].difference(b_lattice).is_empty():
                raise HypothesisViolation(
                    "a", f"A_{i} is not contained in B_{sorted(J)}")
    keys = sorted(b_map, key=lambda J: (len(J), sorted(J)))
    for J in keys:
        for Jp in keys:
            if not Jp < J:
                continue
            expected = b_map[J]
            for i in J - Jp:
                expected = expected.union(lattices[i])
            if expected != b_map[Jp]:
                raise HypothesisViolation(
                    "a", f"B_{sorted(Jp)} differs from B_{sorted(J)} plus "
                         f"the family members of {sorted(J - Jp)}")
    for J in keys:
        group = [lattices[i] for i in sorted(J)] + [b_map[J]]
        if not independence_check(group):
            raise HypothesisViolation(
                "b", f"family members of {sorted(J)} and B_{sorted(J)} are "
                     "not independent for commensurability")

    values = [sym.evaluate(a) for a in lattices]
    for J in keys:
        if all(values[i] == sym.identity() for i in range(n) if i not in J):
            b_value = sym.evaluate(b_map[J])
            if b_value != sym.identity():
                raise HypothesisViolation(
                    "c", f"B_{sorted(J)} has value {sym.render(b_value)} "
                         "despite trivial complement values")

    lhs = sym.evaluate(b_map[frozenset()])
    rhs = sym.identity()
    terms = []
    for i, value in enumerate(values):
        rhs = sym.combine(rhs, value)
        terms.append({"member": i, "lattice": str(lattices[i]),
                      "value": sym.render(value)})
    field_name = getattr(getattr(sym, "field", None), "descriptor", "Z")
    return VerificationReport(
        law="general-reciprocity",
        field_descriptor=field_name,
        inputs={"symbol": sym.name, "family_size": str(n)},
        terms=terms,
        value=sym.render(lhs),
        expected=sym.render(rhs),
        ok=lhs == rhs,
        details={"b_sets": len(b_map)},
    )


# -- curve encodings ---------------------------------------------------------


def curve_index_family(f: RationalFunction) -> XSymbolFamily:
    """Sum-of-valuations data: one block of deg(x) progressions per place.

    Multiplication by f shifts the block of x by v_x(f) levels, so the index
    over the block ray is deg(x) * v_x(f) on the nose.
    """
    if f.is_zero():
        raise ZeroInputError("the zero function has no valuation data")
    support = f.support()
    if not support:
        support = [(Place.at_infinity(f.field, f.var), 0)]
    modulus = sum(x.degree for x, _ in support)
    shifts = {}
    lattices = []
    offset = 0
    for x, v in support:
        residues = range(offset, offset + x.degree)
        for r in residues:
            shifts[r] = v * modulus
        lattices.append(MonomialLattice.progression_ray(residues, modulus))
        offset += x.degree
    symbol = IndexSymbol(BlockShiftOperator(modulus, shifts))
    return XSymbolFamily.with_derived_b(symbol, lattices)


def _per_place_family(symbol) -> XSymbolFamily:
    """One member per block: the ray of the progression j mod the modulus."""
    lattices = [MonomialLattice.progression_ray((j,), symbol.modulus)
                for j in range(symbol.modulus)]
    return XSymbolFamily.with_derived_b(symbol, lattices)


def curve_residue_family(f: RationalFunction, g: RationalFunction) -> XSymbolFamily:
    """Residue theorem data: one progression per place of the joint support."""
    return _per_place_family(ResidueSymbol(f, g, residue_theorem_places(f, g)))


def curve_tame_family(f: RationalFunction, g: RationalFunction) -> XSymbolFamily:
    """Weil reciprocity data: one progression per place of the joint support."""
    places = support_union(f, g)
    if not places:
        places = [Place.at_infinity(f.field, f.var)]
    return _per_place_family(TameSymbol(f, g, places))
