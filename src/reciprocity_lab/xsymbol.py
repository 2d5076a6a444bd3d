"""Symbol maps on monomial lattices and the general reciprocity engine.

A finite direct sum of local Laurent models is folded into one integer index
line: block j of a family over places x_1..x_n owns the arithmetic
progression {m : m = offset_j mod D}, and a global lattice decomposes into
block-local lattices via extract_progression.  Three symbol instances are
provided:

* IndexSymbol: integer index of a BlockShiftOperator (one shift per residue
  class, so per block), valued in (Z, +);
* ResidueSymbol: commutator-trace residues of a fixed pair f, g, valued in
  (k, +), computed per block against the block-local lattice;
* TameSymbol: tame symbol values of a fixed pair f, g, valued in (k*, x),
  as a class function of the block-local commensurability class, whose
  exponent is read off the canonical form of the block-local lattice.

Each satisfies the symbol axioms (trivial values, commensurability
invariance, additivity over sum and intersection), which the axiom checker
verifies on concrete pairs.  The reciprocity runner needs B_J for each of
the 2^n sets J in range(n), checks the law's hypotheses by their generators
and compares the value on B_empty with the product over the family:
(a) B_J = B_full + sum of A_k, k outside J; unions compose these into every
    B_J' = B_J + sum of A_i over J - J', with A_i inside B_J;
(b) A_j meets B_{j} finitely; under (a), B_{j} holds every A_k (k != j)
    and B_J (j in J), so each pair among the A_j of J and B_J does too;
(c) B_J has the identity value when every A_k outside J has.
"""
from __future__ import annotations

from .errors import DomainError, HypothesisViolation, ZeroInputError
from .fields import Field, FieldScalar
from .funcfield import Place, RationalFunction, support_union
from .lattices import BlockShiftOperator, MonomialLattice, lattice_index
from .report import VerificationReport
from .symbols1d import residue_differential, tame_symbol
from .tate import CommutatorTrace


class IndexSymbol:
    """f(A) = index of a fixed shift operator over A, in the group (Z, +)."""

    name = "index"

    def __init__(self, operator: BlockShiftOperator):
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
                 places: list[Place]):
        if f.is_zero() or g.is_zero():
            raise ZeroInputError("residue symbol of a zero function")
        self.field: Field = f.field
        self.modulus = len(places)
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


class TameSymbol:
    """f(A) = product of tame values to the class exponent of each block.

    A block contributes its tame symbol when the local lattice is a ray
    class, the inverse on a lower-set class, and nothing on finite or full
    classes; those four classes are the ones closed under sums and
    intersections, and the exponent upper - lower is additive across them.
    The canonical form reduces the modulus to the joint period of its
    patterns, so a local lattice lies in one of the four classes exactly
    when its modulus is 1, and then upper - lower is
    len(high_pat) - len(low_pat).
    """

    name = "tame"

    def __init__(self, f: RationalFunction, g: RationalFunction,
                 places: list[Place]):
        if f.is_zero() or g.is_zero():
            raise ZeroInputError("tame symbol of a zero function")
        self.field: Field = f.field
        self.modulus = len(places)
        self.values = [tame_symbol(f, g, x) for x in places]

    def evaluate(self, lattice: MonomialLattice) -> FieldScalar:
        result = self.field.one_scalar()
        for offset, value in enumerate(self.values):
            local = lattice.extract_progression(offset, self.modulus)
            if local.modulus != 1:
                raise DomainError("block-local lattice is not commensurable "
                                  "with a ray, a lower set, the full line, "
                                  "or a finite set")
            result = result * value ** (len(local.high_pat) - len(local.low_pat))
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


def _descend(lattices, top: MonomialLattice) -> dict:
    """B_J for each J in range(n), in bitmask order, from B_{range(n)} = top.

    B_J is B_{J + {i}} plus A_i for the least i outside J: one union per set.
    """
    n = len(lattices)
    full = (1 << n) - 1
    derived = {full: top}
    for mask in range(full - 1, -1, -1):
        i = (~mask & (mask + 1)).bit_length() - 1
        derived[mask] = derived[mask | (1 << i)].union(lattices[i])
    return {frozenset(i for i in range(n) if mask & (1 << i)): derived[mask]
            for mask in range(1 << n)}


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
    def with_derived_b(cls, symbol, lattices):
        """Build B_J = sum of A_i over i not in J, for every J."""
        lattices = list(lattices)
        if len(lattices) > 10:
            raise DomainError("derived assignments need a family of at most 10")
        return cls(symbol, lattices, _descend(lattices, MonomialLattice.empty()))


def general_reciprocity_run(family: XSymbolFamily) -> VerificationReport:
    """Check hypotheses of the reciprocity law, then compare both sides.

    b_map must hold exactly the 2^n subsets of range(n).  By the generators
    of the module docstring, (a) compares the map derived from B_full key
    by key, and (b) meets each A_j with B_{j}: the least failing {j} is
    the first set a check of every J would flag.

    Raises HypothesisViolation naming the clause (a), (b) or (c) and the
    offending index set when the supplied data does not qualify.
    """
    sym = family.symbol
    lattices = family.lattices
    b_map = family.b_map
    n = len(lattices)
    full = frozenset(range(n))
    derived = _descend(lattices, b_map.get(full, MonomialLattice.empty()))
    odd = sorted(b_map.keys() ^ derived.keys(), key=sorted)
    if odd:
        where = "has no lattice" if odd[0] in derived else "is out of range"
        raise HypothesisViolation("a", f"index set {sorted(odd[0])} {where}")
    # top down, so B_{J + {i}} is known to match when B_J is compared
    for J, expected in reversed(derived.items()):
        if expected != b_map[J]:
            i = min(full - J)
            raise HypothesisViolation(
                "a", f"B_{sorted(J)} differs from B_{sorted(J | {i})} plus A_{i}")
    for j in range(n):
        if not independence_check([lattices[j], b_map[frozenset({j})]]):
            raise HypothesisViolation(
                "b", f"family members of {[j]} and B_{[j]} are "
                     "not independent for commensurability")

    values = [sym.evaluate(a) for a in lattices]
    for J in sorted(b_map, key=lambda J: (len(J), sorted(J))):
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
    _, places = residue_differential(f, g)
    return _per_place_family(ResidueSymbol(f, g, places))


def curve_tame_family(f: RationalFunction, g: RationalFunction) -> XSymbolFamily:
    """Weil reciprocity data: one progression per place of the joint support."""
    places = support_union(f, g)
    if not places:
        places = [Place.at_infinity(f.field, f.var)]
    return _per_place_family(TameSymbol(f, g, places))
