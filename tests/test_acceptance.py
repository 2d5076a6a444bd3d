"""Acceptance gate: every stated criterion, one printed line per criterion.

Each test draws from its own seeded generator, runs the full sample count,
and prints "criterion N: PASS/FAIL - summary"; run with `pytest -s` to see
the lines as they happen.  Time budgets are asserted where stated.
"""
import random
import time

from reciprocity_lab.funcfield import Place, RationalFunction, support_union
from reciprocity_lab.lattices import (BlockShiftOperator, MonomialLattice,
                                      lattice_index)
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.segalwilson import (DEFAULT_ORDER, cocycle_on_lattice,
                                         sw_verify)
from reciprocity_lab.surface import (hk4, horozov3, nu_symbol, nu_verify,
                                     parshin3, reciprocity_verify_2d,
                                     surface_generators)
from reciprocity_lab.symbols1d import (hilbert_verify, residue_theorem_verify,
                                       sum_of_valuations_verify, tame_symbol,
                                       weil_verify)
from reciprocity_lab.tate import (abstract_residue_trace, classical_residue,
                                  minimal_window)
from reciprocity_lab.xsymbol import (IndexSymbol, curve_index_family,
                                     curve_residue_family, curve_tame_family,
                                     general_reciprocity_run,
                                     xsymbol_axiom_check)

from helpers import (F5, F7, F13, Q, rand_fn, rand_fn_for, rand_fn_q,
                     rand_surface_fn)

SEED = 20260813


def _report(num: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {description}", flush=True)
    assert ok, f"criterion {num}: {description}"


def _ray_spec(rng):
    n0 = rng.randint(-5, 5)
    added = {n0 - rng.randint(1, 6) for _ in range(rng.randint(0, 3))}
    removed = {n0 + rng.randint(0, 6) for _ in range(rng.randint(0, 3))}
    return MonomialLattice.from_ray_spec(n0, added, removed)


def _two_sided(rng):
    kind = rng.randrange(6)
    if kind in (0, 1):
        return _ray_spec(rng)
    if kind == 2:
        return _ray_spec(rng).complement()
    if kind == 3:
        return MonomialLattice.finite({rng.randint(-8, 8)
                                       for _ in range(rng.randint(0, 4))})
    if kind == 4:
        return MonomialLattice.everything()
    return MonomialLattice.empty()


def test_criterion_01_sum_of_valuations():
    rng = random.Random(SEED + 1)
    start = time.perf_counter()
    count = 0
    for field in (F5, F7, Q):
        for _ in range(500):
            f = rand_fn_q(rng, max_deg=8) if field is Q \
                else rand_fn(rng, field, max_deg=8)
            if not sum_of_valuations_verify(f).ok:
                _report(1, False, f"nonzero valuation sum for {f}")
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 1500 and elapsed < 5.0
    _report(1, ok, f"valuation sums of {count} random functions over "
                   f"F5/F7/Q, degree <= 8, in {elapsed:.2f}s (budget 5s)")


def test_criterion_02_weil_reciprocity():
    rng = random.Random(SEED + 2)
    start = time.perf_counter()
    high_degree_places = 0
    count = 0
    for field in (F5, F7):
        for _ in range(100):
            f = rand_fn(rng, field, max_deg=6)
            g = rand_fn(rng, field, max_deg=6)
            report = weil_verify(f, g)
            if not report.ok:
                _report(2, False, f"weil product != 1 for ({f}, {g})")
            high_degree_places += sum(1 for term in report.terms
                                      if term["deg"] >= 2)
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 200 and high_degree_places > 0 and elapsed < 30.0
    _report(2, ok, f"weil products of {count} pairs over F5/F7 with "
                   f"{high_degree_places} norm-twisted terms at places of "
                   f"degree >= 2, in {elapsed:.2f}s (budget 30s)")


def test_criterion_03_residue_theorem():
    rng = random.Random(SEED + 3)
    start = time.perf_counter()
    count = 0
    oracle_cases = 0
    for field in (Q, F7):
        for i in range(100):
            with_oracle = i < 25
            deg = 3 if with_oracle else 5
            if field is Q:
                f = rand_fn_q(rng, max_deg=min(deg, 4), quadratic=False)
                g = rand_fn_q(rng, max_deg=min(deg, 4), quadratic=False)
            else:
                f = rand_fn(rng, field, max_deg=deg)
                g = rand_fn(rng, field, max_deg=deg)
            report = residue_theorem_verify(f, g, oracle=with_oracle)
            if not report.ok:
                _report(3, False, f"residues of ({f})d({g}) do not sum to 0")
            if with_oracle:
                oracle_cases += 1
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 200 and oracle_cases == 50 and elapsed < 60.0
    _report(3, ok, f"residue sums of {count} pairs over Q/F7, "
                   f"{oracle_cases} cross-checked against the commutator "
                   f"trace, in {elapsed:.2f}s (budget 60s)")


def test_criterion_04_oracle_equivalence():
    rng = random.Random(SEED + 4)
    cases = 0
    while cases < 200:
        field = Q if cases % 2 else F5
        f = rand_fn_for(rng, field, max_deg=3)
        g = rand_fn_for(rng, field, max_deg=3)
        places = support_union(f, g, include_infinity=True)
        for x in places[:2]:
            want = classical_residue(f, g, x)
            window = minimal_window(f, g, x)
            for truncate in ("f", "g"):
                if abstract_residue_trace(f, g, x, truncate=truncate) != want:
                    _report(4, False,
                            f"{truncate}-truncation disagrees at {x}")
            if abstract_residue_trace(f, g, x, window=window + 3) != want:
                _report(4, False, f"window growth changes the trace at {x}")
            cases += 1
            if cases == 200:
                break
    _report(4, True, f"abstract trace equals the classical residue on "
                     f"{cases} triples, both truncations, windows w and w+3")


def test_criterion_05_hilbert_reciprocity():
    rng = random.Random(SEED + 5)
    runs = 0
    for field, q in ((F5, 5), (F13, 13)):
        divisors = [m for m in range(1, q) if (q - 1) % m == 0]
        for i in range(100):
            m = divisors[i % len(divisors)]
            f = rand_fn(rng, field, max_deg=4)
            g = rand_fn(rng, field, max_deg=4)
            report = hilbert_verify(f, g, m)
            if not report.ok:
                _report(5, False, f"hilbert product != 1 for m={m} over "
                                  f"{field.descriptor}")
            runs += 1
    _report(5, True, f"{runs} hilbert products over q in {{5, 13}} "
                     f"covering every m dividing q-1")


def test_criterion_06_xsymbol_additivity_and_reciprocity():
    rng = random.Random(SEED + 6)
    pairs = 0
    for _ in range(334):
        sym = IndexSymbol(BlockShiftOperator(1, {0: rng.randint(-4, 4)}))
        if not xsymbol_axiom_check(sym, _two_sided(rng), _two_sided(rng)):
            _report(6, False, "index-instance additivity failed")
        pairs += 1
    for builder, budget in ((curve_residue_family, 333),
                            (curve_tame_family, 333)):
        done = 0
        while done < budget:
            f = rand_fn(rng, F5, max_deg=2)
            g = rand_fn(rng, F5, max_deg=2)
            sym = builder(f, g).symbol
            for _ in range(min(30, budget - done)):
                if not xsymbol_axiom_check(sym, _two_sided(rng),
                                           _two_sided(rng)):
                    _report(6, False, f"{sym.name}-instance additivity "
                                      f"failed for ({f}, {g})")
                done += 1
        pairs += done
    families = 0
    for _ in range(20):
        field = (F5, Q)[families % 2]
        f = rand_fn_for(rng, field, max_deg=4)
        if not general_reciprocity_run(curve_index_family(f)).ok:
            _report(6, False, f"index family reciprocity failed for {f}")
        families += 1
    for builder in (curve_residue_family, curve_tame_family):
        for _ in range(15):
            field = (F5, Q)[families % 2]
            f = rand_fn_for(rng, field, max_deg=3)
            g = rand_fn_for(rng, field, max_deg=3)
            if not general_reciprocity_run(builder(f, g)).ok:
                _report(6, False, "curve family reciprocity failed")
            families += 1
    _report(6, pairs == 1000 and families == 50,
            f"additivity on {pairs} lattice pairs across three instances "
            f"and {families} admissible families verified")


def test_criterion_07_index_laws():
    rng = random.Random(SEED + 7)
    additive = 0
    while additive < 1000:
        shift = rng.randint(-4, 4)
        op = BlockShiftOperator(1, {0: shift})
        a, b = _ray_spec(rng), _ray_spec(rng)
        if lattice_index(op, a) + lattice_index(op, b) != \
                lattice_index(op, a.union(b)) + lattice_index(op, a.intersect(b)):
            _report(7, False, "index additivity failed")
        additive += 1
    invariant = 0
    while invariant < 1000:
        op = BlockShiftOperator(1, {0: rng.randint(-5, 5)})
        a = _ray_spec(rng)
        b = a.symmetric_difference(MonomialLattice.finite(
            {rng.randint(-10, 10) for _ in range(rng.randint(0, 4))}))
        if lattice_index(op, a) != lattice_index(op, b):
            _report(7, False, "index not commensurability invariant")
        invariant += 1
    degree_weighted = 0
    while degree_weighted < 1000:
        field = (F5, F7, Q)[degree_weighted % 3]
        f = rand_fn_for(rng, field, max_deg=5)
        support = f.support()
        if not support:
            continue
        modulus = sum(x.degree for x, _ in support)
        offset = 0
        for x, v in support:
            residues = tuple(range(offset, offset + x.degree))
            op = BlockShiftOperator(modulus,
                                    {r: v * modulus for r in residues})
            block = MonomialLattice.progression_ray(residues, modulus)
            if lattice_index(op, block) != x.degree * v:
                _report(7, False, f"index != deg*v at {x}")
            offset += x.degree
            degree_weighted += 1
    _report(7, additive >= 1000 and invariant >= 1000
            and degree_weighted >= 1000,
            f"index additivity ({additive}), commensurability invariance "
            f"({invariant}), and deg*v identity ({degree_weighted}) all exact")


def test_criterion_08_surface_reciprocities():
    rng = random.Random(SEED + 8)
    start = time.perf_counter()
    samples = 0
    refinements = 0
    z_checks = 0
    for i in range(100):
        base = (F5, Q)[i % 2]
        s, t = surface_generators(base)
        x = Place.finite(Polynomial.variable(base, "s"))
        rescalings = (t * (1 + t), s * t)
        if i % 4 == 3:
            quad = [rand_surface_fn(rng, base, max_factors=2)
                    for _ in range(4)]
            if not reciprocity_verify_2d("hk4", quad).ok:
                _report(8, False, "hk4 product != 1")
            want = hk4(*quad, x)
            for z in rescalings:
                if hk4(*quad, x, z=z) != want:
                    _report(8, False, "hk4 is not z-independent")
                z_checks += 1
        else:
            triple = [rand_surface_fn(rng, base, max_factors=2)
                      for _ in range(3)]
            kind = ("nu", "horozov", "parshin")[i % 3]
            if kind == "nu":
                report = nu_verify(triple[0], triple[1])
            else:
                report = reciprocity_verify_2d(kind, triple)
            if not report.ok:
                _report(8, False, f"{kind} law failed over "
                                  f"{base.descriptor}")
            cyclic = horozov3(*triple, x) * \
                horozov3(triple[2], triple[0], triple[1], x) * \
                horozov3(triple[1], triple[2], triple[0], x)
            if parshin3(*triple, x) != cyclic:
                _report(8, False, "parshin != cyclic horozov product")
            refinements += 1
            if i % 4 == 1:
                nu_want = nu_symbol(triple[0], triple[1], x)
                parshin_want = parshin3(*triple, x)
                for z in rescalings:
                    if nu_symbol(triple[0], triple[1], x, z=z) != nu_want:
                        _report(8, False, "nu is not z-independent")
                    if parshin3(*triple, x, z=z) != parshin_want:
                        _report(8, False, "parshin is not z-independent")
                    z_checks += 2
        samples += 1
    elapsed = time.perf_counter() - start
    _report(8, samples == 100 and refinements >= 50 and z_checks >= 50
            and elapsed < 10.0,
            f"{samples} surface samples over F5/Q: nu/horozov/parshin/hk4 "
            f"laws hold, {refinements} cyclic refinements, "
            f"{z_checks} parameter-change checks, in {elapsed:.2f}s "
            f"(budget 10s)")


def test_criterion_09_segal_wilson():
    rng = random.Random(SEED + 9)
    products = 0
    for _ in range(100):
        f = rand_fn_q(rng, max_deg=4, quadratic=False)
        g = rand_fn_q(rng, max_deg=4, quadratic=False)
        report = sw_verify(f, g)
        if not (report.ok and report.inputs["order"] == str(DEFAULT_ORDER)):
            _report(9, False, f"cocycle product != 1 for ({f}, {g})")
        products += 1
    fixtures = []
    t = RationalFunction.variable(Q)
    x0 = Place.finite(Polynomial.variable(Q))
    fixtures.append(((t + 2) / (t * t), t * t - t, x0))
    fixtures.append((1 / t, t ** 3, x0))
    fixtures.append((1 / (t - 1) ** 2, t * t,
                     Place.finite(Polynomial.variable(Q)
                                  - Polynomial.one(Q))))
    additive = 0
    for i in range(200):
        f, g, x = fixtures[i % len(fixtures)]
        a = _ray_spec(rng)
        b = _ray_spec(rng)
        lhs = cocycle_on_lattice(f, g, x, a) * cocycle_on_lattice(f, g, x, b)
        rhs = cocycle_on_lattice(f, g, x, a.union(b)) * \
            cocycle_on_lattice(f, g, x, a.intersect(b))
        if lhs != rhs:
            _report(9, False, f"cocycle lattice additivity failed on {a}, {b}")
        additive += 1
    _report(9, products == 100 and additive == 200,
            f"{products} cocycle products equal 1 in Q[z]/(z^13) and "
            f"{additive} lattice-additivity cases exact to order 12")


def test_criterion_10_tame_symbol_algebra():
    rng = random.Random(SEED + 10)
    triples = 0
    while triples < 500:
        field = (F5, F7, Q)[triples % 3]
        f = rand_fn_for(rng, field, max_deg=4)
        g = rand_fn_for(rng, field, max_deg=4)
        h = rand_fn_for(rng, field, max_deg=4)
        places = support_union(f, g, h, include_infinity=True)
        for x in places[:3]:
            ab = tame_symbol(f, g, x)
            if ab * tame_symbol(g, f, x) != field.scalar(1):
                _report(10, False, f"antisymmetry failed at {x}")
            if tame_symbol(f * h, g, x) != ab * tame_symbol(h, g, x):
                _report(10, False, f"left bimultiplicativity failed at {x}")
            if tame_symbol(f, g * h, x) != ab * tame_symbol(f, h, x):
                _report(10, False, f"right bimultiplicativity failed at {x}")
        triples += 1
    _report(10, triples == 500,
            f"antisymmetry and bimultiplicativity on {triples} triples "
            f"over F5/F7/Q")
