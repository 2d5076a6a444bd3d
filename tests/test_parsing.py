import random
import re
import shlex
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity_lab.errors import (DomainError, ParseError,
                                    UncertifiedFactorError, ZeroInputError)
from reciprocity_lab.fields import field_from_descriptor
from reciprocity_lab.funcfield import Place, RationalFunction
from reciprocity_lab.parsing import (DEGREE_BOUND, DIGIT_BOUND,
                                     EXPONENT_BOUND, _tokenize, parse_place,
                                     parse_rational, parse_surface)
from reciprocity_lab.poly import Polynomial
from reciprocity_lab.surface import surface_generators

from helpers import F2, F5, F7, F13, Q, rand_fn_for, rand_surface_fn

ROOT = Path(__file__).resolve().parent.parent
F1000003 = field_from_descriptor("Fp:1000003")


def test_rational_literal_basics():
    t = RationalFunction.variable(Q)
    assert parse_rational("t", Q) == t
    assert parse_rational("t^2-1", Q) == t * t - 1
    assert parse_rational("(t+1)/(t-1)", Q) == (t + 1) / (t - 1)
    assert parse_rational("1/2*t", Q) == t / 2
    assert parse_rational("-t^3+2*t", Q) == -(t ** 3) + 2 * t
    assert parse_rational("t^-2", Q) == t ** -2
    assert parse_rational("2^3", Q) == RationalFunction.constant(Q, 8)
    assert parse_rational("(1+t)^-1", Q) == 1 / (1 + t)


def test_rational_literals_respect_the_field():
    t = RationalFunction.variable(F5)
    assert parse_rational("7*t", F5) == 2 * t
    assert parse_rational("t/3", F5) == t * 2
    got = parse_rational("(t+6)^2", F5)
    assert got == (t + 1) * (t + 1)


def test_explicit_multiplication_is_required():
    with pytest.raises(ParseError):
        parse_rational("2t", Q)
    with pytest.raises(ParseError):
        parse_rational("t(t+1)", Q)


def test_grammar_error_paths():
    with pytest.raises(ParseError):
        parse_rational("t$", Q)
    with pytest.raises(ParseError):
        parse_rational("(t+1", Q)
    with pytest.raises(ParseError):
        parse_rational("t^(2)", Q)
    with pytest.raises(ParseError):
        parse_rational("x+1", Q)
    with pytest.raises(ParseError):
        parse_rational("", Q)
    with pytest.raises(ParseError):
        parse_rational("t+", Q)
    with pytest.raises(ParseError):
        parse_rational("t^x", Q)


def test_division_by_zero_is_a_domain_failure():
    with pytest.raises(ZeroInputError):
        parse_rational("1/0", Q)
    with pytest.raises(ZeroInputError):
        parse_rational("t/(t-t)", Q)
    with pytest.raises(ZeroInputError):
        parse_rational("0^-1", Q)


def test_rational_round_trips():
    rng = random.Random(373)
    for field in (F5, F7, Q):
        for _ in range(35):
            f = rand_fn_for(rng, field, max_deg=5)
            assert parse_rational(str(f), field) == f


def test_surface_round_trips():
    rng = random.Random(379)
    for base in (F5, Q):
        for _ in range(25):
            f = rand_surface_fn(rng, base)
            assert parse_surface(str(f), base) == f


def test_surface_literals_use_both_variables():
    s, t = surface_generators(Q)
    assert parse_surface("s*t", Q) == s * t
    assert parse_surface("(1+s*t)/(s-t)", Q) == (1 + s * t) / (s - t)
    assert parse_surface("t^-3*(t^2+s)", Q) == (t * t + s) / t ** 3
    with pytest.raises(ParseError):
        parse_surface("u*t", Q)


def test_place_literals():
    assert parse_place("inf", Q) == Place.at_infinity(Q)
    assert parse_place("t", Q) == Place.finite(Polynomial.variable(Q))
    got = parse_place("t^2+2", F5)
    assert got.degree == 2
    with pytest.raises(ParseError):
        parse_place("1/t", Q)
    with pytest.raises(ParseError):
        parse_place("t+)", Q)
    with pytest.raises(DomainError):
        parse_place("t^2-1", Q)
    with pytest.raises(DomainError):
        parse_place("t^2+1", F5)
    with pytest.raises(UncertifiedFactorError):
        parse_place("t^4+t+1", Q)
    with pytest.raises(DomainError):
        parse_place("3", Q)


def test_place_literals_in_other_variables():
    got = parse_place("s-1", Q, var="s")
    assert str(got) == "s-1"
    with pytest.raises(ParseError):
        parse_place("t", Q, var="s")


def test_field_descriptors():
    assert field_from_descriptor("Q") is Q
    assert field_from_descriptor("Fp:7") == F7
    with pytest.raises(ParseError):
        field_from_descriptor("R")
    with pytest.raises(ParseError):
        field_from_descriptor("Fp:")
    with pytest.raises(ParseError):
        field_from_descriptor("Fp:x")
    with pytest.raises(DomainError):
        field_from_descriptor("Fp:9")


def test_whitespace_is_tolerated():
    t = RationalFunction.variable(Q)
    assert parse_rational(" ( t + 1 ) / ( t - 2 ) ", Q) == (t + 1) / (t - 2)


def test_exponents_are_bounded():
    t = RationalFunction.variable(Q)
    assert parse_rational(f"t^{EXPONENT_BOUND}", Q) == t ** EXPONENT_BOUND
    assert parse_rational(f"t^-{EXPONENT_BOUND}", Q) == t ** -EXPONENT_BOUND
    assert parse_rational("t^0002", Q) == t * t
    for text in (f"t^{EXPONENT_BOUND + 1}", f"t^-{EXPONENT_BOUND + 1}",
                 "(1+s)^20000000", "t^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_surface(text, F5)


def test_degrees_are_bounded():
    t = RationalFunction.variable(Q)
    half = f"t^{DEGREE_BOUND // 2}"
    assert parse_rational(f"{half}*{half}", Q) == t ** DEGREE_BOUND
    assert parse_rational(f"1/({half}*{half})", Q) == t ** -DEGREE_BOUND
    parse_surface("(1+s+t)^50", Q)
    for text in (f"{half}*{half}*t", f"1/({half}*{half}*s)",
                 f"1/{half}+1/((t+1)^{DEGREE_BOUND // 2}*t)",
                 "((t+1)^50)^50", "((1+s)^50)^-50"):
        with pytest.raises(ParseError, match="degree"):
            parse_surface(text, F5)


def test_a_dense_product_at_the_degree_bound_is_exact():
    # 1326 x 1326 terms with integer coefficients up to 3^50 over Q
    f = parse_surface("((1+s+t)^50)^2", Q)
    assert f.den == 1
    for a, b in ((0, 0), (100, 0), (0, 100), (1, 98), (20, 30), (33, 33),
                 (50, 50), (99, 1)):
        c = f.num.coefficient(a)
        assert c.den == 1
        assert c.num.coefficient(b) == factorial(100) // (
            factorial(a) * factorial(b) * factorial(100 - a - b))


def test_literals_are_bounded():
    assert parse_rational("7" * DIGIT_BOUND, Q) == \
        RationalFunction.constant(Q, int("7" * DIGIT_BOUND))
    assert parse_rational("0" * 5000 + "7", Q) == RationalFunction.constant(Q, 7)
    for text in ("7" * (DIGIT_BOUND + 1) + "*t", "7" * 5000):
        with pytest.raises(ParseError, match="digits"):
            parse_rational(text, Q)


def test_coefficient_heights_are_bounded():
    t = RationalFunction.variable(Q)
    top = 10 ** (DIGIT_BOUND - 1)
    # monomial products are bounded exactly: 9 * 10^999 has 1000 digits
    assert parse_rational(f"{top}*9*t", Q) == 9 * top * t
    # a coefficient of c*(t+1) is c, not c times the sum 2 of t+1
    assert parse_rational(f"{5 * top}*(t+1)", Q) == 5 * top * (t + 1)
    assert parse_rational(f"(t+1)*{5 * top}", Q) == 5 * top * (t + 1)
    assert parse_rational("(7^50)^20", Q) == \
        RationalFunction.constant(Q, 7 ** 1000)
    for text in (f"{top}*10*t", f"{top}*{top}", "((7^50)^50)^50*t",
                 "1/((7^50)^50)", "(t+7^50)^50", f"({top}*t+1)^2"):
        with pytest.raises(ParseError, match="digits"):
            parse_rational(text, Q)
        with pytest.raises(ParseError, match="digits"):
            parse_surface(text, Q)
    # over F_p every value is reduced, so only the literals are bounded
    assert parse_rational("((7^50)^50)^50*t", F5) == \
        RationalFunction.variable(F5)


# -- the route before pairs, kept as the oracle of the differential tests ----

def _reference_parse(text, variables, make_int):
    """Recursive descent where every +, -, *, / and ^ builds a canonical
    RationalFunction: the parser before (num, den) pairs."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if peek() is None:
            raise ParseError("unexpected end of expression")
        pos += 1
        return tokens[pos - 1]

    def expression():
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            value = value * factor() if take() == "*" else value / factor()
        return value

    def factor():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        value = power()
        return -value if sign < 0 else value

    def power():
        value = atom()
        if peek() == "^":
            take()
            sign = -1 if peek() == "-" and take() else 1
            value = value ** (sign * int(take()))
        return value

    def atom():
        token = take()
        if token.isdigit():
            return make_int(int(token))
        if token == "(":
            value = expression()
            take()
            return value
        return variables[token]

    value = expression()
    assert peek() is None
    return value


def _reference_rational(text, field):
    return _reference_parse(
        text, {"t": RationalFunction.variable(field)},
        lambda n: RationalFunction.constant(field, n))


def _reference_surface(text, base):
    s, t = surface_generators(base)
    return _reference_parse(text, {"s": s, "t": t},
                            lambda n: RationalFunction.constant(t.field, n))


def _outcome(parse, text, field):
    try:
        f = parse(text, field)
    except ZeroInputError as exc:
        return type(exc), str(exc)
    return f.num.coeffs, f.den.coeffs, str(f.num), str(f.den)


def _assert_same_parse(text, field, surface):
    new, old = ((parse_surface, _reference_surface) if surface
                else (parse_rational, _reference_rational))
    assert _outcome(new, text, field) == _outcome(old, text, field), text


def _workloads():
    """The benchmark's workload module, which generates its input texts."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def test_benchmark_texts_parse_as_by_the_reference_route():
    workloads = _workloads()
    for seed in (1, 7):
        for index in range(48):
            spec = workloads.surface_item(seed, index)
            base = field_from_descriptor(spec["field"])
            for text in spec["functions"] + [spec["z"]]:
                _assert_same_parse(text, base, surface=True)
            spec = workloads.curve_item(seed, index)
            field = field_from_descriptor(spec["field"])
            for text in (spec["f"], spec["g"]):
                _assert_same_parse(text, field, surface=False)


def test_readme_expressions_parse_as_by_the_reference_route():
    readme = (ROOT / "README.md").read_text()
    lines = re.findall(r"^\$ reciprocity-lab ((?:.*\\\n)?.*)$", readme, re.M)
    assert len(lines) == 16
    checked = 0
    for line in lines:
        argv = shlex.split(line.replace("\\\n", " "))
        flags = dict(zip(argv[1::2], argv[2::2]))
        field = field_from_descriptor(flags.get("--field", "Q"))
        surface = argv[0] in ("nu", "horozov", "parshin", "hk4")
        for flag in ("--f", "--g", "--h", "--w", "--z", "--place"):
            if flag not in flags or (flag == "--place" and surface):
                continue
            _assert_same_parse(flags[flag], field, surface)
            checked += 1
    for text in re.findall(r'parse_rational\("([^"]*)"', readme):
        _assert_same_parse(text, F5, surface=False)
        checked += 1
    assert checked > 30


def _grammar(variables):
    """Expression texts in which every step up is a binary operation."""
    leaf = st.one_of(st.integers(0, 12).map(str), st.sampled_from(variables))
    exponent = st.integers(-3, 3).map(str)
    atoms = st.one_of(leaf, st.tuples(leaf, exponent).map("^".join))

    def extend(inner):
        operand = st.one_of(
            inner, inner.map("({})".format),
            st.tuples(inner, exponent).map(lambda x: f"({x[0]})^{x[1]}"))
        return st.tuples(st.sampled_from(("", "-")), operand,
                         st.sampled_from("+-*/"), operand).map("".join)

    return st.recursive(atoms, extend, max_leaves=10)


@settings(max_examples=120)
@given(_grammar(("t",)))
def test_generated_expressions_over_q_parse_as_by_the_reference_route(text):
    _assert_same_parse(text, Q, surface=False)


@settings(max_examples=120)
@given(_grammar(("t",)))
def test_generated_expressions_over_f5_parse_as_by_the_reference_route(text):
    _assert_same_parse(text, F5, surface=False)


# 120 examples per field on average, as when only F_5 was drawn
@settings(max_examples=600)
@given(_grammar(("s", "t")), st.sampled_from((F5, Q, F2, F13, F1000003)))
def test_generated_surface_expressions_parse_as_by_the_reference_route(
        text, base):
    _assert_same_parse(text, base, surface=True)


# lc_t(den) a polynomial in s; a gcd over k(s)[t] where neither side is a
# monomial in t; sums that cancel; negative powers of s-only factors
_SURFACE_CASES = (
    "1/((s+1)*t)", "(t+s)/((s^2+1)*t^2+s)", "(s*t+1)/((s-1)^2*t^3+(s+2)*t)",
    "(t^2+s)/(s*t-1)", "t/(s^2*t^2+s*t+1)-1/s",
    "(t^2-s^2)/((t-s)*(s+1)*t)", "((t+s)*(t+1))/((t+s)*(s*t+2))",
    "(t^2+s*t+1)^2/((t^2+s*t+1)*(t-s^2))", "(s*t-1)^3/((s*t-1)*(t+s)^2)",
    "t/s-t/s", "(s+t)^2-s^2-2*s*t-t^2", "1/(s*t)-1/(t*s)",
    "(t+s)/(t-s)-(t+s)/(t-s)", "0*t/(s+1)", "(s+t)^2-t^2", "(s+t)^2-s^2",
    "(s+1)/(t*s-s*t)", "t/((s+t)^2-s^2-2*s*t-t^2)",
    "(s+1)^-3*t", "t^2*(s^2+s+1)^-2+s^-1", "(s-1)^-2*(s+1)^-1*(t+1)",
    "s^-5*(t^2+s)/(s+2)^-1", "((s+3)^-2*t)^-2*(1+(s+3)*t)",
)


def test_fixed_surface_expressions_parse_as_by_the_reference_route():
    for base in (F5, Q, F2, F13, F1000003):
        for text in _SURFACE_CASES:
            _assert_same_parse(text, base, surface=True)


def test_a_surface_parse_normalizes_each_coefficient_once(monkeypatch):
    # one RationalFunction per coefficient in k(s), which divides its row by
    # lc_t(den), and one for the result: no second pass over k(s)[t].  The
    # benchmark's denominators are monomials in t; the texts added here
    # have several rows in den and a monomial in t as num, so no gcd over
    # k(s)[t] runs either.  A row equal to lc_t(den), as den's top row is,
    # becomes k(s)'s one without a gcd: no gcd has equal operands
    surface_item = _workloads().surface_item
    cases = [(field_from_descriptor(spec["field"]), text)
             for spec in (surface_item(seed, index)
                          for seed in (1, 7) for index in range(200))
             for text in spec["functions"] + [spec["z"]]]
    cases += [(base, text) for base in (F5, Q) for text in (
        "1/((s+1)*t^2+s)", "s^2*t/((s^2+1)*t^3+(s+2)*t+1)",
        "(s+1)^-1*t^2/((s-1)*t+s^2)")]
    # k(s) is built once per base field, with its zero and one; build it
    # for every base before counting, so no count depends on test order
    for base in {base for base, _ in cases}:
        parse_surface("s*t", base)
    calls = []
    init = RationalFunction.__init__

    def counted(self, num, den):
        calls.append(None)
        init(self, num, den)

    gcds = []
    gcd = Polynomial.gcd

    def recorded(self, other):
        gcds.append(self == other)
        return gcd(self, other)

    monkeypatch.setattr(RationalFunction, "__init__", counted)
    monkeypatch.setattr(Polynomial, "gcd", recorded)
    bound = 0
    for base, text in cases:
        f = parse_surface(text, base)
        bound += 1 + sum(not c.is_zero() for c in f.num.coeffs + f.den.coeffs)
    assert bound > 3000
    assert len(calls) <= bound
    assert len(gcds) > 300
    assert not any(gcds)
