import json
import re
import shlex
import time
from pathlib import Path

import pytest

from reciprocity_lab import cli, segalwilson
from reciprocity_lab.errors import HypothesisViolation
from reciprocity_lab.lattices import MonomialLattice, MonomialOperator
from reciprocity_lab.parsing import DIGIT_BOUND
from reciprocity_lab.report import VerificationReport
from reciprocity_lab.xsymbol import IndexSymbol, XSymbolFamily


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tame_local_value(capsys):
    code, out, _ = run(capsys, "tame", "--field", "Fp:5", "--f", "t",
                       "--g", "2*(1-t)", "--place", "t")
    assert code == 0
    assert "3" in out


def test_weil_verify_text_summary(capsys):
    code, out, _ = run(capsys, "weil", "--field", "Fp:5", "--f", "t",
                       "--g", "1-t")
    assert code == 0
    assert out.strip().endswith("OK")


def test_sumval_json_report(capsys):
    code, out, _ = run(capsys, "sumval", "--field", "Fp:7", "--f",
                       "(t^2+3)/(t-1)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["law"] == "sum-of-valuations"
    assert data["ok"] is True
    assert data["field"] == "Fp:7"


def test_residue_local_value(capsys):
    code, out, _ = run(capsys, "residue", "--f", "1/(t^2-1)", "--g", "t",
                       "--place", "t-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1/2"
    assert data["expected"] is None


def test_restheorem_with_oracle(capsys):
    code, out, _ = run(capsys, "restheorem", "--f", "1/(t^2-t)", "--g", "t",
                       "--oracle", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["details"]["oracle_agreements"] >= 1


def test_hilbert_local_and_verify(capsys):
    code, out, _ = run(capsys, "hilbert", "--field", "Fp:5", "--f", "t",
                       "--g", "t", "--m", "4", "--place", "t")
    assert code == 0
    assert "4" in out
    code, out, _ = run(capsys, "hilbert", "--field", "Fp:13", "--f", "t",
                       "--g", "1-t", "--m", "3", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_surface_commands(capsys):
    code, out, _ = run(capsys, "nu", "--f", "s*t", "--g", "s", "--json")
    assert code == 0
    assert json.loads(out)["law"] == "nu-sum"
    code, out, _ = run(capsys, "parshin", "--f", "t", "--g", "s",
                       "--h", "s", "--place", "s")
    assert code == 0
    assert "-1" in out
    code, out, _ = run(capsys, "hk4", "--f", "t", "--g", "t", "--h", "s",
                       "--w", "s", "--verify", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "horozov", "--f", "s", "--g", "t",
                       "--h", "1-s", "--place", "s", "--z", "t*(1+t)")
    assert code == 0


def test_sw_local_and_verify(capsys):
    code, out, _ = run(capsys, "sw", "--f", "1/t", "--g", "t",
                       "--place", "t", "--order", "4")
    assert code == 0
    assert "1 + 1/2*z^2 + 1/8*z^4" in out
    code, out, _ = run(capsys, "sw", "--f", "(t+2)/(t-1)", "--g", "t^2", "--json")
    assert code == 0
    assert json.loads(out)["law"] == "segal-wilson-product"


def test_index_value_and_verify(capsys):
    code, out, _ = run(capsys, "index", "--f", "t^3", "--place", "t",
                       "--lattice", "ray:0")
    assert code == 0
    assert "3" in out
    code, out, _ = run(capsys, "index", "--f", "t^3/(t^2+1)", "--verify",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["law"] == "general-reciprocity"
    assert data["ok"] is True


def test_ten_place_index_family_verifies_quickly(capsys):
    f = "t*(t-1)*(t-2)*(t-3)*(t-4)*(t-5)*(t-6)*(t-7)/((t-8)^4*(t-9)^4)"
    start = time.perf_counter()
    code, out, _ = run(capsys, "index", "--field", "Fp:13", "--f", f,
                       "--verify")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "family_size = 10" in out and out.strip().endswith("OK")


def test_xsymbol_axioms_and_reciprocity(capsys):
    code, out, _ = run(capsys, "xsymbol", "--instance", "index",
                       "--f", "t^2", "--check", "axioms",
                       "--a", "ray:0", "--b", "ray:2")
    assert code == 0
    code, out, _ = run(capsys, "xsymbol", "--instance", "residue",
                       "--check", "reciprocity", "--f", "1/(t^2-t)",
                       "--g", "t", "--json")
    assert code == 0
    assert json.loads(out)["law"] == "general-reciprocity"


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "tame", "--f", "2t", "--g", "t",
                       "--place", "t")
    assert code == 2
    assert "parse error" in err
    code, _, err = run(capsys, "index", "--f", "t", "--place", "t",
                       "--lattice", "ray:]")
    assert code == 2
    code, _, err = run(capsys, "index", "--f", "t")
    assert code == 2
    code, _, err = run(capsys, "tame", "--f", "t", "--g", "t",
                       "--place", "t", "--field", "Fp:x")
    assert code == 2


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "tame", "--field", "Fp:5", "--f", "t",
                       "--g", "t", "--place", "t^2+1")
    assert code == 3
    assert "domain error" in err
    code, _, err = run(capsys, "sw", "--field", "Fp:5", "--f", "t",
                       "--g", "1+t")
    assert code == 3
    code, _, err = run(capsys, "hilbert", "--f", "t", "--g", "t",
                       "--m", "2", "--place", "t")
    assert code == 3
    code, _, err = run(capsys, "parshin", "--f", "t", "--g", "s",
                       "--h", "s", "--z", "t^2", "--place", "s^2+1")
    assert code == 3
    assert "first order" in err
    code, _, err = run(capsys, "residue", "--f", "0", "--g", "t",
                       "--place", "t")
    assert code == 3


def test_prime_moduli_are_decided_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "weil", "--field", "Fp:1000000000000000003",
                       "--f", "t+1", "--g", "t-1")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out.strip().endswith("OK")
    for modulus in ("561", "2047", "1000000000000000001",
                    "3317044064679887385961981"):
        code, _, err = run(capsys, "weil", "--field", f"Fp:{modulus}",
                           "--f", "t+1", "--g", "t-1")
        assert code == 3
        assert "domain error" in err


def test_failed_verification_exits_1(capsys, monkeypatch):
    def broken(f, g):
        return VerificationReport(
            law="weil", field_descriptor="Q", inputs={}, terms=[],
            value="2", expected="1", ok=False, details={})
    monkeypatch.setattr(cli, "weil_verify", broken)
    code, out, _ = run(capsys, "weil", "--f", "t", "--g", "1-t")
    assert code == 1
    assert out.strip().endswith("FAILED")


def test_hypothesis_violation_exits_4(capsys, monkeypatch):
    def inadmissible(f):
        sym = IndexSymbol(MonomialOperator(f.field, f.field.one, 1))
        return XSymbolFamily.with_derived_b(
            sym, [MonomialLattice.ray(0), MonomialLattice.ray(0)])
    monkeypatch.setattr(cli, "curve_index_family", inadmissible)
    code, _, err = run(capsys, "index", "--f", "t^2", "--verify")
    assert code == 4
    assert "hypothesis violation (b)" in err


def test_json_output_is_deterministic(capsys):
    argv = ["sw", "--f", "1/(t^2-t)", "--g", "t", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# README command lines of every law, run with --json, and their stdout as
# captured before the verifiers shared one place-by-place assembly.
_PINNED_REPORTS = (
    ('sumval --field Fp:5 --f "(t^2+2)/(t-1)^3"',
     '{"details":{"places":3},"expected":"0","field":"Fp:5",'
     '"inputs":{"f":"(t^2+2)/(t^3+2*t^2+3*t+4)"},'
     '"law":"sum-of-valuations","ok":true,"terms":[{"deg":1,'
     '"place":"t+4","v":-3,"value":-3},{"deg":2,"place":"t^2+2","v":1,'
     '"value":2},{"deg":1,"place":"inf","v":1,"value":1}],"value":"0"}\n'),
    ('weil --field Fp:5 --f "(t^2+2)/t" --g "t-1"',
     '{"details":{"places":4,"suppressed_trivial":0},"expected":"1",'
     '"field":"Fp:5","inputs":{"f":"(t^2+2)/(t)","g":"t+4"},'
     '"law":"weil","ok":true,"terms":[{"deg":1,"place":"t","v_f":-1,'
     '"v_g":0,"value":"4"},{"deg":1,"place":"t+4","v_f":0,"v_g":1,'
     '"value":"3"},{"deg":2,"place":"t^2+2","v_f":1,"v_g":0,'
     '"value":"2"},{"deg":1,"place":"inf","v_f":-1,"v_g":-1,'
     '"value":"4"}],"value":"1"}\n'),
    ('hilbert --field Fp:13 --f "t^2-1" --g "t" --m 4',
     '{"details":{"places":4,"suppressed_trivial":2},"expected":"1",'
     '"field":"Fp:13","inputs":{"f":"t^2+12","g":"t","m":"4"},'
     '"law":"hilbert","ok":true,"terms":[{"deg":1,"place":"t",'
     '"value":"12"},{"deg":1,"place":"t+1","value":"12"},{"deg":1,'
     '"place":"t+12","value":"1"},{"deg":1,"place":"inf","value":"1"}],'
     '"value":"1"}\n'),
    ('restheorem --f "(t+2)/(t^2-t)" --g "t^2" --oracle',
     '{"details":{"oracle_agreements":4,"places":4,'
     '"suppressed_trivial":2},"expected":"0","field":"Q",'
     '"inputs":{"f":"(t+2)/(t^2-t)","g":"t^2"},"law":"residue-theorem",'
     '"ok":true,"terms":[{"deg":1,"oracle":"6","place":"t-1",'
     '"value":"6"},{"deg":1,"oracle":"0","place":"t","value":"0"},'
     '{"deg":1,"oracle":"0","place":"t+2","value":"0"},{"deg":1,'
     '"oracle":"-6","place":"inf","value":"-6"}],"value":"0"}\n'),
    ('sw --f "(t+2)/t^2" --g "t^2-t"',
     '{"details":{"places":5,"suppressed_trivial":3},"expected":"1",'
     '"field":"Q","inputs":{"f":"(t+2)/(t^2)","g":"t^2-t","order":"12"},'
     '"law":"segal-wilson-product","ok":true,"terms":[{"deg":1,'
     '"place":"t-1","residue":"0","value":"1"},{"deg":1,"place":"t-1/2",'
     '"residue":"0","value":"1"},{"deg":1,"place":"t","residue":"3",'
     '"value":"1 + 3/2*z^2 + 9/8*z^4 + 9/16*z^6 + 27/128*z^8 + '
     '81/1280*z^10 + 81/5120*z^12"},{"deg":1,"place":"t+2",'
     '"residue":"0","value":"1"},{"deg":1,"place":"inf","residue":"-3",'
     '"value":"1 + -3/2*z^2 + 9/8*z^4 + -9/16*z^6 + 27/128*z^8 + '
     '-81/1280*z^10 + 81/5120*z^12"}],"value":"1"}\n'),
    ('nu --f "s*t" --g "s+t" --verify',
     '{"details":{"places":2,"suppressed_trivial":0},"expected":"0",'
     '"field":"Q","inputs":{"f":"s*t","g":"t+s"},"law":"nu-sum",'
     '"ok":true,"terms":[{"deg":1,"nu":-1,"place":"s","term":-1},'
     '{"deg":1,"nu":1,"place":"inf","term":1}],"value":"0"}\n'),
    ('horozov --f "s*t" --g "s+t" --h "1+s*t" --z "t*(1+t)" --verify',
     '{"details":{"places":2,"suppressed_trivial":2},"expected":"1",'
     '"field":"Q","inputs":{"f1":"s*t","f2":"t+s","f3":"s*t+1"},'
     '"law":"horozov-product","ok":true,"terms":[{"deg":1,"place":"s",'
     '"value":"1"},{"deg":1,"place":"inf","value":"1"}],"value":"1"}\n'),
    ('parshin --field Fp:5 --f "s*t" --g "s+t" --h "1+s*t" --verify',
     '{"details":{"places":2,"suppressed_trivial":2},"expected":"1",'
     '"field":"Fp:5","inputs":{"f1":"s*t","f2":"t+s","f3":"s*t+1"},'
     '"law":"parshin-product","ok":true,"terms":[{"deg":1,"place":"s",'
     '"value":"1"},{"deg":1,"place":"inf","value":"1"}],"value":"1"}\n'),
    ('hk4 --f "s*t" --g "s+t" --h "1+s*t" --w "s" --verify',
     '{"details":{"places":2,"suppressed_trivial":2},"expected":"1",'
     '"field":"Q","inputs":{"f1":"s*t","f2":"t+s","f3":"s*t+1",'
     '"f4":"s"},"law":"hk4-product","ok":true,"terms":[{"deg":1,'
     '"place":"s","value":"1"},{"deg":1,"place":"inf","value":"1"}],'
     '"value":"1"}\n'),
)


def test_law_reports_keep_their_bytes(capsys):
    for line, expected in _PINNED_REPORTS:
        code, out, _ = run(capsys, *shlex.split(line), "--json")
        assert (code, out) == (0, expected), line


def _readme_examples():
    """(argv, shown output lines) of each README command shown with output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ reciprocity-lab "):
                continue
            shown = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith("$ "):
                    break
                shown.append(follow)
            if shown:
                examples.append((shlex.split(line)[2:], shown))
    return examples


def test_readme_outputs_match_the_command_line(capsys):
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["sw", "weil"]
    for argv, shown in examples:
        # a shown "..." line stands for any run of lines
        pattern = "".join(r"(?:.*\n)*?" if line.strip() == "..."
                          else re.escape(line) + r"\n" for line in shown)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert re.fullmatch(pattern, out), (argv, out)


def test_seed_is_not_an_option():
    # factorizations are unique, so no seed can change a report
    with pytest.raises(SystemExit) as exc:
        cli.main(["weil", "--field", "Fp:5", "--f", "t", "--g", "1-t",
                  "--seed", "7"])
    assert exc.value.code == 2


def test_far_lattice_literals_are_rejected_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "index", "--f", "t^2",
                       "--lattice", "ray:0;add:-30000000", "--place", "t")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "parse error" in err


def test_huge_exponents_are_rejected_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "sumval", "--field", "Fp:5",
                       "--f", "t^20000000")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "parse error" in err


def test_nested_powers_are_rejected_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "sumval", "--f", "((t+1)^50)^50")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "parse error" in err and "Traceback" not in err


def test_long_literals_are_rejected(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "sumval", "--f", "7" * 5000 + "*t")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "parse error" in err and "Traceback" not in err


def test_tall_coefficients_are_rejected_quickly(capsys):
    for text in ("((7^50)^50)^50*t", "((((7^50)^50)^50)^50)^50*t"):
        start = time.perf_counter()
        code, _, err = run(capsys, "sumval", "--f", text)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "parse error" in err and "Traceback" not in err
    code, out, _ = run(capsys, "sumval", "--f", "7" * DIGIT_BOUND + "*t")
    assert code == 0
    assert out.strip().endswith("OK")


def test_linear_factors_need_no_divisor_search(capsys):
    # 7^20 has 17 digits: the root search must not grow with its size
    start = time.perf_counter()
    code, out, err = run(capsys, "sumval", "--f", "7^20*t+1")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "Traceback" not in err
    assert "place=t+1/79792266297612001" in out
    assert out.strip().endswith("OK")


def test_large_coefficients_leave_the_root_search_bounded(capsys):
    # a 25-digit constant and a product of forty linear factors: a divisor
    # search over the constant term would not finish
    big = "1000000000000000000000007"
    product = "*".join(f"(t-{i})" for i in range(1, 41))
    cases = ((("sumval", "--f", f"t^2+{big}"), 0),
             (("sumval", "--f", f"t^3+t+{big}"), 0),
             (("weil", "--f", f"t^4+t+{big}", "--g", "t-1"), 3),
             (("sumval", "--f", product), 0))
    for argv, expected in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0, argv
        assert code == expected and "Traceback" not in err, argv
        if expected == 0:
            assert out.strip().endswith("OK")
        else:
            assert "uncertified irreducible factor" in err


def test_orders_above_the_bound_are_rejected(capsys):
    for order in ("3000", "-1"):
        code, _, err = run(capsys, "sw", "--f", "1/t", "--g", "t",
                           "--place", "t", "--order", order)
        assert code == 2
        assert "parse error" in err and "Traceback" not in err
        code, _, err = run(capsys, "sw", "--f", "1/t", "--g", "t",
                           "--order", order)
        assert code == 2
        assert "parse error" in err and "Traceback" not in err
    code, out, _ = run(capsys, "sw", "--f", "1/t", "--g", "t", "--place",
                       "t", "--order", "0")
    assert code == 0
    code, out, _ = run(capsys, "sw", "--f", "1/t", "--g", "t", "--place",
                       "t", "--order", str(segalwilson.ORDER_BOUND))
    assert code == 0
    assert out.strip().endswith("OK")


def test_values_too_long_to_render_exit_3(capsys):
    cases = [
        ["sw", "--f", "10000000000/t", "--g", "t", "--place", "t",
         "--order", "1000"],
        ["sw", "--f", "10000000000/t", "--g", "t", "--order", "1000"],
        ["weil", "--f", "(7^50)^20*t", "--g", "t^50"],
        ["tame", "--f", "(7^50)^20*t", "--g", "t^50", "--place", "t"],
    ]
    for argv in cases:
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert "domain error" in err and "Traceback" not in err


def test_reports_validate_against_the_schema(capsys):
    import importlib.resources as resources

    import jsonschema
    schema = json.loads(resources.files("reciprocity_lab")
                        .joinpath("report_schema.json").read_text())
    cases = [
        ["weil", "--field", "Fp:5", "--f", "t", "--g", "1-t", "--json"],
        ["sumval", "--f", "(t^2-4)/(t+1)", "--json"],
        ["restheorem", "--f", "1/(t^2-t)", "--g", "t", "--json"],
        ["nu", "--f", "s*t", "--g", "s", "--json"],
        ["index", "--f", "t^3", "--verify", "--json"],
        ["sw", "--f", "1/t", "--g", "t", "--place", "t", "--json"],
        ["tame", "--f", "t", "--g", "1-t", "--place", "t", "--json"],
    ]
    for argv in cases:
        code, out = run_capture(capsys, argv)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def run_capture(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_summary_lines_structure(capsys):
    code, out, _ = run(capsys, "weil", "--field", "Fp:5", "--f",
                       "(t^2+2)*t", "--g", "t-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("OK")
    assert any("weil" in line for line in lines)


def test_report_to_dict_round_trip():
    report = VerificationReport(
        law="demo", field_descriptor="Q", inputs={"f": "t"},
        terms=[{"place": "t", "value": "1"}], value="1", expected="1",
        ok=True, details={"places": 1})
    data = report.to_dict()
    assert data["field"] == "Q"
    assert json.loads(report.to_json()) == data
    compact = report.to_json()
    assert ": " not in compact
    indented = report.to_json(indent=2)
    assert json.loads(indented) == data
    assert "\n" in indented
