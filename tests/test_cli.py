import argparse
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from reciprocity_lab import cli, segalwilson, symbols1d, xsymbol
from reciprocity_lab.errors import (HypothesisViolation, ParseError,
                                    ReciprocityError)
from reciprocity_lab.lattices import BlockShiftOperator, MonomialLattice
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


def test_hilbert_checks_m_before_any_place(capsys, monkeypatch):
    # constants have no places, so a per-place check never ran for them;
    # at one place, the field and m are checked before any tame symbol
    tame = []
    monkeypatch.setattr(symbols1d, "tame_symbol",
                        lambda *args: tame.append(args))
    for f, g, m in (("2", "3", "3"), ("2", "3", "0"), ("t", "t+1", "3"),
                    ("t", "t", "-2"), ("0", "t", "3")):
        for place in ((), ("--place", "t")):
            code, out, err = run(capsys, "hilbert", "--field", "Fp:5",
                                 "--f", f, "--g", g, "--m", m, *place)
            assert code == 3, (f, g, m, place, out)
            assert out == ""
            assert f"domain error: m = {m} does not divide q - 1 = 4" in err
    for place in ((), ("--place", "t")):
        code, out, err = run(capsys, "hilbert", "--field", "Q", "--f", "0",
                             "--g", "t", "--m", "2", *place)
        assert code == 3, (place, out)
        assert "norm residue symbols need a finite ground field" in err
    assert tame == []
    monkeypatch.undo()
    code, out, _ = run(capsys, "hilbert", "--field", "Fp:5", "--f", "2",
                       "--g", "3", "--m", "4")
    assert code == 0
    assert out.strip().endswith("OK")


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
    # a bad integer, no ray clause, a removed exponent below the ray start
    for text in ("ray:]", "add:1", "ray:0;del:-1"):
        code, _, err = run(capsys, "index", "--f", "t", "--place", "t",
                           "--lattice", text)
        assert code == 2, text
        assert "parse error" in err
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


def test_every_library_error_maps_to_its_exit_code(capsys, monkeypatch):
    # a library error class the CLI does not name still exits 3, not with
    # a traceback; parse errors and hypothesis violations keep 2 and 4
    class FreshError(ReciprocityError):
        pass

    for error, code_wanted, prefix in (
            (FreshError("a new refusal"), 3, "domain error: a new refusal"),
            (ParseError("bad text"), 2, "parse error: bad text"),
            (HypothesisViolation("b", "A_0"), 4,
             "hypothesis violation (b): A_0")):
        def refuse(*functions, error=error):
            raise error

        monkeypatch.setattr(cli, "weil_verify", refuse)
        code, out, err = run(capsys, "weil", "--f", "t", "--g", "t-1")
        assert (code, out) == (code_wanted, "")
        assert err.startswith(prefix)


def test_restheorem_oracle_refuses_a_disagreeing_trace(capsys, monkeypatch):
    argv = ("restheorem", "--f", "1/(t^2-t)", "--g", "t", "--oracle")
    assert run(capsys, *argv)[0] == 0
    trace = symbols1d.abstract_residue_trace

    def off_by_one(f, g, x):
        return trace(f, g, x) + f.field.one_scalar()

    monkeypatch.setattr(symbols1d, "abstract_residue_trace", off_by_one)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("domain error: classical and commutator residues "
                          "disagree at ")


def test_constant_tame_family_is_one_member_at_infinity(capsys, monkeypatch):
    # 2 and 3 have no place in their support, so the family falls back to
    # the place at infinity, where the tame symbol of constants is 1
    seen = []
    tame = xsymbol.tame_symbol

    def recorded(f, g, x):
        seen.append(str(x))
        return tame(f, g, x)

    monkeypatch.setattr(xsymbol, "tame_symbol", recorded)
    code, out, _ = run(capsys, "xsymbol", "--instance", "tame", "--f", "2",
                       "--g", "3", "--check", "reciprocity", "--json")
    assert code == 0
    assert seen == ["inf"]
    report = json.loads(out)
    assert report["inputs"]["family_size"] == "1"
    assert report["terms"] == [{"lattice": "ray:0", "member": 0,
                                "value": "1"}]
    assert (report["value"], report["ok"]) == ("1", True)


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
        sym = IndexSymbol(BlockShiftOperator(1, {0: 1}))
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


# The local-value form of each command (--place, --check axioms) with
# --json, and the stderr of the errors the command handlers raise
# themselves, as captured before the subcommands shared one table.
_PINNED_VALUES = (
    ('tame --field Fp:7 --f "t^2+3" --g "(t+1)/t^3" --place "t"',
     '{"details":{},"expected":null,"field":"Fp:7",'
     '"inputs":{"f":"t^2+3","g":"(t+1)/(t^3)"},"law":"tame-symbol",'
     '"ok":true,"terms":[{"place":"t","value":"6"}],"value":"6"}\n'),
    ('residue --f "(t+2)/(t^2-t)" --g "t^2" --place "t-1"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"(t+2)/(t^2-t)","g":"t^2"},"law":"residue",'
     '"ok":true,"terms":[{"place":"t-1","value":"6"}],"value":"6"}\n'),
    ('sw --f "1/t" --g "t" --place "t" --order 4',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"(1)/(t)","g":"t","order":"4"},'
     '"law":"segal-wilson","ok":true,"terms":[{"place":"t",'
     '"value":"1 + 1/2*z^2 + 1/8*z^4"}],'
     '"value":"1 + 1/2*z^2 + 1/8*z^4"}\n'),
    ('hilbert --field Fp:5 --f "t" --g "t" --m 4 --place "t"',
     '{"details":{},"expected":null,"field":"Fp:5",'
     '"inputs":{"f":"t","g":"t","m":"4"},"law":"hilbert-symbol",'
     '"ok":true,"terms":[{"place":"t","value":"4"}],"value":"4"}\n'),
    ('nu --f "s*t^2" --g "s+t" --place "s"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"s*t^2","g":"t+s"},"law":"nu-symbol","ok":true,'
     '"terms":[{"place":"s","value":"-2"}],"value":"-2"}\n'),
    ('nu --f "s^2*t" --g "(s+t)*t^3" --place "s" --z "t*(1+s)"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"s^2*t","g":"t^4+s*t^3"},"law":"nu-symbol",'
     '"ok":true,"terms":[{"place":"s","value":"5"}],"value":"5"}\n'),
    ('horozov --field Fp:7 --f "s*t" --g "t*(s+3)" --h "(2+s)*t^2" '
     '--place "s"',
     '{"details":{},"expected":null,"field":"Fp:7",'
     '"inputs":{"f":"s*t","g":"(s+3)*t","h":"(s+2)*t^2"},'
     '"law":"horozov-symbol","ok":true,"terms":[{"place":"s",'
     '"value":"4"}],"value":"4"}\n'),
    ('horozov --f "s*t" --g "t*(s+1)" --h "(1+s)*t^2" --place "s+1" '
     '--z "t*(1+t)"',
     '{"details":{},"expected":null,"field":"Q","inputs":{"f":"s*t",'
     '"g":"(s+1)*t","h":"(s+1)*t^2"},"law":"horozov-symbol",'
     '"ok":true,"terms":[{"place":"s+1","value":"-1"}],'
     '"value":"-1"}\n'),
    ('parshin --field Fp:5 --f "t" --g "s" --h "s+2" --place "s"',
     '{"details":{},"expected":null,"field":"Fp:5",'
     '"inputs":{"f":"t","g":"s","h":"s+2"},"law":"parshin-symbol",'
     '"ok":true,"terms":[{"place":"s","value":"2"}],"value":"2"}\n'),
    ('hk4 --field Fp:7 --f "(s+1)*t" --g "s*t" --h "s*t^2" --w "(s+2)*t" '
     '--place "s"',
     '{"details":{},"expected":null,"field":"Fp:7",'
     '"inputs":{"f":"(s+1)*t","g":"s*t","h":"s*t^2","w":"(s+2)*t"},'
     '"law":"hk4-symbol","ok":true,"terms":[{"place":"s",'
     '"value":"5"}],"value":"5"}\n'),
    ('index --f "t^2" --lattice "ray:0;add:-3;del:2" --place "t"',
     '{"details":{},"expected":null,"field":"Q","inputs":{"f":"t^2",'
     '"lattice":"ray:3;add:-3,0,1"},"law":"index","ok":true,'
     '"terms":[{"place":"t","value":"2"}],"value":"2"}\n'),
    ('index --field Fp:3 --f "(t^2+1)^3/t" --place "t^2+1" '
     '--lattice "ray:1;del:2"',
     '{"details":{},"expected":null,"field":"Fp:3",'
     '"inputs":{"f":"(t^6+1)/(t)","lattice":"ray:3;add:1"},'
     '"law":"index","ok":true,"terms":[{"place":"t^2+1",'
     '"value":"6"}],"value":"6"}\n'),
    ('xsymbol --instance index --f "t^2" --check axioms --a "ray:0" '
     '--b "ray:2"',
     '{"details":{},"expected":"pass","field":"Q",'
     '"inputs":{"a":"ray:0","b":"ray:2","f":"t^2","g":"",'
     '"instance":"index"},"law":"xsymbol-axioms","ok":true,'
     '"terms":[{"lattice":"ray:0","value":"0"},{"lattice":"ray:2",'
     '"value":"0"}],"value":"pass"}\n'),
    ('xsymbol --instance tame --field Fp:5 --f "2*t^2" --g "3*t" '
     '--check axioms --a "ray:-3" --b "ray:2;del:3"',
     '{"details":{},"expected":"pass","field":"Fp:5",'
     '"inputs":{"a":"ray:-3","b":"ray:4;add:2","f":"2*t^2",'
     '"g":"3*t","instance":"tame"},"law":"xsymbol-axioms","ok":true,'
     '"terms":[{"lattice":"ray:-3","value":"1"},'
     '{"lattice":"ray:4;add:2","value":"1"}],"value":"pass"}\n'),
)
_PINNED_ERRORS = (
    ('index --f "t^2"', 2,
     'parse error: index needs --place (or --verify)\n'),
    ('xsymbol --instance tame --f "t^2" --check reciprocity', 2,
     'parse error: the tame instance needs --g\n'),
    ('xsymbol --instance residue --f "1/t" --g "t" --check axioms '
     '--a "ray:0"', 2,
     'parse error: --check axioms needs --a and --b\n'),
    ('sw --f "1/t" --g "t" --order 1001', 2,
     'parse error: --order 1001 is outside [0, 1000]\n'),
)


def test_value_reports_and_errors_keep_their_bytes(capsys):
    for line, expected in _PINNED_VALUES:
        code, out, err = run(capsys, *shlex.split(line), "--json")
        assert (code, out, err) == (0, expected, ""), line
    for line, code, message in _PINNED_ERRORS:
        assert run(capsys, *shlex.split(line)) == (code, "", message), line


# Residues at poles of order 2 to 4 on places of degree 2 and 3 (and one at
# infinity), where a local expansion reads more than one coefficient of each
# shifted numerator and denominator; every README residue command has only
# simple poles at degree-1 places.  Captured before expansions were
# truncated to the coefficients a residue reads.
_PINNED_RESIDUES = (
    ('restheorem --field Fp:5 --f "(t+1)/(t^2+2)^2" --g "t^3+2*t"',
     '{"details":{"places":5,"suppressed_trivial":3},'
     '"expected":"0","field":"Fp:5",'
     '"inputs":{"f":"(t+1)/(t^4+4*t^2+4)","g":"t^3+2*t"},'
     '"law":"residue-theorem","ok":true,"terms":[{"deg":1,'
     '"place":"t","value":"0"},{"deg":1,"place":"t+1",'
     '"value":"0"},{"deg":1,"place":"t+4","value":"0"},{"deg":2,'
     '"place":"t^2+2","value":"3"},{"deg":1,"place":"inf",'
     '"value":"2"}],"value":"0"}\n'),
    ('restheorem --field Fp:5 --f "(t+4)/((t^3+t+1)^4*t)" --g "t^3+3*t"',
     '{"details":{"places":7,"suppressed_trivial":5},'
     '"expected":"0","field":"Fp:5",'
     '"inputs":{"f":"(t+4)/(t^13+4*t^11+4*t^10+t^9+2*t^8+2*t^6+'
     '3*t^5+3*t^4+t^3+4*t^2+t)","g":"t^3+3*t"},'
     '"law":"residue-theorem","ok":true,"terms":[{"deg":1,'
     '"place":"t","value":"2"},{"deg":1,"place":"t+2",'
     '"value":"0"},{"deg":1,"place":"t+3","value":"0"},{"deg":1,'
     '"place":"t+4","value":"0"},{"deg":2,"place":"t^2+3",'
     '"value":"0"},{"deg":3,"place":"t^3+t+1","value":"3"},'
     '{"deg":1,"place":"inf","value":"0"}],"value":"0"}\n'),
    ('restheorem --field Fp:13 --f "(2*t+3)/((t^3+2)^2*(t+1))" --g "t^4+t"',
     '{"details":{"places":8,"suppressed_trivial":6},'
     '"expected":"0","field":"Fp:13",'
     '"inputs":{"f":"(2*t+3)/(t^7+t^6+4*t^4+4*t^3+4*t+4)",'
     '"g":"t^4+t"},"law":"residue-theorem","ok":true,'
     '"terms":[{"deg":1,"place":"t","value":"0"},{"deg":1,'
     '"place":"t+1","value":"10"},{"deg":1,"place":"t+3",'
     '"value":"0"},{"deg":1,"place":"t+8","value":"0"},{"deg":1,'
     '"place":"t+9","value":"0"},{"deg":3,"place":"t^3+2",'
     '"value":"3"},{"deg":3,"place":"t^3+10","value":"0"},'
     '{"deg":1,"place":"inf","value":"0"}],"value":"0"}\n'),
    ('restheorem --field Fp:13 --f "(t^5+5*t+1)/(t^2+2)^3" --g "t^3+4*t"',
     '{"details":{"places":9,"suppressed_trivial":7},'
     '"expected":"0","field":"Fp:13",'
     '"inputs":{"f":"(t^5+5*t+1)/(t^6+6*t^4+12*t^2+8)",'
     '"g":"t^3+4*t"},"law":"residue-theorem","ok":true,'
     '"terms":[{"deg":1,"place":"t","value":"0"},{"deg":1,'
     '"place":"t+3","value":"0"},{"deg":1,"place":"t+4",'
     '"value":"0"},{"deg":1,"place":"t+9","value":"0"},{"deg":1,'
     '"place":"t+10","value":"0"},{"deg":2,"place":"t^2+2",'
     '"value":"12"},{"deg":2,"place":"t^2+7*t+11","value":"0"},'
     '{"deg":3,"place":"t^3+6*t^2+12*t+6","value":"0"},{"deg":1,'
     '"place":"inf","value":"1"}],"value":"0"}\n'),
    ('restheorem --field Fp:13 --f "(t^2+3*t)/((t^3+2)^4*(t-1))" '
     '--g "t^2+t" --oracle',
     '{"details":{"oracle_agreements":7,"places":7,'
     '"suppressed_trivial":5},"expected":"0","field":"Fp:13",'
     '"inputs":{"f":"(t^2+3*t)/(t^13+12*t^12+8*t^10+5*t^9+11*t^7+'
     '2*t^6+6*t^4+7*t^3+3*t+10)","g":"t^2+t"},'
     '"law":"residue-theorem","ok":true,"terms":[{"deg":1,'
     '"oracle":"0","place":"t","value":"0"},{"deg":1,"oracle":"0",'
     '"place":"t+1","value":"0"},{"deg":1,"oracle":"0",'
     '"place":"t+3","value":"0"},{"deg":1,"oracle":"0",'
     '"place":"t+7","value":"0"},{"deg":1,"oracle":"4",'
     '"place":"t+12","value":"4"},{"deg":3,"oracle":"9",'
     '"place":"t^3+2","value":"9"},{"deg":1,"oracle":"0",'
     '"place":"inf","value":"0"}],"value":"0"}\n'),
    ('restheorem --field Q --f "(t^2+3*t+1)/((t^3-2)^3*(t+1))" --g "t^2+t"',
     '{"details":{"places":6,"suppressed_trivial":4},'
     '"expected":"0","field":"Q",'
     '"inputs":{"f":"(t^2+3*t+1)/(t^10+t^9-6*t^7-6*t^6+12*t^4+'
     '12*t^3-8*t-8)","g":"t^2+t"},"law":"residue-theorem",'
     '"ok":true,"terms":[{"deg":1,"place":"t","value":"0"},'
     '{"deg":1,"place":"t+1","value":"-1/27"},{"deg":1,'
     '"place":"t+1/2","value":"0"},{"deg":2,"place":"t^2+3*t+1",'
     '"value":"0"},{"deg":3,"place":"t^3-2","value":"1/27"},'
     '{"deg":1,"place":"inf","value":"0"}],"value":"0"}\n'),
    ('restheorem --field Q --f "(2*t-1)/((t^2+1)^4*t)" --g "t^2+3*t"',
     '{"details":{"places":6,"suppressed_trivial":4},'
     '"expected":"0","field":"Q",'
     '"inputs":{"f":"(2*t-1)/(t^9+4*t^7+6*t^5+4*t^3+t)",'
     '"g":"t^2+3*t"},"law":"residue-theorem","ok":true,'
     '"terms":[{"deg":1,"place":"t-1/2","value":"0"},{"deg":1,'
     '"place":"t","value":"-3"},{"deg":1,"place":"t+3",'
     '"value":"0"},{"deg":1,"place":"t+3/2","value":"0"},{"deg":2,'
     '"place":"t^2+1","value":"3"},{"deg":1,"place":"inf",'
     '"value":"0"}],"value":"0"}\n'),
    ('sw --field Q --f "(t+2)/(t^2+1)^2" --g "t^3+3*t"',
     '{"details":{"places":5,"suppressed_trivial":3},'
     '"expected":"1","field":"Q",'
     '"inputs":{"f":"(t+2)/(t^4+2*t^2+1)","g":"t^3+3*t",'
     '"order":"12"},"law":"segal-wilson-product","ok":true,'
     '"terms":[{"deg":1,"place":"t","residue":"0","value":"1"},'
     '{"deg":1,"place":"t+2","residue":"0","value":"1"},{"deg":2,'
     '"place":"t^2+1","residue":"3",'
     '"value":"1 + 3/2*z^2 + 9/8*z^4 + 9/16*z^6 + 27/128*z^8 +'
     ' 81/1280*z^10 + 81/5120*z^12"},{"deg":2,"place":"t^2+3",'
     '"residue":"0","value":"1"},{"deg":1,"place":"inf",'
     '"residue":"-3",'
     '"value":"1 + -3/2*z^2 + 9/8*z^4 + -9/16*z^6 + 27/128*z^8 +'
     ' -81/1280*z^10 + 81/5120*z^12"}],"value":"1"}\n'),
    ('sw --field Q --f "(t^2+3*t+1)/((t^3-2)^3*(t+1))" --g "t^2+t" --order 6',
     '{"details":{"places":6,"suppressed_trivial":4},'
     '"expected":"1","field":"Q",'
     '"inputs":{"f":"(t^2+3*t+1)/(t^10+t^9-6*t^7-6*t^6+12*t^4+'
     '12*t^3-8*t-8)","g":"t^2+t","order":"6"},'
     '"law":"segal-wilson-product","ok":true,"terms":[{"deg":1,'
     '"place":"t","residue":"0","value":"1"},{"deg":1,'
     '"place":"t+1","residue":"-1/27",'
     '"value":"1 + -1/54*z^2 + 1/5832*z^4 + -1/944784*z^6"},'
     '{"deg":1,"place":"t+1/2","residue":"0","value":"1"},'
     '{"deg":2,"place":"t^2+3*t+1","residue":"0","value":"1"},'
     '{"deg":3,"place":"t^3-2","residue":"1/27",'
     '"value":"1 + 1/54*z^2 + 1/5832*z^4 + 1/944784*z^6"},'
     '{"deg":1,"place":"inf","residue":"0","value":"1"}],'
     '"value":"1"}\n'),
    ('sw --field Q --f "(2*t-1)/((t^2+1)^4*t)" --g "t^2+3*t" --order 4',
     '{"details":{"places":6,"suppressed_trivial":4},'
     '"expected":"1","field":"Q",'
     '"inputs":{"f":"(2*t-1)/(t^9+4*t^7+6*t^5+4*t^3+t)",'
     '"g":"t^2+3*t","order":"4"},"law":"segal-wilson-product",'
     '"ok":true,"terms":[{"deg":1,"place":"t-1/2","residue":"0",'
     '"value":"1"},{"deg":1,"place":"t","residue":"-3",'
     '"value":"1 + -3/2*z^2 + 9/8*z^4"},{"deg":1,"place":"t+3",'
     '"residue":"0","value":"1"},{"deg":1,"place":"t+3/2",'
     '"residue":"0","value":"1"},{"deg":2,"place":"t^2+1",'
     '"residue":"3","value":"1 + 3/2*z^2 + 9/8*z^4"},{"deg":1,'
     '"place":"inf","residue":"0","value":"1"}],"value":"1"}\n'),
    ('sw --field Q --f "t^6+t" --g "1/(t^2+1)^3" --place "t^2+1" --order 4',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"t^6+t","g":"(1)/(t^6+3*t^4+3*t^2+1)",'
     '"order":"4"},"law":"segal-wilson","ok":true,'
     '"terms":[{"place":"t^2+1","value":"1 + -3*z^2 + 9/2*z^4"}],'
     '"value":"1 + -3*z^2 + 9/2*z^4"}\n'),
    ('residue --field Fp:5 --f "(t^2+3*t+1)/((t^2+2)^3*(t+1))" '
     '--g "t^2+t" --place "t^2+2"',
     '{"details":{},"expected":null,"field":"Fp:5",'
     '"inputs":{"f":"(t^2+3*t+1)/(t^7+t^6+t^5+t^4+2*t^3+2*t^2+3*t+'
     '3)","g":"t^2+t"},"law":"residue","ok":true,'
     '"terms":[{"place":"t^2+2","value":"2"}],"value":"2"}\n'),
    ('residue --field Fp:5 --f "(t+4)/((t^3+t+1)^4*t)" --g "t^3+3*t" '
     '--place "t^3+t+1"',
     '{"details":{},"expected":null,"field":"Fp:5",'
     '"inputs":{"f":"(t+4)/(t^13+4*t^11+4*t^10+t^9+2*t^8+2*t^6+'
     '3*t^5+3*t^4+t^3+4*t^2+t)","g":"t^3+3*t"},"law":"residue",'
     '"ok":true,"terms":[{"place":"t^3+t+1","value":"3"}],'
     '"value":"3"}\n'),
    ('residue --field Fp:13 --f "(2*t+3)/((t^3+2)^2*(t+1))" --g "t^4+t" '
     '--place "t^3+2"',
     '{"details":{},"expected":null,"field":"Fp:13",'
     '"inputs":{"f":"(2*t+3)/(t^7+t^6+4*t^4+4*t^3+4*t+4)",'
     '"g":"t^4+t"},"law":"residue","ok":true,'
     '"terms":[{"place":"t^3+2","value":"3"}],"value":"3"}\n'),
    ('residue --field Fp:13 --f "(t^5+5*t+1)/(t^2+2)^3" --g "t^3+4*t" '
     '--place "t^2+2"',
     '{"details":{},"expected":null,"field":"Fp:13",'
     '"inputs":{"f":"(t^5+5*t+1)/(t^6+6*t^4+12*t^2+8)",'
     '"g":"t^3+4*t"},"law":"residue","ok":true,'
     '"terms":[{"place":"t^2+2","value":"12"}],"value":"12"}\n'),
    ('residue --field Fp:13 --f "t^6+t^2" --g "1/(t^3+2)" --place "inf"',
     '{"details":{},"expected":null,"field":"Fp:13",'
     '"inputs":{"f":"t^6+t^2","g":"(1)/(t^3+2)"},"law":"residue",'
     '"ok":true,"terms":[{"place":"inf","value":"1"}],'
     '"value":"1"}\n'),
    ('residue --field Q --f "(t^2+3*t+1)/((t^3-2)^3*(t+1))" --g "t^2+t" '
     '--place "t^3-2"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"(t^2+3*t+1)/(t^10+t^9-6*t^7-6*t^6+12*t^4+'
     '12*t^3-8*t-8)","g":"t^2+t"},"law":"residue","ok":true,'
     '"terms":[{"place":"t^3-2","value":"1/27"}],"value":"1/27"}\n'),
    ('residue --field Q --f "(2*t-1)/((t^2+1)^4*t)" --g "t^2+3*t" '
     '--place "t^2+1"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"(2*t-1)/(t^9+4*t^7+6*t^5+4*t^3+t)",'
     '"g":"t^2+3*t"},"law":"residue","ok":true,'
     '"terms":[{"place":"t^2+1","value":"3"}],"value":"3"}\n'),
    ('residue --field Q --f "t^6+t" --g "1/(t^2+1)^3" --place "t^2+1"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"t^6+t","g":"(1)/(t^6+3*t^4+3*t^2+1)"},'
     '"law":"residue","ok":true,"terms":[{"place":"t^2+1",'
     '"value":"-6"}],"value":"-6"}\n'),
)


def test_residue_reports_at_higher_poles_keep_their_bytes(capsys):
    for line, expected in _PINNED_RESIDUES:
        code, out, err = run(capsys, *shlex.split(line), "--json")
        assert (code, out, err) == (0, expected, ""), line


# Surface reports at places of degree 2 on the curve, where the symbols
# take norms from a quadratic residue field, with and without a parameter z.
_PINNED_SURFACE = (
    ('parshin --field Fp:5 --f "(s^2+2)*t" --g "s*t^2" '
     '--h "(s+1)^2/(s^2+2)^3" --place "s^2+2" --z "s*t"',
     '{"details":{},"expected":null,"field":"Fp:5",'
     '"inputs":{"f":"(s^2+2)*t","g":"s*t^2",'
     '"h":"(s^2+2*s+1)/(s^6+s^4+2*s^2+3)"},"law":"parshin-symbol",'
     '"ok":true,"terms":[{"place":"s^2+2","value":"3"}],"value":"3"}\n'),
    ('parshin --field Fp:5 --f "(s^2+2)*t" --g "s*t^2" '
     '--h "(s+1)^2/(s^2+2)^3" --verify',
     '{"details":{"places":4,"suppressed_trivial":2},"expected":"1",'
     '"field":"Fp:5","inputs":{"f1":"(s^2+2)*t","f2":"s*t^2",'
     '"f3":"(s^2+2*s+1)/(s^6+s^4+2*s^2+3)"},"law":"parshin-product",'
     '"ok":true,"terms":[{"deg":1,"place":"s","value":"2"},'
     '{"deg":1,"place":"s+1","value":"1"},'
     '{"deg":2,"place":"s^2+2","value":"3"},'
     '{"deg":1,"place":"inf","value":"1"}],"value":"1"}\n'),
    ('horozov --f "(s^2+1)*t" --g "(s^2+1)^2*t^3" --h "(s-1)/(s^2+1)" '
     '--place "s^2+1"',
     '{"details":{},"expected":null,"field":"Q",'
     '"inputs":{"f":"(s^2+1)*t","g":"(s^4+2*s^2+1)*t^3",'
     '"h":"(s-1)/(s^2+1)"},"law":"horozov-symbol","ok":true,'
     '"terms":[{"place":"s^2+1","value":"1/8"}],"value":"1/8"}\n'),
    ('hk4 --field Fp:7 --f "(s^2+1)*t" --g "s*t^2" --h "(s^2+1)^2*t" '
     '--w "(s+3)*t^3" --place "s^2+1" --z "t*(1+s*t)"',
     '{"details":{},"expected":null,"field":"Fp:7",'
     '"inputs":{"f":"(s^2+1)*t","g":"s*t^2","h":"(s^4+2*s^2+1)*t",'
     '"w":"(s+3)*t^3"},"law":"hk4-symbol","ok":true,'
     '"terms":[{"place":"s^2+1","value":"2"}],"value":"2"}\n'),
    ('hk4 --field Fp:7 --f "(s^2+1)*t" --g "s*t^2" --h "(s^2+1)^2*t" '
     '--w "(s+3)*t^3" --verify',
     '{"details":{"places":4,"suppressed_trivial":0},"expected":"1",'
     '"field":"Fp:7","inputs":{"f1":"(s^2+1)*t","f2":"s*t^2",'
     '"f3":"(s^4+2*s^2+1)*t","f4":"(s+3)*t^3"},"law":"hk4-product",'
     '"ok":true,"terms":[{"deg":1,"place":"s","value":"5"},'
     '{"deg":1,"place":"s+3","value":"2"},'
     '{"deg":2,"place":"s^2+1","value":"2"},'
     '{"deg":1,"place":"inf","value":"6"}],"value":"1"}\n'),
    ('nu --field Fp:5 --f "(s^2+2)^2*t" --g "(s+1)*t^3/(s^2+2)" '
     '--place "s^2+2" --z "t*(1+t)"',
     '{"details":{},"expected":null,"field":"Fp:5",'
     '"inputs":{"f":"(s^4+4*s^2+4)*t","g":"(s+1)/(s^2+2)*t^3"},'
     '"law":"nu-symbol","ok":true,'
     '"terms":[{"place":"s^2+2","value":"7"}],"value":"7"}\n'),
    ('nu --field Fp:5 --f "(s^2+2)^2*t" --g "(s+1)*t^3/(s^2+2)" --verify',
     '{"details":{"places":3,"suppressed_trivial":0},"expected":"0",'
     '"field":"Fp:5","inputs":{"f":"(s^4+4*s^2+4)*t",'
     '"g":"(s+1)/(s^2+2)*t^3"},"law":"nu-sum","ok":true,'
     '"terms":[{"deg":1,"nu":-1,"place":"s+1","term":-1},'
     '{"deg":2,"nu":7,"place":"s^2+2","term":14},'
     '{"deg":1,"nu":-13,"place":"inf","term":-13}],"value":"0"}\n'),
)


def test_surface_reports_at_degree_two_places_keep_their_bytes(capsys):
    for line, expected in _PINNED_SURFACE:
        code, out, err = run(capsys, *shlex.split(line), "--json")
        assert (code, out, err) == (0, expected, ""), line


def test_hk4_answers_where_its_curve_level_tame_symbols_do_not_factor(capsys):
    # every restriction factors; only the numerator s^4+3*s^2+2 of the
    # curve-level tame symbol of the first pair would not, and hk4's places
    # are those of the restrictions alone
    line = ('hk4 --f "(s^2+1)*t" --g "(s^2+2)/t" --h "s" --w "s+1" '
            '--verify --json')
    assert run(capsys, *shlex.split(line)) == (0, (
        '{"details":{"places":5,"suppressed_trivial":5},"expected":"1",'
        '"field":"Q","inputs":{"f1":"(s^2+1)*t","f2":"(s^2+2)/(t)",'
        '"f3":"s","f4":"s+1"},"law":"hk4-product","ok":true,'
        '"terms":[{"deg":1,"place":"s","value":"1"},'
        '{"deg":1,"place":"s+1","value":"1"},'
        '{"deg":2,"place":"s^2+1","value":"1"},'
        '{"deg":2,"place":"s^2+2","value":"1"},'
        '{"deg":1,"place":"inf","value":"1"}],"value":"1"}\n'), "")


@pytest.mark.parametrize("line", [
    'tame --f "t" --g "t+1"',
    'residue --f "1/t" --g "t"',
    'index --f "t^2"',
    'hilbert --field Fp:5 --f "t" --g "t+1" --m 2',
    'sw --f "1/t" --g "t"',
    'nu --f "s" --g "t" --verify',
    'horozov --f "s" --g "t" --h "s+t"',
    'parshin --f "s" --g "t" --h "s+t"',
    'hk4 --f "s" --g "t" --h "s+t" --w "s-t"',
], ids=lambda line: line.split()[0])
def test_an_empty_place_is_a_parse_error(capsys, line):
    # an empty --place is parsed like any other, never read as no --place
    assert run(capsys, *shlex.split(line), "--place", "") == \
        (2, "", "parse error: unexpected end of expression\n")


@pytest.mark.parametrize("mode", ["--place s", "--verify"])
@pytest.mark.parametrize("line", [
    'nu --f "s" --g "t"',
    'horozov --f "s" --g "t" --h "s+t"',
    'parshin --f "s" --g "t" --h "s+t"',
    'hk4 --f "s" --g "t" --h "s+t" --w "s-t"',
], ids=lambda line: line.split()[0])
def test_an_empty_parameter_is_a_parse_error(capsys, line, mode):
    # an empty --z is parsed like any other, never read as no --z
    argv = shlex.split(f"{line} {mode}")
    assert run(capsys, *argv, "--z", "") == \
        (2, "", "parse error: unexpected end of expression\n")


# Every subcommand's options, in order, as taken before the subcommands
# shared one table: "!" marks a required option and "=" its default, after
# --field='Q' --json=False, which every subcommand has.
_OPTIONS = (
    ("tame", "--f! --g! --place!"),
    ("weil", "--f! --g!"),
    ("sumval", "--f!"),
    ("residue", "--f! --g! --place!"),
    ("restheorem", "--f! --g! --oracle=False"),
    ("hilbert", "--f! --g! --m! --place"),
    ("nu", "--f! --g! --place --verify=False --z"),
    ("horozov", "--f! --g! --h! --place --verify=False --z"),
    ("parshin", "--f! --g! --h! --place --verify=False --z"),
    ("hk4", "--f! --g! --h! --w! --place --verify=False --z"),
    ("sw", "--f! --g! --place --order=12"),
    ("index", "--f! --place --lattice='ray:0' --verify=False"),
    ("xsymbol", "--instance! --f! --g --check! --a --b"),
)


def test_command_line_options_stay_fixed():
    parser = cli._build_parser()
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    shown = tuple(
        (name, " ".join(
            action.option_strings[-1] + "!" * action.required
            + ("" if action.default is None else f"={action.default!r}")
            for action in command._actions
            if action.option_strings[-1] != "--help"))
        for name, command in sub.choices.items())
    assert shown == tuple((name, "--field='Q' --json=False " + options)
                          for name, options in _OPTIONS)


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
