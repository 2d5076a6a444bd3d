import json

import pytest

from reciprocity_lab.report import VerificationReport, place_law_report


def _report(**changes):
    fields = dict(law="weil", field_descriptor="Fp:5", inputs={"f": "t"},
                  terms=[{"place": "t", "value": "1"}], value="1",
                  expected="1", ok=True, details={"places": 1})
    return VerificationReport(**{**fields, **changes})


def test_reports_are_equal_exactly_when_their_fields_are():
    assert _report() == _report()
    for name, other in (("law", "hilbert"), ("field_descriptor", "Q"),
                        ("inputs", {}), ("terms", []), ("value", "2"),
                        ("expected", None), ("ok", False), ("details", {})):
        assert _report(**{name: other}) != _report(), name
    assert _report() != _report().to_dict()
    # mutable, as before: a report is not hashable
    with pytest.raises(TypeError):
        hash(_report())
    report = _report()
    report.ok = False
    assert report == _report(ok=False)


def test_each_report_gets_its_own_details():
    first = VerificationReport("weil", "Q", {}, [], "1", "1", True)
    second = VerificationReport("weil", "Q", {}, [], "1", "1", True)
    assert first.details == {} and first.details is not second.details
    first.details["places"] = 0
    assert second.details == {}
    assert json.loads(second.to_json())["details"] == {}


def test_reports_have_a_readable_repr():
    assert repr(_report()) == (
        "VerificationReport(law='weil', field_descriptor='Fp:5', "
        "inputs={'f': 't'}, terms=[{'place': 't', 'value': '1'}], "
        "value='1', expected='1', ok=True, details={'places': 1})")


def test_place_law_reports_count_their_terms():
    report = place_law_report("sum", "Q", {"f": "t"}, [], lambda x: None, 0,
                              lambda a, b: a + b)
    assert report == VerificationReport(
        law="sum", field_descriptor="Q", inputs={"f": "t"}, terms=[],
        value="0", expected="0", ok=True,
        details={"places": 0, "suppressed_trivial": 0})
