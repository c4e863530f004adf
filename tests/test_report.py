import json
from fractions import Fraction

from tubular.core import IntVec2, QForm2
from tubular.cubulate import EquitableSet
from tubular.fbc import Functional
from tubular.report import (
    DecisionReport,
    deserialize_equitable,
    deserialize_functional,
    deserialize_qform,
    rat_str,
    reports_to_json,
    serialize_equitable,
    serialize_functional,
    serialize_qform,
)


def test_rat_strings_round_trip():
    for r in (Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(22, 7)):
        assert Fraction(rat_str(r)) == r
    assert rat_str(Fraction(3)) == "3/1"


def test_qform_round_trip():
    q = QForm2(Fraction(5, 3), Fraction(-1, 2), Fraction(2))
    obj = serialize_qform(q, cos_phi=Fraction(1, 4))
    assert obj["cos_phi"] == "1/4"
    assert deserialize_qform(json.loads(json.dumps(obj))) == q


def test_functional_round_trip():
    f = Functional((("V", (0, 1)), ("W", (-2, 3))))
    obj = serialize_functional(f)
    assert deserialize_functional(json.loads(json.dumps(obj))) == f


def test_equitable_round_trip():
    s = EquitableSet((("V", (IntVec2(0, 1), IntVec2(2, 1))),))
    obj = serialize_equitable(s)
    assert deserialize_equitable(json.loads(json.dumps(obj))) == s


def test_report_json_schema_keys():
    r = DecisionReport("g", "cat0", "No", "SomeRoute", citation="why", notes=("n",))
    out = json.loads(reports_to_json([r]))
    assert isinstance(out, list)
    assert set(out[0].keys()) == {
        "group",
        "property",
        "verdict",
        "route",
        "certificate",
        "citation",
        "notes",
    }
    assert out[0]["certificate"] is None
    assert out[0]["notes"] == ["n"]
