import json
import random
from fractions import Fraction

import pytest

from tubular import cli
from tubular.core import EquitableSet, Functional, IntVec2, QForm2
from tubular.corpus import corpus
from tubular.dsl import parse
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


def _dumps(reports):
    return json.dumps([r._asdict() for r in reports], indent=2) + "\n"


# Every subcommand with --json, and its extra flags, run on each corpus entry.
JSON_COMMANDS = [
    ["analyze"],
    ["cat0"],
    ["fbc"],
    ["special"],
    ["vrc"],
    ["cubulate"],
    ["cubulate", "--all-matchings"],
]


def test_emitter_matches_json_dumps_on_every_corpus_command(monkeypatch, capsys):
    """Each report list that a --json command writes is the text of
    json.dumps(indent=2), through the CLI's own call of the emitter."""
    lists = []

    def recording(reports):
        lists.append(list(reports))
        return reports_to_json(reports)

    monkeypatch.setattr(cli, "reports_to_json", recording)
    for entry in corpus():
        for cmd in JSON_COMMANDS:
            cli.main([*cmd, "--corpus", entry.name, "--json"])
    cli.main(["corpus", "--run", "--json"])
    capsys.readouterr()
    # vrc answers only for the 3 gpq entries and exits 2 on the others.
    assert len(lists) == len(corpus()) * (len(JSON_COMMANDS) - 1) + 3 + 1
    for reports in lists:
        assert reports_to_json(reports) == _dumps(reports)


def _random_input(rng):
    """A one-vertex input with 1-4 loops, or a two-vertex input with a loop
    at each end and 1-2 edges between them, coordinates up to 3."""

    def vec():
        x, y = 0, 0
        while (x, y) == (0, 0):
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        return f"({x},{y})"

    if rng.random() < 0.6:
        edges = [f"V{vec()} -> V{vec()}" for _ in range(rng.randint(1, 4))]
        vertices = "vertex V;"
    else:
        edges = [f"A{vec()} -> A{vec()}", f"B{vec()} -> B{vec()}"]
        edges += [f"A{vec()} -> B{vec()}" for _ in range(rng.randint(1, 2))]
        vertices = "vertex A, B;"
    body = " ".join(f"edge e{i} : {e};" for i, e in enumerate(edges))
    return parse(f"group G {{ {vertices} {body} }}")


def test_emitter_matches_json_dumps_on_random_report_lists():
    """analyze's reports, and cubulate --all-matchings' reports where a set
    is found, on 200 random inputs."""
    rng = random.Random(2101)
    spectra = 0
    for _ in range(200):
        s = cli._Input(_random_input(rng), "G", coord_bound=2, size_bound=3)
        reports = cli._reports(s, cli.COMMANDS["analyze"])
        assert reports_to_json(reports) == _dumps(reports)
        if s.search[1] is not None:
            reports = cli._reports(s, cli.COMMANDS["cubulate"])
            assert reports_to_json(reports) == _dumps(reports)
            spectra += 1
    assert spectra > 50


def test_emitter_escapes_and_empty_containers_match_json_dumps():
    notes = (
        'a "quoted" word',
        "back\\slash",
        "controls \x00\x01\x1f\t\n\r\x7f",
        "non-ASCII: é ß ∞ 中 \U0001f600  ",
        "",
    )
    reports = [
        DecisionReport("g\"\\", "p", "Yes", "R", {"x": [1, -2, 10**40]}, "c", notes),
        DecisionReport("é", "p", "No", "R", None, "", ()),
        DecisionReport("g", "p", "Unknown", "R", {}, "c", ()),
        DecisionReport("g", "p", "Found", "R", {"sets": {}, "t": (), "u": [[]]}, notes=("n",)),
        DecisionReport("g", "p", "Found", "R", {"flags": [True, False, None], "d": {"e": {}}}),
    ]
    assert reports_to_json(reports) == _dumps(reports)
    assert reports_to_json([]) == _dumps([]) == "[]\n"


@pytest.mark.parametrize(
    "certificate",
    [{"x": Fraction(1, 2)}, {"x": {1, 2}}, {"x": [object()]}, {1: "non-str key"}],
)
def test_emitter_rejects_unsupported_values(certificate):
    with pytest.raises(TypeError):
        reports_to_json([DecisionReport("g", "p", "Yes", "R", certificate)])
