import gc
import json
import re
import warnings
from pathlib import Path

import pytest

import tubular.cli
from tubular.cli import main
from tubular.core import GpqParams
from tubular.dsl import unparse
from tubular.corpus import corpus, eg2_g1, gersten_presentation

SCHEMA_KEYS = {"group", "property", "verdict", "route", "certificate", "citation", "notes"}

GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_NAMES = [e.name for e in corpus()]
GPQ_NAMES = [e.name for e in corpus() if isinstance(e.presentation, GpqParams)]


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


# (golden file, argv); "{g}" stands for a file holding the eg2-g1 presentation.
GOLDEN = [
    ("corpus.txt", ["corpus"]),
    ("corpus-run.txt", ["corpus", "--run"]),
    ("corpus-run.json", ["corpus", "--run", "--json"]),
    *[(f"analyze-{_slug(n)}.txt", ["analyze", "--corpus", n]) for n in CORPUS_NAMES],
    *[
        (f"analyze-{_slug(n)}.json", ["analyze", "--corpus", n, "--json"])
        for n in CORPUS_NAMES
    ],
    *[
        (f"{cmd}-{_slug(n)}.txt", [cmd, "--corpus", n])
        for cmd in ("cat0", "fbc", "special")
        for n in CORPUS_NAMES
    ],
    *[(f"vrc-{_slug(n)}.txt", ["vrc", "--corpus", n]) for n in GPQ_NAMES],
    ("cubulate-gersten.txt", ["cubulate", "--corpus", "gersten"]),
    ("cubulate-gersten.json", ["cubulate", "--corpus", "gersten", "--json"]),
    ("cubulate-gersten.dot", ["cubulate", "--corpus", "gersten", "--dot"]),
    (
        "cubulate-gersten-all-matchings.json",
        ["cubulate", "--corpus", "gersten", "--all-matchings", "--json"],
    ),
    ("cubulate-bs12.txt", ["cubulate", "--corpus", "bs12"]),
    ("amalgam-retractor.txt", ["amalgam", "{g}", "1,0", "{g}", "1,0"]),
    ("amalgam-button.txt", ["amalgam", "{g}", "1,-1", "{g}", "1,0"]),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("golden,argv", GOLDEN, ids=[f for f, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, golden, argv):
    path = tmp_path / "g.tub"
    path.write_text(unparse(eg2_g1()))
    code, out, err = run(capsys, *(str(path) if a == "{g}" else a for a in argv))
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN_DIR / golden).read_bytes()


def test_analyze_corpus_gersten_text(capsys):
    code, out, err = run(capsys, "analyze", "--corpus", "gersten")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    verdicts = {l.split()[1].rstrip(":"): l.split()[2] for l in lines}
    assert verdicts["fbc"] == "Yes"
    assert verdicts["cat0"] == "No"
    assert verdicts["vspecial"] == "No"
    assert verdicts["cocompact_cubulation"] == "No"
    assert verdicts["dilation"] == "Dilated"
    assert verdicts["vrc"] == "Obstructed"


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--corpus", "gersten", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(set(r.keys()) == SCHEMA_KEYS for r in reports)
    by_prop = {r["property"]: r for r in reports}
    assert by_prop["vrc"]["certificate"]["values"] == ["-1/2", "-1/1"]
    assert by_prop["fbc"]["certificate"]["coefficients"]["V"] == [0, 1]


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "--corpus", "lyman-psi(1,2)", "--json")
    _, out2, _ = run(capsys, "analyze", "--corpus", "lyman-psi(1,2)", "--json")
    assert out1 == out2


def test_stdin_input(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.tub"
    path.write_text(unparse(eg2_g1()))
    code, out, _ = run(capsys, "cat0", str(path))
    assert code == 0
    assert "cat0: Yes" in out


def test_special_and_fbc_subcommands(capsys, tmp_path):
    path = tmp_path / "gpq.tub"
    path.write_text("gpq p=[0,0] q=[1,2]\n")
    code, out, _ = run(capsys, "special", str(path))
    assert code == 0
    assert "vspecial: No" in out
    assert "compact_special: No" in out
    code, out, _ = run(capsys, "fbc", str(path))
    assert "fbc: Yes" in out


def test_vrc_requires_gpq(capsys, tmp_path):
    path = tmp_path / "g.tub"
    path.write_text(unparse(gersten_presentation()))
    code, _, err = run(capsys, "vrc", str(path))
    assert code == 2
    assert "gpq" in err


def test_cubulate_found_and_dot(capsys):
    code, out, _ = run(capsys, "cubulate", "--corpus", "gersten")
    assert code == 0
    assert "equitable_set: Found" in out
    assert "dilation: Dilated" in out

    code, out, _ = run(capsys, "cubulate", "--corpus", "gersten", "--dot")
    assert code == 0
    assert out.startswith("digraph wall {")


def test_cubulate_not_found(capsys):
    code, out, _ = run(capsys, "cubulate", "--corpus", "bs12")
    assert code == 0
    assert "equitable_set: NotFound" in out


def test_cubulate_all_matchings(capsys):
    code, out, _ = run(capsys, "cubulate", "--corpus", "gersten", "--all-matchings")
    assert code == 0
    assert "dilation_spectrum" in out


def test_corpus_listing_and_run(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "gersten: " in out
    assert "corlast: " in out


def test_corpus_run_matches_expected(capsys):
    from tubular.corpus import corpus

    code, out, _ = run(capsys, "corpus", "--run", "--json")
    assert code == 0
    reports = json.loads(out)
    table = {(r["group"], r["property"]): r["verdict"] for r in reports}
    for entry in corpus():
        for prop, expected in entry.expected.items():
            assert table[(entry.name, prop)] == expected, (entry.name, prop)


def test_amalgam_subcommand(capsys, tmp_path):
    p1 = tmp_path / "a.tub"
    p2 = tmp_path / "b.tub"
    p1.write_text(unparse(eg2_g1()))
    p2.write_text(unparse(eg2_g1()))
    code, out, _ = run(capsys, "amalgam", str(p1), "1,0", str(p2), "1,0")
    assert code == 0
    assert "fbc: Yes [RetractorSufficiency]" in out

    code, out, _ = run(capsys, "amalgam", str(p1), "1,-1", str(p2), "1,0")
    assert code == 0
    assert "fbc: No [ButtonCriterion]" in out


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.tub"
    path.write_text("group bad { vertex V; edge e : V(0,0) -> V(1,0); }")
    code, _, err = run(capsys, "cat0", str(path))
    assert code == 2
    assert "zero attaching vector" in err


def test_cubulate_searches_once(capsys, monkeypatch):
    calls = {"equitable_search": 0, "wall_graph": 0}
    for name, orig in [(n, getattr(tubular.cli, n)) for n in calls]:

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(tubular.cli, name, counted)
    for extra in ([], ["--json"], ["--dot"], ["--all-matchings"]):
        calls.update(equitable_search=0, wall_graph=0)
        code, _, _ = run(capsys, "cubulate", "--corpus", "gersten", *extra)
        assert code == 0
        assert calls == {"equitable_search": 1, "wall_graph": 1}, extra


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cubulate", "--coord-bound", "0", "{g}"], "error: bounds must be >= 1\n"),
        (["amalgam", "{g}", "W:1,0", "{g}", "V:1,0"], "error: unknown vertex 'W'\n"),
        (
            ["amalgam", "{g}", "V:0,0", "{g}", "V:1,0"],
            "error: gluing vector 'V:0,0' must be nonzero\n",
        ),
        (["corpus", "--json"], "error: --json requires --run\n"),
        (
            ["analyze", "--corpus", "nosuch"],
            "error: unknown corpus entry 'nosuch' (entries: gersten, lyman-psi(1,1),",
        ),
        (["cat0"], "error: no input given (file, '-', or --corpus NAME)\n"),
        (
            ["amalgam", "{g}", "nonsense", "{g}", "1,0"],
            "error: bad vector spec 'nonsense' (expected V:x,y)\n",
        ),
    ],
    ids=[
        "coord-bound-0",
        "unknown-vertex",
        "zero-vector",
        "corpus-json-without-run",
        "unknown-corpus-entry",
        "missing-input",
        "bad-vector-spec",
    ],
)
def test_user_errors_exit_2(capsys, tmp_path, argv, message):
    path = tmp_path / "g.tub"
    path.write_text(unparse(eg2_g1()))
    code, out, err = run(capsys, *(str(path) if a == "{g}" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_input_files_are_closed(capsys, tmp_path):
    path = tmp_path / "g.tub"
    path.write_text(unparse(eg2_g1()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(capsys, "cat0", str(path))
        run(capsys, "amalgam", str(path), "1,0", str(path), "1,0")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
