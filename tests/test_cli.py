import argparse
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import tubular.cat0
import tubular.cli
import tubular.cubulate
import tubular.fbc
from tubular.cli import main
from tubular.core import GpqParams, QForm2, check_certificate, det2
from tubular.cubulate import equitable_search, wall_graph
from tubular.dsl import parse, unparse
from tubular.corpus import bare_z2, corpus, corpus_entry, eg2_double, eg2_g1, gersten_presentation
from tubular.report import deserialize_qform
from tubular.special import Answer, gpq_to_tubular, vspecial_fbc_decide, vspecial_sufficient

from check_interpreters import GOLDEN, GOLDEN_DIR, golden_files, random_argv, run_twice

SCHEMA_KEYS = {"group", "property", "verdict", "route", "certificate", "citation", "notes"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _count_parse_args(monkeypatch) -> list:
    """Record the arguments of every call of argparse's `parse_args`."""
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    return calls


@pytest.mark.parametrize("golden,argv", GOLDEN, ids=[f for f, _ in GOLDEN])
def test_golden_output(tmp_path, golden, argv):
    """Each golden command line prints its file's bytes on each of two runs;
    argparse parses it at most once, never on the second run."""
    files = golden_files(tmp_path)
    status, out, err = run_twice([str(files.get(a, a)) for a in argv])
    assert status == "return 0" and err == ""
    assert out.encode() == (GOLDEN_DIR / golden).read_bytes()


def test_module_entry_point_prints_the_corpus():
    """`python -m tubular.cli` runs `main` and exits with its status."""
    src = str(Path(tubular.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "tubular.cli", "corpus"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN_DIR / "corpus.txt").read_bytes()


DILATED_GOLDENS = [
    "analyze-gersten.json",
    "analyze-eg2-double.json",
    "analyze-corlast.json",
    "corpus-run.json",
    "cubulate-gersten.json",
    "cubulate-gersten-all-matchings.json",
]


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


@pytest.mark.parametrize("golden", DILATED_GOLDENS)
def test_dilated_certificates_check_from_their_own_sets(golden):
    """Each Dilated certificate is re-derived from its own `sets` and the
    presentation alone: the sets are equitable, each step joins circles of
    its edge's ends with weight |det(v, c)| / |det(w, c')|, the steps close
    up, and their holonomy is the reported one and is not 1."""
    reports = json.loads((GOLDEN_DIR / golden).read_text())
    dilated = [
        r for r in reports if (r["property"], r["verdict"]) == ("dilation", "Dilated")
    ]
    assert dilated
    for r in dilated:
        g = corpus_entry(r["group"]).presentation
        g = gpq_to_tubular(g) if isinstance(g, GpqParams) else g
        cert = r["certificate"]
        sets = {v: [tuple(c) for c in cs] for v, cs in cert["sets"].items()}
        assert set(sets) == set(g.vertices)
        for cs in sets.values():
            assert any(_det(c, d) for c in cs for d in cs)
        edges = {e.id: ((e.v.x, e.v.y), (e.w.x, e.w.y), e.src, e.dst) for e in g.edges}
        for v, w, src, dst in edges.values():
            assert sum(abs(_det(c, v)) for c in sets[src]) == sum(
                abs(_det(c, w)) for c in sets[dst]
            )
        holonomy, walk = Fraction(1), []
        for step in cert["steps"]:
            v, w, src, dst = edges[step["edge"]]
            (a, i), (b, j) = (step[k].rsplit(":", 1) for k in ("from", "to"))
            assert (a, b) == (src, dst)
            cs, cd = sets[a][int(i)], sets[b][int(j)]
            weight = Fraction(abs(_det(v, cs)), abs(_det(w, cd)))
            assert Fraction(step["weight"]) == weight
            holonomy *= weight ** step["direction"]
            walk.append((step["from"], step["to"])[:: step["direction"]])
        assert all(x[1] == y[0] for x, y in zip(walk, walk[1:] + walk[:1]))
        assert holonomy == Fraction(cert["holonomy"]) != 1
        for x in reports:
            if (x["group"], x["property"]) == (r["group"], "equitable_set"):
                assert x["certificate"]["sets"] == cert["sets"]


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


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(unparse(eg2_g1())))
    code, out, _ = run(capsys, "cat0", "-")
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


def test_fbc_witness_names_the_input_vertex(capsys, tmp_path):
    path = tmp_path / "x.tub"
    path.write_text("group G { vertex X; edge e : X(0,1) -> X(1,1); }\n")
    code, out, _ = run(capsys, "fbc", "--json", str(path))
    assert code == 0
    (report,) = json.loads(out)
    assert report["route"] == "LineCriterion"
    assert report["certificate"]["coefficients"] == {"X": [0, 1]}


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

    # With no set, --dot prints a graph with no nodes and the report line
    # as a DOT comment, so a DOT reader still accepts the output.
    code, dot, err = run(capsys, "cubulate", "--corpus", "bs12", "--dot")
    assert code == 0 and err == ""
    assert dot == f"digraph wall {{\n  // {out.strip()}\n}}\n"


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


def test_amalgam_reads_stdin_for_dash(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.tub"
    path.write_text(unparse(eg2_g1()))
    monkeypatch.setattr(sys, "stdin", io.StringIO(unparse(eg2_g1())))
    code, out, err = run(capsys, "amalgam", str(path), "V:1,0", "-", "V:1,0")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN_DIR / "amalgam-retractor.txt").read_bytes()


def test_reports_print_values_longer_than_the_digit_limit(capsys, tmp_path):
    """Literals the parser accepts derive certificate values with more digits
    than the int-to-str limit; main lifts it only while it reports."""
    nines = "9" * 1500
    text = f"group g {{ vertex V; edge e: V({nines},1) -> V(1,{nines}); }}"
    path = tmp_path / "g.tub"
    path.write_text(text)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == "" and "g cat0: Yes" in out
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    (cat0,) = [r for r in json.loads(out) if r["property"] == "cat0"]
    assert cat0["verdict"] == "Yes"
    sys.set_int_max_str_digits(0)  # the form's entries have about 6,000 digits
    try:
        q = deserialize_qform(cat0["certificate"])
        assert check_certificate(q, parse(text).single_vertex_pairs())
    finally:
        sys.set_int_max_str_digits(limit)


def test_internal_errors_are_not_user_errors(monkeypatch):
    def fault(*args):
        raise KeyError("internal")

    monkeypatch.setattr(tubular.cli, "decide_cat0", fault)
    with pytest.raises(KeyError):
        main(["cat0", "--corpus", "gersten"])


HUGE = 10**19
HUGE_LOOP = f"group h {{ vertex V; edge e : V({HUGE},0) -> V({HUGE},0); }}\n"


@pytest.mark.parametrize(
    "extra", [[], ["--dot"], ["--all-matchings"]], ids=["text", "dot", "all-matchings"]
)
def test_wall_graph_listing_prints_one_line_per_arc(capsys, tmp_path, extra):
    """10^19 points on each side of one edge, past the 2^63 at which a line
    per point overflowed: one line per arc, whose counts sum to the points."""
    path = tmp_path / "h.tub"
    path.write_text(HUGE_LOOP)
    start = time.process_time()
    code, out, err = run(capsys, "cubulate", str(path), *extra)
    assert time.process_time() - start < 0.5
    assert code == 0 and err == ""
    if "--dot" in extra:
        counts = [int(n) for n in re.findall(r"count=(\d+)\];$", out, re.M)]
    else:
        counts = [int(line.split()[4]) for line in out.splitlines() if line[:2] == "e "]
    g = parse(HUGE_LOOP)
    s = equitable_search(g, 3, 3)
    assert counts == [a.count for a in wall_graph(g, s).arcs] and len(counts) == 2
    assert sum(counts) == sum(abs(det2(x, e.v)) for e in g.edges for x in s.at(e.src))


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.tub"
    path.write_text("group bad { vertex V; edge e : V(0,0) -> V(1,0); }")
    code, _, err = run(capsys, "cat0", str(path))
    assert code == 2
    assert "zero attaching vector" in err


def test_cubulate_searches_once(capsys, monkeypatch):
    """One search, one wall graph and one check of the set per command: the
    spectrum reads the point counts the wall graph verified."""
    calls = {"equitable_search": 0, "wall_graph": 0, "verify_equitable": 0}
    for module, name in (
        (tubular.cli, "equitable_search"),
        (tubular.cli, "wall_graph"),
        (tubular.cubulate, "verify_equitable"),
    ):

        def counted(*args, _name=name, _orig=getattr(module, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    for extra in ([], ["--json"], ["--dot"], ["--all-matchings"]):
        tubular.cubulate._point_counts.cache_clear()
        calls.update(equitable_search=0, wall_graph=0, verify_equitable=0)
        code, _, _ = run(capsys, "cubulate", "--corpus", "gersten", *extra)
        assert code == 0
        assert calls == {"equitable_search": 1, "wall_graph": 1, "verify_equitable": 1}, extra


def _random_one_vertex(rng, vertex="V"):
    """A one-vertex presentation with 1-4 loops, coordinates up to 3."""

    def vec():
        x, y = 0, 0
        while (x, y) == (0, 0):
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        return f"({x},{y})"

    loops = (f"edge e{i} : {vertex}{vec()} -> {vertex}{vec()};" for i in range(rng.randint(1, 4)))
    return parse(f"group G {{ vertex {vertex}; {' '.join(loops)} }}")


def test_analyze_decides_each_one_vertex_verdict_once():
    """The fbc, cat0, vspecial and cocompact_cubulation rows of a one-vertex
    analyze ask the line criterion and `decide_cat0` more than once, but each
    decider runs once per input, whatever its vertex is named and for gpq
    inputs too: every later ask is a hit of the decider's own cache.  The
    fbc row's witness sits at the input's vertex."""
    workers = (tubular.fbc._decide_fbc_single_vertex, tubular.cat0._decide_cat0)
    entries = [
        (e.presentation, e.name)
        for e in corpus()
        if len(tubular.cli._as_tubular(e.presentation).vertices) == 1
    ]
    rng = random.Random(1204)
    inputs = entries + [(bare_z2(), "z2")]
    for vertex in ("V", "X", "w2"):
        inputs += [(_random_one_vertex(rng, vertex), "G") for _ in range(25)]
    for k in (1, 2, 3, 4) * 5:
        p, q = (tuple(rng.randint(-4, 4) for _ in range(k)) for _ in "pq")
        inputs.append((GpqParams(p, q), "gpq"))
    equivalence = renamed = 0
    for obj, name in inputs:
        for worker in workers:
            worker.cache_clear()
        reports = tubular.cli.analyze(obj, name)
        assert tuple(w.cache_info().misses for w in workers) == (1, 1), name
        vertex = tubular.cli._as_tubular(obj).vertices[0]
        by_property = {r.property: r for r in reports}
        if by_property["fbc"].verdict == "Yes":
            assert list(by_property["fbc"].certificate["coefficients"]) == [vertex]
        equivalence += by_property["vspecial"].route in ("FbcCat0Equiv", "None")
        renamed += vertex != "V" and by_property["vspecial"].route != "DetSufficient"
    assert len(entries) >= 5 and equivalence >= 10 and renamed >= 10


def test_analyze_decides_z2():
    """A vertex without edges is Z^2: CAT(0) by the identity form, virtually
    special by the free-by-cyclic equivalence, cocompactly cubulated."""
    reports = tubular.cli.analyze(bare_z2(), "z2")
    by_property = {r.property: r for r in reports}
    assert {p: (r.verdict, r.route) for p, r in by_property.items()} == {
        "fbc": ("Yes", "LineCriterion"),
        "cat0": ("Yes", "QuadraticFormEqualization"),
        "vspecial": ("Yes", "FbcCat0Equiv"),
        "cocompact_cubulation": ("Yes", "ParallelismClassCount"),
        "dilation": ("NonDilated", "WallHolonomy"),
    }
    assert deserialize_qform(by_property["cat0"].certificate) == QForm2.identity()
    assert vspecial_fbc_decide([]).answer is Answer.YES
    sufficient = vspecial_sufficient([])
    assert sufficient.answer is Answer.UNKNOWN
    assert sufficient.notes == ("no linearly independent attaching pair; test not applicable",)


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
            ["cat0", "{g}", "--corpus", "gersten"],
            "error: give an input file or --corpus NAME, not both\n",
        ),
        (
            ["analyze", "--corpus", "", "{g}"],
            "error: give an input file or --corpus NAME, not both\n",
        ),
        (["analyze", "--corpus", ""], "error: unknown corpus entry '' (entries: gersten,"),
        (
            ["amalgam", "{g}", "nonsense", "{g}", "1,0"],
            "error: bad vector spec 'nonsense' (expected V:x,y)\n",
        ),
        (
            ["amalgam", "{g}", "V:1_0,2", "{g}", "V:1,0"],
            "error: bad vector spec 'V:1_0,2' (expected V:x,y)\n",
        ),
        (
            ["amalgam", "{g}", "V:\u0661,0", "{g}", "V:1,0"],
            "error: bad vector spec 'V:\u0661,0' (expected V:x,y)\n",
        ),
        (
            ["amalgam", "{g}", "V: +1 , 0", "{g}", "V:1,0"],
            "error: bad vector spec 'V: +1 , 0' (expected V:x,y)\n",
        ),
        (
            ["amalgam", "{g}", f"V:{'1' * 5000},0", "{g}", "V:1,0"],
            f"error: bad vector spec 'V:{'1' * 5000},0' (expected V:x,y)\n",
        ),
        (
            ["amalgam", "{h}", "1,0", "{g}", "1,0"],
            "error: vector spec '1,0' needs a vertex prefix\n",
        ),
        (
            ["cubulate", "--dot", "--json", "{g}"],
            "error: --dot does not combine with --json or --all-matchings\n",
        ),
        (
            ["cubulate", "--dot", "--all-matchings", "{g}"],
            "error: --dot does not combine with --json or --all-matchings\n",
        ),
        (["amalgam", "-", "V:1,0", "-", "V:1,0"], "error: only one input may be '-'\n"),
    ],
    ids=[
        "coord-bound-0",
        "unknown-vertex",
        "zero-vector",
        "corpus-json-without-run",
        "unknown-corpus-entry",
        "missing-input",
        "file-and-corpus",
        "file-and-empty-corpus",
        "empty-corpus-name",
        "bad-vector-spec",
        "underscore-digits",
        "arabic-indic-digit",
        "signs-and-spaces",
        "past-the-digit-limit",
        "vertex-prefix",
        "dot-json",
        "dot-all-matchings",
        "two-stdin-inputs",
    ],
)
def test_user_errors_exit_2(capsys, tmp_path, argv, message):
    paths = {}
    for key, g in (("{g}", eg2_g1()), ("{h}", eg2_double())):
        paths[key] = tmp_path / f"{key[1]}.tub"
        paths[key].write_text(unparse(g))
    code, out, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "bounds", [(100, 3), (10, 6), (10**9, 3), (3, 10**9), (640, 2), (34, 2)]
)
@pytest.mark.parametrize("cmd", ["analyze", "cubulate"])
def test_bounds_past_the_table_limit_exit_2(capsys, cmd, bounds):
    """Bounds whose search table would pass the limit are refused before any
    of it is built, in time that does not grow with them."""
    t0 = time.process_time()
    code, out, err = run(
        capsys, cmd, "--corpus", "eg2-double",
        "--coord-bound", str(bounds[0]), "--size-bound", str(bounds[1]),
    )
    assert time.process_time() - t0 < 0.5
    assert code == 2 and out == ""
    assert err == f"error: bounds {bounds} need a table of over 1000000 entries\n"


def test_input_files_are_closed(capsys, tmp_path):
    path = tmp_path / "g.tub"
    path.write_text(unparse(eg2_g1()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(capsys, "cat0", str(path))
        run(capsys, "amalgam", str(path), "1,0", str(path), "1,0")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """main reuses one parser; a flag given to one call does not carry over
    to the next, and a bad flag is still a usage error."""
    code, out, _ = run(capsys, "cubulate", "--corpus", "bs12", "--coord-bound", "2")
    assert code == 0 and "bounds (2, 3)" in out
    code, out, _ = run(capsys, "cubulate", "--corpus", "bs12")
    assert code == 0 and "bounds (3, 3)" in out
    with pytest.raises(SystemExit) as exc:
        main(["cubulate", "--corpus", "bs12", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert tubular.cli._parser() is tubular.cli._parser()


@pytest.mark.parametrize(
    "argv,status",
    [(["cubulate", "--corpus", "bs12", "--no-such-flag"], 2), (["-h"], 0)],
    ids=["unknown-flag", "help"],
)
def test_help_and_usage_errors_come_from_argparse(capsys, monkeypatch, argv, status):
    calls = _count_parse_args(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == status and calls == [(argv,)]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--corpus", "gersten", "--json"],
        ["analyze", "-", "--json"],
        ["cubulate", "-", "--json", "--all-matchings"],
    ],
    ids=["analyze-corpus", "analyze-stdin", "spectrum"],
)
def test_benchmark_command_lines_are_parsed_once(argv):
    """The command-line shapes of the analyze and spectrum benchmarks: two
    runs give the same bytes, and argparse parses the line at most once."""
    status, out, err = run_twice(argv, unparse(gersten_presentation()))
    assert status == "return 0" and err == "" and out


def test_random_command_lines_twice():
    """On 2,000 random command lines, run twice each with stdin empty, both
    runs give the same status and bytes; argparse parses a line that parses
    at most once, and a line that it rejects on both runs."""
    rng = random.Random(0)
    statuses = {run_twice(random_argv(rng))[0].split()[0] for _ in range(2_000)}
    assert statuses == {"return", "SystemExit"}
