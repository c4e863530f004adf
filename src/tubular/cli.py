"""Command-line surface: parse presentations, run deciders, emit reports.

Subcommands: analyze, cat0, fbc, special, cubulate, vrc, corpus, amalgam.
Input is the presentation DSL from a file or stdin ('-'), or a named corpus
entry via --corpus.  Output is deterministic text, or the JSON report schema
with --json.  Exit status is 0 whenever the run completes, regardless of
verdicts; 2 for input or usage errors, with the message on stderr.

Every report comes from one row of the PROPERTIES table.  Deciders are called
by their module-global names at call time, never held in the table, so
anything that patches those names sees every call.

Unlike the package's lazy `tubular/__init__`, this module imports every
decider module when it loads.  perfbench's tracer (`Tracer.install` in
`perfbench/spans.py`) patches functions only in modules present in
`sys.modules`, and raises KeyError for a traced module that is missing, so
importing the decider modules on first use here would break traced runs.
"""

from __future__ import annotations

import re
import sys
from functools import cached_property, lru_cache

from .cat0 import decide_cat0, vertex_necessary_checks
from .core import EquitableSet, GpqParams, IntVec2, TubularPresentation, VertexId
from .corpus import corpus, corpus_entry
from .cubulate import (
    NotFound,
    WallGraph,
    all_matching_verdicts,
    dilation_decide,
    equitable_search,
    export_arcs_text,
    export_dot,
    wall_graph,
)
from .dsl import _INT, parse
from .fbc import (
    AmalgamAnalysis,
    FbcVerdict,
    amalgam_fbc_sufficient,
    button_decide,
    decide_fbc_single_vertex,
)
from .report import (
    NO,
    UNKNOWN,
    YES,
    DecisionReport,
    reports_to_json,
    serialize_cycle,
    serialize_equitable,
    serialize_functional,
    serialize_obstruction,
    serialize_forced_values,
    serialize_qform,
)
from .special import (
    Answer,
    SpecialVerdict,
    cocompact_cubulation_decide,
    gpq_compact_special_decide,
    gpq_to_tubular,
    gpq_vspecial_decide,
    vspecial_fbc_decide,
    vspecial_sufficient,
)
from .vrc import vrc_obstruction


def _read(path: str) -> str:
    """The text of a file, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load(args) -> tuple[TubularPresentation | GpqParams, str]:
    if getattr(args, "corpus_name", None) is not None:
        if args.input is not None:
            raise ValueError("give an input file or --corpus NAME, not both")
        try:
            entry = corpus_entry(args.corpus_name)
        except KeyError:
            names = ", ".join(e.name for e in corpus())
            raise ValueError(
                f"unknown corpus entry {args.corpus_name!r} (entries: {names})"
            ) from None
        return entry.presentation, entry.name
    path = args.input
    if path is None:
        raise ValueError("no input given (file, '-', or --corpus NAME)")
    obj = parse(_read(path))
    return obj, "gpq" if isinstance(obj, GpqParams) else obj.name or "G"


def _as_tubular(obj) -> TubularPresentation:
    return gpq_to_tubular(obj) if isinstance(obj, GpqParams) else obj


# The equitable-set search bounds that --coord-bound and --size-bound default to.
COORD_BOUND, SIZE_BOUND = 3, 3


class _Input:
    """One input to report on: a tubular presentation, gpq parameters, or an
    amalgam analysis.  The equitable-set search and its wall graph run at
    most once and are shared by every report and export.  The one-vertex
    free-by-cyclic and CAT(0) rows ask their deciders directly: those keep
    their recent verdicts, so the rows that ask again cost lookups."""

    def __init__(self, obj, name: str, coord_bound=COORD_BOUND, size_bound=SIZE_BOUND):
        self.obj, self.name, self.coord_bound, self.size_bound = obj, name, coord_bound, size_bound

    @cached_property
    def g(self) -> TubularPresentation:
        return _as_tubular(self.obj)

    @cached_property
    def search(self) -> tuple[EquitableSet | NotFound, WallGraph | None]:
        found = equitable_search(self.g, self.coord_bound, self.size_bound)
        if isinstance(found, NotFound):
            return found, None
        return found, wall_graph(self.g, found)


LINE = (
    "LineCriterion",
    "common line of difference vectors avoiding the attaching vectors",
)
BUTTON = ("ButtonCriterion", "homomorphism to Z nonzero on every edge group")


def _from_fbc(v: FbcVerdict, route: str, citation: str) -> dict:
    """Report fields of a free-by-cyclic verdict."""
    if v.answer:
        notes = (
            "kernel is finitely generated free: the group is F_n-by-Z",
            "cyclic subgroups are separable",
        )
        return dict(
            verdict=YES,
            route=route,
            certificate=serialize_functional(v.witness),
            citation=citation,
            notes=notes,
        )
    return dict(verdict=NO, route=route, citation=citation, notes=(v.obstruction,))


def _from_special(v: SpecialVerdict) -> dict:
    """Report fields of a SpecialVerdict."""
    return dict(
        verdict=v.answer.value, route=v.route, citation=v.citation, notes=v.notes
    )


def _fbc(s: _Input) -> dict:
    if isinstance(s.obj, AmalgamAnalysis):
        return _amalgam_fbc(s.obj)
    g = s.g
    if len(g.vertices) == 1:
        verdict = decide_fbc_single_vertex(g.single_vertex_pairs(), g.vertices[0])
        return _from_fbc(verdict, *LINE)
    return _from_fbc(button_decide(g), *BUTTON)


def _amalgam_fbc(a: AmalgamAnalysis) -> dict:
    """Yes by the retractor rule, with Button's witness on the glued
    presentation, or No with Button's obstruction: the two agree (see
    `fbc.amalgam_fbc_sufficient`).  Notes lead with the retractor checks."""
    notes = tuple(
        f"gluing element {i} retractor certificate: "
        f"{'found' if r.answer else 'not found'}"
        for i, r in ((1, a.retractor_1), (2, a.retractor_2))
    )
    if a.rule_applies:
        citation = "amalgam of free-by-cyclic groups over generalized retractors"
        return {**_from_fbc(a.button, "RetractorSufficiency", citation), "notes": notes}
    fields = _from_fbc(a.button, *BUTTON)
    necessary = (
        "necessary condition: both gluing elements would have to be "
        "generalized retractors (or lie in free complements)"
    )
    return {**fields, "notes": notes + fields["notes"] + (necessary,)}


def _cat0(s: _Input) -> dict:
    if len(s.g.vertices) == 1:
        verdict = decide_cat0(s.g.single_vertex_pairs())
        fields = dict(
            route="QuadraticFormEqualization",
            citation="positive-definite form equalizing each edge's attaching vectors",
        )
        if verdict.answer:
            cert = serialize_qform(verdict.certificate, verdict.cos_phi)
            return {**fields, "verdict": YES, "certificate": cert}
        return {
            **fields,
            "verdict": NO,
            "certificate": serialize_obstruction(verdict.obstruction),
            "notes": (verdict.obstruction.describe(),),
        }
    checks = vertex_necessary_checks(s.g)
    bad = {v: r for v, r in checks.items() if not r.answer}
    if bad:
        v, r = next(iter(sorted(bad.items())))
        return dict(
            verdict=NO,
            route="VertexLoopObstruction",
            certificate=serialize_obstruction(r.obstruction),
            citation="single-vertex obstruction applied to the loops at one vertex",
            notes=(f"vertex {v}: {r.obstruction.describe()}",),
        )
    return dict(
        verdict=UNKNOWN,
        route="VertexLoopObstruction",
        citation="single-vertex obstruction applied to the loops at each vertex",
        notes=("per-vertex loop checks pass; criterion is necessary only",),
    )


def _vspecial(s: _Input) -> dict:
    if isinstance(s.obj, GpqParams):
        return _from_special(gpq_vspecial_decide(s.obj))
    g = s.g
    if len(g.vertices) != 1:
        return dict(
            verdict=UNKNOWN,
            route="None",
            notes=("no implemented criterion applies to this presentation",),
        )
    pairs = g.single_vertex_pairs()
    v = vspecial_sufficient(pairs)
    if v.answer is Answer.YES:
        return _from_special(v)
    v = vspecial_fbc_decide(pairs)
    if v.answer is not Answer.UNKNOWN:
        return _from_special(v)
    notes = (
        "two-element equitable set sufficiency test: inconclusive",
        "free-by-cyclic equivalence route: inconclusive",
    )
    return dict(verdict=UNKNOWN, route="None", notes=notes)


def _compact_special(s: _Input) -> dict | None:
    if not isinstance(s.obj, GpqParams):
        return None
    return _from_special(gpq_compact_special_decide(s.obj))


def _cocompact(s: _Input) -> dict:
    g = s.g
    cat0 = len(g.vertices) == 1 and decide_cat0(g.single_vertex_pairs()).answer
    return _from_special(cocompact_cubulation_decide(g, cat0))


def _equitable_set(s: _Input) -> dict:
    found, _ = s.search
    citation = "bounded exhaustive equitable-set search"
    if isinstance(found, NotFound):
        return dict(
            verdict="NotFound",
            route="BoundedSearch",
            citation=citation,
            notes=(
                f"bounds ({found.coord_bound}, {found.size_bound}); "
                "not a proof of nonexistence",
            ),
        )
    return dict(
        verdict="Found",
        route="BoundedSearch",
        certificate=serialize_equitable(found),
        citation=citation,
    )


def _dilation(s: _Input) -> dict:
    found, wall = s.search
    citation = "multiplicative holonomy of wall cycles"
    if wall is None:
        return dict(
            verdict=UNKNOWN,
            route="WallHolonomy",
            citation=citation,
            notes=(
                f"no equitable set found within bounds "
                f"({found.coord_bound}, {found.size_bound})",
            ),
        )
    d = dilation_decide(wall)
    if d.dilated:
        return dict(
            verdict="Dilated",
            route="WallHolonomy",
            certificate=serialize_cycle(d.witness_cycle, d.holonomy)
            | {"sets": serialize_equitable(found)["sets"]},
            citation=citation,
            notes=(f"witness cycle holonomy {d.holonomy}",),
        )
    return dict(
        verdict="NonDilated",
        route="WallHolonomy",
        certificate=serialize_equitable(found),
        citation=citation,
    )


def _dilation_spectrum(s: _Input) -> dict:
    found, _ = s.search
    verdicts, complete = all_matching_verdicts(s.g, found)
    spectrum = sorted("Dilated" if d else "NonDilated" for d in verdicts)
    return dict(
        verdict="/".join(spectrum),
        route="AllMatchings",
        citation="dilation verdicts across all point matchings",
        notes=() if complete else ("matching enumeration truncated",),
    )


def _vrc(s: _Input) -> dict | None:
    if not isinstance(s.obj, GpqParams):
        return None
    v = vrc_obstruction(s.obj)
    return dict(
        verdict=v.answer,
        route="ForcedValueAnalysis",
        certificate=serialize_forced_values(v.forced_values),
        citation="forced-value analysis of the norm-balance equations",
        notes=(
            "the central cyclic subgroup is not a virtual retract",
        )
        if v.obstructed
        else ("obstruction not triggered; no positive claim is made",),
    )


# Each property and the function that reports it, in report order.  A
# function takes the input and returns the report's fields, or None where the
# property does not apply to the input.
PROPERTIES = (
    ("fbc", _fbc),
    ("cat0", _cat0),
    ("vspecial", _vspecial),
    ("compact_special", _compact_special),
    ("cocompact_cubulation", _cocompact),
    ("equitable_set", _equitable_set),
    ("dilation", _dilation),
    ("dilation_spectrum", _dilation_spectrum),
    ("vrc", _vrc),
)

# The properties each command reports.
COMMANDS = {
    "analyze": (
        "fbc",
        "cat0",
        "vspecial",
        "compact_special",
        "cocompact_cubulation",
        "dilation",
        "vrc",
    ),
    "cat0": ("cat0",),
    "fbc": ("fbc",),
    "special": ("vspecial", "compact_special"),
    "vrc": ("vrc",),
    "amalgam": ("fbc",),
    "cubulate": ("equitable_set", "dilation", "dilation_spectrum"),
}


def _reports(s: _Input, props) -> list[DecisionReport]:
    rows = [(prop, fields_of(s)) for prop, fields_of in PROPERTIES if prop in props]
    return [DecisionReport(s.name, prop, **f) for prop, f in rows if f is not None]


def analyze(obj, name: str) -> list[DecisionReport]:
    """Every applicable analyze report, at the default search bounds."""
    return _reports(_Input(obj, name), COMMANDS["analyze"])


def _line(r: DecisionReport) -> str:
    line = f"{r.group} {r.property}: {r.verdict} [{r.route}]"
    return line + " -- " + "; ".join(r.notes) if r.notes else line


def _emit(reports: list[DecisionReport], as_json: bool):
    if as_json:
        sys.stdout.write(reports_to_json(reports))
        return
    for r in reports:
        print(_line(r))


# The coordinates of a vector spec: two integers as the DSL writes them.
_COORDS = re.compile(rf"({_INT}),({_INT})")


def _parse_vec_spec(spec: str, g: TubularPresentation) -> tuple[VertexId, IntVec2]:
    """Vector specs look like 'V:1,0', or '1,0' for single-vertex inputs."""
    if ":" in spec:
        vertex, coords = spec.split(":", 1)
    else:
        if len(g.vertices) != 1:
            raise ValueError(f"vector spec {spec!r} needs a vertex prefix")
        vertex, coords = g.vertices[0], spec
    bad = ValueError(f"bad vector spec {spec!r} (expected V:x,y)")
    match = _COORDS.fullmatch(coords)
    if match is None:
        raise bad
    try:
        x, y = int(match[1]), int(match[2])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise bad from None
    if x == 0 and y == 0:
        raise ValueError(f"gluing vector {spec!r} must be nonzero")
    return vertex, IntVec2(x, y)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, and building it costs more than most commands.
    Command lines reach its `parse_args` through `_parse`.  A library
    import of this module does not load `argparse`."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="tubular",
        description="Decision procedures for tubular groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", help="DSL file, or '-' for stdin")
        p.add_argument("--corpus", dest="corpus_name", help="use a named corpus entry")
        p.add_argument("--json", action="store_true", help="emit the JSON schema")

    def add_bounds(p):
        p.add_argument("--coord-bound", type=int, default=COORD_BOUND)
        p.add_argument("--size-bound", type=int, default=SIZE_BOUND)

    p = sub.add_parser("analyze", help="run every applicable decider")
    add_io(p)
    add_bounds(p)

    for cmd in ("cat0", "fbc", "special", "vrc"):
        p = sub.add_parser(cmd)
        add_io(p)

    p = sub.add_parser("cubulate", help="equitable set search and wall dilation")
    add_io(p)
    add_bounds(p)
    p.add_argument("--all-matchings", action="store_true")
    p.add_argument("--dot", action="store_true", help="emit the wall graph as DOT")

    p = sub.add_parser("corpus", help="list the named examples")
    p.add_argument("--json", action="store_true")
    p.add_argument("--run", action="store_true", help="analyze each entry")

    p = sub.add_parser("amalgam", help="glue two presentations over a cyclic subgroup")
    p.add_argument("input1")
    p.add_argument("vec1", help="gluing element in the first group, as V:x,y")
    p.add_argument("input2")
    p.add_argument("vec2", help="gluing element in the second group, as V:x,y")
    p.add_argument("--json", action="store_true")
    return ap


@lru_cache(maxsize=16)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, kept for the last 16 command lines that
    parse, so a repeated one costs a lookup.  Help and usage errors raise
    SystemExit, which is never kept, so argparse prints them on every call.
    The namespace is shared between calls: callers must not change it."""
    return _parser().parse_args(list(argv))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(tuple(argv))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        return _dispatch(args)
    except (ValueError, OSError) as e:
        # DslError is a ValueError.
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "cubulate" and args.dot and (args.json or args.all_matchings):
        raise ValueError("--dot does not combine with --json or --all-matchings")
    if cmd == "corpus":
        if args.json and not args.run:
            raise ValueError("--json requires --run")
        if args.run:
            reports = []
            for entry in corpus():
                reports.extend(analyze(entry.presentation, entry.name))
            _emit(reports, args.json)
        else:
            for entry in corpus():
                expected = ", ".join(f"{k}={v}" for k, v in entry.expected.items())
                print(f"{entry.name}: {expected}")
        return 0

    if cmd == "amalgam":
        if args.input1 == args.input2 == "-":
            raise ValueError("only one input may be '-'")
        g1 = _as_tubular(parse(_read(args.input1)))
        g2 = _as_tubular(parse(_read(args.input2)))
        a = _parse_vec_spec(args.vec1, g1)
        b = _parse_vec_spec(args.vec2, g2)
        analysis = amalgam_fbc_sufficient(g1, a, g2, b)
        s = _Input(analysis, analysis.amalgam.name)
    else:
        obj, name = _load(args)
        if cmd == "vrc" and not isinstance(obj, GpqParams):
            raise ValueError("vrc requires a gpq input")
        searches = cmd in ("analyze", "cubulate")
        bounds = (args.coord_bound, args.size_bound) if searches else ()
        s = _Input(obj, name, *bounds)
    if hasattr(sys, "set_int_max_str_digits"):
        # Derived values are many times longer than the input's literals, which
        # the parser has already held to the int-to-str digit limit.
        sys.set_int_max_str_digits(0)

    props, wall = COMMANDS[cmd], None
    if cmd == "cubulate":
        _, wall = s.search
        if wall is None:
            props = ("equitable_set",)
            if args.dot:  # a graph with no nodes, the report line a comment
                lines = "".join(f"  // {_line(r)}\n" for r in _reports(s, props))
                sys.stdout.write(f"digraph wall {{\n{lines}}}\n")
                return 0
        elif args.dot:
            sys.stdout.write(export_dot(wall))
            return 0
        elif not args.all_matchings:
            props = ("equitable_set", "dilation")
    _emit(_reports(s, props), args.json)
    if wall is not None and not args.json:
        sys.stdout.write(export_arcs_text(wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
