"""The benchmark's four workloads: seeded input generators, and the untimed
check of every output.

A workload runs in passes.  Each pass is a list of inputs with a fixed
composition by class, so every complete pass carries the same share of slow
and over-budget inputs whatever the seed; the seed only draws the inputs
within each class.  Pass `k` of a run with seed `s` is drawn from its own
`random.Random` seeded with the string "<workload>/<s>/<k>", so the same seed
always yields the same inputs, byte for byte.

Every input carries its presentation twice: as DSL text, which is all the
program sees, and as plain data (`vertices`, `edges`), which only the checker
sees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checker
import ops


@dataclass
class Input:
    kind: str
    args: tuple  # positional arguments of the workload's operation
    vertices: tuple = ()
    edges: tuple = ()  # (label, src, dst, v, w) with v, w integer pairs
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------- generators


def _vec(r: random.Random, bound: int) -> tuple[int, int]:
    while True:
        v = (r.randint(-bound, bound), r.randint(-bound, bound))
        if v != (0, 0):
            return v


def _group_text(name, vertices, edges) -> str:
    lines = [f"group {name} {{", "  vertex " + ", ".join(vertices) + ";"]
    for label, src, dst, v, w in edges:
        lines.append(f"  edge {label} : {src}({v[0]},{v[1]}) -> {dst}({w[0]},{w[1]});")
    return "\n".join(lines) + "\n}\n"


def _single_vertex(r, n_edges, bound):
    edges = tuple(
        (f"e{i + 1}", "V", "V", _vec(r, bound), _vec(r, bound)) for i in range(n_edges)
    )
    return ("V",), edges


def _gpq(r) -> Input:
    n = r.randint(1, 4)
    p = [r.randint(-8, 8) for _ in range(n)]
    q = [r.randint(-8, 8) for _ in range(n)]
    # gpq_to_tubular's edges: e_i is (q_i, 1) -> (-p_i, 1).
    edges = tuple(
        (f"e{i + 1}", "V", "V", (qi, 1), (-pi, 1)) for i, (pi, qi) in enumerate(zip(p, q))
    )
    text = f"gpq p=[{','.join(map(str, p))}] q=[{','.join(map(str, q))}]\n"
    return Input("gpq", (text,), ("V",), edges, {"p": p, "q": q})


def _pairs(r, n_edges) -> Input:
    vertices, edges = _single_vertex(r, n_edges, 6)
    return Input("pairs", (_group_text("s", vertices, edges),), vertices, edges)


def _random_graph(r, n, bound, extra=None):
    """A connected multigraph on n vertices: a random spanning tree plus
    `extra` random edges (by default up to n), loops allowed."""
    vertices = tuple(f"V{i}" for i in range(n))
    ends = [(vertices[r.randrange(i)], vertices[i]) for i in range(1, n)]
    if extra is None:
        extra = r.randint(0, n)
    ends += [(r.choice(vertices), r.choice(vertices)) for _ in range(extra)]
    r.shuffle(ends)
    edges = tuple(
        (f"e{k + 1}", a, b, _vec(r, bound), _vec(r, bound)) for k, (a, b) in enumerate(ends)
    )
    return vertices, edges


def _graph_input(r, kind, vertices, edges, glue=None, partner=None) -> Input:
    vertex = r.choice(vertices)
    elem = _vec(r, 4)
    args = (_group_text("g", vertices, edges), vertex, elem)
    if glue is not None:
        args += (glue,)
    extra = {"retract": (vertex, elem), "partner": partner}
    return Input(kind, args, vertices, edges, extra)


def _amalgam_input(r) -> Input:
    v1, e1 = _random_graph(r, r.randint(2, 4), 4)
    v2, e2 = _random_graph(r, r.randint(2, 4), 4)
    a, b = (r.choice(v1), _vec(r, 3)), (r.choice(v2), _vec(r, 3))
    glue = (_group_text("h", v2, e2), a, b)
    return _graph_input(r, "amalgam", v1, e1, glue=glue, partner=(v2, e2, a, b))


def _gadget(r, d) -> Input:
    """A graph whose homomorphisms to Z are d free integers t_1..t_d, one per
    vertex V_i, and which is free-by-cyclic only through a functional with
    every t_i, t_i - t_j and t_i + t_j nonzero.

    Each V_i carries a loop (1,0) -> (0,+-1) that ties beta_i to +-alpha_i.
    For each pair i < j and each sign, a vertex W joins V_i(1,0) to W(1,0)
    and V_j(1,0) to W(0,1), and a loop W(1,s) -> W(1,s) requires
    t_i + s t_j != 0.  Vertex order, edge order and the loop signs are seeded.
    """
    vs = [f"V{i}" for i in range(d)]
    edges = [
        (f"l{i}", v, v, (1, 0), (0, r.choice((1, -1)))) for i, v in enumerate(vs)
    ]
    ws = []
    for i in range(d):
        for j in range(i + 1, d):
            for s in (1, -1):
                w = f"W{len(ws)}"
                ws.append(w)
                edges.append((f"a{w}", vs[i], w, (1, 0), (1, 0)))
                edges.append((f"b{w}", vs[j], w, (1, 0), (0, 1)))
                edges.append((f"c{w}", w, w, (1, s), (1, s)))
    vertices = vs + ws
    r.shuffle(vertices)
    r.shuffle(edges)
    return _graph_input(r, f"gadget{d}", tuple(vertices), tuple(edges))


def _l1_vec(r, n):
    """A vector with |x| + |y| = n."""
    x = r.randint(0, n)
    return (x * r.choice((1, -1)), (n - x) * r.choice((1, -1)))


def _two_vertex_balanced(r, n_edges) -> Input:
    """Two vertices, every edge joining ends of equal |x| + |y|, so the
    circles {(1,0), (0,1)} at both vertices form an equitable set."""
    ends = [("V", "W")] + [
        r.choice((("V", "V"), ("V", "W"), ("W", "W"), ("W", "V")))
        for _ in range(n_edges - 1)
    ]
    edges = []
    for k, (a, b) in enumerate(ends):
        n = r.randint(1, 3)
        edges.append((f"e{k + 1}", a, b, _l1_vec(r, n), _l1_vec(r, n)))
    vertices, edges = ("V", "W"), tuple(edges)
    return Input(
        "balanced2",
        (["analyze", "-", "--json"], _group_text("t", vertices, edges)),
        vertices,
        edges,
        {"planted": True},
    )


def _chain(r, n) -> Input:
    """A distorted loop v -> k v at V0 (no equitable set can balance it) and
    a path of bridge edges V0 - V1 - ... - V(n-1)."""
    u = r.choice(((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)))
    k = r.choice((2, 3))
    vertices = tuple(f"V{i}" for i in range(n))
    edges = [("d", "V0", "V0", u, (k * u[0], k * u[1]))]
    edges += [
        (f"b{i}", vertices[i], vertices[i + 1], _vec(r, 3), _vec(r, 3))
        for i in range(n - 1)
    ]
    edges = tuple(edges)
    return Input(
        f"chain{n}",
        (["analyze", "-", "--json"], _group_text("c", vertices, edges)),
        vertices,
        edges,
        {"planted": False},
    )


# The corpus goldens: the verdicts the corpus entries are known to have.
CORPUS_GOLDENS = {
    "gersten": {
        "cat0": "No",
        "fbc": "Yes",
        "vspecial": "No",
        "cocompact_cubulation": "No",
        "vrc": "Obstructed",
        "dilation": "Dilated",
    },
    "lyman-psi(1,1)": {"vspecial": "Yes", "compact_special": "Yes"},
    "lyman-psi(1,2)": {"vspecial": "Yes", "compact_special": "No", "cocompact_cubulation": "No"},
    "lyman-phi": {"cat0": "Yes", "fbc": "Yes", "vspecial": "Yes"},
    "eg2-g1": {"cat0": "Yes", "fbc": "Yes", "vspecial": "Yes"},
    "eg2-double": {"fbc": "No"},
    "corlast": {"fbc": "No"},
    "f2xz": {"cat0": "Yes", "fbc": "Yes", "vspecial": "Yes"},
    "bs12": {"cat0": "No", "fbc": "No"},
}


def _planted_single(r, bound, n_edges) -> tuple:
    """One vertex, `n_edges` edges, coordinates up to `bound`, built around a
    random set S of 2-3 primitive circles with coordinates up to 2: each
    edge's w is drawn among vectors with the same sum of |det| against S as
    its v, so S is an equitable set."""
    prims = [
        (x, y)
        for x in range(0, 3)
        for y in range(-2, 3)
        if (x > 0 or y > 0) and math.gcd(x, abs(y)) == 1
    ]
    while True:
        s = r.sample(prims, r.randint(2, 3))
        if any(checker.det(a, b) for a in s for b in s):
            break
    vecs = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1) if (x, y) != (0, 0)]

    def norm(v):
        return sum(abs(checker.det(x, v)) for x in s)

    edges = []
    for i in range(n_edges):
        v = r.choice(vecs)
        w = r.choice([u for u in vecs if norm(u) == norm(v)])
        edges.append((f"e{i + 1}", "V", "V", v, w))
    return ("V",), tuple(edges)


def _spectrum_input(kind, vertices, edges) -> Input:
    return Input(
        kind,
        (["cubulate", "-", "--json", "--all-matchings"], _group_text("s", vertices, edges)),
        vertices,
        edges,
        {"planted": True},
    )


# The corpus presentations as plain data, in the shapes the corpus module
# builds (gpq entries as gpq_to_tubular edges, amalgams with g1./g2. vertices).
def _one(*pairs):
    return ("V",), tuple((f"e{i + 1}", "V", "V", v, w) for i, (v, w) in enumerate(pairs))


def _glued(pairs1, pairs2, a, b):
    edges = [(f"g1.e{i + 1}", "g1.V", "g1.V", v, w) for i, (v, w) in enumerate(pairs1)]
    edges += [(f"g2.e{i + 1}", "g2.V", "g2.V", v, w) for i, (v, w) in enumerate(pairs2)]
    edges.append(("bridge", "g1.V", "g2.V", a, b))
    return ("g1.V", "g2.V"), tuple(edges)


CORPUS_DATA = {
    "gersten": _one(((1, 1), (0, 1)), ((2, 1), (0, 1))),
    "lyman-psi(1,1)": _one(((1, 1), (-1, 1)), ((1, 1), (-1, 1))),
    "lyman-psi(1,2)": _one(((1, 1), (-1, 1)), ((2, 1), (-2, 1))),
    "lyman-phi": _one(((0, 1), (0, 1)), ((1, 1), (1, 1))),
    "eg2-g1": _one(((1, 0), (0, 1))),
    "eg2-double": _glued([((1, 0), (0, 1))], [((1, 0), (0, 1))], (1, -1), (1, 0)),
    "corlast": _glued([((0, 1), (1, 1)), ((0, 1), (2, 1))], [], (1, 0), (1, 0)),
    "f2xz": _one(((0, 1), (0, 1))),
    "bs12": _one(((1, 0), (2, 0))),
}
CORPUS_GPQ = {"gersten": ([0, 0], [1, 2]), "lyman-psi(1,1)": ([1, 1], [1, 1]), "lyman-psi(1,2)": ([1, 2], [1, 2])}


def _corpus_input(name) -> Input:
    vertices, edges = CORPUS_DATA[name]
    extra = {"name": name}
    if name in CORPUS_GPQ:
        extra["p"], extra["q"] = CORPUS_GPQ[name]
    return Input("corpus", (["analyze", "--corpus", name, "--json"], ""), vertices, edges, extra)


# ------------------------------------------------------------------- checks


def _obstruction_json(o) -> dict:
    return {"kind": o.kind.value, "indices": list(o.indices), "values": [str(x) for x in o.values]}


def _pairs_of(edges):
    return [(v, w) for _, _, _, v, w in edges]


def _loops(edges, vertex):
    return tuple(e for e in edges if e[1] == vertex and e[2] == vertex)


def _incident(edges, vertex):
    return [e[3] for e in edges if e[1] == vertex] + [e[4] for e in edges if e[2] == vertex]


def _max_classes(vertices, edges) -> int:
    return max(checker.parallel_classes(_incident(edges, vx)) for vx in vertices)


def _two_circle_set(pairs):
    """The set {w1 - v1, w1 + v1} of the first independent pair, which the
    determinant sufficiency test claims is equitable."""
    v1, w1 = next((v, w) for v, w in pairs if checker.det(v, w) != 0)
    return {"V": [(w1[0] - v1[0], w1[1] - v1[1]), (w1[0] + v1[0], w1[1] + v1[1])]}


def _gpq_compact(p, q, vspecial_yes) -> str:
    return "Yes" if len({-x for x in p} | set(q)) <= 2 and vspecial_yes else "No"


class Checks:
    """Collects the problems found in one run's outputs, and counts the
    verdicts that carry nothing a check can use."""

    def __init__(self):
        self.problems: list[str] = []
        self.unverified: dict[str, int] = {}

    def expect(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def skip(self, what: str):
        self.unverified[what] = self.unverified.get(what, 0) + 1


def check_sweep(ck: Checks, inp: Input, out: dict, tubular):
    pairs = _pairs_of(inp.edges)
    c = out["cat0"]
    if c.answer:
        q = c.certificate
        ck.expect(checker.check_qform((q.a, q.b, q.c), inp.edges), "cat0 form rejected")
    else:
        ck.expect(
            checker.check_cat0_obstruction(_obstruction_json(c.obstruction), pairs),
            "cat0 obstruction rejected",
        )
    f = out["fbc"]
    if f.answer:
        ck.expect(checker.check_functional(dict(f.witness.coeffs), inp.edges), "fbc functional rejected")
    ck.expect(
        tubular.button_decide(out["presentation"]).answer == f.answer,
        "line criterion disagrees with Button",
    )
    vs = out["vspecial_sufficient"].answer.value
    if vs == "Yes":
        ck.expect(
            checker.check_equitable(_two_circle_set(pairs), ("V",), inp.edges),
            "determinant test's two-circle set is not equitable",
        )
    expected = ("Yes" if c.answer else "No") if f.answer else "Unknown"
    ck.expect(out["vspecial_fbc"].answer.value == expected, "fbc/cat0 equivalence route inconsistent")
    classes = checker.parallel_classes(_incident(inp.edges, "V"))
    expected = "No" if classes >= 3 else ("Yes" if c.answer else "Unknown")
    ck.expect(out["cocompact"].answer.value == expected, "cocompact verdict disagrees with class count")
    if inp.kind == "gpq":
        p, q = inp.extra["p"], inp.extra["q"]
        gv = out["gpq_vspecial"].answer.value
        ck.expect(gv == ("Yes" if c.answer else "No"), "gpq characterization disagrees with decide_cat0")
        ck.expect(
            out["gpq_compact"].answer.value == _gpq_compact(p, q, gv == "Yes"),
            "gpq compact specialness wrong",
        )
        forced = checker.forced_values(p, q)
        vrc = out["vrc"]
        ck.expect(
            list(vrc.forced_values) == forced and vrc.obstructed == (len(forced) >= 2),
            "vrc forced values wrong",
        )


def check_graph(ck: Checks, inp: Input, out: dict, tubular):
    b = out["button"]
    if b.answer:
        ck.expect(checker.check_functional(dict(b.witness.coeffs), inp.edges), "Button functional rejected")
    else:
        ck.skip("Button No")
    vertex, elem = inp.extra["retract"]
    _check_retractor(ck, out["retractor"], inp.edges, vertex, elem)
    ck.expect(not out["retractor"].answer or b.answer, "retractor found but Button says No")
    for vx, verdict in out["vertex_checks"].items():
        loops = _loops(inp.edges, vx)
        if verdict.answer:
            q = verdict.certificate
            ck.expect(checker.check_qform((q.a, q.b, q.c), loops), "vertex form rejected")
        else:
            ck.expect(
                checker.check_cat0_obstruction(_obstruction_json(verdict.obstruction), _pairs_of(loops)),
                "vertex obstruction rejected",
            )
    expected = "No" if _max_classes(inp.vertices, inp.edges) >= 3 else "Unknown"
    ck.expect(out["cocompact"].answer.value == expected, "cocompact verdict disagrees with class count")
    if "amalgam" in out:
        am = out["amalgam"]
        _, e2, a, b2 = inp.extra["partner"]
        _check_retractor(ck, am.retractor_1, inp.edges, *a)
        _check_retractor(ck, am.retractor_2, e2, *b2)
        ck.expect(am.rule_applies == (am.retractor_1.answer and am.retractor_2.answer), "amalgam rule misapplied")
        glued = [(f"g1.{lb}", f"g1.{s}", f"g1.{d}", v, w) for lb, s, d, v, w in inp.edges]
        glued += [(f"g2.{lb}", f"g2.{s}", f"g2.{d}", v, w) for lb, s, d, v, w in e2]
        glued.append(("bridge", f"g1.{a[0]}", f"g2.{b2[0]}", a[1], b2[1]))
        if am.button.answer:
            ck.expect(checker.check_functional(dict(am.button.witness.coeffs), glued), "amalgam functional rejected")
        else:
            ck.expect(not am.rule_applies, "retractor rule holds but the amalgam is not free-by-cyclic")
            ck.skip("Button No")


def _check_retractor(ck, verdict, edges, vertex, elem):
    if verdict.answer:
        ck.expect(
            checker.check_functional(dict(verdict.witness.coeffs), edges, [(vertex, tuple(elem))]),
            "retractor functional rejected",
        )
    else:
        ck.skip("retractor No")


def _presentation(inp: Input, tubular):
    if inp.kind == "corpus":
        obj = tubular.corpus.corpus_entry(inp.extra["name"]).presentation
    else:
        obj = tubular.parse(inp.args[1])
    return tubular.gpq_to_tubular(obj) if isinstance(obj, tubular.GpqParams) else obj


def check_reports(ck: Checks, inp: Input, out, tubular):
    """Check the JSON reports of `analyze` or `cubulate --all-matchings`."""
    rc, text = out
    ck.expect(rc == 0, f"exit status {rc}")
    if rc != 0:
        return
    reports = {r["property"]: r for r in checker.load_reports(text)}
    for prop, want in CORPUS_GOLDENS.get(inp.extra.get("name"), {}).items():
        ck.expect(reports.get(prop, {}).get("verdict") == want, f"{inp.extra['name']} {prop} differs from golden")
    edges, vertices, pairs = inp.edges, inp.vertices, _pairs_of(inp.edges)
    single = len(vertices) == 1
    cat0 = reports.get("cat0", {}).get("verdict")
    for prop, r in reports.items():
        verdict, cert = r["verdict"], r["certificate"]
        if prop == "fbc":
            if verdict == "Yes":
                ck.expect(checker.check_functional(checker.coeffs_from_json(cert), edges), "fbc functional rejected")
            elif single:
                button = tubular.button_decide(_presentation(inp, tubular))
                ck.expect(not button.answer, "line criterion disagrees with Button")
            else:
                ck.skip("Button No")
        elif prop == "cat0":
            if verdict == "Yes":
                form = (cert["a"], cert["b"], cert["c"])
                ck.expect(checker.check_qform(form, edges), "cat0 form rejected")
            elif verdict == "No":
                groups = [pairs] if single else [_pairs_of(_loops(edges, vx)) for vx in vertices]
                ck.expect(
                    any(g and checker.check_cat0_obstruction(cert, g) for g in groups),
                    "cat0 obstruction rejected",
                )
        elif prop == "vspecial":
            if r["route"] in ("GpqCharacterization", "FbcCat0Equiv"):
                ck.expect(verdict == cat0, f"{r['route']} disagrees with the cat0 verdict")
            elif r["route"] == "DetSufficient":
                ck.expect(
                    checker.check_equitable(_two_circle_set(pairs), ("V",), edges),
                    "determinant test's two-circle set is not equitable",
                )
        elif prop == "compact_special":
            want = _gpq_compact(inp.extra["p"], inp.extra["q"], reports["vspecial"]["verdict"] == "Yes")
            ck.expect(verdict == want, "gpq compact specialness wrong")
        elif prop == "cocompact_cubulation":
            classes = _max_classes(vertices, edges)
            want = "No" if classes >= 3 else ("Yes" if cat0 == "Yes" else "Unknown")
            ck.expect(verdict == want, "cocompact verdict disagrees with class count")
        elif prop == "vrc":
            forced = checker.forced_values(inp.extra["p"], inp.extra["q"])
            ck.expect(
                [Fraction(x) for x in cert["values"]] == forced
                and (verdict == "Obstructed") == (len(forced) >= 2),
                "vrc forced values wrong",
            )
        elif prop == "equitable_set":
            if verdict == "Found":
                ck.expect(
                    checker.check_equitable(checker.sets_from_json(cert), vertices, edges),
                    "equitable set rejected",
                )
            else:
                ck.expect(not inp.extra.get("planted"), "no equitable set found though one is planted")
        elif prop == "dilation":
            _check_dilation(ck, inp, reports, verdict, cert, tubular)
        elif prop == "dilation_spectrum":
            seen = set(verdict.split("/"))
            ck.expect(seen <= {"Dilated", "NonDilated"}, "bad matching spectrum")
            if not r["notes"]:
                ck.expect(reports["dilation"]["verdict"] in seen, "default matching missing from the spectrum")


def _check_dilation(ck, inp, reports, verdict, cert, tubular):
    vertices, edges = inp.vertices, inp.edges
    if verdict == "NonDilated":
        ck.expect(checker.check_equitable(checker.sets_from_json(cert), vertices, edges), "equitable set rejected")
    elif verdict == "Dilated":
        if "equitable_set" in reports:
            sets = checker.sets_from_json(reports["equitable_set"]["certificate"])
        else:
            # analyze reports the cycle alone; the set it was built on is
            # recomputed here, outside the timed region, and checked too.
            found = tubular.equitable_search(_presentation(inp, tubular), 3, 3)
            sets = {vx: [(c.x, c.y) for c in circles] for vx, circles in found.sets}
        ck.expect(checker.check_equitable(sets, vertices, edges), "equitable set rejected")
        ck.expect(checker.check_dilation_cycle(cert, sets, edges), "dilation cycle rejected")
    elif inp.extra.get("planted"):
        ck.problems.append("no equitable set found though one is planted")


# ----------------------------------------------------------------- workloads


def _dense(r) -> Input:
    """A planted input plus a loop k u -> k u with k in {12, 13}: any
    equitable set has an independent pair, so at least k intersection points
    lie on that edge and the matching spectrum has at least k! orderings."""
    vertices, edges = _planted_single(r, 1, r.randint(1, 3))
    u = r.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
    k = r.choice((12, 13))
    loop = (f"e{len(edges) + 1}", "V", "V", (k * u[0], k * u[1]), (k * u[0], k * u[1]))
    return _spectrum_input("dense", vertices, edges + (loop,))


# Pass makeup.  Classes whose cost depends strongly on an input size (vertex
# or edge count) are drawn in equal numbers per size, so a run's mix of sizes
# does not depend on the seed.  The slow and over-budget classes come once
# per pass, so passes are long enough for the fast classes to outweigh them.


def _sweep_pass(r):
    """Library traffic through dsl and cat0: neither cubulate nor Button runs."""
    return [_gpq(r) for _ in range(100)] + [_pairs(r, 1 + i % 4) for i in range(100)]


def _graph_pass(r):
    """Library traffic through hom_space, the exact rref and hyperplane
    avoidance; the gadgets are the slow tail, d=5 always over budget."""
    out = [
        _graph_input(r, "graph", *_random_graph(r, n, 4, i % (n + 1)))
        for n in range(2, 9)
        for i in range(160)
    ]
    out += [_amalgam_input(r) for _ in range(28)]
    return out + [_gadget(r, d) for d in (3, 4, 5)]


def _analyze_pass(r):
    """CLI traffic dominated by equitable_search: the chains have no
    equitable set, so the search is exhaustive; 3 vertices is over budget."""
    out = [_corpus_input(name) for name in CORPUS_GOLDENS]
    for i in range(320):
        inp = _pairs(r, 1 + i % 4)
        inp.args = (["analyze", "-", "--json"], inp.args[0])
        out.append(inp)
    out += [_two_vertex_balanced(r, 1 + i % 3) for i in range(180)]
    return out + [_chain(r, 2), _chain(r, 3)]


def _spectrum_pass(r):
    """CLI traffic through all_matching_verdicts, its only caller.  Matching
    enumeration grows as n! in the points on an edge, so random inputs would
    put a seed-dependent number of blow-ups in a run; instead each pass holds
    small planted inputs (coordinates up to 1, all well under budget) and
    exactly one dense input, always over budget."""
    out = [_spectrum_input("planted", *_planted_single(r, 1, 1 + i % 3)) for i in range(39)]
    return out + [_dense(r)]


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float  # per-operation budget
    make_pass: object
    check: object

    def inputs(self, seed: int, k: int) -> list[Input]:
        """Pass k of the run with this seed, in seeded order."""
        r = random.Random(f"{self.name}/{seed}/{k}")
        out = self.make_pass(r)
        r.shuffle(out)
        return out

    @property
    def op(self):
        return ops.OPS[self.name]


# Each budget, in CPU seconds at reference speed (speed.py), sits well away
# from every class that finishes (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 1.0, _sweep_pass, check_sweep),
        Workload("graph", 4.0, _graph_pass, check_graph),
        Workload("analyze", 4.0, _analyze_pass, check_reports),
        Workload("spectrum", 2.0, _spectrum_pass, check_reports),
    )
}
