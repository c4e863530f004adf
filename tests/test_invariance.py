"""Every `analyze` row keeps its verdict word when a presentation is written
differently: edges reversed, edges reordered, vertices and edges renamed, the
basis of each vertex group changed, and the vertices reordered.  The last two
hold for every row but `dilation`, which describes the equitable set the
bounded search finds first, and that set depends on the basis and on the
vertex order; its flips are counted and printed.  Random presentations and
the corpus entries both go through the changes.

The matching spectrum of `cubulate --all-matchings` keeps its verdict and
notes under the first three changes.  Under a basis change it describes the
set found in the new basis, which pulled back to the old basis has the same
spectrum there.  The spectrum and the dilation word of one fixed set do not
depend on the vertex order.

The rows must also agree with each other where a theorem ties them together,
on random presentations and on the corpus entries:
(a) `vspecial` Yes or `cocompact_cubulation` Yes => the search at the default
    bounds finds an equitable set;
(c) `cocompact_cubulation` Yes => `cat0` Yes;
(d) one vertex, `fbc` Yes and `cat0` Yes => `vspecial` Yes;
(e) a complete `dilation_spectrum` holds the `dilation` word;
(f) the amalgam retractor rule agrees with Button on the glued presentation,
    asserted in test_fbc.py.
(b), that an unbalanced cycle rules out every Yes in `cat0`, `vspecial` and
`cocompact_cubulation`, waits for a decider that finds such cycles."""

import io
import json
import math
import random
import sys
from collections import Counter

import pytest

import tubular.cubulate
from tubular.cli import COORD_BOUND, SIZE_BOUND, _Input, _reports, analyze, main
from tubular.core import (
    Edge,
    EquitableSet,
    GpqParams,
    IntMat2,
    IntVec2,
    TubularPresentation,
    change_basis,
    det2,
    single_vertex_presentation,
)
from tubular.corpus import corpus
from tubular.cubulate import all_matching_verdicts, dilation_decide, equitable_search, wall_graph
from tubular.dsl import parse, unparse
from tubular.special import gpq_to_tubular

V = IntVec2
NAMES = ["A", "B", "Q", "x", "y2", "north", "e", "V", "w_1", "Z9"]


def _random_presentation(rng) -> TubularPresentation:
    """1-3 vertices and 0-4 edges with nonzero vectors, |coords| <= 3."""
    vertices = tuple(f"V{i}" for i in range(rng.randint(1, 3)))
    vecs = [V(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    edges = tuple(
        Edge(f"e{j}", *rng.choices(vertices, k=2), *rng.choices(vecs, k=2))
        for j in range(rng.randint(0, 4))
    )
    return TubularPresentation(vertices, edges)


def _random_unimodular(rng) -> IntMat2:
    """A product of 1-6 generators of GL(2, Z), a reflection among them."""
    m = IntMat2(1, 0, 0, 1)
    gens = [
        IntMat2(1, 1, 0, 1), IntMat2(1, -1, 0, 1), IntMat2(0, -1, 1, 0), IntMat2(0, 1, 1, 0)
    ]
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(gens)
        m = IntMat2(
            m.a * g.a + m.b * g.c,
            m.a * g.b + m.b * g.d,
            m.c * g.a + m.d * g.c,
            m.c * g.b + m.d * g.d,
        )
    return m


def _reversed(rng, g):
    edges = tuple(
        e._replace(src=e.dst, dst=e.src, v=e.w, w=e.v) if rng.random() < 0.5 else e
        for e in g.edges
    )
    return TubularPresentation(g.vertices, edges)


def _reordered(rng, g):
    return TubularPresentation(g.vertices, tuple(rng.sample(g.edges, len(g.edges))))


def _renamed(rng, g):
    vname = dict(zip(g.vertices, rng.sample(NAMES, len(g.vertices))))
    ename = dict(zip([e.id for e in g.edges], rng.sample(NAMES, len(g.edges))))
    edges = tuple(Edge(ename[e.id], vname[e.src], vname[e.dst], e.v, e.w) for e in g.edges)
    return TubularPresentation(tuple(vname[v] for v in g.vertices), edges)


def _rebased(rng, g):
    for vertex in g.vertices:
        g = change_basis(g, vertex, _random_unimodular(rng))
    return g


def _vertices_reordered(rng, g):
    return TubularPresentation(tuple(rng.sample(g.vertices, len(g.vertices))), g.edges)


def _words(g):
    return [(r.property, r.verdict) for r in analyze(g, "g")]


def _dilation_flips(rng, g) -> list[tuple[str, str]]:
    """Check every row of g under each change once; return the dilation
    flips, as (change, "before -> after"), of a basis change and of a
    vertex reordering."""
    base = _words(g)
    for change in (_reversed, _reordered, _renamed):
        assert _words(change(rng, g)) == base, (change.__name__, g)
    flips = []
    for name, change in (("basis change", _rebased), ("vertex order", _vertices_reordered)):
        words = _words(change(rng, g))
        assert [p for p, _ in words] == [p for p, _ in base]
        for (prop, before), (_, after) in zip(base, words):
            if prop != "dilation":
                assert before == after, (name, prop, g)
            elif before != after:
                flips.append((name, f"{before} -> {after}"))
    return flips


def _print_flips(flips: Counter):
    found = ", ".join(f"{' '.join(key)}: {n}" for key, n in sorted(flips.items()))
    print(f"dilation flips: {found or 'none'}")


def test_verdict_words_are_invariant():
    rng = random.Random(20261019)
    dilation_flips = Counter()
    for _ in range(400):
        dilation_flips.update(_dilation_flips(rng, _random_presentation(rng)))
    _print_flips(dilation_flips)


def test_corpus_verdict_words_are_invariant():
    """The corpus entries, gpq ones as their tubular presentations, 20
    rounds of the five changes each."""
    rng = random.Random(1)
    dilation_flips = Counter()
    for entry in corpus():
        g = entry.presentation
        g = gpq_to_tubular(g) if isinstance(g, GpqParams) else g
        for _ in range(20):
            dilation_flips.update((entry.name, *f) for f in _dilation_flips(rng, g))
    _print_flips(dilation_flips)


def test_vertex_order_keeps_every_word_but_dilation():
    """On 1,000 draws with two or three vertices, every row but `dilation`
    keeps its word when the vertices are reordered.  The search walks the
    vertices in another order and may find another set, so `dilation` may
    flip; of one fixed set, the dilation word and the matching spectrum do
    not depend on the vertex order."""
    rng = random.Random(31)
    dilation_flips, draws, fixed = Counter(), 0, 0
    while draws < 1000:
        g = _random_presentation(rng)
        if len(g.vertices) == 1:
            continue
        draws += 1
        dilation_flips.update(_dilation_flips(rng, g))
        s = equitable_search(g, COORD_BOUND, SIZE_BOUND)
        if isinstance(s, EquitableSet) and g.edges:
            fixed += 1
            h = _vertices_reordered(rng, g)
            dilated = dilation_decide(wall_graph(g, s)).dilated
            assert dilation_decide(wall_graph(h, s)).dilated == dilated, g
            assert all_matching_verdicts(h, s) == all_matching_verdicts(g, s), g
    _print_flips(dilation_flips)
    assert fixed > 300, fixed


def _corpus_inputs() -> list:
    """The corpus entries as (object, name), gpq entries as parameters."""
    return [(entry.presentation, entry.name) for entry in corpus()]


def _check_implications(obj, name) -> Counter:
    """Assert (a), (c) and (d) of the module docstring on one input, and
    count the implications whose premise held."""
    g = gpq_to_tubular(obj) if isinstance(obj, GpqParams) else obj
    words = {r.property: r.verdict for r in analyze(obj, name)}
    held = Counter()
    # (a) Wise, "Cubular tubular groups" (Trans. AMS 2014): a tubular group
    # acts freely on a CAT(0) cube complex exactly when it has an equitable
    # set.  Either Yes gives such an action on a finite-index subgroup, and
    # the induced action of the group is free too.  The theorem does not
    # bound the set's circles; that the default bounds find one is checked.
    if "Yes" in (words["vspecial"], words["cocompact_cubulation"]):
        held["a"] += 1
        assert isinstance(equitable_search(g, COORD_BOUND, SIZE_BOUND), EquitableSet), g
    # (c) A CAT(0) cube complex is CAT(0) (Gromov's link condition), and the
    # action induced from a finite-index subgroup on a product of copies is
    # free and cocompact, so a cocompactly cubulated group is CAT(0).
    if words["cocompact_cubulation"] == "Yes":
        held["c"] += 1
        assert words["cat0"] == "Yes", g
    # (d) The source paper: a free-by-cyclic one-vertex tubular group is
    # virtually special exactly when it is CAT(0).  Another route may give
    # the Yes first, so only the word is asserted.
    if len(g.vertices) == 1 and words["fbc"] == words["cat0"] == "Yes":
        held["d"] += 1
        assert words["vspecial"] == "Yes", g
    return held


def test_rows_obey_the_cross_row_implications():
    rng = random.Random(11)
    held = Counter()
    for _ in range(4000):
        held += _check_implications(_random_presentation(rng), "g")
    for obj, name in _corpus_inputs():
        held += _check_implications(obj, name)
    assert min(held[k] for k in "acd") > 200, held


def test_dilation_word_lies_in_a_complete_spectrum():
    # (e) The wall graph joins each edge's points in order, and that is one
    # of the point matchings the spectrum runs over.
    rng = random.Random(13)
    inputs = [(_random_presentation(rng), "g") for _ in range(3000)] + _corpus_inputs()
    complete = 0
    for obj, name in inputs:
        s = _Input(obj, name)
        if s.search[1] is None:
            continue
        dilation, spectrum = _reports(s, ("dilation", "dilation_spectrum"))
        if not spectrum.notes:
            complete += 1
            assert dilation.verdict in spectrum.verdict.split("/"), obj
    assert complete > 2000


# At a lexicographic budget of matchings, this spectrum read NonDilated with
# its edges in this order and Dilated/NonDilated with them swapped.
EXAMPLE = "group G { vertex V; edge e1 : V(-1,1) -> V(-1,3); edge e2 : V(6,6) -> V(6,6); }"


def _loop_input(rng) -> TubularPresentation:
    """One vertex with 0-2 edges with |coords| <= 2 and a loop k·u -> k·u,
    k = 5..8, whose points have hundreds of matchings or more."""
    vecs = [V(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    u, k = rng.choice(vecs), rng.randint(5, 8)
    edges = [(rng.choice(vecs), rng.choice(vecs)) for _ in range(rng.randint(0, 2))]
    edges.append((V(k * u.x, k * u.y), V(k * u.x, k * u.y)))
    rng.shuffle(edges)
    return TubularPresentation(
        ("V",), tuple(Edge(f"e{j}", "V", "V", v, w) for j, (v, w) in enumerate(edges))
    )


def _planted_spectrum_input(rng):
    """One vertex, 1-3 edges with coordinates up to 1, each edge balanced
    against a random set of 2-3 primitive circles with coordinates up to 2,
    so an equitable set exists."""
    prims = [
        V(x, y)
        for x in range(3)
        for y in range(-2, 3)
        if (x > 0 or y > 0) and math.gcd(x, abs(y)) == 1
    ]
    while True:
        circles = rng.sample(prims, rng.randint(2, 3))
        if any(det2(a, b) for a in circles for b in circles):
            break
    vecs = [V(x, y) for x in range(-1, 2) for y in range(-1, 2) if (x, y) != (0, 0)]

    def norm(v):
        return sum(abs(det2(c, v)) for c in circles)

    pairs = []
    for _ in range(rng.randint(1, 3)):
        v = rng.choice(vecs)
        pairs.append((v, rng.choice([w for w in vecs if norm(w) == norm(v)])))
    return single_vertex_presentation(pairs)


def _corpus_presentations() -> list[TubularPresentation]:
    out = []
    for entry in corpus():
        g = entry.presentation
        out.append(gpq_to_tubular(g) if isinstance(g, GpqParams) else g)
    return out


@pytest.fixture
def spectrum(monkeypatch, capsys):
    def run(g):
        """The spectrum row's verdict and notes from `cubulate --all-matchings
        --json`, or None when no equitable set is found."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(unparse(g)))
        assert main(["cubulate", "-", "--all-matchings", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        return next(
            ((r["verdict"], r["notes"]) for r in rows if r["property"] == "dilation_spectrum"),
            None,
        )

    return run


def _check_spectrum_invariance(spectrum, rng, inputs) -> int:
    """Each input's spectrum covers every matching and is the same after each
    edge change; returns how many inputs have one.  Whether the search finds
    an equitable set at all is an `analyze` row, checked above."""
    decided = 0
    for g in inputs:
        base = spectrum(g)
        if base is not None:
            assert base[1] == [], g
            decided += 1
            for change in (_reversed, _reordered, _renamed):
                assert spectrum(change(rng, g)) == base, (change.__name__, g)
    return decided


def test_spectrum_is_invariant_under_edge_changes(spectrum):
    rng = random.Random(20261019)
    inputs = [_random_presentation(rng) for _ in range(400)] + _corpus_presentations()
    assert _check_spectrum_invariance(spectrum, rng, inputs) > 250


def test_spectrum_of_dense_loops_is_invariant_under_edge_changes(spectrum):
    """At a budget of 10,000 matchings in lexicographic order, these read
    differently in different edge orders; the example alone did."""
    rng = random.Random(20261020)
    inputs = [_loop_input(rng) for _ in range(200)] + [parse(EXAMPLE)]
    assert _check_spectrum_invariance(spectrum, rng, inputs) > 150
    swapped = parse(EXAMPLE)
    swapped = TubularPresentation(swapped.vertices, swapped.edges[::-1], swapped.name)
    assert spectrum(swapped) == spectrum(parse(EXAMPLE)) == ("Dilated/NonDilated", [])


# The `_consistent` results of all_matching_verdicts that mean a closed test
# settled the spectrum, at the default budget.  The first call is the
# one-group test: [True] means that it settled the spectrum.  The second
# decides the default matching: [False, True] ends there only when one group
# per edge is a matching too.  The third is the forced-group test, which runs
# only after a Dilated default matching: [False, False, False] means that it
# settled the spectrum.  A tuple walk in its place decides more than one
# tuple, since it ends after one only when each edge has one grouping, and
# then the forced-group test runs.  Later calls decide tuples.
CLOSED_TESTS = {
    (True,): "one-group",
    (False, True): "two-matchings",
    (False, False, False): "forced-group",
}


def test_closed_spectrum_tests_are_invariant_under_edge_changes(monkeypatch):
    """Which closed test of all_matching_verdicts settles a spectrum, if one
    does, is the same after each edge change (see CLOSED_TESTS)."""
    results = []
    decide = tubular.cubulate._consistent

    def counted(circles, groups):
        results.append(decide(circles, groups))
        return results[-1]

    monkeypatch.setattr(tubular.cubulate, "_consistent", counted)

    def settled(g):
        s = equitable_search(g, 3, 3)
        if not isinstance(s, EquitableSet):
            return None
        results.clear()
        spectrum = all_matching_verdicts(g, s)
        return spectrum, CLOSED_TESTS.get(tuple(results), "enumerated")

    rng = random.Random(20261022)
    inputs = [_random_presentation(rng) for _ in range(300)] + _corpus_presentations()
    inputs += [_loop_input(rng) for _ in range(150)]
    inputs += [_planted_spectrum_input(rng) for _ in range(200)]
    seen = Counter()
    for g in inputs:
        base = settled(g)
        if base is not None:
            seen[base[1]] += 1
            for change in (_reversed, _reordered, _renamed):
                assert settled(change(rng, g)) == base, (change.__name__, g)
    assert min(seen.values()) > 20 and len(seen) == 4, seen


def _inverse(m: IntMat2) -> IntMat2:
    d = m.a * m.d - m.b * m.c  # +-1
    return IntMat2(d * m.d, -d * m.b, -d * m.c, d * m.a)


def test_spectrum_of_a_rebased_set_pulls_back():
    """The spectrum of the set found after a basis change at each vertex
    equals that of the set's circles mapped back to the old basis."""
    rng = random.Random(20261021)
    inputs = [_random_presentation(rng) for _ in range(400)] + _corpus_presentations()
    inputs += [_loop_input(rng) for _ in range(50)]
    checked = 0
    for g in inputs:
        bases = {v: _random_unimodular(rng) for v in g.vertices}
        rebased = g
        for v, m in bases.items():
            rebased = change_basis(rebased, v, m)
        found = equitable_search(rebased, 3, 3)
        if not isinstance(found, EquitableSet):
            continue
        checked += 1
        back = EquitableSet(
            tuple((v, tuple(map(_inverse(bases[v]).apply, cs))) for v, cs in found.sets)
        )
        assert all_matching_verdicts(g, back) == all_matching_verdicts(rebased, found), g
    assert checked > 100
