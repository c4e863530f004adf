"""Every `analyze` row keeps its verdict word when a presentation is written
differently: edges reversed, edges reordered, vertices and edges renamed, and
the basis of each vertex group changed.  The last holds for every row but
`dilation`, which describes the equitable set the bounded search finds first,
and that set depends on the basis; its flips are counted and printed.
Random presentations and the corpus entries both go through the changes."""

import random
from collections import Counter

from tubular.cli import analyze
from tubular.core import Edge, GpqParams, IntMat2, IntVec2, TubularPresentation, change_basis
from tubular.corpus import corpus
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
    edges = tuple(e.reversed() if rng.random() < 0.5 else e for e in g.edges)
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


def _words(g):
    return [(r.property, r.verdict) for r in analyze(g, "g")]


def _dilation_flips(rng, g) -> list[tuple[str, str]]:
    """Check every row of g under each change once; return the dilation
    words (before, after) that a basis change flipped."""
    base = _words(g)
    for change in (_reversed, _reordered, _renamed):
        assert _words(change(rng, g)) == base, (change.__name__, g)
    rebased = _words(_rebased(rng, g))
    assert [p for p, _ in rebased] == [p for p, _ in base]
    flips = []
    for (prop, before), (_, after) in zip(base, rebased):
        if prop != "dilation":
            assert before == after, (prop, g)
        elif before != after:
            flips.append((before, after))
    return flips


def test_verdict_words_are_invariant():
    rng = random.Random(20261019)
    dilation_flips = Counter()
    for _ in range(400):
        dilation_flips.update(_dilation_flips(rng, _random_presentation(rng)))
    flips = ", ".join(f"{a} -> {b}: {n}" for (a, b), n in sorted(dilation_flips.items()))
    print(f"dilation flips under basis change: {flips or 'none'}")


def test_corpus_verdict_words_are_invariant():
    """The corpus entries, gpq ones as their tubular presentations, 20
    rounds of the four changes each."""
    rng = random.Random(1)
    dilation_flips = Counter()
    for entry in corpus():
        g = entry.presentation
        g = gpq_to_tubular(g) if isinstance(g, GpqParams) else g
        for _ in range(20):
            dilation_flips.update((entry.name, *f) for f in _dilation_flips(rng, g))
    flips = ", ".join(f"{e} {a} -> {b}: {n}" for (e, a, b), n in dilation_flips.items())
    print(f"corpus dilation flips under basis change: {flips or 'none'}")
