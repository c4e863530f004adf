import bisect
import itertools
import json
import math
import operator
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from test_invariance import CLOSED_TESTS, _corpus_presentations, _planted_spectrum_input
from test_invariance import _random_presentation as _invariance_presentation

import tubular.cubulate
from tubular.cli import main
from tubular.core import (
    Edge,
    EquitableSet,
    GpqParams,
    IntVec2,
    TubularPresentation,
    _has_independent_pair,
    det2,
    single_vertex_presentation,
    verify_equitable,
)
from tubular.corpus import (
    bs12_shape,
    corpus,
    corpus_entry,
    gersten_presentation,
    lyman_psi,
)
from tubular.cubulate import (
    Arc,
    DilationVerdict,
    NotFound,
    WallGraph,
    _balanced_multisets,
    _candidate_vectors,
    _consistent,
    _groupings,
    _runs,
    _search_table,
    all_matching_verdicts,
    dilation_decide,
    equitable_search,
    export_arcs_text,
    export_dot,
    holonomy_cycle,
    wall_graph,
)
from tubular.dsl import parse
from tubular.report import serialize_cycle
from tubular.special import (
    Answer,
    canonical_th3_set,
    gpq_to_tubular,
    vspecial_sufficient,
)

V = IntVec2


def test_verify_equitable_gersten_golden_set():
    g = gersten_presentation()
    s = EquitableSet.single([V(0, 1), V(2, 1)])
    assert verify_equitable(g, s)


def test_verify_equitable_rejects_unbalanced_and_dependent():
    g = gersten_presentation()
    assert not verify_equitable(g, EquitableSet.single([V(0, 1), V(1, 1)]))
    # Parallel circles only: infinite index, rejected.
    assert not verify_equitable(g, EquitableSet.single([V(0, 1), V(0, 2)]))
    # No circles at V, or a zero circle.
    assert not verify_equitable(g, EquitableSet.single([V(0, 1), V(2, 1)], vertex="W"))
    assert not verify_equitable(g, EquitableSet.single([V(0, 1), V(2, 1), V(0, 0)]))
    with pytest.raises(KeyError):
        EquitableSet.single([V(0, 1), V(2, 1)]).at("W")


def test_canonical_set_eg2_golden():
    s = canonical_th3_set([(V(1, 0), V(0, 1))])
    assert s.at("V") == (V(-1, 1), V(1, 1))


def test_canonical_set_rejects_gersten():
    with pytest.raises(ValueError, match="^edge 1: "):
        canonical_th3_set(gersten_presentation().single_vertex_pairs())


def test_canonical_set_requires_independent_pair():
    with pytest.raises(ValueError):
        canonical_th3_set([(V(1, 0), V(2, 0))])


def test_canonical_set_passes_verify_when_det_test_passes():
    """Consistency: whenever the determinant sufficiency test answers Yes,
    the canonical two-element set is equitable and non-dilated."""
    rng = random.Random(20240819)
    found = 0
    for _ in range(500):
        k = rng.randint(1, 3)
        edges = []
        while len(edges) < k:
            v = V(rng.randint(-4, 4), rng.randint(-4, 4))
            w = V(rng.randint(-4, 4), rng.randint(-4, 4))
            if not v.is_zero() and not w.is_zero():
                edges.append((v, w))
        if vspecial_sufficient(edges).answer is not Answer.YES:
            continue
        found += 1
        g = single_vertex_presentation(edges)
        s = canonical_th3_set(edges)
        assert verify_equitable(g, s), edges
        assert not dilation_decide(wall_graph(g, s)).dilated, edges
    assert found > 20


def test_equitable_search_gersten_succeeds_and_is_dilated():
    g = gersten_presentation()
    s = equitable_search(g, 3, 3)
    assert isinstance(s, EquitableSet)
    assert verify_equitable(g, s)
    d = dilation_decide(wall_graph(g, s))
    assert d.dilated
    assert d.holonomy != 1
    # The witness cycle's own weight product equals the reported holonomy.
    prod = Fraction(1)
    for arc, direction in d.witness_cycle:
        prod = prod * arc.weight if direction == 1 else prod / arc.weight
    assert prod == d.holonomy


def test_equitable_search_bs12_not_found():
    out = equitable_search(bs12_shape(), 3, 3)
    assert isinstance(out, NotFound)
    assert (out.coord_bound, out.size_bound) == (3, 3)


def test_equitable_search_bounds_validated():
    with pytest.raises(ValueError):
        equitable_search(gersten_presentation(), 0, 3)


def test_table_limit_counts_the_table_exactly(monkeypatch):
    """The limit is checked against the exact number of multisets of 1 to
    size_bound candidates, all that a vertex's stream can list: each of
    these bounds fits a limit of that number and not one less."""
    tables = {bounds: _search_table(*bounds) for bounds in [(1, 1), (2, 3), (3, 4), (6, 4)]}
    for bounds, (cands, prefixes) in tables.items():
        size = sum(math.comb(len(cands) + k - 1, k) for k in range(1, bounds[1] + 1))
        _search_table.cache_clear()
        monkeypatch.setattr(tubular.cubulate, "TABLE_LIMIT", size)
        assert _search_table(*bounds) == (cands, prefixes)
        _search_table.cache_clear()
        monkeypatch.setattr(tubular.cubulate, "TABLE_LIMIT", size - 1)
        with pytest.raises(ValueError, match=re.escape(f"bounds {bounds} need a table")):
            equitable_search(gersten_presentation(), *bounds)
    _search_table.cache_clear()


def _balanced_multisets_oracle(coord_bound, size_bound, loops, back, ahead):
    """The tuple-based stream that `_balanced_multisets` replaced: each
    candidate's imbalances and sums as one tuple, each prefix's total built
    with `map(operator.add, ...)`, and `closing` and `seen` keyed by
    tuples."""
    cands = _candidate_vectors(coord_bound)
    prefixes = [
        p
        for size in range(1, size_bound)
        for p in itertools.combinations_with_replacement(range(len(cands)), size)
    ]
    n, b = len(loops), len(back)
    vecs = [
        tuple(abs(det2(c, e.v)) - abs(det2(c, e.w)) for e in loops)
        + tuple(abs(det2(c, u)) for u in back + ahead)
        for c in cands
    ]
    closing = {}
    for k, vec in enumerate(vecs):
        closing.setdefault(tuple(-x for x in vec[:n]), []).append(k)
    seen = set()
    for p in prefixes:
        total = vecs[p[0]]
        for k in p[1:]:
            total = tuple(map(operator.add, total, vecs[k]))
        last = closing.get(total[:n], ())
        for k in last[bisect.bisect_left(last, p[-1] + (p[0] == p[-1])) :]:
            sums = tuple(map(operator.add, total[n:], vecs[k][n:]))
            if sums not in seen:
                seen.add(sums)
                yield p + (k,), sums[:b], sums[b:]


def _stream_vertex(rng, big):
    """0-4 loops and 0-3 back and ahead vectors.  Small vectors have
    coordinates up to 3; with `big`, each is scaled by a factor up to
    3·10^8 (a loop's two ends by the same one, so it can still balance), or
    is drawn with coordinates up to 10^9.  Some loops have w = ±v."""

    def vec(scale):
        if big and rng.random() < 0.2:
            return V(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))
        x, y = 0, 0
        while (x, y) == (0, 0):
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        return V(x * scale, y * scale)

    def scale():
        return rng.randint(1, 10**9 // 3) if big else 1

    loops = []
    for k in range(rng.randint(0, 4)):
        s = scale()
        v = vec(s)
        w = rng.choice([v, -v]) if rng.random() < 0.3 else vec(s)  # balanced by every circle
        loops.append(Edge(f"e{k}", "V", "V", v, w))
    back = [vec(scale()) for _ in range(rng.randint(0, 3))]
    ahead = [vec(scale()) for _ in range(rng.randint(0, 3))]
    return loops, back, ahead


def test_balanced_multisets_agree_with_tuple_oracle():
    """The integer stream lists the oracle's multisets and sums, in its
    order, at every pair of bounds in 1..4 x 1..4, with coordinates up to
    10^9: packed keys far past 64 bits, and negative imbalances."""
    rng = random.Random(2110)
    bounds = [(c, s) for c in range(1, 5) for s in range(1, 5)]
    assert all(_search_table(*b) for b in bounds)  # all within TABLE_LIMIT
    listed = {(big, kind): 0 for big in (False, True) for kind in ("two loops", "unbalanced")}
    for i in range(320):
        coord_bound, size_bound = bounds[i % len(bounds)]
        big = i % 2 == 1
        loops, back, ahead = _stream_vertex(rng, big)
        args = coord_bound, size_bound, loops, back, ahead
        got = list(_balanced_multisets(*args))
        assert got == list(_balanced_multisets_oracle(*args)), args
        if got:
            # Two loops at large coordinates pack into keys of over 64 bits;
            # a loop with w != ±v has imbalances of both signs.
            listed[big, "two loops"] += len(loops) >= 2
            listed[big, "unbalanced"] += any(e.w not in (e.v, -e.v) for e in loops)
    assert min(listed.values()) > 15, listed


@pytest.mark.parametrize("bounds", [(33, 2), (11, 3)])
def test_balanced_multisets_at_the_largest_bounds(bounds):
    loops = [Edge("e", "V", "V", V(1, 2), V(2, 1)), Edge("f", "V", "V", V(3, 1), V(1, -3))]
    args = (*bounds, loops, [V(1, 1)], [V(2, -1), V(0, 1)])
    got = list(_balanced_multisets(*args))
    assert got and got == list(_balanced_multisets_oracle(*args))


def _equitable_search_oracle(g, coord_bound, size_bound):
    """The product enumerator that equitable_search replaced: every vertex's
    full option list, their Cartesian product in vertex order, and every edge
    checked against each assignment."""
    cands = _candidate_vectors(coord_bound)
    ends = {v: [] for v in g.vertices}
    for ei, e in enumerate(g.edges):
        ends[e.src].append((ei, e.v, 0))
        ends[e.dst].append((ei, e.w, 1))
    per_vertex = {}
    for v in g.vertices:
        options = []
        for size in range(2, size_bound + 1):
            for combo in itertools.combinations_with_replacement(cands, size):
                if not _has_independent_pair(combo):
                    continue
                sums = tuple(
                    sum(abs(det2(x, vec)) for x in combo) for _, vec, _ in ends[v]
                )
                options.append((combo, sums))
        per_vertex[v] = options

    def end_sum(chosen, vertex, edge_index, side):
        for pos, (ei, _, sd) in enumerate(ends[vertex]):
            if ei == edge_index and sd == side:
                return chosen[vertex][1][pos]
        raise AssertionError("edge end not found")

    for assignment in itertools.product(*(per_vertex[v] for v in g.vertices)):
        chosen = {v: assignment[i] for i, v in enumerate(g.vertices)}
        if all(
            end_sum(chosen, e.src, ei, 0) == end_sum(chosen, e.dst, ei, 1)
            for ei, e in enumerate(g.edges)
        ):
            return EquitableSet(tuple((v, chosen[v][0]) for v in g.vertices))
    return NotFound(coord_bound, size_bound)


def _equitable_search_walk_oracle(g, coord_bound, size_bound):
    """The vertex walk that equitable_search replaced: every vertex's
    multisets filtered by its loops and keyed by their sums against its
    edges to earlier vertices, then a plain depth-first walk in vertex order
    with one key lookup per vertex."""
    cands = _candidate_vectors(coord_bound)
    multisets = [
        combo
        for size in range(2, size_bound + 1)
        for combo in itertools.combinations_with_replacement(cands, size)
        if _has_independent_pair(combo)
    ]

    def total(combo, vec):
        return sum(abs(det2(x, vec)) for x in combo)

    pos = {v: i for i, v in enumerate(g.vertices)}
    levels = []
    for i, v in enumerate(g.vertices):
        back = [
            (pos[e.src], e.v, e.w) if pos[e.dst] == i else (pos[e.dst], e.w, e.v)
            for e in g.edges
            if e.src != e.dst and max(pos[e.src], pos[e.dst]) == i
        ]
        keyed = {}
        for combo in multisets:
            if all(total(combo, e.v) == total(combo, e.w) for e in g.edges if e.src == e.dst == v):
                keyed.setdefault(tuple(total(combo, w) for _, _, w in back), []).append(combo)
        levels.append((back, keyed))

    chosen, frames = [], []
    while len(chosen) < len(levels):
        back, keyed = levels[len(chosen)]
        need = tuple(total(chosen[j], u) for j, u, _ in back)
        frames.append(iter(keyed.get(need, ())))
        while (combo := next(frames[-1], None)) is None:
            frames.pop()
            if not frames:
                return NotFound(coord_bound, size_bound)
            chosen.pop()
        chosen.append(combo)
    return EquitableSet(tuple(zip(g.vertices, chosen)))


def _random_presentation(rng):
    """1-3 vertices and 0-4 edges with coordinates up to 2; endpoints are
    random (loops and bridges), and an edge sometimes repeats the endpoints
    of an earlier one (parallel edges)."""
    vertices = tuple(f"V{i}" for i in range(rng.randint(1, 3)))
    vecs = [V(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    edges = []
    for k in range(rng.randint(0, 4)):
        if edges and rng.random() < 0.2:
            src, dst = rng.choice([(e.src, e.dst) for e in edges])
        else:
            src, dst = rng.choice(vertices), rng.choice(vertices)
        edges.append(Edge(f"e{k}", src, dst, rng.choice(vecs), rng.choice(vecs)))
    return TubularPresentation(vertices, tuple(edges))


def test_equitable_search_agrees_with_product_oracle():
    rng = random.Random(20261019)
    seen = {key: 0 for key in ("loop", "bridge", "parallel", "bare", "found", "none")}
    interleaved = 0
    bounds_seen = set()
    for _ in range(1500):
        g = _random_presentation(rng)
        # A vertex has 6, 22, 28 or 140 options at these bounds; keep the
        # oracle's product at most about 10^4 assignments.
        bounds = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3)][: 5 - len(g.vertices)])
        bounds_seen.add(bounds)
        out = equitable_search(g, *bounds)
        assert out == _equitable_search_oracle(g, *bounds), (g, bounds)
        pairs = [frozenset((e.src, e.dst)) for e in g.edges]
        seen["loop"] += any(len(p) == 1 for p in pairs)
        seen["bridge"] += any(len(p) == 2 for p in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["bare"] += bool(g.edges) and any(
            all(v not in p for p in pairs) for v in g.vertices
        )
        seen["found" if isinstance(out, EquitableSet) else "none"] += 1
        interleaved += _interleaved(g)
    assert len(bounds_seen) == 4
    assert min(seen.values()) > 100, seen
    assert interleaved >= 50, interleaved
    no_edges = TubularPresentation(("A", "B"), ())
    for bounds in bounds_seen:
        out = equitable_search(no_edges, *bounds)
        assert out == _equitable_search_oracle(no_edges, *bounds)
        assert isinstance(out, EquitableSet) and out.at("A") == out.at("B")


def _cli_traffic(rng):
    """Presentations shaped like `analyze` and `cubulate --all-matchings`
    traffic: the corpus, one vertex with 1-4 edges and coordinates up to 6,
    two vertices with every edge joining ends of equal |x| + |y|, chains
    with a distorted loop on V0, and planted one-vertex inputs."""
    out = [
        gpq_to_tubular(e.presentation) if isinstance(e.presentation, GpqParams) else e.presentation
        for e in corpus()
    ]
    vecs = [V(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]
    for n in range(12):
        pairs = [(rng.choice(vecs), rng.choice(vecs)) for _ in range(1 + n % 4)]
        out.append(single_vertex_presentation(pairs))
    for n in range(8):
        edges = []
        for k in range(1 + n % 3):
            src, dst = ("V", "W") if k == 0 else rng.choice(["VV", "VW", "WW", "WV"])
            size = rng.randint(1, 3)
            v, w = (
                V(x * rng.choice((1, -1)), (size - x) * rng.choice((1, -1)))
                for x in (rng.randint(0, size), rng.randint(0, size))
            )
            edges.append(Edge(f"e{k}", src, dst, v, w))
        out.append(TubularPresentation(("V", "W"), tuple(edges)))
    for n in (2, 3):
        u = rng.choice([V(1, 0), V(1, 1), V(1, 2)])
        edges = [Edge("d", "V0", "V0", u, V(2 * u.x, 2 * u.y))]
        edges += [
            Edge(f"b{i}", f"V{i}", f"V{i + 1}", rng.choice(vecs), rng.choice(vecs))
            for i in range(n - 1)
        ]
        out.append(TubularPresentation(tuple(f"V{i}" for i in range(n)), tuple(edges)))
    return out + [_planted_spectrum_input(rng) for _ in range(8)]


@pytest.mark.parametrize("bounds", [(3, 3), (3, 4)])
def test_equitable_search_agrees_with_walk_oracle_on_cli_traffic(bounds):
    rng = random.Random(20261020)
    found = 0
    for g in _cli_traffic(rng):
        out = equitable_search(g, *bounds)
        assert out == _equitable_search_walk_oracle(g, *bounds), (g, bounds)
        found += isinstance(out, EquitableSet)
    assert 10 < found < 45, found


def _random_graph(rng):
    """1-4 vertices and 0-6 edges with coordinates up to 2.  The vertices
    are split into random groups and each edge joins two of one group, so
    graphs often have several components, and vertices of a group that no
    edge picks are isolated; an edge sometimes repeats the endpoints of an
    earlier one (parallel edges)."""
    vertices = [f"V{i}" for i in range(rng.randint(1, 4))]
    order = rng.sample(vertices, len(vertices))
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
    groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]
    vecs = [V(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    edges = []
    for k in range(rng.randint(0, 6)):
        if edges and rng.random() < 0.2:
            src, dst = rng.choice([(e.src, e.dst) for e in edges])
        else:
            group = rng.choice(groups)
            src, dst = rng.choice(group), rng.choice(group)
        edges.append(Edge(f"e{k}", src, dst, rng.choice(vecs), rng.choice(vecs)))
    return TubularPresentation(tuple(vertices), tuple(edges))


def _components(g):
    part = {v: {v} for v in g.vertices}
    for e in g.edges:
        if part[e.src] is not part[e.dst]:
            merged = part[e.src] | part[e.dst]
            for v in merged:
                part[v] = merged
    return {frozenset(p) for p in part.values()}


def _interleaved(g):
    """Whether some component's vertices are not contiguous in vertex order,
    as when V0 - V2 is a component and V1 is alone."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return any(
        max(index[v] for v in c) - min(index[v] for v in c) >= len(c) for c in _components(g)
    )


def test_equitable_search_stops_at_a_failing_component(monkeypatch):
    """Z's loop is balanced by no multiset, and Z begins its component in the
    walk, so the search stops there instead of going back into A0 - A1 - A2,
    whose choices cannot help it (170 multisets listed when it went back)."""
    listed = 0

    def counted(*args):
        nonlocal listed
        for multiset in _balanced_multisets(*args):
            listed += 1
            yield multiset

    monkeypatch.setattr(tubular.cubulate, "_balanced_multisets", counted)
    g = parse(
        "group t { vertex A0, Z, A1, A2; edge a : A0(1,1) -> A1(1,2); "
        "edge b : A1(1,1) -> A2(1,2); edge d : Z(1,0) -> Z(2,0); }\n"
    )
    assert equitable_search(g, 3, 3) == NotFound(3, 3)
    assert listed <= 6, listed


def _far_graph(rng):
    """4-5 vertices and 2-6 edges with coordinates up to 2, the first of
    which joins two vertices 2 or more apart in vertex order, so the search
    checks its later end early and backtracks over several vertices."""
    vertices = [f"V{i}" for i in range(rng.randint(4, 5))]
    a = rng.randrange(len(vertices) - 2)
    ends = [(vertices[a], vertices[rng.randrange(a + 2, len(vertices))])]
    ends += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(1, 5))]
    vecs = [V(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    edges = (
        Edge(f"e{k}", *rng.sample(pair, 2), rng.choice(vecs), rng.choice(vecs))
        for k, pair in enumerate(ends)
    )
    return TubularPresentation(tuple(vertices), tuple(edges))


def _early_check_due(g):
    """Whether some edge's ends lie 2 or more apart in the vertex order of
    their component."""
    for c in _components(g):
        pos = {v: i for i, v in enumerate(v for v in g.vertices if v in c)}
        if any(e.src in c and abs(pos[e.src] - pos[e.dst]) > 1 for e in g.edges):
            return True
    return False


def test_equitable_search_agrees_with_walk_oracle_on_random_graphs():
    rng = random.Random(20261021)
    seen = dict.fromkeys(("parallel", "isolated", "components", "found", "none"), 0)
    for _ in range(600):
        g = _random_graph(rng)
        # The walk is exponential; at these bounds a vertex has 6-140 options.
        bounds = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)][: 7 - len(g.vertices)])
        out = equitable_search(g, *bounds)
        assert out == _equitable_search_walk_oracle(g, *bounds), (g, bounds)
        pairs = [frozenset((e.src, e.dst)) for e in g.edges]
        touched = set().union(*pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["isolated"] += bool(g.edges) and len(touched) < len(g.vertices)
        seen["components"] += sum(bool(c & touched) for c in _components(g)) > 1
        seen["found" if isinstance(out, EquitableSet) else "none"] += 1
    assert min(seen.values()) > 40, seen
    far = dict.fromkeys(("early", "found", "none"), 0)
    for _ in range(200):
        g = _far_graph(rng)
        bounds = rng.choice([(1, 2), (1, 3)])
        out = equitable_search(g, *bounds)
        assert out == _equitable_search_walk_oracle(g, *bounds), (g, bounds)
        far["early"] += _early_check_due(g)
        far["found" if isinstance(out, EquitableSet) else "none"] += 1
    assert far["early"] > 140 and min(far["found"], far["none"]) > 60, far


def _chain(n, w="(1,0)"):
    """V0 - V1 - ... - V(n-1) by bridges (1,0) -> w, the last one (1,0) ->
    (1,1), and a distorted loop on the last vertex, which no multiset
    balances."""
    edges = [f"edge b{i} : V{i}(1,0) -> V{i + 1}{w};" for i in range(n - 2)]
    edges.append(f"edge b{n - 2} : V{n - 2}(1,0) -> V{n - 1}(1,1);")
    edges.append(f"edge d : V{n - 1}(1,0) -> V{n - 1}(2,0);")
    vertices = ", ".join(f"V{i}" for i in range(n))
    return f"group c {{ vertex {vertices}; {' '.join(edges)} }}\n"


def _group(n, *edges):
    vertices = ", ".join(f"V{i}" for i in range(n))
    body = " ".join(f"edge e{k} : {e};" for k, e in enumerate(edges))
    return f"group t {{ vertex {vertices}; {body} }}\n"


# Inputs on which the walk took from 4 s to minutes at the CLI bounds, with
# the set or NotFound the search finds.
BLOWUPS = {
    "chain4": (_chain(4), None),
    "chain10": (_chain(10), None),
    # A vertex's sums on its two bridges are independent, so the walk
    # searched every vertex again for each choice before it (52 s at 4).
    "chain10-mixed": (_chain(10, "(0,1)"), None),
    # V1 has no edges: the walk listed all of its multisets again for every
    # choice at V0.
    "isolated-middle": (
        _group(3, "V2(-4,-4) -> V2(-1,5)", "V0(4,1) -> V2(-5,-1)",
               "V2(-5,-3) -> V0(-2,0)", "V2(1,5) -> V0(-1,-5)"),
        None,
    ),
    # Every edge crosses the cut before V3.
    "wide-cut": (
        _group(4, "V0(-4,-3) -> V3(-5,-4)", "V3(-2,-5) -> V1(1,-1)", "V3(0,-1) -> V2(2,0)",
               "V3(0,1) -> V0(3,-2)", "V1(-5,-1) -> V0(-2,2)"),
        None,
    ),
    # V4's edges back start at V0, V1 and V2, whose choices the walk
    # multiplied before V4 could reject them.
    "join": (
        _group(5, "V0(0,4) -> V4(0,5)", "V2(4,-5) -> V3(2,2)", "V1(-4,5) -> V4(-5,2)",
               "V4(3,-2) -> V0(-5,-3)", "V2(2,1) -> V4(5,-1)"),
        "V0 (2,-1) (3,2); V1 (1,-3) (1,2); V2 (1,-3) (1,-2) (2,-3); "
        "V3 (0,1) (2,-3); V4 (2,-3) (2,1)",
    ),
    # Three components, interleaved in vertex order; V0 - V4 fails.
    "components": (
        _group(6, "V1(1,2) -> V3(-5,0)", "V1(5,-4) -> V3(-1,-5)", "V4(-5,0) -> V0(-3,-1)",
               "V4(0,-1) -> V4(-1,-5)", "V2(-5,-1) -> V5(-1,-1)"),
        None,
    ),
}


@pytest.mark.parametrize("name", BLOWUPS)
def test_search_blowups_finish_quickly(name):
    text, expected = BLOWUPS[name]
    t0 = time.process_time()
    out = equitable_search(parse(text), 3, 3)
    assert time.process_time() - t0 < 1.0
    if expected is None:
        assert out == NotFound(3, 3)
    else:
        assert "; ".join(f"{v} " + " ".join(map(str, c)) for v, c in out.sets) == expected


def _calls(code, run, cap=10**4):
    """The calls of the function whose code object is `code` while `run()`
    runs, closures included, counted by a profile hook, which stops the run
    once they pass `cap`."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1
            if count > cap:
                raise RuntimeError(f"over {cap} calls of {code.co_name}")

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_walk_options_are_linear_on_a_mixed_chain():
    """Beside the CPU bound above, a bound that does not depend on the
    machine: the options the walk asks of its vertices on chain10-mixed's
    family grow linearly with the chain (72n - 125 calls of `option`)."""
    consts = equitable_search.__code__.co_consts
    option = next(c for c in consts if getattr(c, "co_name", "") == "option")
    counts = []
    for n in (16, 32):
        g = parse(_chain(n, "(0,1)"))
        counts.append(_calls(option, lambda: equitable_search(g, 3, 3)))
    assert counts[0] > 0 and counts[1] / counts[0] <= 2.2, counts


def test_analyze_chain_with_distorted_loop_last(capsys, tmp_path):
    path = tmp_path / "chain.tub"
    path.write_text(_chain(4))
    assert main(["analyze", str(path)]) == 0
    assert "c dilation: Unknown" in capsys.readouterr().out


def test_chain_with_distorted_loop_first_is_not_found_quickly(capsys, tmp_path):
    """The three-vertex chain V0 - V1 - V2 whose distorted loop (1,0) ->
    (2,0) sits on V0, the first vertex: the product search did not finish at
    the CLI bounds; the vertex walk stops at V0, whose loop no multiset
    balances."""
    path = tmp_path / "chain.tub"
    path.write_text(
        "group c { vertex V0, V1, V2; edge d : V0(1,0) -> V0(2,0); "
        "edge a : V0(1,0) -> V1(1,0); edge b : V1(1,0) -> V2(1,0); }\n"
    )
    t0 = time.process_time()
    assert equitable_search(parse(path.read_text()), 3, 3) == NotFound(3, 3)
    assert time.process_time() - t0 < 1.0
    assert main(["analyze", str(path)]) == 0
    assert "c dilation: Unknown" in capsys.readouterr().out


def _path(n):
    """V0 - V1 - ... - V(n-1) by edges (1,0) -> (1,0)."""
    vertices = tuple(f"V{i}" for i in range(n))
    edges = (Edge(f"e{i}", vertices[i], vertices[i + 1], V(1, 0), V(1, 0)) for i in range(n - 1))
    return TubularPresentation(vertices, tuple(edges))


def test_equitable_search_is_fast_on_a_long_path():
    """Merging components by copying each one into every member took 4.5 s
    on this path; the union-find takes under 1 s."""
    g = _path(8000)
    t0 = time.process_time()
    out = equitable_search(g, 3, 3)
    assert time.process_time() - t0 < 2.5
    assert out.sets == tuple((v, (V(0, 1), V(1, -3))) for v in g.vertices)


def test_set_lookups_are_fast_on_a_long_path():
    """`EquitableSet.at` was a scan, called per vertex or per edge end:
    these three calls took 8 s on this path."""
    g = _path(8000)
    s = equitable_search(g, 3, 3)
    t0 = time.process_time()
    assert verify_equitable(g, s)
    assert len(wall_graph(g, s).arcs) == 2 * len(g.edges)
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert time.process_time() - t0 < 2.0


def test_set_index_is_built_once_per_set_on_a_long_path():
    """Beside the CPU bound above: the wall graph and the spectrum build the
    vertex index of `EquitableSet.at` once per set.  The count is pinned
    exactly, since an index built on every lookup grows only linearly."""
    build = EquitableSet.__dict__["_first"].func.__code__
    counts = []
    for n in (1000, 2000):
        g = _path(n)
        s = equitable_search(g, 3, 3)
        counts.append(_calls(build, lambda: (wall_graph(g, s), all_matching_verdicts(g, s))))
    assert counts == [1, 1]


def test_wall_work_is_linear_on_a_long_path(monkeypatch):
    """Beside the CPU bound above, a bound that does not depend on the
    machine: the runs of the default matching and the arcs posed to
    `holonomy_cycle` by the wall graph, its dilation check and the spectrum
    grow linearly with the path."""
    runs, holonomy_cycle = tubular.cubulate._runs, tubular.cubulate.holonomy_cycle
    work = {"runs": 0, "arcs": 0}

    def counted_runs(a, b):
        for run in runs(a, b):
            work["runs"] += 1
            yield run

    def counted_cycle(nodes, arcs):
        work["arcs"] += len(arcs)
        return holonomy_cycle(nodes, arcs)

    monkeypatch.setattr(tubular.cubulate, "_runs", counted_runs)
    monkeypatch.setattr(tubular.cubulate, "holonomy_cycle", counted_cycle)
    counts = []
    for n in (1000, 2000):
        g = _path(n)
        s = equitable_search(g, 3, 3)
        work.update(runs=0, arcs=0)
        assert not dilation_decide(wall_graph(g, s)).dilated
        assert all_matching_verdicts(g, s) == ({False}, True)
        counts.append(dict(work))
    assert min(counts[0].values()) > 0, counts
    for key in work:
        assert counts[1][key] / counts[0][key] <= 2.2, (key, counts)


def test_equitable_set_at_takes_the_first_entry_of_a_vertex():
    s = EquitableSet((("V", (V(1, 0),)), ("W", (V(0, 1),)), ("V", (V(1, 1),))))
    assert s.at("V") == (V(1, 0),) and s.at("W") == (V(0, 1),)
    with pytest.raises(KeyError):
        s.at("U")
    assert s == EquitableSet(s.sets) and "_first" not in repr(s)


def _candidate_vectors_oracle(coord_bound):
    """The loop that `_candidate_vectors` replaced."""
    out = []
    for x in range(0, coord_bound + 1):
        for y in range(-coord_bound, coord_bound + 1):
            if x == 0 and y <= 0:
                continue
            if math.gcd(x, abs(y)) == 1:
                out.append(IntVec2(x, y))
    return out


def test_candidate_vectors_agree_with_loop_oracle():
    for coord_bound in range(1, 34):
        assert _candidate_vectors(coord_bound) == _candidate_vectors_oracle(coord_bound)


def test_independent_pair_agrees_with_pairwise_scan():
    rng = random.Random(25)
    vecs = [V(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    answers = []
    for _ in range(2000):
        combo = tuple(rng.choice(vecs) for _ in range(rng.randint(0, 5)))
        pairwise = any(det2(u, w) for u, w in itertools.combinations(combo, 2))
        assert _has_independent_pair(combo) == pairwise, combo
        answers.append(pairwise)
    assert answers.count(True) > 500 and answers.count(False) > 300


def test_lyman_canonical_set_non_dilated():
    g = gpq_to_tubular(lyman_psi(1, 1))
    s = canonical_th3_set(g.single_vertex_pairs())
    assert verify_equitable(g, s)
    assert not dilation_decide(wall_graph(g, s)).dilated


def _wall_graph_oracle(g, s, matchings=None):
    """The per-point builder that wall_graph replaced: one arc per
    intersection point.  Intersection points on each side of an edge are
    listed circle-by-circle in circle order; by default the order-preserving
    bijection matches them.  An explicit matching (permutation of the
    right-hand point list, per edge id) may be supplied instead."""
    if not verify_equitable(g, s):
        raise ValueError("wall_graph requires an equitable set")
    nodes = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    arcs = []
    for e in g.edges:
        left = [i for i, x in enumerate(s.at(e.src)) for _ in range(abs(det2(x, e.v)))]
        right = [j for j, x in enumerate(s.at(e.dst)) for _ in range(abs(det2(x, e.w)))]
        assert len(left) == len(right)
        if matchings and e.id in matchings:
            right_order = list(matchings[e.id])
            if sorted(right_order) != sorted(right):
                raise ValueError(f"invalid matching for edge {e.id}")
        else:
            right_order = right
        for i, j in zip(left, right_order):
            w = Fraction(abs(det2(e.v, s.at(e.src)[i])), abs(det2(e.w, s.at(e.dst)[j])))
            arcs.append(Arc(e.id, (e.src, i), (e.dst, j), w))
    return WallGraph(nodes, tuple(arcs))


def test_wall_graph_structure_gersten():
    g = gersten_presentation()
    s = EquitableSet.single([V(0, 1), V(2, 1)])
    w = wall_graph(g, s)
    assert w.nodes == (("V", 0), ("V", 1))
    # Each edge has 2 intersection points, both on circle 1 at the left.
    # Edge e1 meets each circle once at the right, and e2 meets circle 0
    # twice: three runs.
    runs = [(a.edge_label, a.src_circle[1], a.dst_circle[1], a.count) for a in w.arcs]
    assert runs == [("e1", 1, 0, 1), ("e1", 1, 1, 1), ("e2", 1, 0, 2)]
    assert all(a.weight > 0 for a in w.arcs)


def test_dilation_verdict_independent_of_edge_order():
    g = gersten_presentation()
    s = equitable_search(g, 3, 3)
    base = dilation_decide(wall_graph(g, s)).dilated
    rng = random.Random(5)
    for _ in range(10):
        order = list(g.edges)
        rng.shuffle(order)
        g2 = single_vertex_presentation([(e.v, e.w) for e in order])
        assert dilation_decide(wall_graph(g2, s)).dilated == base


def test_dilation_witness_is_first_in_component_order():
    """Two components, A listed first; each has a failing non-tree arc, and
    B's (arc 1) has the lower index.  The witness is A's fundamental cycle:
    arc 2 backward, arc 4 backward, arc 3 forward."""
    a0, a1, a2, b0, b1 = ("A", 0), ("A", 1), ("A", 2), ("B", 0), ("B", 1)
    arcs = (
        Arc("b", b0, b1, Fraction(1)),
        Arc("b", b0, b1, Fraction(3)),
        Arc("a", a0, a1, Fraction(2)),
        Arc("a", a2, a1, Fraction(3)),
        Arc("a", a2, a0, Fraction(5)),
    )
    d = dilation_decide(WallGraph((a0, a1, a2, b0, b1), arcs))
    assert d.dilated and d.holonomy == Fraction(3, 10)
    assert d.witness_cycle == ((arcs[2], -1), (arcs[4], -1), (arcs[3], 1))
    loop = Arc("s", a0, a0, Fraction(2))
    d = dilation_decide(WallGraph((a0,), (loop,)))
    assert d == DilationVerdict(True, ((loop, 1),), Fraction(2))


def _fraction_holonomy_oracle(nodes, arcs):
    """The walk that holonomy_cycle replaced, with `Fraction` potentials:
    the same depth-first tree per component and the same non-tree arc
    order, arc (src, dst, m, n) weighing Fraction(m, n)."""
    adj = {node: [] for node in nodes}
    for i, (src, dst, _, _) in enumerate(arcs):
        adj[src].append((i, +1, dst))
        adj[dst].append((i, -1, src))
    potential, parent = {}, {}

    def path(node):
        steps = []
        while parent[node] is not None:
            node, i, d = parent[node]
            steps.append((i, d))
        return steps[::-1]

    for root in nodes:
        if root in potential:
            continue
        potential[root], parent[root] = Fraction(1), None
        stack, seen, tree = [root], set(), set()
        while stack:
            node = stack.pop()
            for i, d, other in adj[node]:
                seen.add(i)
                if other not in potential:
                    weight = Fraction(arcs[i][2], arcs[i][3])
                    potential[other] = potential[node] * (weight if d > 0 else 1 / weight)
                    parent[other] = (node, i, d)
                    tree.add(i)
                    stack.append(other)
        for i in sorted(seen - tree):
            src, dst, m, n = arcs[i]
            holonomy = potential[src] * Fraction(m, n) / potential[dst]
            if holonomy != 1:
                to_src, to_dst = path(src), path(dst)
                k = 0
                while k < min(len(to_src), len(to_dst)) and to_src[k] == to_dst[k]:
                    k += 1
                back = [(j, -d) for j, d in reversed(to_dst[k:])]
                return back + to_src[k:] + [(i, +1)], holonomy
    return None


def test_holonomy_cycle_unreduced_and_large_weights():
    """An arc (4, 2) weighs 2, and a 300-arc cycle of weights
    (10**30 + 1)/10**30 has the exact product as its holonomy."""
    nodes = ["a", "b", "c"]
    arcs = [("a", "b", 4, 2), ("b", "c", 1, 1), ("a", "c", 2, 1)]
    assert holonomy_cycle(nodes, arcs) is None
    arcs[2] = ("a", "c", 6, 2)
    assert holonomy_cycle(nodes, arcs) == ([(2, -1), (0, 1), (1, 1)], Fraction(2, 3))
    big = 10**30
    nodes = list(range(300))
    arcs = [(k, (k + 1) % 300, big + 1, big) for k in range(300)]
    steps, holonomy = holonomy_cycle(nodes, arcs)
    assert holonomy == Fraction(big + 1, big) ** 300
    assert sorted(steps) == [(k, 1) for k in range(300)]
    assert (steps, holonomy) == _fraction_holonomy_oracle(nodes, arcs)
    arcs[-1] = (299, 0, big**299, (big + 1) ** 299)
    assert holonomy_cycle(nodes, arcs) is None


def test_all_matchings_spectrum_gersten():
    g = gersten_presentation()
    s = equitable_search(g, 3, 3)
    verdicts, complete = all_matching_verdicts(g, s)
    assert complete
    assert True in verdicts  # the default matching is dilated


def _all_matching_verdicts_oracle(g, s):
    """The eager enumerator that all_matching_verdicts replaced: every
    ordering of every edge's points, one wall graph per matching."""
    per_edge = []
    for e in g.edges:
        right_pts = []
        for j, x in enumerate(s.at(e.dst)):
            right_pts.extend([j] * abs(det2(x, e.w)))
        perms = sorted({p for p in itertools.permutations(right_pts)})
        per_edge.append((e.id, perms))
    verdicts = set()
    for combo in itertools.product(*(perms for _, perms in per_edge)):
        matching = {eid: perm for (eid, _), perm in zip(per_edge, combo)}
        verdicts.add(dilation_decide(_wall_graph_oracle(g, s, matching)).dilated)
    return verdicts


def _edge_counts(g, s):
    """Per edge, the points on each left circle and on each right circle."""
    return [
        ([abs(det2(x, e.v)) for x in s.at(e.src)], [abs(det2(x, e.w)) for x in s.at(e.dst)])
        for e in g.edges
    ]


def _grouping_tuple_oracle(g, s, budget=10000):
    """The per-tuple enumerator that all_matching_verdicts replaced: each
    tuple of per-edge groupings (at most budget + 1 per edge) decided once,
    on a wall graph spanning each group by the arcs at its first left or
    right circle, until both flags show or `budget` tuples are decided with
    more left: then the result is incomplete."""
    counts = _edge_counts(g, s)
    per_edge = [list(itertools.islice(_groupings(a, b), budget + 1)) for a, b in counts]
    nodes = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    tuples, verdicts = itertools.product(*per_edge), set()
    for key in itertools.islice(tuples, budget):
        arcs = tuple(
            Arc(e.id, (e.src, i), (e.dst, j), Fraction(a[i], b[j]))
            for e, (a, b), grouping in zip(g.edges, counts, key)
            for L, R in grouping
            for i in L
            for j in R
            if i == L[0] or j == R[0]
        )
        verdicts.add(dilation_decide(WallGraph(nodes, arcs)).dilated)
        if len(verdicts) == 2:
            return verdicts, True
    return verdicts, next(tuples, None) is None


def _star_dilated(g, s, parts):
    """Whether no positive potentials give every circle of a group the same
    potential times point count, for groups of (left, right) circle indices,
    per edge: holonomy on a star graph, one hub per group and an arc of
    weight n from each member with n points to its hub."""
    nodes, arcs = [], []
    for k, (e, (a, b), groups) in enumerate(zip(g.edges, _edge_counts(g, s), parts)):
        for t, (L, R) in enumerate(groups):
            nodes.append(hub := ("hub", k, t))
            arcs += [((e.src, i), hub, a[i], 1) for i in L]
            arcs += [((e.dst, j), hub, b[j], 1) for j in R]
    nodes += [(v, i) for v in g.vertices for i in range(len(s.at(v)))]
    return holonomy_cycle(nodes, arcs) is not None


def _closed_test_oracle(g, s, budget=10000):
    """The closed test that settles the spectrum, decided on star graphs and
    wall graphs, or None.  "one-group": one group of all its circles per
    edge is consistent.  "two-matchings": that one group per edge is a
    grouping of every edge, and the default wall graph is NonDilated.
    "forced-group": each edge has at most `budget` groupings, and the blocks
    of circles that share a group in all of them are inconsistent."""
    counts = _edge_counts(g, s)
    whole = [
        [(tuple(i for i, x in enumerate(a) if x), tuple(j for j, y in enumerate(b) if y))]
        for a, b in counts
    ]
    if not _star_dilated(g, s, whole):
        return "one-group"
    if all(any(len(x) == 1 for x in _groupings(a, b)) for a, b in counts):
        if not dilation_decide(wall_graph(g, s)).dilated:
            return "two-matchings"
    per_edge = [list(itertools.islice(_groupings(a, b), budget + 1)) for a, b in counts]
    if any(len(groupings) > budget for groupings in per_edge):
        return None
    meet = []
    for (a, b), groupings in zip(counts, per_edge):
        ends = [(0, i) for i, x in enumerate(a) if x] + [(1, j) for j, y in enumerate(b) if y]

        def together(c, d):
            return all(
                any(c[1] in group[c[0]] and d[1] in group[d[0]] for group in grouping)
                for grouping in groupings
            )

        blocks = {tuple(d for d in ends if together(c, d)) for c in ends}
        meet.append(
            [tuple(tuple(i for side, i in block if side == k) for k in (0, 1)) for block in blocks]
        )
    return "forced-group" if _star_dilated(g, s, meet) else None


def _check_budgets(g, s, flags, budgets):
    """At each budget the flags are among the full spectrum's, all of them
    when the result is complete, and it is incomplete exactly when no
    closed test settles the input, one flag showed, and more than `budget`
    tuples of per-edge groupings remained."""
    tuples = math.prod(len(list(_groupings(a, b))) for a, b in _edge_counts(g, s))
    for budget in budgets:
        got, complete = all_matching_verdicts(g, s, budget)
        assert got and got <= flags, (g, budget)
        assert not complete or got == flags, (g, budget)
        settled = _closed_test_oracle(g, s, budget) is not None
        assert complete == (settled or len(got) == 2 or tuples <= budget), (g, budget)


def test_all_matchings_agrees_with_eager_oracle():
    rng = random.Random(20261018)
    for _ in range(200):
        g = _planted_spectrum_input(rng)
        s = equitable_search(g, 3, 3)
        assert isinstance(s, EquitableSet), g
        flags = _all_matching_verdicts_oracle(g, s)
        assert all_matching_verdicts(g, s) == (flags, True), g
        _check_budgets(g, s, flags, (1, 3, 7, 50))


def _union_find_oracle(groups):
    """The weighted union-find that `_consistent` ran before it posed its
    systems to `holonomy_cycle`: whether positive potentials π exist with
    π(x)·n the same for every member (x, n) of each group.  Each circle x
    that has met a relation keeps (root, num, den), in lowest terms, with
    π(x) = π(root)·num/den.  A relation inside one root is a
    cross-multiplied test; one across two roots moves the circles of one
    under the other."""
    at = {}
    for (y, m), *rest in groups:
        for x, n in rest:
            (rx, px, qx), (ry, py, qy) = at.get(x, (x, 1, 1)), at.get(y, (y, 1, 1))
            p, q = py * m * qx, qy * n * px  # π(x)·n = π(y)·m, so π(rx) = π(ry)·p/q
            if rx == ry and p != q:
                return False
            if rx != ry:
                at[rx] = (rx, 1, 1)
                for z, (r, pz, qz) in list(at.items()):
                    if r == rx:
                        k = math.gcd(pz * p, qz * q)
                        at[z] = (ry, pz * p // k, qz * q // k)
    return True


def _decisions(monkeypatch):
    """The results of all_matching_verdicts' calls of `_consistent`, in
    order, each checked against `_union_find_oracle` (see CLOSED_TESTS)."""
    results = []
    decide = tubular.cubulate._consistent

    def counted(circles, groups):
        groups = [list(group) for group in groups]
        results.append(decide(circles, groups))
        assert results[-1] == _union_find_oracle(groups), groups
        return results[-1]

    monkeypatch.setattr(tubular.cubulate, "_consistent", counted)
    return results


def test_all_matchings_agrees_with_grouping_tuple_oracle(monkeypatch):
    """On 1,000 random presentations that have an equitable set and on 200
    planted spectrum inputs, the closed tests and the integer decider give
    the per-tuple wall graphs' result wherever those are complete, and the
    closed test that settles an input is the one found on star graphs and
    wall graphs.  Every system posed to `holonomy_cycle` gets the
    union-find's answer."""
    results = _decisions(monkeypatch)
    rng = random.Random(20261023)
    inputs = []
    while len(inputs) < 1000:
        g = _random_presentation(rng)
        s = equitable_search(g, 3, 3)
        if isinstance(s, EquitableSet):
            inputs.append((g, s))
    for _ in range(200):
        g = _planted_spectrum_input(rng)
        inputs.append((g, equitable_search(g, 3, 3)))
    settled = {"one-group": 0, "two-matchings": 0, "forced-group": 0, None: 0}
    systems = 0
    spectra = {"one-group": {False}, "two-matchings": {False, True}, "forced-group": {True}}
    for g, s in inputs:
        results.clear()
        got, want = all_matching_verdicts(g, s), _grouping_tuple_oracle(g, s)
        systems += len(results)
        assert got == want if want[1] else want[0] <= got[0], (g, s)
        closed = _closed_test_oracle(g, s)
        assert closed is None or got == (spectra[closed], True), (g, s)
        assert CLOSED_TESTS.get(tuple(results)) == closed, (g, s, results)
        settled[closed] += 1
    print(f"spectra settled by a closed test: {settled}; systems decided: {systems}")
    assert settled["one-group"] > 300 and settled["forced-group"] > 300 and settled[None] > 50
    assert settled["two-matchings"] > 20
    assert systems > 2000


def _default_grouping(a, b):
    """The groups (left circles, right circles) of an edge's default
    matching, which joins its points in order, a_i on left circle i and b_j
    on right circle j, in the shape of `_groupings`' groupings, read off the
    cumulative counts.  A group ends where a left and a right circle end at
    the same cumulative count; circles without points are in no group."""
    A, B = list(itertools.accumulate(a)), list(itertools.accumulate(b))
    cuts = sorted(set(A) & set(B) - {0})
    sides = [[[] for _ in cuts] for _ in "LR"]
    for side, points, totals in zip(sides, (a, b), (A, B)):
        for i, (n, total) in enumerate(zip(points, totals)):
            if n:
                side[bisect.bisect_left(cuts, total)].append(i)
    return tuple((tuple(L), tuple(R)) for L, R in zip(*sides))


def _run_components(a, b):
    """The connected groups (left circles, right circles) of `_runs`."""
    up = {}

    def root(c):
        while up.setdefault(c, c) != c:
            c = up[c]
        return c

    for i, j, n in _runs(a, b):
        assert n > 0 and a[i] and b[j], (a, b)
        up[root(("L", i))] = root(("R", j))
    groups = {}
    for c in sorted(up):
        groups.setdefault(root(c), []).append(c)
    return frozenset(
        tuple(tuple(k for side, k in members if side == s) for s in "LR")
        for members in groups.values()
    )


def test_default_grouping_is_the_wall_graphs_matching():
    """The default tuple that all_matching_verdicts decides is the wall
    graph's matching.  On the 2,348 sets with edges of 4,000 seed-5
    invariance draws, on planted spectrum inputs and on the corpus: the runs
    of each edge join its circles into the groups read off the cumulative
    counts, that grouping is one of the edge's groupings, and `_consistent`
    on the tuple gives the wall graph's word.  Wherever the spectrum from
    the one-group test, the forced-group test and the tuple walk alone was
    complete, the spectrum is the same; where it was truncated, the
    spectrum holds it."""
    rng = random.Random(5)
    inputs = [_invariance_presentation(rng) for _ in range(4000)] + _corpus_presentations()
    rng = random.Random(20261024)
    inputs += [_planted_spectrum_input(rng) for _ in range(200)]
    checked = 0
    for g in inputs:
        s = equitable_search(g, 3, 3)
        if not isinstance(s, EquitableSet) or not g.edges:
            continue
        checked += 1
        groups = []
        for e, (a, b) in zip(g.edges, _edge_counts(g, s)):
            grouping = _default_grouping(a, b)
            assert _run_components(a, b) == frozenset(grouping), (a, b)
            assert frozenset(grouping) in {frozenset(x) for x in _groupings(a, b)}, (a, b)
            for L, R in grouping:
                groups.append([((e.src, i), a[i]) for i in L] + [((e.dst, j), b[j]) for j in R])
        circles = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
        assert _consistent(circles, groups) == (not dilation_decide(wall_graph(g, s)).dilated), g
        closed = _closed_test_oracle(g, s)
        if closed in ("one-group", "forced-group"):
            before = {closed == "forced-group"}, True
        else:
            before = _grouping_tuple_oracle(g, s)
        got = all_matching_verdicts(g, s)
        assert got == before if before[1] else before[0] <= got[0], g
    assert checked > 2500


# One group per edge is an inconsistent matching, the default matching is
# consistent, and the second edge groups its circles in two ways.
MIXED = "group G { vertex V; edge e1 : V(0,1) -> V(-1,-2); edge e2 : V(6,0) -> V(6,0); }"


def test_all_matchings_decides_each_support_once(monkeypatch):
    """Thirteen points on one circle have a single distinct ordering; the
    eager enumerator built all 13! orderings of them first.  Now the
    one-group test settles it, and no tuple is decided."""
    results = _decisions(monkeypatch)
    g = single_vertex_presentation([(V(1, 0), V(0, 1)), (V(13, 0), V(13, 0))])
    s = equitable_search(g, 3, 3)
    assert s.at("V") == (V(0, 1), V(1, 0))
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert results == [True]
    # Three points on each of two circles: 20 orderings group the circles in
    # only three ways (00 and 11, 01 and 10, all four), and the one group of
    # all four is consistent.
    results.clear()
    g = single_vertex_presentation([(V(1, 0), V(0, 1)), (V(3, 3), V(3, 3))])
    s = equitable_search(g, 3, 3)
    assert s.at("V") == (V(0, 1), V(1, 0))
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert results == [True]
    # Mixed flags pass the one-group test, and the default matching and the
    # one group per edge, both matchings, show them without a tuple.
    results.clear()
    g = parse(MIXED)
    s = equitable_search(g, 3, 3)
    assert all_matching_verdicts(g, s) == ({False, True}, True)
    assert results == [False, True]


def _odometer_oracle(g, s):
    """The lazy odometer that all_matching_verdicts replaced: every edge steps
    in place through the distinct orderings of its right-hand points, the
    last edge fastest, and each distinct tuple of per-edge supports is
    decided once."""
    points = []
    for e in g.edges:
        left = [i for i, x in enumerate(s.at(e.src)) for _ in range(abs(det2(x, e.v)))]
        right = [j for j, x in enumerate(s.at(e.dst)) for _ in range(abs(det2(x, e.w)))]
        points.append((left, right))
    lefts = [left for left, _ in points]
    orders = [right for _, right in points]
    supports = [frozenset(zip(left, order)) for left, order in zip(lefts, orders)]
    flags = {}
    while True:
        key = tuple(supports)
        if key not in flags:
            matching = {e.id: tuple(order) for e, order in zip(g.edges, orders)}
            flags[key] = dilation_decide(_wall_graph_oracle(g, s, matching)).dilated
        for k in reversed(range(len(orders))):
            advanced = _next_permutation(orders[k])
            supports[k] = frozenset(zip(lefts[k], orders[k]))
            if advanced:
                break
        else:
            return set(flags.values())


def _next_permutation(a):
    """Step `a` in place to its next distinct ordering in lexicographic order
    (Knuth's Algorithm L).  From the last ordering, reset `a` to the first
    (sorted) one and return False."""
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i >= 0:
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
    a[i + 1 :] = reversed(a[i + 1 :])
    return i >= 0


def test_all_matchings_agrees_with_odometer_oracle():
    rng = random.Random(20261019)
    for _ in range(300):
        g = _planted_spectrum_input(rng)
        s = equitable_search(g, 3, 3)
        flags = _odometer_oracle(g, s)
        assert all_matching_verdicts(g, s) == (flags, True), g
        _check_budgets(g, s, flags, (1, 2, 3, 5, 7, 11, 50, 200))


def _supports(fixed, a, b):
    """The Gale oracle: `fixed` joined with each support of M >= 0 with row
    sums a and column sums b.  Row i meets a set R_i of at most a_i columns,
    and each set J of columns needs at most the sum over rows meeting J of
    a_i - |R_i - J|.  It lists every product of per-row column sets."""
    need = [sum(y for j, y in enumerate(b) if J >> j & 1) for J in range(1 << len(b))]
    full = sum(1 << j for j, y in enumerate(b) if y)
    masks = [R for R in range(1, full + 1) if R & ~full == 0]
    rows = [[R for R in masks if R.bit_count() <= x] or [0] for x in a]
    return [
        fixed | {(i, j) for i, R in enumerate(S) for j in range(len(b)) if R >> j & 1}
        for S in itertools.product(*rows)
        if all(
            need[J] <= sum(x - (R & ~J).bit_count() for x, R in zip(a, S) if R & J)
            for J in range(1, 1 << len(b))
        )
    ]


def _parts(support):
    """The connected parts of an edge's support, each as (left circles,
    right circles), in the shape of one of `_groupings`' groupings."""
    parts = []
    for i, j in support:
        left, right = {i}, {j}
        for part in [p for p in parts if i in p[0] or j in p[1]]:
            left, right = left | part[0], right | part[1]
            parts.remove(part)
        parts.append((left, right))
    return frozenset((tuple(sorted(L)), tuple(sorted(R))) for L, R in parts)


def _support_wall(g, s, supports):
    """The wall graph with one arc per circle pair each edge's support joins."""
    nodes = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    arcs = tuple(
        Arc(e.id, (e.src, i), (e.dst, j), Fraction(a[i], b[j]))
        for e, (a, b), support in zip(g.edges, _edge_counts(g, s), supports)
        for i, j in sorted(support)
    )
    return WallGraph(nodes, arcs)


def test_all_matchings_agrees_with_gale_oracle_on_dense_edges():
    """Inputs shaped like the benchmark's dense ones: a planted input plus a
    loop k·u -> k·u, with k! orderings or more.  The spectrum is the set of
    flags over tuples of Gale supports, one per component partition, and it
    is complete."""
    rng = random.Random(20261020)
    for _ in range(6):
        g = _planted_spectrum_input(rng)
        u = rng.choice((V(1, 0), V(0, 1), V(1, 1), V(1, -1)))
        k = rng.choice((12, 13))
        loop = (V(k * u.x, k * u.y), V(k * u.x, k * u.y))
        g = single_vertex_presentation([(e.v, e.w) for e in g.edges] + [loop])
        s = equitable_search(g, 3, 3)
        assert isinstance(s, EquitableSet), g
        per_edge = []
        for a, b in _edge_counts(g, s):
            firsts = {}
            for support in _supports(frozenset(), a, b):
                firsts.setdefault(_parts(support), support)
            assert set(firsts) == {frozenset(x) for x in _groupings(a, b)}, (a, b)
            per_edge.append(list(firsts.values()))
        flags = {
            dilation_decide(_support_wall(g, s, key)).dilated
            for key in itertools.product(*per_edge)
        }
        assert all_matching_verdicts(g, s) == (flags, True), g
        _check_budgets(g, s, flags, (1, 17, 4321))


def test_all_matchings_truncation_across_edges():
    """Three edges with 3, 3 and 4 orderings on two vertices whose circle
    lists differ: over all 36 matchings the spectrum is the odometer's.
    Each edge groups its circles in two ways, and only the last of the 8
    tuples shows the second flag."""
    g = parse(
        "group G { vertex A, B; edge e1 : A(1,0) -> B(-1,1); "
        "edge e2 : A(-1,0) -> B(-1,-2); edge e3 : B(-2,1) -> B(-2,1); }"
    )
    s = EquitableSet((("A", (V(1, -1), V(1, -2))), ("B", (V(1, 1), V(1, 0)))))
    assert _odometer_oracle(g, s) == {False, True}
    assert all_matching_verdicts(g, s) == ({False, True}, True)
    for budget in range(1, 10):
        got = all_matching_verdicts(g, s, budget)
        assert got == (({True}, False) if budget < 8 else ({False, True}, True)), budget


def test_groupings_match_the_sorted_orderings():
    """Per edge, the groupings are the component partitions of the supports
    of every distinct ordering of the right-hand points, each listed once."""
    rng = random.Random(20261021)
    for _ in range(150):
        a = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        if sum(a) > 7:  # at most 7! orderings to list
            continue
        b = [0] * rng.randint(1, 3)
        for _ in range(sum(a)):
            b[rng.randrange(len(b))] += 1
        left = [i for i, x in enumerate(a) for _ in range(x)]
        right = [j for j, y in enumerate(b) for _ in range(y)]
        parts = {_parts(zip(left, p)) for p in set(itertools.permutations(right))}
        groupings = list(_groupings(a, b))
        assert len(set(groupings)) == len(groupings), (a, b)
        assert {frozenset(x) for x in groupings} == parts, (a, b)


def test_groupings_match_the_gale_supports():
    """Per edge with up to 9 points per circle, the groupings are the
    component partitions of the supports Gale's condition admits."""
    rng = random.Random(20261022)
    checked = 0
    while checked < 300:
        a = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
        b = [0] * rng.randint(1, 3)
        for _ in range(sum(a)):
            b[rng.randrange(len(b))] += 1
        if max(b) > 9:
            continue
        checked += 1
        parts = {_parts(support) for support in _supports(frozenset(), a, b)}
        groupings = list(_groupings(a, b))
        assert len(set(groupings)) == len(groupings), (a, b)
        assert {frozenset(x) for x in groupings} == parts, (a, b)


def test_all_matchings_requires_an_equitable_set():
    """Also when the point counts of an equitable set of the same group are
    cached, and when the same set was refused before."""
    g = gersten_presentation()
    wall_graph(g, equitable_search(g, 3, 3))
    all_matching_verdicts(g, equitable_search(g, 3, 3))
    s = EquitableSet.single([V(0, 1), V(1, 1)])
    for budget in (0, 10000, 0):
        with pytest.raises(ValueError, match="^all_matching_verdicts requires an equitable set$"):
            all_matching_verdicts(g, s, budget)
        with pytest.raises(ValueError, match="^wall_graph requires an equitable set$"):
            wall_graph(g, s)


def test_all_matchings_work_does_not_grow_with_points(monkeypatch):
    """A thousand points on each of two circles: the walk took seconds, and
    the lexicographic budget stopped short of the last orderings; the two
    circles group in three ways, and the one-group test settles all of
    them without deciding a tuple."""
    results = _decisions(monkeypatch)
    g = single_vertex_presentation([(V(1, 0), V(0, 1)), (V(1000, 1000), V(1000, 1000))])
    s = equitable_search(g, 3, 3)
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert results == [True]


def test_all_matchings_stops_at_the_budget():
    """No closed test settles this input: its default matching is
    NonDilated, one group per edge is not a matching, and only the third of
    its 2 x 2 tuples of groupings shows Dilated.  A budget of one or two
    tuples shows one flag and is not complete.  A budget of 0 decides
    nothing, even where a closed test would settle the spectrum."""
    g = parse(
        "group G { vertex V; edge e1 : V(-1,1) -> V(-1,3); edge e2 : V(6,6) -> V(6,6); }"
    )
    s = equitable_search(g, 3, 3)
    assert _closed_test_oracle(g, s) is None
    assert all_matching_verdicts(g, s) == ({False, True}, True)
    for budget in (1, 2):
        assert all_matching_verdicts(g, s, budget) == ({False}, False)
    assert all_matching_verdicts(g, s, 3) == ({False, True}, True)
    for g in (g, parse(MIXED)):
        assert all_matching_verdicts(g, equitable_search(g, 3, 3), 0) == (set(), False)


def test_all_matchings_settles_mixed_flags_from_two_matchings(monkeypatch):
    """The default matching and the one group per edge are matchings that
    show both flags: at any budget the spectrum takes one system each and
    lists no grouping."""
    results = _decisions(monkeypatch)

    def unlisted(a, b):
        raise AssertionError("groupings listed")

    monkeypatch.setattr(tubular.cubulate, "_groupings", unlisted)
    g = parse(MIXED)
    s = equitable_search(g, 3, 3)
    for budget in (1, 10000):
        results.clear()
        assert all_matching_verdicts(g, s, budget) == ({False, True}, True)
        assert results == [False, True], budget


def test_all_matchings_on_the_input_that_spent_the_rank_budget(capsys, tmp_path):
    """Coordinates near 2^63 gave the lexicographic budget 10,000 support
    listings and half a second, and came back truncated."""
    path = tmp_path / "h.tub"
    path.write_text(
        "group h { vertex V0, V1; "
        "edge e0 : V0(-9223372036854775807,-3) -> V0(2,-9223372036854775811); }\n"
    )
    t0 = time.process_time()
    assert main(["cubulate", "--all-matchings", "--json", str(path)]) == 0
    assert time.process_time() - t0 < 0.1
    spectrum = json.loads(capsys.readouterr().out)[-1]
    assert spectrum["property"] == "dilation_spectrum" and spectrum["notes"] == []


@pytest.mark.parametrize("points", [3, 10**19], ids=["3", "1e19"])
def test_all_matchings_on_wide_edges(points):
    """Seven circles on each side of a loop, each with the same number of
    points, group in over 10,000 ways; the capped listing is quick, and the
    one-group test settles the spectrum within any budget."""
    t0 = time.process_time()
    groupings = itertools.islice(_groupings([points] * 7, [points] * 7), 10001)
    assert len(list(groupings)) == 10001
    assert time.process_time() - t0 < 1
    g = single_vertex_presentation([(V(points, 0), V(points, 0))])
    s = EquitableSet.single([V(k, 1) for k in range(7)])
    assert all_matching_verdicts(g, s, 100) == ({False}, True)


def test_all_matchings_one_group_settles_a_wide_loop_at_once(monkeypatch):
    """A loop V(3,0) -> V(3,0) against the seven circles (k,1) groups them in
    over 10,000 ways, all NonDilated.  Deciding the tuples one at a time took
    1.3 s and came back truncated; the one-group test settles the spectrum
    without deciding a tuple."""
    results = _decisions(monkeypatch)
    g = single_vertex_presentation([(V(3, 0), V(3, 0))])
    s = EquitableSet.single([V(k, 1) for k in range(7)])
    t0 = time.process_time()
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert time.process_time() - t0 < 0.05
    assert results == [True]


def test_all_matchings_forced_groups_settle_a_dilated_input(monkeypatch):
    """An edge whose circle blocks are inconsistent in every grouping, with
    four loops of 9 groupings each: 3 x 9^4 tuples, all Dilated.  The
    per-tuple walk stops at its budget with the spectrum truncated; the
    forced-group test settles it without deciding a tuple."""
    results = _decisions(monkeypatch)
    g = single_vertex_presentation([(V(2, -1), V(2, 2))] + [(V(6, 6), V(6, 6))] * 4)
    s = EquitableSet.single([V(0, 1), V(1, 0), V(3, 1)])
    counts = _edge_counts(g, s)
    assert [len(list(_groupings(a, b))) for a, b in counts] == [3, 9, 9, 9, 9]
    assert _grouping_tuple_oracle(g, s, 100) == ({True}, False)
    assert all_matching_verdicts(g, s) == ({True}, True)
    assert results == [False, False, False]
    assert all_matching_verdicts(g, s, 100) == ({True}, True)


def test_exports_are_deterministic():
    g = gersten_presentation()
    s = EquitableSet.single([V(0, 1), V(2, 1)])
    w = wall_graph(g, s)
    text, dot = export_arcs_text(w), export_dot(w)
    assert text == export_arcs_text(wall_graph(g, s))
    assert dot.startswith("digraph wall {")
    # One line per run, with its count: three runs hold four points.
    assert sum(a.count for a in w.arcs) == 4
    assert text.splitlines() == ["e1 V:1 V:0 2/1 1", "e1 V:1 V:1 2/1 1", "e2 V:1 V:0 1/1 2"]
    assert dot.count(" -> ") == 3 and 'label="e2 1/1", count=2];' in dot


def _planted_equitable(rng):
    """1-3 vertices, each with 2-3 circles (primitive vectors with
    coordinates up to 2, some negated or doubled, repeats allowed) that hold
    an independent pair, and 1-4 edges with coordinates up to 4, each
    balanced against those circles: a presentation and an equitable set."""
    prims = [
        V(x, y)
        for x in range(3)
        for y in range(-2, 3)
        if (x > 0 or y > 0) and math.gcd(x, abs(y)) == 1
    ]
    vertices = tuple(f"V{i}" for i in range(rng.randint(1, 3)))
    circles = {}
    for v in vertices:
        while True:
            cs = []
            for _ in range(rng.randint(2, 3)):
                c, k = rng.choice(prims), rng.choice((1, 1, -1, 2))
                cs.append(V(k * c.x, k * c.y))
            if _has_independent_pair(tuple(cs)):
                circles[v] = tuple(cs)
                break
    vecs = [V(x, y) for x in range(-4, 5) for y in range(-4, 5) if (x, y) != (0, 0)]

    def norm(v, u):
        return sum(abs(det2(c, u)) for c in circles[v])

    edges, n = [], rng.randint(1, 4)
    while len(edges) < n:
        src, dst, v = rng.choice(vertices), rng.choice(vertices), rng.choice(vecs)
        ws = [w for w in vecs if norm(dst, w) == norm(src, v)]
        if ws:
            edges.append(Edge(f"e{len(edges) + 1}", src, dst, v, rng.choice(ws)))
    g = TubularPresentation(vertices, tuple(edges))
    return g, EquitableSet(tuple((v, circles[v]) for v in vertices))


def test_wall_graph_agrees_with_per_point_oracle():
    """Runs expanded to their points give the per-point arcs in order, and
    give the same dilation flag and the same serialized witness cycle."""
    rng = random.Random(20261018)
    for _ in range(2000):
        g, s = _planted_equitable(rng)
        assert verify_equitable(g, s)
        w, old = wall_graph(g, s), _wall_graph_oracle(g, s)
        points = [
            (a.edge_label, a.src_circle, a.dst_circle, a.weight)
            for a in w.arcs
            for _ in range(a.count)
        ]
        assert points == [
            (a.edge_label, a.src_circle, a.dst_circle, a.weight) for a in old.arcs
        ], (g, s)
        arcs = [
            (a.src_circle, a.dst_circle, a.weight.numerator, a.weight.denominator)
            for a in w.arcs
        ]
        assert holonomy_cycle(w.nodes, arcs) == _fraction_holonomy_oracle(w.nodes, arcs), (g, s)
        d, d_old = dilation_decide(w), dilation_decide(old)
        assert d.dilated == d_old.dilated, (g, s)
        if d.dilated:
            assert serialize_cycle(d.witness_cycle, d.holonomy) == serialize_cycle(
                d_old.witness_cycle, d_old.holonomy
            ), (g, s)


K = 10**9
LOOP = f"group h {{ vertex V; edge e : V({K},0) -> V({K},0); }}\n"
PAIR = (
    f"group h {{ vertex V; edge e1 : V(1,0) -> V(0,1); "
    f"edge e2 : V({K},{K}) -> V({K},{K}); }}\n"
)


@pytest.mark.parametrize(
    "text, argv, words",
    [
        # The verdict words at K = 1000, from the per-point builder.
        (LOOP, ["analyze"], ["Yes", "Yes", "Yes", "Yes", "NonDilated"]),
        (PAIR, ["analyze"], ["Yes", "Yes", "Yes", "No", "NonDilated"]),
        (PAIR, ["cubulate", "--all-matchings", "--json"], ["Found"] + ["NonDilated"] * 2),
    ],
    ids=["loop-analyze", "pair-analyze", "pair-all-matchings"],
)
def test_wall_graph_work_does_not_grow_with_coordinates(
    capsys, tmp_path, text, argv, words
):
    """A billion intersection points on one edge: the per-point builder
    listed every one."""
    path = tmp_path / "h.tub"
    path.write_text(text)
    assert main(argv + [str(path)]) == 0
    out = capsys.readouterr().out
    if "--json" in argv:
        assert [r["verdict"] for r in json.loads(out)] == words
    else:
        assert [line.split(": ")[1].split(" [")[0] for line in out.splitlines()] == words
    g = parse(text)
    s = equitable_search(g, 3, 3)
    arcs = wall_graph(g, s).arcs
    assert len(arcs) <= sum(len(s.at(e.src)) * len(s.at(e.dst)) for e in g.edges)
    points = sum(abs(det2(x, e.v)) for e in g.edges for x in s.at(e.src))
    assert points >= K and sum(a.count for a in arcs) == points


def test_all_matchings_past_machine_integers(capsys, tmp_path):
    """The spectrum of one loop with N points per circle reads the same for
    every N: the rank search once took len() of range(1, N + 1), which
    overflows at 2^63."""
    outs = []
    for n in (10**6, 2**63, 10**60):
        path = tmp_path / "h.tub"
        path.write_text(f"group h {{ vertex V; edge e : V({n},0) -> V({n},0); }}\n")
        assert main(["cubulate", "--all-matchings", "--json", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert [r["verdict"] for r in json.loads(outs[0])] == ["Found"] + ["NonDilated"] * 2


@pytest.mark.parametrize(
    "a, b, shape",
    [([1] * 12, [1] * 12, (1, 1)), ([2] * 15, [1] * 30, (1, 2))],
    ids=["12x1", "15x2"],
)
def test_groupings_with_circles_of_one_point(a, b, shape):
    """A group holding n points on each side has at most n + 1 circles, so
    here every group has `shape`, while most balanced sets of circles are
    larger; the listing must not try each of them before the first yield."""
    t0 = time.process_time()
    groupings = list(itertools.islice(_groupings(a, b), 1001))
    assert time.process_time() - t0 < 1
    assert len(groupings) == 1001
    assert {(len(L), len(R)) for grouping in groupings for L, R in grouping} == {shape}


def test_eg2_double_equitable_sets_and_spectra():
    """The reported set is dilated under every matching, and a second set
    with coordinates up to 2 is dilated under none: the `dilation` row
    describes the reported set, which the certificate carries."""
    g = corpus_entry("eg2-double").presentation
    reported = EquitableSet((("g1.V", (V(0, 1), V(1, 0))), ("g2.V", (V(0, 1), V(2, -1)))))
    other = EquitableSet((("g1.V", (V(0, 1), V(1, 0))), ("g2.V", (V(1, -1), V(-1, -1)))))
    assert equitable_search(g, 3, 3) == reported
    assert all_matching_verdicts(g, reported) == ({True}, True)
    assert all_matching_verdicts(g, other) == ({False}, True)
    assert not dilation_decide(wall_graph(g, other)).dilated
