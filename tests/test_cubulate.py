import itertools
import math
import random
from fractions import Fraction

import pytest

import tubular.cubulate
from tubular.core import IntVec2, det2, single_vertex_presentation
from tubular.corpus import bs12_shape, gersten_presentation, lyman_psi
from tubular.cubulate import (
    CanonicalSetError,
    EquitableSet,
    NotFound,
    all_matching_verdicts,
    canonical_th3_set,
    dilation_decide,
    equitable_search,
    export_arcs_text,
    export_dot,
    verify_equitable,
    wall_graph,
)
from tubular.special import Answer, gpq_to_tubular, vspecial_sufficient

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


def test_canonical_set_eg2_golden():
    s = canonical_th3_set([(V(1, 0), V(0, 1))])
    assert s.at("V") == (V(-1, 1), V(1, 1))


def test_canonical_set_rejects_gersten():
    with pytest.raises(CanonicalSetError) as exc:
        canonical_th3_set(gersten_presentation().single_vertex_pairs())
    assert exc.value.edge_index == 1


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


def test_lyman_canonical_set_non_dilated():
    g = gpq_to_tubular(lyman_psi(1, 1))
    s = canonical_th3_set(g.single_vertex_pairs())
    assert verify_equitable(g, s)
    assert not dilation_decide(wall_graph(g, s)).dilated


def test_wall_graph_structure_gersten():
    g = gersten_presentation()
    s = EquitableSet.single([V(0, 1), V(2, 1)])
    w = wall_graph(g, s)
    assert w.nodes == (("V", 0), ("V", 1))
    # Each edge contributes 2 intersection points, so 4 arcs total.
    assert len(w.arcs) == 4
    weights = sorted(a.weight for a in w.arcs)
    assert all(wt > 0 for wt in weights)


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


def test_all_matchings_spectrum_gersten():
    g = gersten_presentation()
    s = equitable_search(g, 3, 3)
    verdicts, complete = all_matching_verdicts(g, s)
    assert complete
    assert True in verdicts  # the default matching is dilated


def _all_matching_verdicts_oracle(g, s, budget=10000):
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
    count = 0
    complete = True
    for combo in itertools.product(*(perms for _, perms in per_edge)):
        if count >= budget:
            complete = False
            break
        count += 1
        matching = {eid: perm for (eid, _), perm in zip(per_edge, combo)}
        verdicts.add(dilation_decide(wall_graph(g, s, matching)).dilated)
    return verdicts, complete


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


def test_all_matchings_agrees_with_eager_oracle():
    rng = random.Random(20261018)
    for _ in range(200):
        g = _planted_spectrum_input(rng)
        s = equitable_search(g, 3, 3)
        assert isinstance(s, EquitableSet), g
        for budget in (1, 3, 7, 50, 10000):
            assert all_matching_verdicts(g, s, budget) == _all_matching_verdicts_oracle(
                g, s, budget
            ), (g, budget)


def test_all_matchings_decides_each_support_once(monkeypatch):
    """Thirteen points on one circle have a single distinct ordering; the
    eager enumerator built all 13! orderings of them first."""
    calls = []
    decide = tubular.cubulate.dilation_decide

    def counted(w):
        calls.append(w)
        return decide(w)

    monkeypatch.setattr(tubular.cubulate, "dilation_decide", counted)
    g = single_vertex_presentation([(V(1, 0), V(0, 1)), (V(13, 0), V(13, 0))])
    s = equitable_search(g, 3, 3)
    assert s.at("V") == (V(0, 1), V(1, 0))
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert len(calls) == 1
    # Three points on each of two circles: 20 orderings realize only three
    # circle-pair sets (00 and 11, 01 and 10, all four), so three walls.
    calls.clear()
    g = single_vertex_presentation([(V(1, 0), V(0, 1)), (V(3, 3), V(3, 3))])
    s = equitable_search(g, 3, 3)
    assert s.at("V") == (V(0, 1), V(1, 0))
    assert all_matching_verdicts(g, s) == ({False}, True)
    assert len(calls) == 3


def test_exports_are_deterministic():
    g = gersten_presentation()
    s = EquitableSet.single([V(0, 1), V(2, 1)])
    w = wall_graph(g, s)
    text, dot = export_arcs_text(w), export_dot(w)
    assert text == export_arcs_text(wall_graph(g, s))
    assert dot.startswith("digraph wall {")
    assert text.count("\n") == len(w.arcs)
