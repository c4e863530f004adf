"""Equitable sets, immersed-wall graphs, and the dilation holonomy check.

An equitable set assigns to each vertex a finite list of nonzero vectors
(circles on the vertex torus) such that across every edge the two ends see the
same total intersection number, and each vertex's circles span a finite-index
subgroup.  Its existence certifies a free action on a CAT(0) cube complex.

Walls are built by joining the intersection points on the two sides of each
edge bijectively; each arc carries the positive rational weight
|det[v_e, s_src]| / |det[w_e, s_dst]|.  The dual cube complex is finite
dimensional exactly when every cycle of arcs has multiplicative holonomy 1
(the wall is non-dilated).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    IntVec2,
    Rat,
    TubularPresentation,
    VertexId,
    det2,
)

Pair = tuple[IntVec2, IntVec2]
Circle = tuple[VertexId, int]  # vertex id + index into that vertex's circle list


@dataclass(frozen=True)
class EquitableSet:
    """Per-vertex circle lists.  Repeated vectors are allowed; a repeated
    primitive vector is equivalent to a single longer multiple of it."""

    sets: tuple[tuple[VertexId, tuple[IntVec2, ...]], ...]

    def at(self, vertex: VertexId) -> tuple[IntVec2, ...]:
        for vid, vecs in self.sets:
            if vid == vertex:
                return vecs
        raise KeyError(vertex)

    @staticmethod
    def single(vectors: list[IntVec2], vertex: VertexId = "V") -> "EquitableSet":
        return EquitableSet(((vertex, tuple(vectors)),))


def verify_equitable(g: TubularPresentation, s: EquitableSet) -> bool:
    """Exact check of both equitable-set conditions: balanced intersection
    sums on every edge, and an independent pair of circles at every vertex."""
    try:
        circles = {v: s.at(v) for v in g.vertices}
    except KeyError:
        return False
    for vecs in circles.values():
        if any(x.is_zero() for x in vecs):
            return False
        if not _has_independent_pair(vecs):
            return False
    for e in g.edges:
        left = sum(abs(det2(x, e.v)) for x in circles[e.src])
        right = sum(abs(det2(x, e.w)) for x in circles[e.dst])
        if left != right:
            return False
    return True


def _has_independent_pair(vecs: tuple[IntVec2, ...]) -> bool:
    return any(
        det2(vecs[i], vecs[j]) != 0
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
    )


class CanonicalSetError(ValueError):
    """Raised when the two-element canonical set's determinant preconditions
    fail; carries the failing edge index and the mismatched |det| values."""

    def __init__(self, edge_index: int, pairs: tuple[tuple[int, int], ...]):
        self.edge_index = edge_index
        self.pairs = pairs
        super().__init__(
            f"edge {edge_index}: determinant conditions fail, |det| pairs {pairs}"
        )


def canonical_th3_set(edges: list[Pair], vertex: VertexId = "V") -> EquitableSet:
    """The canonical two-element equitable set {w1 - v1, w1 + v1}, valid when
    (v1, w1) is independent (reindexing to the first independent pair) and both
    determinant families agree up to sign."""
    base = next((i for i, (v, w) in enumerate(edges) if det2(v, w) != 0), None)
    if base is None:
        raise ValueError("no linearly independent attaching pair")
    v1, w1 = edges[base]
    z1, z2 = w1 - v1, w1 + v1
    for i, (v, w) in enumerate(edges):
        d1v, d1w = abs(det2(z1, v)), abs(det2(z1, w))
        d2v, d2w = abs(det2(z2, v)), abs(det2(z2, w))
        if d1v != d1w or d2v != d2w:
            raise CanonicalSetError(i, ((d1v, d1w), (d2v, d2w)))
    return EquitableSet.single([z1, z2], vertex)


def _candidate_vectors(coord_bound: int) -> list[IntVec2]:
    """Primitive vectors with |coords| <= bound, sign-normalized (first
    nonzero coordinate positive), in lexicographic order."""
    import math

    out = []
    for x in range(0, coord_bound + 1):
        for y in range(-coord_bound, coord_bound + 1):
            if x == 0 and y <= 0:
                continue
            if x > 0 or y > 0:
                if math.gcd(x, abs(y)) == 1:
                    out.append(IntVec2(x, y))
    out.sort(key=lambda v: (v.x, v.y))
    return out


@dataclass(frozen=True)
class NotFound:
    coord_bound: int
    size_bound: int


def equitable_search(
    g: TubularPresentation, coord_bound: int, size_bound: int
) -> EquitableSet | NotFound:
    """Bounded exhaustive search for an equitable set.

    Candidate circles are primitive sign-normalized vectors with coordinates
    up to coord_bound; each vertex receives a multiset of at most size_bound
    of them (repeats emulate non-primitive circles).  Enumeration order is
    fixed (sizes, then lexicographic multisets), so the first valid set is
    deterministic.  NotFound is relative to the bounds, never a proof that no
    equitable set exists.
    """
    if coord_bound < 1 or size_bound < 1:
        raise ValueError("bounds must be >= 1")
    cands = _candidate_vectors(coord_bound)
    # Precompute each candidate's |det| against every edge-end it could meet.
    ends: dict[VertexId, list[tuple[int, IntVec2, int]]] = {v: [] for v in g.vertices}
    for ei, e in enumerate(g.edges):
        ends[e.src].append((ei, e.v, 0))
        ends[e.dst].append((ei, e.w, 1))

    per_vertex: dict[VertexId, list[tuple[tuple[IntVec2, ...], tuple[int, ...]]]] = {}
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

    for assignment in itertools.product(*(per_vertex[v] for v in g.vertices)):
        chosen = {v: assignment[i] for i, v in enumerate(g.vertices)}
        ok = True
        for ei, e in enumerate(g.edges):
            left = _end_sum(chosen, ends, e.src, ei, 0)
            right = _end_sum(chosen, ends, e.dst, ei, 1)
            if left != right:
                ok = False
                break
        if ok:
            return EquitableSet(
                tuple((v, chosen[v][0]) for v in g.vertices)
            )
    return NotFound(coord_bound, size_bound)


def _end_sum(chosen, ends, vertex, edge_index, side) -> int:
    for pos, (ei, _, sd) in enumerate(ends[vertex]):
        if ei == edge_index and sd == side:
            return chosen[vertex][1][pos]
    raise AssertionError("edge end not found")


@dataclass(frozen=True)
class Arc:
    """One connecting arc of an immersed wall, directed with its edge."""

    edge_id: str
    edge_label: str
    src_circle: Circle
    dst_circle: Circle
    weight: Rat
    index: int  # position among the edge's intersection points


@dataclass(frozen=True)
class WallGraph:
    """Circles as nodes, connecting arcs as weighted directed edges, plus the
    matching record (per edge, the circle pairing of intersection points)."""

    nodes: tuple[Circle, ...]
    arcs: tuple[Arc, ...]
    matchings: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]


def wall_graph(
    g: TubularPresentation, s: EquitableSet, matchings: dict[str, tuple] | None = None
) -> WallGraph:
    """Build the wall graph for an equitable set.

    Intersection points on each side of an edge are listed circle-by-circle in
    circle order; by default the order-preserving bijection matches them.  An
    explicit matching (permutation of the right-hand point list, per edge id)
    may be supplied to explore alternatives.
    """
    if not verify_equitable(g, s):
        raise ValueError("wall_graph requires an equitable set")
    nodes = tuple(
        (v, i) for v in g.vertices for i in range(len(s.at(v)))
    )
    arcs: list[Arc] = []
    match_record = []
    for e in g.edges:
        left_pts: list[int] = []
        for i, x in enumerate(s.at(e.src)):
            left_pts.extend([i] * abs(det2(x, e.v)))
        right_pts: list[int] = []
        for j, x in enumerate(s.at(e.dst)):
            right_pts.extend([j] * abs(det2(x, e.w)))
        assert len(left_pts) == len(right_pts)
        if matchings and e.id in matchings:
            right_order = list(matchings[e.id])
            if sorted(right_order) != sorted(right_pts):
                raise ValueError(f"invalid matching for edge {e.id}")
        else:
            right_order = right_pts
        pairing = tuple(zip(left_pts, right_order))
        match_record.append((e.id, pairing))
        for k, (i, j) in enumerate(pairing):
            w = Fraction(
                abs(det2(e.v, s.at(e.src)[i])), abs(det2(e.w, s.at(e.dst)[j]))
            )
            arcs.append(
                Arc(e.id, e.label or e.id, (e.src, i), (e.dst, j), w, k)
            )
    return WallGraph(nodes, tuple(arcs), tuple(match_record))


@dataclass(frozen=True)
class DilationVerdict:
    dilated: bool
    # (arc, direction) pairs forming a closed cycle whose weight product
    # differs from 1; present exactly when dilated.
    witness_cycle: tuple[tuple[Arc, int], ...] = ()
    holonomy: Rat | None = None


def dilation_decide(w: WallGraph) -> DilationVerdict:
    """Check that every cycle's multiplicative holonomy equals 1.

    Per connected component, potentials are propagated along a spanning tree
    (traversing an arc forward multiplies by its weight, backward divides);
    every non-tree arc must then close up exactly.  Holonomy is a cycle
    invariant, so the verdict does not depend on the tree.
    """
    adj: dict[Circle, list[tuple[int, int]]] = {n: [] for n in w.nodes}
    for ai, arc in enumerate(w.arcs):
        adj[arc.src_circle].append((ai, +1))
        adj[arc.dst_circle].append((ai, -1))
    potential: dict[Circle, Rat] = {}
    parent: dict[Circle, tuple[Circle, int, int] | None] = {}
    for root in w.nodes:
        if root in potential:
            continue
        potential[root] = Fraction(1)
        parent[root] = None
        stack = [root]
        tree_arcs = set()
        while stack:
            node = stack.pop()
            for ai, direction in adj[node]:
                arc = w.arcs[ai]
                other = arc.dst_circle if direction == +1 else arc.src_circle
                if other not in potential:
                    factor = arc.weight if direction == +1 else 1 / arc.weight
                    potential[other] = potential[node] * factor
                    parent[other] = (node, ai, direction)
                    tree_arcs.add(ai)
                    stack.append(other)
        # Check all non-tree arcs in this component.
        for ai, arc in enumerate(w.arcs):
            if ai in tree_arcs or arc.src_circle not in potential:
                continue
            if arc.src_circle in parent and arc.dst_circle in parent:
                holonomy = potential[arc.src_circle] * arc.weight / potential[
                    arc.dst_circle
                ]
                if holonomy != 1:
                    cycle = _fundamental_cycle(w, parent, ai)
                    return DilationVerdict(True, cycle, _cycle_holonomy(cycle))
    return DilationVerdict(False)


def _tree_path(parent, node: Circle) -> list[tuple[int, int]]:
    """Arc steps from the component root down to `node` (as (arc index, dir))."""
    steps = []
    while parent[node] is not None:
        prev, ai, direction = parent[node]
        steps.append((ai, direction))
        node = prev
    steps.reverse()
    return steps


def _fundamental_cycle(w: WallGraph, parent, ai: int) -> tuple[tuple[Arc, int], ...]:
    arc = w.arcs[ai]
    to_src = _tree_path(parent, arc.src_circle)
    to_dst = _tree_path(parent, arc.dst_circle)
    # Drop the common prefix so the path runs dst -> lca -> src.
    k = 0
    while k < len(to_src) and k < len(to_dst) and to_src[k] == to_dst[k]:
        k += 1
    steps: list[tuple[int, int]] = []
    for aj, d in reversed(to_dst[k:]):
        steps.append((aj, -d))
    steps.extend(to_src[k:])
    steps.append((ai, +1))
    return tuple((w.arcs[aj], d) for aj, d in steps)


def _cycle_holonomy(cycle: tuple[tuple[Arc, int], ...]) -> Rat:
    h = Fraction(1)
    for arc, d in cycle:
        h = h * arc.weight if d == +1 else h / arc.weight
    return h


def all_matching_verdicts(
    g: TubularPresentation, s: EquitableSet, budget: int = 10000
) -> tuple[set[bool], bool]:
    """Dilation verdicts over all distinct point matchings, up to a budget of
    wall graphs.  Returns (set of dilated flags, whether the enumeration was
    exhausted within budget)."""
    per_edge: list[tuple[str, list[tuple]]] = []
    for e in g.edges:
        right_pts: list[int] = []
        for j, x in enumerate(s.at(e.dst)):
            right_pts.extend([j] * abs(det2(x, e.w)))
        perms = sorted({p for p in itertools.permutations(right_pts)})
        per_edge.append((e.id, perms))
    verdicts: set[bool] = set()
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


def export_arcs_text(w: WallGraph) -> str:
    """Deterministic edge-list export: one arc per line."""
    lines = []
    for arc in w.arcs:
        lines.append(
            f"{arc.edge_label} {arc.src_circle[0]}:{arc.src_circle[1]} "
            f"{arc.dst_circle[0]}:{arc.dst_circle[1]} "
            f"{arc.weight.numerator}/{arc.weight.denominator}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def export_dot(w: WallGraph) -> str:
    """DOT export of the wall graph for visualization."""
    lines = ["digraph wall {"]
    for v, i in w.nodes:
        lines.append(f'  "{v}:{i}";')
    for arc in w.arcs:
        lines.append(
            f'  "{arc.src_circle[0]}:{arc.src_circle[1]}" -> '
            f'"{arc.dst_circle[0]}:{arc.dst_circle[1]}" '
            f'[label="{arc.edge_label} {arc.weight.numerator}/{arc.weight.denominator}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

