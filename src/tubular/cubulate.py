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

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Edge,
    IntVec2,
    Pair,
    Rat,
    TubularPresentation,
    VertexId,
    det2,
)

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
    out = []
    for x in range(0, coord_bound + 1):
        for y in range(-coord_bound, coord_bound + 1):
            if x == 0 and y <= 0:
                continue
            if math.gcd(x, abs(y)) == 1:
                out.append(IntVec2(x, y))
    return out


@dataclass(frozen=True)
class NotFound:
    coord_bound: int
    size_bound: int


TABLE_LIMIT = 10**6


@functools.lru_cache(maxsize=16)
def _search_table(
    coord_bound: int, size_bound: int
) -> tuple[tuple[IntVec2, ...], tuple[tuple[int, ...], ...]]:
    """The candidate circles, and every multiset of size_bound - 1 or fewer
    candidate indices in (size, lexicographic) order.  Bounds under which a
    vertex's stream could list over TABLE_LIMIT multisets of 1..size_bound
    candidates raise ValueError; the count stops once it passes the limit."""
    n = k = 0  # 4 (phi(1) + ... + phi(k)) candidates have coordinates up to k
    while k < coord_bound and n <= TABLE_LIMIT:
        k += 1
        n += 4 * sum(math.gcd(k, y) == 1 for y in range(k))
    entries, term, s = 0, 1, 0  # and comb(n + s - 1, s) multisets have size s
    while s < size_bound and entries <= TABLE_LIMIT:
        s += 1
        term = term * (n + s - 1) // s
        entries += term
    if entries > TABLE_LIMIT:
        bounds = coord_bound, size_bound
        raise ValueError(f"bounds {bounds} need a table of over {TABLE_LIMIT} entries")
    cands = tuple(_candidate_vectors(coord_bound))
    prefixes = tuple(
        p
        for size in range(1, size_bound)
        for p in itertools.combinations_with_replacement(range(len(cands)), size)
    )
    return cands, prefixes


def _balanced_multisets(
    coord_bound: int,
    size_bound: int,
    loops: list[Edge],
    back: list[IntVec2],
    ahead: list[IntVec2],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """A vertex's multisets of candidate indices that balance its loops and
    hold an independent pair, in (size, lexicographic) order, with their
    intersection sums against the vectors `back` and `ahead`; of multisets
    with the same sums only the first is listed.

    Each candidate gets one integer vector: its imbalance |det(c, v)| -
    |det(c, w)| on every loop, then its |det| against every back and ahead
    vector.  A multiset balances its loops when its imbalances sum to zero,
    so the last circle after a prefix is any candidate from the prefix's
    last one on whose imbalances are the negated sums of the prefix: one
    dict lookup and a bisect.
    """
    cands, prefixes = _search_table(coord_bound, size_bound)
    n, b = len(loops), len(back)
    vecs = [
        tuple(abs(det2(c, e.v)) - abs(det2(c, e.w)) for e in loops)
        + tuple(abs(det2(c, u)) for u in back + ahead)
        for c in cands
    ]
    closing: dict[tuple[int, ...], list[int]] = {}
    for k, vec in enumerate(vecs):
        closing.setdefault(tuple(-x for x in vec[:n]), []).append(k)
    seen = set()
    for p in prefixes:
        total = vecs[p[0]]
        for k in p[1:]:
            total = tuple(map(operator.add, total, vecs[k]))
        last = closing.get(total[:n], ())
        # Distinct candidates are never parallel, so a prefix of one
        # repeated circle needs a different, later one.
        for k in last[bisect.bisect_left(last, p[-1] + (p[0] == p[-1])) :]:
            sums = tuple(map(operator.add, total[n:], vecs[k][n:]))
            if sums not in seen:
                seen.add(sums)
                yield p + (k,), sums[:b], sums[b:]


def equitable_search(
    g: TubularPresentation, coord_bound: int, size_bound: int
) -> EquitableSet | NotFound:
    """Bounded exhaustive search for an equitable set.

    Candidate circles are primitive sign-normalized vectors with coordinates
    up to coord_bound; each vertex receives a multiset of at most size_bound
    of them (repeats emulate non-primitive circles), listed by size and then
    lexicographically.  The set returned is the first in the order of the
    product of the per-vertex lists, so it is deterministic.  NotFound is
    relative to the bounds, never a proof that no equitable set exists.
    Bounds below 1, or whose table passes TABLE_LIMIT, raise ValueError.

    The first set is found without listing the product:

    - The candidates and the shorter multisets are tabled once per pair of
      bounds.  A vertex's multisets that balance its loops come from one
      lazy stream that finds each multiset's last circle by a lookup
      (`_balanced_multisets`).
    - Connected components do not constrain each other, and the first set
      of a product is made of the first set of each factor, so each
      component is searched alone.
    - A component's vertices are walked in order, depth first.  A vertex's
      options are its stream grouped by the sums against its edges to
      earlier vertices, as it is consumed, so each such edge is checked
      once, by a key lookup at its later end.
    - A vertex's frontier key is the tuple of sums at the earlier ends of
      the edges that cross into it or past it.  The later vertices depend
      on the earlier choices only through it.  So a key whose subtree
      failed is recorded as dead, and of a vertex's multisets with the same
      sums on all its edges only the first is tried.
    - When a vertex runs out of options, the walk goes back one vertex,
      to its next option.
    - A vertex is checked early, after each earlier vertex that its edges
      back start at, except the one just before it: the sums fixed so far
      must begin one of its keys.

    Only subtrees known to fail are skipped, so the set found is the one a
    plain walk of the product finds.
    """
    if coord_bound < 1 or size_bound < 1:
        raise ValueError("bounds must be >= 1")
    cands, _ = _search_table(coord_bound, size_bound)
    part = {v: {v} for v in g.vertices}  # per vertex, its component
    for e in g.edges:
        if part[e.src] is not part[e.dst]:
            merged = part[e.src] | part[e.dst]
            part.update(dict.fromkeys(merged, merged))
    chosen: dict[VertexId, tuple[int, ...]] = {}
    for v in g.vertices:
        if v not in chosen:
            vertices = [u for u in g.vertices if u in part[v]]
            found = _search_component(g, vertices, coord_bound, size_bound)
            if found is None:
                return NotFound(coord_bound, size_bound)
            chosen.update(zip(vertices, found))
    return EquitableSet(
        tuple((v, tuple(cands[c] for c in chosen[v])) for v in g.vertices)
    )


def _search_component(
    g: TubularPresentation, vertices: list[VertexId], coord_bound: int, size_bound: int
) -> list[tuple[int, ...]] | None:
    """The first multisets of candidate indices, one per vertex of a
    connected component in vertex order, that balance every edge, or None;
    see `equitable_search`."""
    pos = {v: i for i, v in enumerate(vertices)}
    # Non-loop edges as (earlier position, later position, vector at the
    # earlier end, vector at the later end), by earlier position, so the
    # edges that leave a vertex forward are a slice.
    spans = []
    for e in g.edges:
        if e.src != e.dst and e.src in pos:
            a, b = pos[e.src], pos[e.dst]
            spans.append((a, b, e.v, e.w) if a < b else (b, a, e.w, e.v))
    spans.sort(key=lambda span: span[0])
    starts = [a for a, _, _, _ in spans]
    cut, back, ahead, streams = [], [], [], []
    for i, v in enumerate(vertices):
        cut.append([k for k, (a, b, _, _) in enumerate(spans) if a < i <= b])
        back.append([k for k, (_, b, _, _) in enumerate(spans) if b == i])
        ahead.append(slice(bisect.bisect_left(starts, i), bisect.bisect_right(starts, i)))
        ends = [spans[k][3] for k in back[i]], [u for _, _, u, _ in spans[ahead[i]]]
        streams.append(_balanced_multisets(coord_bound, size_bound, g.loops_at(v), *ends))
    grouped: list[dict] = [{} for _ in vertices]  # per vertex: need -> options

    def option(i: int, need: tuple[int, ...] | None, k: int) -> tuple | None:
        """Vertex i's k-th (multiset, sums at its edges forward) among those
        with sums `need` at its edges back, or None."""
        group = grouped[i].setdefault(need, [])
        if k == len(group):  # an exhausted stream lists nothing more
            for combo, sums, forward in streams[i]:
                grouped[i].setdefault(sums, []).append((combo, forward))
                if sums == need:
                    break
        return group[k] if k < len(group) else None

    # Per vertex i, the early checks due after it: a later vertex j's edges
    # back from i or before, with the sums on them that begin one of j's
    # keys (j's edges back are listed by earlier end).  Right after j - 1,
    # j itself looks its key up.
    checks: list[list] = [[] for _ in vertices]
    for j, ks in enumerate(back):
        for i in {starts[k] for k in ks} - {j - 1}:
            option(j, None, 0)  # no need is None: lists all of j's options
            fixed = [k for k in ks if starts[k] <= i]
            heads = {need[: len(fixed)] for need, group in grouped[j].items() if group}
            checks[i].append((fixed, heads))

    front = [0] * len(spans)  # per edge, the sum at its earlier end
    dead: list[set[tuple[int, ...]]] = [set() for _ in vertices]
    frames: list[list] = []  # per vertex reached: [key, need, options tried, multiset]
    i = 0
    while 0 <= i < len(vertices):
        if i == len(frames):
            key = tuple(map(front.__getitem__, cut[i]))
            need = None if key in dead[i] else tuple(map(front.__getitem__, back[i]))
            frames.append([key, need, 0, None])
        key, need, k, _ = frame = frames[i]
        found = None if need is None else option(i, need, k)
        if found is None:
            dead[i].add(key)
            frames.pop()
            i -= 1
        else:
            frame[2:] = k + 1, found[0]
            front[ahead[i]] = found[1]
            for ks, heads in checks[i]:
                if tuple(map(front.__getitem__, ks)) not in heads:
                    break
            else:
                i += 1
    return [combo for _, _, _, combo in frames] if frames else None


@dataclass(frozen=True)
class Arc:
    """The connecting arcs of an immersed wall that join `count` intersection
    points of one circle pair across an edge, directed with the edge.  They
    share their ends and weight, so one stands for all in every holonomy."""

    edge_label: str
    src_circle: Circle
    dst_circle: Circle
    weight: Rat
    count: int = 1


@dataclass(frozen=True)
class WallGraph:
    """Circles as nodes, connecting arcs as weighted directed edges."""

    nodes: tuple[Circle, ...]
    arcs: tuple[Arc, ...]


def wall_graph(g: TubularPresentation, s: EquitableSet) -> WallGraph:
    """Build the wall graph for an equitable set.

    Intersection points on each side of an edge are listed circle-by-circle in
    circle order, and the order-preserving bijection matches them.  The points
    it joins from left circle i to right circle j form one run, one `Arc` with
    their count.  Point p lies on the first circle whose cumulative count A_i
    or B_j exceeds p, so the runs are the northwest-corner rule on A and B,
    and the work does not grow with the number of points.  A run of n points
    from left circle i to right circle j has weight a_i / b_j.
    """
    arcs = []
    for e, (a, b) in zip(g.edges, _point_counts(g, s, "wall_graph")):
        A, B = list(itertools.accumulate(a)), list(itertools.accumulate(b))
        for p, q in itertools.pairwise([0] + sorted({*A, *B} - {0})):
            i, j = bisect.bisect(A, p), bisect.bisect(B, p)
            arcs.append(Arc(e.id, (e.src, i), (e.dst, j), Fraction(a[i], b[j]), q - p))
    nodes = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    return WallGraph(nodes, tuple(arcs))


def _point_counts(g: TubularPresentation, s: EquitableSet, caller: str) -> list:
    """Per edge, the points on each left circle and on each right circle."""
    if not verify_equitable(g, s):
        raise ValueError(f"{caller} requires an equitable set")
    ends = [((e.src, e.v), (e.dst, e.w)) for e in g.edges]
    return [tuple([abs(det2(x, u)) for x in s.at(v)] for v, u in end) for end in ends]


@dataclass(frozen=True)
class DilationVerdict:
    dilated: bool
    # (arc, direction) pairs forming a closed cycle whose weight product
    # differs from 1; present exactly when dilated.
    witness_cycle: tuple[tuple[Arc, int], ...] = ()
    holonomy: Rat | None = None


def dilation_decide(w: WallGraph) -> DilationVerdict:
    """Check that every cycle of the wall graph has multiplicative holonomy
    1; when one does not, return the first cycle `holonomy_cycle` finds."""
    found = holonomy_cycle(
        w.nodes,
        [(a.src_circle, a.dst_circle, a.weight.numerator, a.weight.denominator) for a in w.arcs],
    )
    if found is None:
        return DilationVerdict(False)
    steps, holonomy = found
    return DilationVerdict(True, tuple((w.arcs[i], d) for i, d in steps), holonomy)


def holonomy_cycle(
    nodes: Sequence[Hashable], arcs: Sequence[tuple[Hashable, Hashable, int, int]]
) -> tuple[list[tuple[int, int]], Rat] | None:
    """The first cycle of a graph whose multiplicative holonomy is not 1, as
    (arc index, direction) steps, with that holonomy; None when every cycle
    has holonomy 1.  Arc (src, dst, m, n) has the weight m/n, for positive
    integers m and n that need not be coprime.

    Per connected component, taken in the order of their first node, a
    depth-first spanning tree assigns each node a potential p/q, kept as a
    pair of coprime integers (traversing an arc forward multiplies by its
    weight, backward divides).  The component's non-tree arcs are then
    checked once each, in index order, by cross-multiplying: arc i from a
    to b closes a cycle of holonomy potential[a]·m/n/potential[b], which
    runs from b up the tree to the common ancestor, down to a, and over arc
    i.  Only that holonomy is returned as a Fraction.  Holonomy is a cycle
    invariant, so whether a cycle is found does not depend on the tree.
    """
    adj: dict[Hashable, list[tuple[int, int, Hashable]]] = {n: [] for n in nodes}
    for i, (src, dst, _, _) in enumerate(arcs):
        adj[src].append((i, +1, dst))
        adj[dst].append((i, -1, src))
    potential: dict[Hashable, tuple[int, int]] = {}
    parent: dict[Hashable, tuple[Hashable, int, int] | None] = {}

    def path(node: Hashable) -> list[tuple[int, int]]:
        steps = []
        while parent[node] is not None:
            node, i, d = parent[node]
            steps.append((i, d))
        return steps[::-1]

    for root in nodes:
        if root in potential:
            continue
        potential[root], parent[root] = (1, 1), None
        stack, seen, tree = [root], set(), set()
        while stack:
            node = stack.pop()
            for i, d, other in adj[node]:
                seen.add(i)
                if other not in potential:
                    (p, q), (_, _, m, n) = potential[node], arcs[i]
                    p, q = (p * m, q * n) if d > 0 else (p * n, q * m)
                    k = math.gcd(p, q)
                    potential[other] = p // k, q // k
                    parent[other] = (node, i, d)
                    tree.add(i)
                    stack.append(other)
        for i in sorted(seen - tree):
            src, dst, m, n = arcs[i]
            (ps, qs), (pd, qd) = potential[src], potential[dst]
            if ps * m * qd != qs * n * pd:
                to_src, to_dst = path(src), path(dst)
                k = 0
                while k < min(len(to_src), len(to_dst)) and to_src[k] == to_dst[k]:
                    k += 1
                back = [(j, -d) for j, d in reversed(to_dst[k:])]
                return back + to_src[k:] + [(i, +1)], Fraction(ps * m * qd, qs * n * pd)
    return None


def all_matching_verdicts(
    g: TubularPresentation, s: EquitableSet, budget: int = 10000
) -> tuple[set[bool], bool]:
    """Dilation verdicts over every point matching of an equitable set, and
    whether they are complete.  An arc from left circle i to right circle j
    has weight a_i / b_j, so in a connected group of an edge's arcs every
    circle's potential times its point count is the same: the flag depends
    only on how each edge groups its circles (`_groupings`), and a tuple of
    per-edge groupings is dilated exactly when the equalities of its groups
    have no solution.  Each such system is decided by `holonomy_cycle` on
    star arcs (`_consistent`).  Merging groups only adds equalities.
    Each grouping of an edge splits the one group of all its circles, and
    each of its groups is a union of blocks: the circles that share a group
    in every grouping of the edge.  So the flags are settled in three steps:

    - one group per edge is consistent: no tuple is dilated, and the
      default matching is a tuple, so the spectrum is NonDilated alone;
    - each edge has at most `budget` groupings, and their common blocks are
      inconsistent: every tuple is dilated;
    - otherwise the tuples of per-edge groupings (at most budget + 1 per
      edge) are decided one at a time until both flags show, or `budget`
      tuples are decided with more left: then the result is incomplete.

    A set that is not equitable raises ValueError at every budget.
    """
    counts = _point_counts(g, s, "all_matching_verdicts")
    if budget <= 0:
        return set(), False
    circles = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    ends = [  # per edge, its left and then its right circles with their points
        [((e.src, i), n) for i, n in enumerate(a)] + [((e.dst, j), n) for j, n in enumerate(b)]
        for e, (a, b) in zip(g.edges, counts)
    ]
    if _consistent(circles, [[c for c in end if c[1]] for end in ends]):
        return {False}, True
    per_edge = []  # per edge, each grouping as its groups of positions in `ends`
    for a, b in counts:
        groupings = itertools.islice(_groupings(a, b), budget + 1)
        per_edge.append([[[*L, *(len(a) + j for j in R)] for L, R in x] for x in groupings])
    if all(len(groupings) <= budget for groupings in per_edge):
        blocks: dict[tuple, list] = {}  # an edge's circles in one group in all its groupings
        for k, (end, groupings) in enumerate(zip(ends, per_edge)):
            tags = [{p: t for t, group in enumerate(x) for p in group} for x in groupings]
            for p, c in enumerate(end):
                if c[1]:
                    blocks.setdefault((k, *(tag[p] for tag in tags)), []).append(c)
        if not _consistent(circles, blocks.values()):
            return {True}, True
    choices = [
        [[[end[p] for p in group] for group in x] for x in groupings]
        for end, groupings in zip(ends, per_edge)
    ]
    tuples = itertools.product(*choices)
    verdicts = set()
    for key in itertools.islice(tuples, budget):
        verdicts.add(not _consistent(circles, itertools.chain(*key)))
        if len(verdicts) == 2:
            return verdicts, True
    return verdicts, next(tuples, None) is None


def _consistent(circles: Sequence[Circle], groups: Iterable[Sequence[tuple[Circle, int]]]) -> bool:
    """Whether positive potentials π exist with π(x)·n the same for every
    member (x, n) of each group: no cycle of holonomy other than 1 on the
    arcs of weight m/n from each group's first member (y, m) to each other
    member (x, n)."""
    arcs = [(y, x, m, n) for (y, m), *rest in groups for x, n in rest]
    return holonomy_cycle(circles, arcs) is None


def _groupings(a: list[int], b: list[int]) -> Iterator[tuple]:
    """Each way a matching of an edge's points, a_i on left circle i and b_j
    on right circle j, can split the circles holding points into connected
    groups (left circles, right circles).  A group occurs exactly when both
    sides hold the same number n of points and n >= |L| + |R| - 1, that is
    2 + sum(count - 2) >= 0 over its circles: each arc of a spanning tree
    needs a point, a bipartite tree exists for any degrees in 1..a_i and
    1..b_j that sum to |L| + |R| - 1, and the other points can go on any
    arc.  Groups occur independently.  By decreasing count, the first circle
    not yet placed opens a group, which takes or skips each later one and
    is dropped once they cannot meet both conditions."""

    def grow(group, todo, skipped, diff, spare) -> Iterator[tuple]:
        """The groupings that complete `group` from `todo`, then split what
        it skipped.  Right counts are negated; diff is the group's points,
        spare 2 plus its points less 2 per circle.  Counts above 2 in `todo`
        can add to spare; the lagging side's circles of 1 must take from it."""
        lag = [abs(n) for n, _ in todo if n * diff < 0]
        gain = sum(abs(n) - 2 for n, _ in todo if abs(n) > 2)
        if abs(diff) > sum(lag) or spare + gain < abs(diff) - sum(n for n in lag if n > 1):
            return
        if todo:
            n, rest = todo[0][0], todo[1:]
            yield from grow(group + todo[:1], rest, skipped, diff + n, spare + abs(n) - 2)
            if group:
                yield from grow(group, rest, skipped + todo[:1], diff, spare)
        elif not group:
            yield ()
        else:
            L, R = (tuple(sorted(i for n, i in group if side * n > 0)) for side in (1, -1))
            yield from (((L, R),) + tail for tail in grow([], skipped, [], 0, 2))

    ends = [(x, i) for i, x in enumerate(a) if x] + [(-y, j) for j, y in enumerate(b) if y]
    return grow([], sorted(ends, key=lambda c: -abs(c[0])), [], 0, 2)


def export_arcs_text(w: WallGraph) -> str:
    """Deterministic edge-list export, one line per arc: its edge, its two
    circles, its weight and the number of points it joins."""
    return "".join(
        f"{a.edge_label} {a.src_circle[0]}:{a.src_circle[1]} {a.dst_circle[0]}:{a.dst_circle[1]} "
        f"{a.weight.numerator}/{a.weight.denominator} {a.count}\n"
        for a in w.arcs
    )


def export_dot(w: WallGraph) -> str:
    """DOT export of the wall graph for visualization, one edge per arc with
    its number of points as the `count` attribute."""
    nodes = "".join(f'  "{v}:{i}";\n' for v, i in w.nodes)
    edges = "".join(
        f'  "{a.src_circle[0]}:{a.src_circle[1]}" -> "{a.dst_circle[0]}:{a.dst_circle[1]}" '
        f'[label="{a.edge_label} {a.weight.numerator}/{a.weight.denominator}", count={a.count}];\n'
        for a in w.arcs
    )
    return f"digraph wall {{\n{nodes}{edges}}}\n"
