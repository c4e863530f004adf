"""Equitable-set search, immersed-wall graphs, and the dilation holonomy check.

An equitable set (`core.EquitableSet`, checked by `core.verify_equitable`)
gives each vertex nonzero vectors (circles on its torus), with equal total
intersection numbers at the two ends of every edge and an independent pair at
each vertex.  It certifies a free action on a CAT(0) cube complex.

Walls are built by joining the intersection points on the two sides of each
edge bijectively; each arc carries the positive rational weight
|det[v_e, s_src]| / |det[w_e, s_dst]|.  The dual cube complex is finite
dimensional exactly when every cycle of arcs has multiplicative holonomy 1
(the wall is non-dilated), which `core.holonomy_cycle` decides.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Edge,
    EquitableSet,
    IntVec2,
    Rat,
    TubularPresentation,
    VertexId,
    det2,
    holonomy_cycle,
    line_of,
    verify_equitable,
)

Circle = tuple[VertexId, int]  # vertex id + index into that vertex's circle list


def _candidate_vectors(coord_bound: int) -> list[IntVec2]:
    """Primitive vectors with |coords| <= bound, sign-normalized (first
    nonzero coordinate positive), in lexicographic order: one per line."""
    box = range(-coord_bound, coord_bound + 1)
    lines = {line_of(x, y) for x in box for y in box if x or y}
    return [IntVec2(x, y) for x, y in sorted(lines)]


@dataclass(frozen=True)
class NotFound:
    coord_bound: int
    size_bound: int


TABLE_LIMIT = 10**6


@functools.lru_cache(maxsize=16)
def _search_table(
    coord_bound: int, size_bound: int
) -> tuple[tuple[IntVec2, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The candidate circles, and every multiset of size_bound - 1 or fewer
    candidate indices (a prefix) in (size, lexicographic) order, as index
    columns: one block per size, whose column j holds each prefix's j-th
    index.  Bounds under which a vertex's stream could list over TABLE_LIMIT
    multisets of 1..size_bound candidates raise ValueError; the count stops
    once it passes the limit."""
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
    blocks = tuple(
        tuple(zip(*itertools.combinations_with_replacement(range(len(cands)), size)))
        for size in range(1, size_bound)
    )
    return cands, blocks


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

    Each candidate gets two integers: its imbalances |det(c, v)| - |det(c, w)|
    on the loops, and its |det| against the back and ahead vectors, both
    vectors read as the digits of a number in balanced base B = 2 *
    size_bound * coord_bound * M + 2, where M is the largest |x| + |y| of the
    vertex's attaching vectors.  No digit of a sum of size_bound or fewer
    candidates' vectors reaches B / 2 in absolute value, so on such sums the
    linear map is one-to-one and an equality of integers is an equality of
    vectors.  A multiset balances its loops when its imbalances sum to zero,
    so the last circle after a prefix is any candidate from the prefix's
    last one on whose imbalance is the negated total of the prefix.  Each
    size's block of prefixes has its totals added up column by column, and
    the prefixes with a closing candidate picked out, by `map` and
    `itertools.compress`; the sums are unpacked into tuples only for a
    multiset that is listed.
    """
    cands, blocks = _search_table(coord_bound, size_bound)
    coords = [(c.x, c.y) for c in cands]

    def abs_dets(u: IntVec2) -> list[int]:
        """Each candidate's |det| against u."""
        ux, uy = u.x, u.y
        return [abs(x * uy - y * ux) for x, y in coords]

    vectors = [u for e in loops for u in (e.v, e.w)] + back + ahead
    norm = max((abs(u.x) + abs(u.y) for u in vectors), default=0)
    base = 2 * size_bound * coord_bound * norm + 2
    imbalances = [0] * len(cands)
    for e in loops:
        digits = zip(imbalances, abs_dets(e.v), abs_dets(e.w))
        imbalances = [t * base + a - b for t, a, b in digits]
    ends = [abs_dets(u) for u in back + ahead]  # the digits of `sums`
    sums = [0] * len(cands)
    for dets in ends:
        sums = [t * base + d for t, d in zip(sums, dets)]
    closing: dict[int, list[int]] = {}
    for k, imbalance in enumerate(imbalances):
        closing.setdefault(-imbalance, []).append(k)
    b = len(back)
    seen = set()
    for columns in blocks:
        totals = list(map(imbalances.__getitem__, columns[0]))
        for column in columns[1:]:
            totals = list(map(operator.add, totals, map(imbalances.__getitem__, column)))
        for i in itertools.compress(range(len(totals)), map(closing.__contains__, totals)):
            p = tuple(column[i] for column in columns)
            prefix_sum = sum(map(sums.__getitem__, p))
            last = closing[totals[i]]
            # Distinct candidates are never parallel, so a prefix of one
            # repeated circle needs a different, later one.
            for k in last[bisect.bisect_left(last, p[-1] + (p[0] == p[-1])) :]:
                if (key := prefix_sum + sums[k]) not in seen:
                    seen.add(key)
                    combo = p + (k,)
                    total = tuple(sum(map(dets.__getitem__, combo)) for dets in ends)
                    yield combo, total[:b], total[b:]


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
      bounds, the multisets as one block of index columns per size.  A
      vertex's multisets that balance its loops come from one lazy stream
      that packs each candidate's vectors into integers, adds up a block's
      columns at a time, and finds each multiset's last circle by a lookup
      (`_balanced_multisets`).
    - Connected components do not constrain each other, and the first set
      of a product is made of the first set of each factor, so the vertices
      are walked with each component contiguous: components in the order of
      their first vertex, presentation order inside each.  The edges are
      read once, into each vertex's loops, edges back and frontier.
    - The vertices are walked in that order, depth first.  A vertex's
      options are its stream grouped by the sums against its edges to
      earlier vertices, as it is consumed, so each such edge is checked
      once, by a key lookup at its later end.
    - A vertex's frontier key is the tuple of sums at the earlier ends of
      the edges that cross into it or past it.  The later vertices depend
      on the earlier choices only through it.  So a key whose subtree
      failed is recorded as dead, and of a vertex's multisets with the same
      sums on all its edges only the first is tried.
    - When a vertex runs out of options, the walk goes back one vertex,
      to its next option.  A vertex whose key is empty begins a component,
      and no earlier choice can help it, so when it runs out the search
      returns NotFound.
    - A vertex is checked early, after each earlier vertex that its edges
      back start at, except the one just before it: the sums fixed so far
      must begin one of its keys.

    Only subtrees known to fail are skipped, so the set found is the one a
    plain walk of the product finds.
    """
    if coord_bound < 1 or size_bound < 1:
        raise ValueError("bounds must be >= 1")
    cands, _ = _search_table(coord_bound, size_bound)
    index = {v: i for i, v in enumerate(g.vertices)}
    up = list(range(len(g.vertices)))  # union-find; a root is its component's first vertex

    def root(i: int) -> int:
        while up[i] != i:
            up[i] = i = up[up[i]]
        return i

    for e in g.edges:
        a, b = sorted((root(index[e.src]), root(index[e.dst])))
        up[b] = a
    order = sorted(g.vertices, key=lambda v: root(index[v]))
    pos = {v: i for i, v in enumerate(order)}
    # Non-loop edges as (earlier position, later position, vector at the
    # earlier end, vector at the later end), by earlier position, so the
    # edges that leave a vertex forward are a slice; per vertex, its loops,
    # its edges back, and the edges that cross into it or past it.
    spans = []
    loops, back, cut = [[] for _ in order], [[] for _ in order], [[] for _ in order]
    for e in sorted(g.edges, key=lambda e: min(pos[e.src], pos[e.dst])):
        a, b = pos[e.src], pos[e.dst]
        if a == b:
            loops[a].append(e)
            continue
        a, b, u, w = (a, b, e.v, e.w) if a < b else (b, a, e.w, e.v)
        back[b].append(len(spans))
        for crossed in cut[a + 1 : b + 1]:
            crossed.append(len(spans))
        spans.append((a, b, u, w))
    starts = [a for a, _, _, _ in spans]
    ahead, streams = [], []
    for i, ks in enumerate(back):
        ahead.append(slice(bisect.bisect_left(starts, i), bisect.bisect_right(starts, i)))
        ends = [spans[k][3] for k in ks], [u for _, _, u, _ in spans[ahead[i]]]
        streams.append(_balanced_multisets(coord_bound, size_bound, loops[i], *ends))
    grouped: list[dict] = [{} for _ in order]  # per vertex: need -> options

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
    checks: list[list] = [[] for _ in order]
    for j, ks in enumerate(back):
        for i in {starts[k] for k in ks} - {j - 1}:
            option(j, None, 0)  # no need is None: lists all of j's options
            fixed = [k for k in ks if starts[k] <= i]
            heads = {need[: len(fixed)] for need, group in grouped[j].items() if group}
            checks[i].append((fixed, heads))

    front = [0] * len(spans)  # per edge, the sum at its earlier end
    dead: list[set[tuple[int, ...]]] = [set() for _ in order]
    frames: list[list] = []  # per vertex reached: [key, need, options tried, multiset]
    i = 0
    while i < len(order):
        if i == len(frames):
            key = tuple(map(front.__getitem__, cut[i]))
            need = None if key in dead[i] else tuple(map(front.__getitem__, back[i]))
            frames.append([key, need, 0, None])
        key, need, k, _ = frame = frames[i]
        found = None if need is None else option(i, need, k)
        if found is None:
            if not key:
                return NotFound(coord_bound, size_bound)
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
    chosen = {v: frame[3] for v, frame in zip(order, frames)}
    return EquitableSet(
        tuple((v, tuple(cands[c] for c in chosen[v])) for v in g.vertices)
    )


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
    """Build the wall graph for an equitable set: per edge, one `Arc` for
    each run of its default matching (`_runs`), with the run's count.  A run
    of n points from left circle i to right circle j has weight a_i / b_j."""
    counts = _point_counts(g, s)
    if counts is None:
        raise ValueError("wall_graph requires an equitable set")
    arcs = [
        Arc(e.id, (e.src, i), (e.dst, j), Fraction(a[i], b[j]), n)
        for e, (a, b) in zip(g.edges, counts)
        for i, j, n in _runs(a, b)
    ]
    nodes = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    return WallGraph(nodes, tuple(arcs))


def _runs(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The runs (i, j, n) of an edge's default matching, which joins its
    points in order, a_i on left circle i and b_j on right circle j: n points
    joined from left circle i to right circle j.  Point p lies on the first
    circle whose cumulative count A_i or B_j exceeds p, so the runs are the
    northwest-corner rule on A and B, and their number does not grow with
    the number of points."""
    A, B = list(itertools.accumulate(a)), list(itertools.accumulate(b))
    for p, q in itertools.pairwise([0] + sorted({*A, *B} - {0})):
        yield bisect.bisect(A, p), bisect.bisect(B, p), q - p


@functools.lru_cache(maxsize=16)
def _point_counts(g: TubularPresentation, s: EquitableSet) -> tuple | None:
    """Per edge, the points on each left circle and on each right circle,
    or None when s is not an equitable set, so that the wall graph and the
    spectrum of one set verify it once.  Callers share the result, so it is
    made of tuples."""
    if not verify_equitable(g, s):
        return None
    ends = [((e.src, e.v), (e.dst, e.w)) for e in g.edges]
    counts = [tuple([tuple([abs(det2(x, u)) for x in s.at(v)]) for v, u in end]) for end in ends]
    return tuple(counts)


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
    in every grouping of the edge.  So the flags are settled in four steps:

    - one group per edge is consistent: no tuple is dilated, and the
      default matching is a tuple, so the spectrum is NonDilated alone;
    - two matchings are read off the point counts: the wall graph's
      matching, decided on its runs (`_runs`) as groups of two circles, and
      the one group per edge, a matching when each edge's n points per side
      satisfy n >= |L| + |R| - 1 and then dilated by the first step.  When
      they show both flags, the spectrum is complete; the flags they show
      are kept for the last step;
    - each edge has at most `budget` groupings, and their common blocks are
      inconsistent: every tuple is dilated (a consistent default tuple
      rules this out);
    - otherwise the tuples of per-edge groupings (at most budget + 1 per
      edge) are decided one at a time until both flags show, or `budget`
      tuples are decided with more left: then the result is incomplete.
      The walk decides every tuple it reaches, so the default tuple again,
      and the one-group tuple again when that is a matching.

    A set that is not equitable raises ValueError at every budget.
    """
    counts = _point_counts(g, s)
    if counts is None:
        raise ValueError("all_matching_verdicts requires an equitable set")
    if budget <= 0:
        return set(), False
    circles = tuple((v, i) for v in g.vertices for i in range(len(s.at(v))))
    ends = [  # per edge, its left and then its right circles with their points
        [((e.src, i), n) for i, n in enumerate(a)] + [((e.dst, j), n) for j, n in enumerate(b)]
        for e, (a, b) in zip(g.edges, counts)
    ]
    if _consistent(circles, [[c for c in end if c[1]] for end in ends]):
        return {False}, True
    default = (  # the wall graph's arcs, as groups of two circles
        [((e.src, i), a[i]), ((e.dst, j), b[j])]
        for e, (a, b) in zip(g.edges, counts)
        for i, j, _ in _runs(a, b)
    )
    verdicts = {not _consistent(circles, default)}
    if all(sum(a) >= sum(map(bool, a + b)) - 1 for a, b in counts):
        verdicts.add(True)
    if len(verdicts) == 2:
        return verdicts, True
    per_edge = []  # per edge, each grouping as its groups of positions in `ends`
    for a, b in counts:
        groupings = itertools.islice(_groupings(a, b), budget + 1)
        per_edge.append([[[*L, *(len(a) + j for j in R)] for L, R in x] for x in groupings])
    # A consistent tuple shows that the blocks are consistent.
    if False not in verdicts and all(len(groupings) <= budget for groupings in per_edge):
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
