"""Free-by-cyclic deciders for tubular groups.

Two routes are implemented and cross-checked against each other:

* the single-vertex line criterion: the group is free-by-cyclic exactly when
  the differences v_i - w_i lie on a common line that avoids every v_i;
* Button's criterion for arbitrary graphs: free-by-cyclic exactly when some
  homomorphism to Z is nonzero on every edge group.  The homomorphisms to Z
  form a rational subspace S cut out by one sparse integer constraint per
  edge.  `linalg.nullspace` eliminates them fraction-free and returns the
  reduced-row-echelon basis of S as integer vectors over one common
  denominator.  Each required value (one per edge group) is tabulated once
  on that integer basis; an all-zero row is the obstruction.  Otherwise a
  greedy walk over the basis picks the witness sum c_i b_i with every c_i in
  1..k+1 for k required values, in at most dim(S) * (k+1) trials.  The
  common denominator changes no choice of the walk and not the primitive
  witness, so all of this runs in integers.

The hom space and its table of edge values are built once per presentation
and kept in a small cache, shared by Button, the retractor and the amalgam
checks.

The same machinery certifies generalized retractors (an extra required-nonzero
value) and decides amalgams of two presentations over a cyclic subgroup.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .core import (
    Edge,
    IntVec2,
    Pair,
    TubularPresentation,
    VertexId,
    det2,
    primitive_of,
    require_nonzero,
)
from .linalg import nullspace


@dataclass(frozen=True)
class Functional:
    """A homomorphism Z^2 -> Z per vertex: f_v(x, y) = alpha_v x + beta_v y.

    Well-defined on the whole tubular group (sending stable letters to 0)
    exactly when f_src(v_e) = f_dst(w_e) for every edge e.
    """

    coeffs: tuple[tuple[VertexId, tuple[int, int]], ...]

    def at(self, vertex: VertexId) -> tuple[int, int]:
        for vid, ab in self.coeffs:
            if vid == vertex:
                return ab
        raise KeyError(vertex)

    def value(self, vertex: VertexId, vec: IntVec2) -> int:
        a, b = self.at(vertex)
        return a * vec.x + b * vec.y


@dataclass(frozen=True)
class HomSpace:
    """A rational basis of the space of edge-compatible functionals.

    Coordinates are ordered (alpha_v1, beta_v1, alpha_v2, beta_v2, ...) in
    vertex order; the basis is the reduced-row-echelon free-variable basis, so
    it is deterministic for a given presentation.  It is stored as integer
    vectors `numerators` over one common positive `denominator`, the least
    common denominator of the basis.
    `columns` maps each vertex to the column of its alpha coordinate.
    """

    vertices: tuple[VertexId, ...]
    denominator: int
    numerators: tuple[tuple[int, ...], ...]
    columns: dict[VertexId, int] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.numerators)


@dataclass(frozen=True)
class FbcVerdict:
    answer: bool
    witness: Functional | None = None
    obstruction: str | None = None


def hom_space(g: TubularPresentation) -> HomSpace:
    """Solve the edge compatibility constraints f_src(v_e) = f_dst(w_e)."""
    columns = {v: 2 * i for i, v in enumerate(g.vertices)}
    rows = []
    for e in g.edges:
        s, d = columns[e.src], columns[e.dst]
        row = {s: e.v.x, s + 1: e.v.y}
        row[d] = row.get(d, 0) - e.w.x
        row[d + 1] = row.get(d + 1, 0) - e.w.y
        rows.append(row)
    denominator, numerators = nullspace(rows, 2 * len(g.vertices))
    return HomSpace(g.vertices, denominator, tuple(numerators), columns)


def _integer_functional(space: HomSpace, coords: list[int]) -> Functional:
    """Divide by the gcd, keeping the leading sign."""
    g = math.gcd(*coords) or 1
    ints = [v // g for v in coords]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    pairs = tuple(
        (vid, (ints[2 * i], ints[2 * i + 1])) for i, vid in enumerate(space.vertices)
    )
    return Functional(pairs)


def _greedy_coefficients(table: list[tuple[int, ...]], dim: int) -> list[int]:
    """Coefficients c_1..c_dim with every table row nonzero at sum c_i b_i.

    Row r of the table lists a required value on the basis vectors b_i, and
    none is all zero.  Walking the basis, c_i is the least value in 1..k+1
    (k rows) keeping nonzero every row that is nonzero at the previous partial
    sum; a row zero there so far becomes c_i * r(b_i).  Each such row rules
    out at most one c_i, so the walk makes at most dim * (k+1) trials and no
    coefficient exceeds k+1.
    """
    at = [0] * len(table)
    coeffs = []
    for i in range(dim):
        ruled_out = {
            -a // row[i]
            for a, row in zip(at, table)
            if a and row[i] and not a % row[i]
        }
        c = next(c for c in range(1, len(table) + 2) if c not in ruled_out)
        at = [a + c * row[i] for a, row in zip(at, table)]
        coeffs.append(c)
    return coeffs


def _row(space: HomSpace, vertex: VertexId, vec: IntVec2) -> tuple[int, ...]:
    """The values at `vec` in the vertex group of `vertex` of the basis
    functionals, on their integer form."""
    i = space.columns[vertex]
    return tuple(b[i] * vec.x + b[i + 1] * vec.y for b in space.numerators)


@functools.lru_cache(maxsize=16)
def _edge_table(
    g: TubularPresentation,
) -> tuple[HomSpace, tuple[tuple[int, ...], ...] | str]:
    """The hom space of g, and each edge group's row of values on its basis
    in edge order, or instead the obstruction text of the first edge on
    which every edge-compatible functional vanishes.  Callers share the
    result, so they must not change it."""
    space = hom_space(g)
    rows = []
    for e in g.edges:
        row = _row(space, e.src, e.v)
        if not any(row):
            return space, f"every edge-compatible functional vanishes on edge {e.id}"
        rows.append(row)
    return space, tuple(rows)


def _nonvanishing_functional(
    g: TubularPresentation, extra: list[tuple[VertexId, IntVec2, str]]
) -> FbcVerdict:
    """An edge-compatible functional nonzero on every edge group and on each
    extra value, or the obstruction of the first edge or extra value on which
    every such functional vanishes.  `extra` lists (vertex, vector, obstruction
    text) triples.  Everything runs on the integer form of the basis: one
    common positive denominator changes no greedy choice and no primitive
    witness."""
    space, rows = _edge_table(g)
    if isinstance(rows, str):
        return FbcVerdict(False, obstruction=rows)
    table = list(rows)
    for vertex, vec, obstruction in extra:
        row = _row(space, vertex, vec)
        if not any(row):
            return FbcVerdict(False, obstruction=obstruction)
        table.append(row)
    if space.dim == 0:
        # Only a presentation without vertices gets here.
        return FbcVerdict(False, obstruction="empty homomorphism space")
    coeffs = _greedy_coefficients(table, space.dim)
    coords = [
        sum(c * b[j] for c, b in zip(coeffs, space.numerators))
        for j in range(2 * len(space.vertices))
    ]
    return FbcVerdict(True, witness=_integer_functional(space, coords))


def button_decide(g: TubularPresentation) -> FbcVerdict:
    """Button's criterion: free-by-cyclic iff some homomorphism to Z is
    nonzero on every edge group."""
    return _nonvanishing_functional(g, [])


def decide_fbc_single_vertex(edges: list[Pair], vertex: VertexId = "V") -> FbcVerdict:
    """The line criterion: all differences v_i - w_i parallel, and their common
    line avoids every v_i.  Witness at `vertex`, built by projecting along the
    line."""
    require_nonzero(edges)
    diffs = [v - w for v, w in edges]
    nonzero = [d for d in diffs if not d.is_zero()]
    if nonzero:
        direction = primitive_of(nonzero[0])
        for d in nonzero[1:]:
            if det2(direction, d) != 0:
                return FbcVerdict(
                    False,
                    obstruction=(
                        f"difference vectors {nonzero[0]} and {d} are not parallel"
                    ),
                )
        for v, _ in edges:
            if det2(direction, v) == 0:
                return FbcVerdict(
                    False,
                    obstruction=(
                        f"the common difference line R{direction} contains "
                        f"attaching vector {v}"
                    ),
                )
    else:
        direction = _line_avoiding([v for v, _ in edges])
    # Projection onto the completed basis vector: f(x) = det2(direction, x),
    # normalized so the first nonzero coefficient is positive.
    alpha, beta = -direction.y, direction.x
    if alpha < 0 or (alpha == 0 and beta < 0):
        alpha, beta = -alpha, -beta
    witness = Functional(((vertex, (alpha, beta)),))
    return FbcVerdict(True, witness=witness)


def _line_avoiding(vectors: list[IntVec2]) -> IntVec2:
    """First primitive direction spanning a line that contains none of the
    given nonzero vectors, in order of increasing max-norm, then
    lexicographically."""
    for n in itertools.count(1):
        for x, y in itertools.product(range(-n, n + 1), repeat=2):
            d = IntVec2(x, y)
            if max(abs(x), abs(y)) == n and math.gcd(x, y) == 1:
                if all(det2(d, v) != 0 for v in vectors):
                    return d


def generalized_retractor(
    g: TubularPresentation, vertex: VertexId, elem: IntVec2
) -> FbcVerdict:
    """Certify that `elem` (in the given vertex group) is a generalized
    retractor, via a functional nonzero on every edge group and on elem.

    The witness's kernel is free: edge stabilizers meet it trivially and
    vertex stabilizers meet it in Z.  A No verdict means no such functional
    exists, not a proof that elem fails to be a generalized retractor.
    """
    if elem.is_zero():
        raise ValueError("generalized_retractor requires a nonzero element")
    if vertex not in g.vertices:
        raise ValueError(f"unknown vertex {vertex!r}")
    obstruction = (
        f"every edge-compatible functional vanishes on {elem} at vertex {vertex}"
    )
    return _nonvanishing_functional(g, [(vertex, elem, obstruction)])


def amalgamate(
    g1: TubularPresentation,
    a: tuple[VertexId, IntVec2],
    g2: TubularPresentation,
    b: tuple[VertexId, IntVec2],
    name: str = "",
) -> TubularPresentation:
    """The amalgam of two tubular presentations over a = b: their disjoint
    union plus one bridge edge carrying the two vectors."""
    av, bv = a[1], b[1]
    if av.is_zero() or bv.is_zero():
        raise ValueError("amalgamation vectors must be nonzero")
    if a[0] not in g1.vertices or b[0] not in g2.vertices:
        raise ValueError("amalgamation vertex not found")

    def tag(which: str, vid: VertexId) -> VertexId:
        return f"{which}.{vid}"

    vertices = tuple(tag("g1", v) for v in g1.vertices) + tuple(
        tag("g2", v) for v in g2.vertices
    )
    edges = [
        Edge(tag(which, e.id), tag(which, e.src), tag(which, e.dst), e.v, e.w)
        for which, g in (("g1", g1), ("g2", g2))
        for e in g.edges
    ]
    edges.append(Edge("bridge", tag("g1", a[0]), tag("g2", b[0]), av, bv))
    return TubularPresentation(
        vertices, tuple(edges), name=name or f"{g1.name}*{g2.name}"
    )


@dataclass(frozen=True)
class AmalgamAnalysis:
    """Outcome of the two-route amalgam analysis: the retractor sufficiency
    rule, plus the definitive Button verdict on the glued presentation."""

    rule_applies: bool
    retractor_1: FbcVerdict
    retractor_2: FbcVerdict
    amalgam: TubularPresentation
    button: FbcVerdict


def amalgam_fbc_sufficient(
    g1: TubularPresentation,
    a: tuple[VertexId, IntVec2],
    g2: TubularPresentation,
    b: tuple[VertexId, IntVec2],
) -> AmalgamAnalysis:
    """Sufficiency rule: when both gluing elements are (certified) generalized
    retractors, the amalgam is free-by-cyclic.  Otherwise the rule alone is
    inconclusive and the Button verdict on the glued tubular presentation
    decides."""
    r1 = generalized_retractor(g1, a[0], a[1])
    r2 = generalized_retractor(g2, b[0], b[1])
    glued = amalgamate(g1, a, g2, b)
    return AmalgamAnalysis(
        rule_applies=r1.answer and r2.answer,
        retractor_1=r1,
        retractor_2=r2,
        amalgam=glued,
        button=button_decide(glued),
    )
