"""Free-by-cyclic deciders for tubular groups.

Two routes are implemented and cross-checked against each other:

* the single-vertex line criterion: the group is free-by-cyclic exactly when
  the differences v_i - w_i lie on a common line that avoids every v_i;
* Button's criterion for arbitrary graphs: free-by-cyclic exactly when some
  homomorphism to Z is nonzero on every edge group.  The homomorphisms to Z
  form a rational subspace S cut out by one linear constraint per edge.  Each
  required value (one per edge group) is tabulated once on the basis of S; an
  all-zero row is the obstruction.  Otherwise a greedy walk over the basis
  picks the witness sum c_i b_i with every c_i in 1..k+1 for k required
  values, in at most dim(S) * (k+1) trials.

The same machinery certifies generalized retractors (an extra required-nonzero
value) and decides amalgams of two presentations over a cyclic subgroup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Edge,
    IntVec2,
    Rat,
    TubularPresentation,
    VertexId,
    det2,
    primitive_of,
)

Pair = tuple[IntVec2, IntVec2]


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

    def edge_value(self, e: Edge) -> int:
        return self.value(e.src, e.v)


@dataclass(frozen=True)
class HomSpace:
    """A rational basis of the space of edge-compatible functionals.

    Coordinates are ordered (alpha_v1, beta_v1, alpha_v2, beta_v2, ...) in
    vertex order; the basis is the reduced-row-echelon free-variable basis, so
    it is deterministic for a given presentation.
    """

    vertices: tuple[VertexId, ...]
    basis: tuple[tuple[Rat, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FbcVerdict:
    answer: bool
    witness: Functional | None = None
    obstruction: str | None = None


def _rref_nullspace(rows: list[list[Rat]], ncols: int) -> list[tuple[Rat, ...]]:
    """Nullspace basis of the given constraint rows, via exact Gauss-Jordan.

    Returns the standard free-variable basis in increasing free-column order.
    """
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(tuple(vec))
    return basis


def hom_space(g: TubularPresentation) -> HomSpace:
    """Solve the edge compatibility constraints f_src(v_e) = f_dst(w_e)."""
    idx = {v: 2 * i for i, v in enumerate(g.vertices)}
    ncols = 2 * len(g.vertices)
    rows = []
    for e in g.edges:
        row = [Fraction(0)] * ncols
        row[idx[e.src]] += e.v.x
        row[idx[e.src] + 1] += e.v.y
        row[idx[e.dst]] -= e.w.x
        row[idx[e.dst] + 1] -= e.w.y
        rows.append(row)
    basis = _rref_nullspace(rows, ncols) if rows else [
        tuple(Fraction(1 if j == i else 0) for j in range(ncols)) for i in range(ncols)
    ]
    return HomSpace(g.vertices, tuple(basis))


def _integer_functional(space: HomSpace, coords: tuple[Rat, ...]) -> Functional:
    """Clear denominators and divide by the gcd, keeping the leading sign."""
    dens = [x.denominator for x in coords]
    lcm = math.lcm(*dens) if dens else 1
    ints = [int(x * lcm) for x in coords]
    g = math.gcd(*(abs(v) for v in ints)) or 1
    ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    pairs = tuple(
        (vid, (ints[2 * i], ints[2 * i + 1])) for i, vid in enumerate(space.vertices)
    )
    return Functional(pairs)


def _coefficient_tuples(dim: int):
    """All nonzero integer tuples, ordered by increasing max-norm then
    lexicographically; deterministic and exhaustive."""
    n = 0
    while True:
        n += 1
        for tup in itertools.product(range(-n, n + 1), repeat=dim):
            if max(abs(t) for t in tup) == n:
                yield tup


def _greedy_coefficients(table: list[list[Rat]], dim: int) -> list[int]:
    """Coefficients c_1..c_dim with every table row nonzero at sum c_i b_i.

    Row r of the table lists a required value on the basis vectors b_i, and
    none is all zero.  Walking the basis, c_i is the least value in 1..k+1
    (k rows) keeping nonzero every row that is nonzero at the previous partial
    sum; a row zero there so far becomes c_i * r(b_i).  Each such row rules
    out at most one c_i, so the walk makes at most dim * (k+1) trials and no
    coefficient exceeds k+1.
    """
    at: list[Rat] = [Fraction(0)] * len(table)
    coeffs = []
    for i in range(dim):
        ruled_out = {-a / row[i] for a, row in zip(at, table) if a and row[i]}
        c = next(c for c in range(1, len(table) + 2) if c not in ruled_out)
        at = [a + c * row[i] for a, row in zip(at, table)]
        coeffs.append(c)
    return coeffs


def _nonvanishing_functional(
    g: TubularPresentation, extra: list[tuple[VertexId, IntVec2, str]]
) -> FbcVerdict:
    """An edge-compatible functional nonzero on every edge group and on each
    extra value, or the obstruction of the first edge or extra value on which
    every such functional vanishes.  `extra` lists (vertex, vector, obstruction
    text) triples."""
    space = hom_space(g)
    required = [
        (
            e.src,
            e.v,
            f"every edge-compatible functional vanishes on edge {e.label or e.id}",
        )
        for e in g.edges
    ] + extra
    table = []
    for vertex, vec, obstruction in required:
        i = 2 * g.vertex_index(vertex)
        row = [b[i] * vec.x + b[i + 1] * vec.y for b in space.basis]
        if not any(row):
            return FbcVerdict(False, obstruction=obstruction)
        table.append(row)
    if space.dim == 0:
        # Only a presentation without vertices gets here.
        return FbcVerdict(False, obstruction="empty homomorphism space")
    coeffs = _greedy_coefficients(table, space.dim)
    coords = tuple(
        sum(c * b[j] for c, b in zip(coeffs, space.basis))
        for j in range(2 * len(space.vertices))
    )
    return FbcVerdict(True, witness=_integer_functional(space, coords))


def button_decide(g: TubularPresentation) -> FbcVerdict:
    """Button's criterion: free-by-cyclic iff some homomorphism to Z is
    nonzero on every edge group."""
    return _nonvanishing_functional(g, [])


def decide_fbc_single_vertex(edges: list[Pair]) -> FbcVerdict:
    """The line criterion: all differences v_i - w_i parallel, and their common
    line avoids every v_i.  Witness built by projecting along the line."""
    for v, w in edges:
        if v.is_zero() or w.is_zero():
            raise ValueError("attaching vectors must be nonzero")
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
    witness = Functional((("V", (alpha, beta)),))
    return FbcVerdict(True, witness=witness)


def _line_avoiding(vectors: list[IntVec2]) -> IntVec2:
    """First primitive direction (in a fixed enumeration) spanning a line that
    contains none of the given nonzero vectors."""
    for tup in _coefficient_tuples(2):
        d = IntVec2(*tup)
        if d.is_zero() or math.gcd(abs(d.x), abs(d.y)) != 1:
            continue
        if all(det2(d, v) != 0 for v in vectors):
            return d
    raise AssertionError("unreachable")


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
    edges = []
    for e in g1.edges:
        edges.append(
            Edge(f"g1.{e.id}", tag("g1", e.src), tag("g1", e.dst), e.v, e.w, f"g1.{e.id}")
        )
    for e in g2.edges:
        edges.append(
            Edge(f"g2.{e.id}", tag("g2", e.src), tag("g2", e.dst), e.v, e.w, f"g2.{e.id}")
        )
    edges.append(
        Edge("bridge", tag("g1", a[0]), tag("g2", b[0]), av, bv, label="bridge")
    )
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
