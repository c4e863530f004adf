"""Free-by-cyclic deciders for tubular groups.

Two routes are implemented and cross-checked against each other:

* the single-vertex line criterion: the group is free-by-cyclic exactly when
  the differences v_i - w_i lie on a common line that avoids every v_i;
* Button's criterion for arbitrary graphs: free-by-cyclic exactly when some
  homomorphism to Z is nonzero on every edge group.  The homomorphisms to Z
  form a rational subspace S cut out by one sparse integer constraint per
  edge.  `linalg.nullspace` eliminates them fraction-free, forward to
  echelon form and then back, and returns the reduced pivot rows and free
  columns.  They give the free-variable basis of S as integer vectors over
  one common denominator, kept sparse: for each coordinate, the basis
  vectors nonzero there.  Each required value (one per edge group) is
  tabulated once on that basis, as its nonzero entries; an empty row is the
  obstruction.  Otherwise a greedy walk over the basis picks the witness
  sum c_i b_i with every c_i in 1..k+1 for k required values, in at most
  dim(S) * (k+1) trials, and updates only the rows nonzero at each b_i.
  The common denominator changes no choice of the walk and not the
  primitive witness, so all of this runs in integers.  On a chain every
  step is linear; where the pivot rows fill in, the sparse form holds as
  many entries as the dense basis.

The hom space, its table of edge values and Button's walk over that table
are built once per presentation and kept in a small cache, shared by Button,
the retractor and the amalgam checks.  A retractor adds one row, which
changes the walk only at a step where Button's coefficient would bring the
row's nonzero partial value back to zero; without such a step Button's
witness is its answer, and only with one does the walk run again on the
extended table.  The line criterion keeps its verdicts the same way, for
the last 16 (edges, vertex) inputs, so `special.vspecial_fbc_decide` asking
again after a caller's own `decide_fbc_single_vertex` pays for a lookup.

The same machinery certifies generalized retractors (an extra required-nonzero
value) and decides amalgams (`core.amalgamate`); witnesses are `core.Functional`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .core import (
    Functional,
    IntVec2,
    Pair,
    TubularPresentation,
    VertexId,
    amalgamate,
    det2,
    line_of,
    primitive_of,
    require_nonzero,
)
from .linalg import nullspace

# Values on the basis of a HomSpace: (basis index, nonzero value) pairs.
Sparse = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HomSpace:
    """A rational basis of the space of edge-compatible functionals.

    Coordinates are ordered (alpha_v1, beta_v1, alpha_v2, beta_v2, ...) in
    vertex order; the basis is the reduced-row-echelon free-variable basis, so
    it is deterministic for a given presentation.  Basis vector i is the one
    of free coordinate `free[i]`.  The basis is integer vectors over one
    common positive `denominator`, the least common denominator of the
    basis, stored by coordinate: `entries[j]` lists the pairs (i, numerator
    of basis vector i at coordinate j) that are nonzero, by increasing i.
    `columns` maps each vertex to the column of its alpha coordinate.
    """

    vertices: tuple[VertexId, ...]
    denominator: int
    free: tuple[int, ...]
    entries: tuple[Sparse, ...]
    columns: dict[VertexId, int] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.free)


@dataclass(frozen=True)
class FbcVerdict:
    answer: bool
    witness: Functional | None = None
    obstruction: str | None = None


def hom_space(g: TubularPresentation) -> HomSpace:
    """Solve the edge compatibility constraints f_src(v_e) = f_dst(w_e)."""
    columns = {v: 2 * i for i, v in enumerate(g.vertices)}
    rows = []
    for _, src, dst, (vx, vy), (wx, wy) in g.edges:
        s, d = columns[src], columns[dst]
        row = {s: vx, s + 1: vy}
        row[d] = row.get(d, 0) - wx
        row[d + 1] = row.get(d + 1, 0) - wy
        rows.append(row)
    ncols = 2 * len(g.vertices)
    pivots, free = nullspace(rows, ncols)
    # Basis vector i is the denominator at free[i], -s[free[i]] * denominator
    # / s[p] at the pivot p of each pivot row s, and 0 elsewhere.
    denominator = math.lcm(*(s[p] for p, s in pivots.items()))
    index = {c: i for i, c in enumerate(free)}
    entries: list[Sparse] = [()] * ncols
    for c, i in index.items():
        entries[c] = ((i, denominator),)
    for p, s in pivots.items():
        scale = denominator // s[p]
        entries[p] = tuple(sorted((index[c], -x * scale) for c, x in s.items() if c != p))
    return HomSpace(g.vertices, denominator, tuple(free), tuple(entries), columns)


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


def _greedy_coefficients(table: list[Sparse], dim: int) -> list[int]:
    """Coefficients c_1..c_dim with every table row nonzero at sum c_i b_i.

    Row r of the table lists the pairs (i, r(b_i)) of a required value r
    where r(b_i) is nonzero, and no row is empty.  Walking the basis, c_i is
    the least value in 1..k+1 (k rows) keeping nonzero every row that is
    nonzero at the previous partial sum; a row zero there so far becomes
    c_i * r(b_i).  Each such row rules out at most one c_i, so the walk makes
    at most dim * (k+1) trials and no coefficient exceeds k+1.  A row zero at
    b_i keeps its value, so step i reads only the rows nonzero at b_i.
    """
    at = [0] * len(table)
    nonzero_at: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    for r, row in enumerate(table):
        for i, x in row:
            nonzero_at[i].append((r, x))
    coeffs = []
    for nonzero in nonzero_at:
        ruled_out = {-at[r] // x for r, x in nonzero if at[r] and not at[r] % x}
        c = next(c for c in range(1, len(table) + 2) if c not in ruled_out)
        for r, x in nonzero:
            at[r] += c * x
        coeffs.append(c)
    return coeffs


def _row(space: HomSpace, vertex: VertexId, vec: IntVec2) -> Sparse:
    """The nonzero values at `vec` in the vertex group of `vertex` of the
    basis functionals, on their integer form, as (basis index, value)."""
    i, (x, y) = space.columns[vertex], vec
    row = {k: a * x for k, a in space.entries[i]}
    for k, b in space.entries[i + 1]:
        row[k] = row.get(k, 0) + b * y
    return tuple((k, value) for k, value in row.items() if value)


def _witness(space: HomSpace, coeffs: tuple[int, ...] | list[int]) -> FbcVerdict:
    """The Yes verdict whose witness is the primitive form of sum c_i b_i."""
    coords = [sum(coeffs[i] * a for i, a in column) for column in space.entries]
    return FbcVerdict(True, witness=_integer_functional(space, coords))


@functools.lru_cache(maxsize=16)
def _edge_table(
    g: TubularPresentation,
) -> tuple[HomSpace, tuple[Sparse, ...], tuple[int, ...], FbcVerdict]:
    """The hom space of g, each edge group's row of values on its basis in
    edge order, and Button's coefficients and verdict from one greedy walk
    over those rows.  Where Button says No, with the obstruction text of the
    first edge on which every edge-compatible functional vanishes, the rows
    and coefficients are empty.  A retractor returns this verdict too unless
    its value conflicts with the walk (`_nonvanishing_functional`).  Callers
    share the result, so they must not change it."""
    space = hom_space(g)
    rows = []
    for e in g.edges:
        row = _row(space, e.src, e.v)
        if not row:
            text = f"every edge-compatible functional vanishes on edge {e.id}"
            return space, (), (), FbcVerdict(False, obstruction=text)
        rows.append(row)
    if space.dim == 0:
        # Only a presentation without vertices gets here.
        return space, (), (), FbcVerdict(False, obstruction="empty homomorphism space")
    coeffs = tuple(_greedy_coefficients(rows, space.dim))
    return space, tuple(rows), coeffs, _witness(space, coeffs)


def _nonvanishing_functional(
    g: TubularPresentation, extra: tuple[VertexId, IntVec2, str]
) -> FbcVerdict:
    """An edge-compatible functional nonzero on every edge group and on the
    extra value, or the obstruction of the first edge or of the extra value
    on which every such functional vanishes.  `extra` is a (vertex, vector,
    obstruction text) triple.  Everything runs on the integer form of the
    basis: one common positive denominator changes no greedy choice and no
    primitive witness.

    The walk over the edge rows and the extra row makes Button's choices
    until a step i where the extra row's partial sum `at` is nonzero and
    at + c_i x_i == 0: only there does the extra row rule out Button's c_i.
    Without such a step Button's witness is the answer; with one, the walk
    runs again on the extended table."""
    space, rows, coeffs, button = _edge_table(g)
    if not button.answer:
        return button
    vertex, vec, obstruction = extra
    row = _row(space, vertex, vec)
    if not row:
        return FbcVerdict(False, obstruction=obstruction)
    at = 0
    for i, x in sorted(row):  # `_row` lists the values in no fixed order
        if at and at + coeffs[i] * x == 0:
            return _witness(space, _greedy_coefficients([*rows, row], space.dim))
        at += coeffs[i] * x
    return button


def button_decide(g: TubularPresentation) -> FbcVerdict:
    """Button's criterion: free-by-cyclic iff some homomorphism to Z is
    nonzero on every edge group."""
    return _edge_table(g)[3]


def decide_fbc_single_vertex(edges: list[Pair], vertex: VertexId = "V") -> FbcVerdict:
    """The line criterion: all differences v_i - w_i parallel, and their common
    line avoids every v_i.  Witness at `vertex`, built by projecting along the
    line."""
    return _decide_fbc_single_vertex(tuple(edges), vertex)


@functools.lru_cache(maxsize=16)
def _decide_fbc_single_vertex(edges: tuple[Pair, ...], vertex: VertexId) -> FbcVerdict:
    """The verdict of `decide_fbc_single_vertex`, kept for the last 16
    (edges, vertex) inputs.  A verdict is frozen, so its callers share it."""
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
    witness = Functional(((vertex, line_of(-direction.y, direction.x)),))
    return FbcVerdict(True, witness=witness)


def _line_avoiding(vectors: list[IntVec2]) -> IntVec2:
    """First primitive direction spanning a line that contains none of the
    given nonzero vectors, in order of increasing max-norm, then
    lexicographically.  Each candidate is one lookup of its `line_of`."""
    spanned = {line_of(v.x, v.y) for v in vectors}
    for n in itertools.count(1):
        for x, y in itertools.product(range(-n, n + 1), repeat=2):
            if max(abs(x), abs(y)) == n and math.gcd(x, y) == 1:
                if line_of(x, y) not in spanned:
                    return IntVec2(x, y)


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
    return _nonvanishing_functional(g, (vertex, elem, obstruction))


@dataclass(frozen=True)
class AmalgamAnalysis:
    """The retractor rule and the Button verdict on the glued presentation,
    which always agree: `rule_applies == button.answer`."""

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
    """The retractor rule: the amalgam is free-by-cyclic exactly when both
    gluing elements have a retractor certificate, so Button on the glued
    presentation agrees with it.  Button's witness restricts to a certificate
    on each side, as the bridge's edge group is generated by a = b; and
    certificates f1, f2 rescaled to f2(b) f1 and f1(a) f2 agree on the bridge."""
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
