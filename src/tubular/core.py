"""Exact 2x2 integer arithmetic, the presentation data model and the certificates.

A tubular group is a finite graph of groups with Z^2 vertex groups (each with a
fixed basis) and Z edge groups (each with two nonzero attaching vectors, one in
each endpoint's basis); `amalgamate` glues two.  The certificate types (`QForm2`,
`Functional`, `EquitableSet`) and their checks (`check_certificate`,
`verify_equitable`) are here, so a checker needs no decider.  No floats anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

# Rationals are fractions.Fraction: always reduced, positive denominator.
Rat = Fraction

VertexId = str
EdgeId = str


class IntVec2(NamedTuple):
    """An element of a Z^2 vertex group, written in that vertex's chosen basis.

    A tuple: it unpacks as (x, y), equals and hashes as the plain tuple, and
    orders lexicographically.  `+` and `-` are vector arithmetic, not tuple
    concatenation.
    """

    x: int
    y: int

    def __add__(self, other: "IntVec2") -> "IntVec2":
        return IntVec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "IntVec2") -> "IntVec2":
        return IntVec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "IntVec2":
        return IntVec2(-self.x, -self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


# One edge of a single-vertex presentation: its attaching vectors (v, w).
Pair = tuple[IntVec2, IntVec2]


def require_nonzero(edges: list[Pair]) -> None:
    """The single-vertex deciders' input rule: every attaching vector is nonzero."""
    for v, w in edges:
        if v.is_zero() or w.is_zero():
            raise ValueError("attaching vectors must be nonzero")


def det2(u: IntVec2, v: IntVec2) -> int:
    """Determinant of the 2x2 matrix with columns u, v.

    For nonzero u, v its absolute value is the index [Z^2 : <u,v>], i.e. the
    geometric intersection number of the corresponding curves on the torus.
    """
    return u.x * v.y - u.y * v.x


def primitive_of(v: IntVec2) -> IntVec2:
    """The primitive vector with the same direction as v (coprime coordinates)."""
    if v.is_zero():
        raise ValueError("primitive_of requires a nonzero vector")
    g = math.gcd(abs(v.x), abs(v.y))
    return IntVec2(v.x // g, v.y // g)


def line_of(x: int, y: int) -> tuple[int, int]:
    """The one vector kept for the line through the nonzero vector (x, y):
    primitive, with its first nonzero coordinate positive."""
    g = math.gcd(x, y)
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return x // g, y // g


@dataclass(frozen=True)
class IntMat2:
    """A 2x2 integer matrix, row-major, used for basis changes."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, v: IntVec2) -> IntVec2:
        return IntVec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)


class _EdgeFields(NamedTuple):
    id: EdgeId
    src: VertexId
    dst: VertexId
    v: IntVec2
    w: IntVec2


class Edge(_EdgeFields):
    """A directed edge: the relation s v s^-1 = w between the endpoint Z^2 groups.

    `v` is the attaching vector at the initial vertex `src`, `w` the attaching
    vector at the terminal vertex `dst`.  The deciders treat an edge and its
    reversal (swap v/w, src/dst) identically.  A tuple of its five fields, so
    it unpacks and equals the plain tuple; every way to build one, `_make`
    and `_replace` included, rejects a zero attaching vector.
    """

    __slots__ = ()

    def __new__(cls, id: EdgeId, src: VertexId, dst: VertexId, v: IntVec2, w: IntVec2):
        if v.is_zero() or w.is_zero():
            raise ValueError(f"edge {id}: attaching vectors must be nonzero")
        return tuple.__new__(cls, (id, src, dst, v, w))

    @classmethod
    def _make(cls, iterable) -> "Edge":
        return cls(*iterable)

    def _replace(self, **changes) -> "Edge":
        edge = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return edge


@dataclass(frozen=True)
class TubularPresentation:
    """A finite multigraph with Z^2 vertices and vector-decorated edges.

    Self-loops and parallel edges are allowed.  Vertex order and edge order are
    part of the data and all operations are deterministic with respect to them.
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]
    name: str = ""

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise ValueError(f"edge {e.id}: unknown vertex {e.src!r} or {e.dst!r}")

    def single_vertex_pairs(self) -> list[Pair]:
        if len(self.vertices) != 1:
            raise ValueError("presentation has more than one vertex")
        return [(e.v, e.w) for e in self.edges]


def single_vertex_presentation(
    pairs: list[Pair], name: str = "", vertex: VertexId = "V"
) -> TubularPresentation:
    """The multiple HNN extension of one Z^2 with the given attaching pairs."""
    edges = tuple(
        Edge(f"e{i+1}", vertex, vertex, v, w) for i, (v, w) in enumerate(pairs)
    )
    return TubularPresentation((vertex,), edges, name=name)


def change_basis(
    g: TubularPresentation, vertex: VertexId, u: IntMat2
) -> TubularPresentation:
    """Rewrite all attaching vectors at `vertex` in the basis transformed by u.

    u must be unimodular (det +-1); every decider's verdict is invariant under
    this operation, though certificates may differ.
    """
    if abs(u.det()) != 1:
        raise ValueError(f"change_basis requires a unimodular matrix, det={u.det()}")
    if vertex not in g.vertices:
        raise ValueError(f"unknown vertex {vertex!r}")
    new_edges = []
    for e in g.edges:
        v = u.apply(e.v) if e.src == vertex else e.v
        w = u.apply(e.w) if e.dst == vertex else e.w
        new_edges.append(Edge(e.id, e.src, e.dst, v, w))
    return replace(g, edges=tuple(new_edges))


@dataclass(frozen=True)
class GpqParams:
    """Integer parameters p[i], q[i] of the one-relator-per-generator family
    where a fixed generator a0 is central in the vertex group and the i-th
    stable letter conjugates a0^q[i]*t to a0^-p[i]*t."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        if len(self.p) != len(self.q) or not self.p:
            raise ValueError("p and q must have equal positive length")


@dataclass(frozen=True)
class QForm2:
    """A binary quadratic form Q(x,y) = a x^2 + 2 b xy + c y^2 with rational
    coefficients; used as a CAT(0) certificate, playing the role of A^T A."""

    a: Rat
    b: Rat
    c: Rat

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.a * self.c - self.b * self.b > 0

    def value(self, v: IntVec2) -> Rat:
        return self.a * v.x * v.x + 2 * self.b * v.x * v.y + self.c * v.y * v.y

    @staticmethod
    def identity() -> "QForm2":
        return QForm2(Fraction(1), Fraction(0), Fraction(1))


def check_certificate(q: QForm2, edges: list[Pair]) -> bool:
    """Exactly verify a quadratic-form certificate: positive definite and
    Q(v_i) = Q(w_i) for every edge."""
    if not q.is_positive_definite():
        return False
    return all(q.value(v) == q.value(w) for v, w in edges)


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
class EquitableSet:
    """Per-vertex circle lists.  Repeated vectors are allowed; a repeated
    primitive vector is equivalent to a single longer multiple of it."""

    sets: tuple[tuple[VertexId, tuple[IntVec2, ...]], ...]

    @functools.cached_property
    def _first(self) -> dict[VertexId, tuple[IntVec2, ...]]:
        return dict(reversed(self.sets))  # the first entry of a vertex wins

    def at(self, vertex: VertexId) -> tuple[IntVec2, ...]:
        return self._first[vertex]

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
        if any(x.is_zero() for x in vecs) or not _has_independent_pair(vecs):
            return False
    for e in g.edges:
        left = sum(abs(det2(x, e.v)) for x in circles[e.src])
        right = sum(abs(det2(x, e.w)) for x in circles[e.dst])
        if left != right:
            return False
    return True


def _has_independent_pair(vecs: tuple[IntVec2, ...]) -> bool:
    """Whether the vectors, which must be nonzero, span two lines: exactly
    when one of them is off the first one's line."""
    return any(det2(u, x) for u in vecs[:1] for x in vecs[1:])
