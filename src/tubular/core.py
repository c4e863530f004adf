"""Exact 2x2 integer arithmetic, binary quadratic forms and the presentation data model.

A tubular group splits as a finite graph of groups with Z^2 vertex groups and
Z edge groups.  Every vertex carries an implicit Z^2 with a fixed basis; every
edge carries two nonzero attaching vectors, one in each endpoint's basis.  All
arithmetic here is exact: unbounded integers and reduced rationals.  No
floating point is used anywhere in the deciders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

# Rationals are fractions.Fraction: always reduced, positive denominator.
Rat = Fraction

VertexId = str
EdgeId = str


@dataclass(frozen=True, order=True)
class IntVec2:
    """An element of a Z^2 vertex group, written in that vertex's chosen basis."""

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


@dataclass(frozen=True)
class Edge:
    """A directed edge: the relation s v s^-1 = w between the endpoint Z^2 groups.

    `v` is the attaching vector at the initial vertex `src`, `w` the attaching
    vector at the terminal vertex `dst`.  The deciders treat an edge and its
    reversal (swap v/w, src/dst) identically.
    """

    id: EdgeId
    src: VertexId
    dst: VertexId
    v: IntVec2
    w: IntVec2

    def __post_init__(self):
        if self.v.is_zero() or self.w.is_zero():
            raise ValueError(f"edge {self.id}: attaching vectors must be nonzero")

    def reversed(self) -> "Edge":
        return Edge(self.id, self.dst, self.src, self.w, self.v)


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

    def loops_at(self, v: VertexId) -> list[Edge]:
        return [e for e in self.edges if e.src == v and e.dst == v]

    def single_vertex_pairs(self) -> list[tuple[IntVec2, IntVec2]]:
        if len(self.vertices) != 1:
            raise ValueError("presentation has more than one vertex")
        return [(e.v, e.w) for e in self.edges]


def single_vertex_presentation(
    pairs: list[tuple[IntVec2, IntVec2]], name: str = "", vertex: VertexId = "V"
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
        new_edges.append(replace(e, v=v, w=w))
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
