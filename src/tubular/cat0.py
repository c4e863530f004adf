"""CAT(0) decider for single-vertex tubular groups, with verifiable certificates.

A multiple HNN extension of Z^2 with attaching pairs (v_i, w_i) is CAT(0)
exactly when some invertible real matrix A equalizes ||A v_i|| = ||A w_i|| for
every i.  Writing coordinates relative to an independent pair (v_1, w_1), the
existence of A reduces to a single rational unknown c = cos(phi), the cosine of
the angle between the images of v_1 and w_1, constrained to the open interval
(-1, 1) by one linear equation per remaining edge.  A Yes verdict carries the
positive-definite rational form Q = A^T A, checkable by exact arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    IntVec2,
    Mat2,
    QForm2,
    Rat,
    TubularPresentation,
    det2,
    inv2,
)

Pair = tuple[IntVec2, IntVec2]


class ObstructionKind(enum.Enum):
    PARALLEL_MISMATCH = "ParallelMismatch"
    INCONSISTENT_COS = "InconsistentCos"
    COS_OUT_OF_RANGE = "CosOutOfRange"


@dataclass(frozen=True)
class ObstructionDatum:
    """Enough data to re-derive the contradiction by hand.

    For PARALLEL_MISMATCH, `indices` holds the offending edge (0-based) whose
    attaching vectors are parallel but not equal up to sign.  For the cosine
    kinds, `indices` lists the edges whose equations conflict and `values` the
    rational cosines they force.
    """

    kind: ObstructionKind
    indices: tuple[int, ...]
    values: tuple[Rat, ...] = ()

    def describe(self) -> str:
        if self.kind is ObstructionKind.PARALLEL_MISMATCH:
            return f"edge {self.indices[0]}: attaching vectors parallel but not equal up to sign"
        if self.kind is ObstructionKind.COS_OUT_OF_RANGE:
            return (
                f"edge {self.indices[0]} forces cos(phi) = {self.values[0]}, "
                "outside the open interval (-1, 1)"
            )
        vals = ", ".join(str(v) for v in self.values)
        return f"edges {list(self.indices)} force incompatible values of cos(phi): {vals}"


@dataclass(frozen=True)
class Cat0Verdict:
    answer: bool
    certificate: QForm2 | None = None
    obstruction: ObstructionDatum | None = None
    cos_phi: Rat | None = None


# The verdict for loops that are all parallel with v = +-w, and for a vertex
# without loops: the identity form works.
_IDENTITY_YES = Cat0Verdict(True, QForm2.identity(), cos_phi=Fraction(0))


def _cos_constraint(minv: Mat2, v: IntVec2, w: IntVec2) -> tuple[Rat, Rat]:
    """Coefficients (a, b) of the edge condition a = b * cos(phi).

    With (x, y) and (x', y') the coordinates of v and w relative to the base
    pair, expanding ||x B1 + y B2||^2 = ||x' B1 + y' B2||^2 for unit B1, B2 at
    angle phi gives x^2+y^2+2xy c = x'^2+y'^2+2x'y' c, i.e.
    a = (x^2+y^2) - (x'^2+y'^2) and b = 2 (x'y' - xy).
    """
    x, y = minv.apply(v)
    xp, yp = minv.apply(w)
    a = (x * x + y * y) - (xp * xp + yp * yp)
    b = 2 * (xp * yp - x * y)
    return a, b


def decide_cat0(edges: list[Pair]) -> Cat0Verdict:
    """Decide CAT(0)ness of the single-vertex tubular group with these edges."""
    if not edges:
        raise ValueError("decide_cat0 requires at least one edge")
    for v, w in edges:
        if v.is_zero() or w.is_zero():
            raise ValueError("attaching vectors must be nonzero")

    # A parallel pair is consistent only when v = +-w (conjugate elements have
    # equal translation length).
    for i, (v, w) in enumerate(edges):
        if det2(v, w) == 0 and v != w and v != -w:
            return Cat0Verdict(
                False,
                obstruction=ObstructionDatum(
                    ObstructionKind.PARALLEL_MISMATCH, (i,)
                ),
            )

    base = next((i for i, (v, w) in enumerate(edges) if det2(v, w) != 0), None)
    if base is None:
        return _IDENTITY_YES

    v1, w1 = edges[base]
    minv = inv2(Mat2.from_columns(v1, w1))

    forced: dict[Rat, int] = {}
    for i, (v, w) in enumerate(edges):
        if i == base:
            continue
        a, b = _cos_constraint(minv, v, w)
        if b == 0:
            if a != 0:
                return Cat0Verdict(
                    False,
                    obstruction=ObstructionDatum(
                        ObstructionKind.INCONSISTENT_COS, (base, i), (a,)
                    ),
                )
        else:
            forced.setdefault(a / b, i)

    if len(forced) > 1:
        (c1, i1), (c2, i2) = list(forced.items())[:2]
        return Cat0Verdict(
            False,
            obstruction=ObstructionDatum(
                ObstructionKind.INCONSISTENT_COS, (i1, i2), (c1, c2)
            ),
        )

    # Unconstrained: phi = pi/2 gives the simplest certificate.
    c = next(iter(forced)) if forced else Fraction(0)
    if not (-1 < c < 1):
        return Cat0Verdict(
            False,
            obstruction=ObstructionDatum(
                ObstructionKind.COS_OUT_OF_RANGE, (forced[c],), (c,)
            ),
        )

    gram = Mat2(Fraction(1), c, c, Fraction(1))
    q = minv.transpose() @ gram @ minv
    cert = QForm2(q.a, q.b, q.d)
    return Cat0Verdict(True, certificate=cert, cos_phi=c)


def check_certificate(q: QForm2, edges: list[Pair]) -> bool:
    """Exactly verify a quadratic-form certificate: positive definite and
    Q(v_i) = Q(w_i) for every edge."""
    if not q.is_positive_definite():
        return False
    return all(q.value(v) == q.value(w) for v, w in edges)


def vertex_necessary_checks(g: TubularPresentation) -> dict[str, Cat0Verdict]:
    """Per-vertex CAT(0) obstruction: the single-vertex criterion applied to
    the loops at each vertex.  Necessary for any CAT(0) group containing the
    tubular group; vertices without loops pass vacuously."""
    out: dict[str, Cat0Verdict] = {}
    for v in g.vertices:
        loops = g.loops_at(v)
        if loops:
            out[v] = decide_cat0([(e.v, e.w) for e in loops])
        else:
            out[v] = _IDENTITY_YES
    return out
