"""CAT(0) decider for single-vertex tubular groups, with verifiable certificates.

A multiple HNN extension of Z^2 with attaching pairs (v_i, w_i) is CAT(0)
exactly when some invertible real matrix A equalizes ||A v_i|| = ||A w_i|| for
every i.  Writing coordinates relative to an independent pair (v_1, w_1), the
existence of A reduces to a single rational unknown c = cos(phi), the cosine of
the angle between the images of v_1 and w_1, constrained to the open interval
(-1, 1) by one linear equation per remaining edge.  In Cramer coordinates
scaled by det(v_1, w_1) every equation has integer coefficients, so the
decider works in integers and builds Fractions only for the datum it returns.
A Yes verdict carries the positive-definite rational form Q = A^T A, checkable
by exact arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .core import IntVec2, Pair, QForm2, Rat, TubularPresentation, det2, require_nonzero


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


def _cos_constraint(
    v1: IntVec2, w1: IntVec2, v: IntVec2, w: IntVec2
) -> tuple[int, int]:
    """Integer coefficients (a, b) of the edge condition a = b * cos(phi).

    By Cramer's rule, D (x, y) = (det2(v, w1), det2(v1, v)) with D = det2(v1, w1),
    where (x, y) are the coordinates of v relative to the base pair (v1, w1);
    likewise D (x', y') for w.  Expanding ||x B1 + y B2||^2 = ||x' B1 + y' B2||^2
    for unit B1, B2 at angle phi gives x^2+y^2+2xy c = x'^2+y'^2+2x'y' c; the
    returned a = (x^2+y^2) - (x'^2+y'^2) and b = 2 (x'y' - xy) are scaled by D^2.
    """
    x, y = det2(v, w1), det2(v1, v)
    xp, yp = det2(w, w1), det2(v1, w)
    return (x * x + y * y) - (xp * xp + yp * yp), 2 * (xp * yp - x * y)


def decide_cat0(edges: list[Pair]) -> Cat0Verdict:
    """Decide CAT(0)ness of the single-vertex tubular group with these edges."""
    if not edges:
        raise ValueError("decide_cat0 requires at least one edge")
    require_nonzero(edges)

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
    d2 = det2(v1, w1) ** 2

    # (a, b, i) of the first forced cosine a/b and of the first one unequal to it.
    forced: list[tuple[int, int, int]] = []
    for i, (v, w) in enumerate(edges):
        if i == base:
            continue
        a, b = _cos_constraint(v1, w1, v, w)
        if b == 0:
            if a != 0:
                return Cat0Verdict(
                    False,
                    obstruction=ObstructionDatum(
                        ObstructionKind.INCONSISTENT_COS, (base, i), (Fraction(a, d2),)
                    ),
                )
        elif not forced or (len(forced) == 1 and a * forced[0][1] != forced[0][0] * b):
            forced.append((a, b, i))

    if len(forced) > 1:
        (a1, b1, i1), (a2, b2, i2) = forced
        return Cat0Verdict(
            False,
            obstruction=ObstructionDatum(
                ObstructionKind.INCONSISTENT_COS,
                (i1, i2),
                (Fraction(a1, b1), Fraction(a2, b2)),
            ),
        )

    # Unconstrained: phi = pi/2 gives the simplest certificate.
    ca, cb, i = forced[0] if forced else (0, 1, None)
    c = Fraction(ca, cb)
    if not (-1 < c < 1):
        return Cat0Verdict(
            False,
            obstruction=ObstructionDatum(ObstructionKind.COS_OUT_OF_RANGE, (i,), (c,)),
        )

    # Q(u) = X^2 + 2c XY + Y^2 over D^2, with X = det2(u, w1), Y = det2(v1, u).
    (x1, y1), (x2, y2) = (v1.x, v1.y), (w1.x, w1.y)
    den = cb * d2
    cert = QForm2(
        Fraction(cb * (y1 * y1 + y2 * y2) - 2 * ca * y1 * y2, den),
        Fraction(ca * (x1 * y2 + x2 * y1) - cb * (x1 * y1 + x2 * y2), den),
        Fraction(cb * (x1 * x1 + x2 * x2) - 2 * ca * x1 * x2, den),
    )
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
    loops: dict[str, list[Pair]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.src == e.dst:
            loops[e.src].append((e.v, e.w))
    return {
        v: decide_cat0(pairs) if pairs else _IDENTITY_YES for v, pairs in loops.items()
    }
