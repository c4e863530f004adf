"""Virtual-specialness and cocompact-cubulation deciders.

Routes, from weakest to strongest:

* a sufficient determinant test on single-vertex inputs (a two-element
  equitable set exists whenever det[w1-v1, .] and det[w1+v1, .] agree up to
  sign across all edges);
* the equivalence "CAT(0) iff virtually special" for free-by-cyclic
  single-vertex groups, which upgrades a CAT(0) verdict to an iff;
* counting parallelism classes of edge groups per vertex, in one pass over
  the edges, which controls cocompact cubulation (three or more classes at a
  vertex is fatal);
* a complete characterization for the two-parameter integer family, where the
  attaching pairs are (q_i, 1) -> (-p_i, 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .cat0 import decide_cat0
from .core import (
    GpqParams,
    IntVec2,
    Pair,
    TubularPresentation,
    VertexId,
    require_nonzero,
    single_vertex_presentation,
)
from .cubulate import CanonicalSetError, canonical_th3_set
from .fbc import decide_fbc_single_vertex


class Answer(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SpecialVerdict:
    answer: Answer
    route: str  # the route name a report prints, e.g. "DetSufficient"
    citation: str
    notes: tuple[str, ...] = ()


def vspecial_sufficient(edges: list[Pair]) -> SpecialVerdict:
    """Sufficient test: Yes when both determinant families agree up to sign,
    which is when the canonical two-element equitable set exists.

    Only ever answers Yes or Unknown; the condition is not necessary.
    """
    require_nonzero(edges)
    citation = "two-element equitable set sufficiency test"
    try:
        canonical_th3_set(edges)
    except CanonicalSetError as e:
        (d1v, d1w), (d2v, d2w) = e.pairs
        return SpecialVerdict(
            Answer.UNKNOWN,
            "DetSufficient",
            citation,
            notes=(
                f"edge {e.edge_index}: |det| families disagree "
                f"({d1v} vs {d1w} and {d2v} vs {d2w})",
            ),
        )
    except ValueError:
        return SpecialVerdict(
            Answer.UNKNOWN,
            "DetSufficient",
            citation,
            notes=("no linearly independent attaching pair; test not applicable",),
        )
    return SpecialVerdict(Answer.YES, "DetSufficient", citation)


def vspecial_fbc_decide(edges: list[Pair]) -> SpecialVerdict:
    """For free-by-cyclic single-vertex inputs, virtual specialness is
    equivalent to CAT(0)ness; a No on this route is a genuine No."""
    fbc = decide_fbc_single_vertex(edges)
    if not fbc.answer:
        return SpecialVerdict(
            Answer.UNKNOWN,
            "FbcCat0Equiv",
            "CAT(0) <=> virtually special for free-by-cyclic one-vertex groups",
            notes=("input is not free-by-cyclic; equivalence route not applicable",),
        )
    cat0 = decide_cat0(edges)
    return SpecialVerdict(
        Answer.YES if cat0.answer else Answer.NO,
        "FbcCat0Equiv",
        "CAT(0) <=> virtually special for free-by-cyclic one-vertex groups",
    )


def _line_counts(g: TubularPresentation) -> dict[VertexId, int]:
    """Each vertex's number of lines through the origin spanned by its
    attaching vectors (both ends of loops counted), in one pass over the
    edges."""
    lines: dict[VertexId, set[tuple[int, int]]] = {v: set() for v in g.vertices}
    for e in g.edges:
        for vertex, vec in ((e.src, e.v), (e.dst, e.w)):
            d = math.gcd(vec.x, vec.y)
            x, y = vec.x // d, vec.y // d
            if x < 0 or (x == 0 and y < 0):
                x, y = -x, -y
            lines[vertex].add((x, y))
    return {v: len(found) for v, found in lines.items()}


def cocompact_cubulation_decide(
    g: TubularPresentation, cat0_known: bool
) -> SpecialVerdict:
    """Can the group (virtually) act freely and cocompactly on a CAT(0) cube
    complex?  No when some vertex carries three or more parallelism classes;
    Yes when all counts are <= 2 and CAT(0)ness is known (which rules out the
    distorted Baumslag-Solitar subgroups); Unknown otherwise."""
    counts = list(_line_counts(g).items())
    bad = [(v, c) for v, c in counts if c >= 3]
    if bad:
        return SpecialVerdict(
            Answer.NO,
            "ParallelismClassCount",
            "parallelism class bound: three or more classes at a vertex",
            notes=tuple(f"vertex {v}: {c} parallelism classes" for v, c in bad),
        )
    if cat0_known:
        return SpecialVerdict(
            Answer.YES,
            "ParallelismClassCount",
            "at most two parallelism classes per vertex and no distorted "
            "Baumslag-Solitar subgroup (excluded by CAT(0)ness)",
            notes=tuple(f"vertex {v}: {c} classes" for v, c in counts),
        )
    return SpecialVerdict(
        Answer.UNKNOWN,
        "ParallelismClassCount",
        "at most two parallelism classes per vertex",
        notes=(
            "CAT(0)ness not established; Baumslag-Solitar subgroup detection "
            "is not implemented",
        ),
    )


def gpq_to_tubular(params: GpqParams) -> TubularPresentation:
    """The single-vertex presentation of the family: edges (q_i,1) -> (-p_i,1)."""
    pairs = [
        (IntVec2(q, 1), IntVec2(-p, 1)) for p, q in zip(params.p, params.q)
    ]
    return single_vertex_presentation(pairs, name="gpq")


def gpq_vspecial_decide(params: GpqParams) -> SpecialVerdict:
    """Complete characterization of virtual specialness (equivalently,
    CAT(0)ness) for the family: either p_i = -q_i for all i, or, evaluated at
    the first s with p_s != -q_s,

        q_i (q_i + p_s - q_s) = p_i (p_i - p_s + q_s)   for all i.
    """
    p, q = params.p, params.q
    if all(pi == -qi for pi, qi in zip(p, q)):
        return SpecialVerdict(
            Answer.YES,
            "GpqCharacterization",
            "family characterization, degenerate branch p_i = -q_i",
        )
    s = next(i for i in range(len(p)) if p[i] != -q[i])
    ok = all(
        q[i] * (q[i] + p[s] - q[s]) == p[i] * (p[i] - p[s] + q[s])
        for i in range(len(p))
    )
    return SpecialVerdict(
        Answer.YES if ok else Answer.NO,
        "GpqCharacterization",
        "family characterization, quadratic identity branch",
        notes=(f"evaluated at s = {s}",),
    )


def gpq_compact_special_decide(params: GpqParams) -> SpecialVerdict:
    """Virtually compact special iff {-p_i} union {q_i} has at most two
    elements and the virtual-specialness characterization holds."""
    classes = {-pi for pi in params.p} | set(params.q)
    vs = gpq_vspecial_decide(params)
    if len(classes) <= 2 and vs.answer is Answer.YES:
        return SpecialVerdict(
            Answer.YES,
            "ClassCountObstruction",
            "at most two slope classes and virtually special",
        )
    notes = []
    if len(classes) > 2:
        notes.append(f"slope class set {sorted(classes)} has {len(classes)} elements")
    if vs.answer is not Answer.YES:
        notes.append("not virtually special")
    return SpecialVerdict(
        Answer.NO,
        "ClassCountObstruction",
        "compact specialness characterization for the family",
        notes=tuple(notes),
    )
