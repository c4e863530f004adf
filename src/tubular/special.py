"""Virtual-specialness and cocompact-cubulation deciders.

Routes, from weakest to strongest:

* a sufficient determinant test on single-vertex inputs (the two-element
  equitable set `canonical_th3_set` exists whenever det[w1-v1, .] and
  det[w1+v1, .] agree up to sign across all edges; otherwise the reason it
  fails is the test's note, and the text of the set's ValueError);
* the equivalence "CAT(0) iff virtually special" for free-by-cyclic
  single-vertex groups, which upgrades a CAT(0) verdict to an iff (and
  decides Z^2, a vertex without edges, Yes);
* counting parallelism classes of edge groups per vertex, in one pass over
  the edges, which controls cocompact cubulation (three or more classes at a
  vertex is fatal);
* a complete characterization for the two-parameter integer family, where the
  attaching pairs are (q_i, 1) -> (-p_i, 1).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .cat0 import Cat0Verdict, decide_cat0
from .core import (
    EquitableSet,
    GpqParams,
    IntVec2,
    Pair,
    TubularPresentation,
    VertexId,
    det2,
    line_of,
    require_nonzero,
    single_vertex_presentation,
)
from .fbc import FbcVerdict, decide_fbc_single_vertex


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


def _canonical_pair(edges: list[Pair]) -> tuple[IntVec2, IntVec2] | str:
    """The pair (w1 - v1, w1 + v1) of the first independent attaching pair
    (v1, w1), when both determinant families agree up to sign on every edge;
    otherwise the text of the reason it fails."""
    base = next((i for i, (v, w) in enumerate(edges) if det2(v, w) != 0), None)
    if base is None:
        return "no linearly independent attaching pair; test not applicable"
    v1, w1 = edges[base]
    z1, z2 = w1 - v1, w1 + v1
    for i, (v, w) in enumerate(edges):
        d1v, d1w = abs(det2(z1, v)), abs(det2(z1, w))
        d2v, d2w = abs(det2(z2, v)), abs(det2(z2, w))
        if d1v != d1w or d2v != d2w:
            return f"edge {i}: |det| families disagree ({d1v} vs {d1w} and {d2v} vs {d2w})"
    return z1, z2


def canonical_th3_set(edges: list[Pair], vertex: VertexId = "V") -> EquitableSet:
    """The canonical two-element equitable set {w1 - v1, w1 + v1}; raises
    ValueError with the reason when `_canonical_pair` finds none."""
    pair = _canonical_pair(edges)
    if isinstance(pair, str):
        raise ValueError(pair)
    return EquitableSet.single(list(pair), vertex)


def vspecial_sufficient(edges: list[Pair]) -> SpecialVerdict:
    """Sufficient test: Yes when both determinant families agree up to sign,
    which is when the canonical two-element equitable set exists.

    Only ever answers Yes or Unknown; the condition is not necessary.
    """
    require_nonzero(edges)
    pair = _canonical_pair(edges)
    notes = (pair,) if isinstance(pair, str) else ()
    return SpecialVerdict(
        Answer.UNKNOWN if notes else Answer.YES,
        "DetSufficient",
        "two-element equitable set sufficiency test",
        notes,
    )


def vspecial_fbc_decide(edges: list[Pair]) -> SpecialVerdict:
    """For free-by-cyclic single-vertex inputs, virtual specialness is
    equivalent to CAT(0)ness; a No on this route is a genuine No.  Decides
    free-by-cyclicity, and CAT(0)ness only after a Yes, and reads the two
    verdicts with `vspecial_from_verdicts`.  Both deciders keep their recent
    verdicts, so after a caller has asked them this costs two lookups."""
    fbc = decide_fbc_single_vertex(edges)
    return vspecial_from_verdicts(fbc, decide_cat0(edges) if fbc.answer else None)


def vspecial_from_verdicts(fbc: FbcVerdict, cat0: Cat0Verdict | None) -> SpecialVerdict:
    """The verdict of `vspecial_fbc_decide` from a one-vertex input's
    free-by-cyclic verdict and, when that says Yes, its CAT(0) verdict."""
    citation = "CAT(0) <=> virtually special for free-by-cyclic one-vertex groups"
    if not fbc.answer:
        return SpecialVerdict(
            Answer.UNKNOWN,
            "FbcCat0Equiv",
            citation,
            notes=("input is not free-by-cyclic; equivalence route not applicable",),
        )
    return SpecialVerdict(Answer.YES if cat0.answer else Answer.NO, "FbcCat0Equiv", citation)


def _line_counts(g: TubularPresentation) -> dict[VertexId, int]:
    """Each vertex's number of lines through the origin spanned by its
    attaching vectors (both ends of loops counted): the distinct `line_of`
    vectors at the vertex, in one pass over the edges."""
    lines: dict[VertexId, set[tuple[int, int]]] = {v: set() for v in g.vertices}
    for _, src, dst, (vx, vy), (wx, wy) in g.edges:
        lines[src].add(line_of(vx, vy))
        lines[dst].add(line_of(wx, wy))
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


@functools.lru_cache(maxsize=16)
def gpq_vspecial_decide(params: GpqParams) -> SpecialVerdict:
    """Complete characterization of virtual specialness (equivalently,
    CAT(0)ness) for the family: either p_i = -q_i for all i, or, evaluated at
    the first s with p_s != -q_s,

        q_i (q_i + p_s - q_s) = p_i (p_i - p_s + q_s)   for all i.

    The verdicts of the last 16 parameter sets are kept, so
    `gpq_compact_special_decide` asking again costs a lookup.
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
