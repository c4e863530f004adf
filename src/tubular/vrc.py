"""Obstruction to virtually retracting onto the central cyclic subgroup, for
the two-parameter integer family, and the derived non-virtually-free-by-cyclic
report for amalgams with F2 x Z.

Expanding ||v - p_i w||^2 = ||v + q_i w||^2 for real vectors v, w (w nonzero)
gives, per index with p_i + q_i != 0, the single-parameter condition
<v,w>/||w||^2 = (p_i - q_i)/2.  Since v is unconstrained the ratio ranges over
all reals, so a solution exists iff at most one value is forced.  Two distinct
forced values obstruct the retraction, so the group lacks the property that
every cyclic subgroup is a virtual retract.  This is an obstruction only: the
inconclusive verdict never asserts the property holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GpqParams, IntVec2, Rat, TubularPresentation, VertexId
from .report import NO, UNKNOWN, DecisionReport, serialize_forced_values

OBSTRUCTED = "Obstructed"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VrcVerdict:
    answer: str  # Obstructed / Inconclusive
    forced_values: tuple[Rat, ...]  # distinct forced values, in first-seen order
    # A witnessing pair of indices forcing distinct values, when obstructed.
    witness_indices: tuple[int, ...] = ()

    @property
    def obstructed(self) -> bool:
        return self.answer == OBSTRUCTED


def vrc_obstruction(params: GpqParams) -> VrcVerdict:
    """Decide whether the one-parameter balance conditions are inconsistent.

    Indices with p_i + q_i = 0 impose nothing; the rest force the parameter to
    equal (p_i - q_i)/2.  Obstructed exactly when >= 2 distinct values are
    forced.
    """
    forced: list[Rat] = []
    first_index: dict[Rat, int] = {}
    for i, (p, q) in enumerate(zip(params.p, params.q)):
        if p + q == 0:
            continue
        val = Fraction(p - q, 2)
        if val not in first_index:
            first_index[val] = i
            forced.append(val)
    if len(forced) >= 2:
        return VrcVerdict(
            OBSTRUCTED,
            tuple(forced),
            witness_indices=(first_index[forced[0]], first_index[forced[1]]),
        )
    return VrcVerdict(INCONCLUSIVE, tuple(forced))


def th9_rule(
    g: TubularPresentation,
    a: tuple[VertexId, IntVec2],
    a_not_virtual_retractor: bool,
    user_asserted: bool = False,
    forced_values: tuple[Rat, ...] = (),
) -> DecisionReport:
    """Report on the amalgam of g with F2 x Z over a = t.

    When the chosen element is known not to be a virtual retractor (from an
    Obstructed verdict, or asserted by the caller), the amalgam over that
    element with F2 x Z (t central) is not virtually free-by-cyclic.  Without
    that hypothesis the rule says nothing.
    """
    vertex, elem = a
    if a_not_virtual_retractor:
        verdict = NO
        cert = serialize_forced_values(forced_values) if forced_values else None
        citation = (
            "amalgam with F2 x Z over a non-virtual-retract central element "
            "is not virtually free-by-cyclic"
        )
        if user_asserted:
            hypothesis = "user-asserted hypothesis: element is not a virtual retractor"
        else:
            hypothesis = (
                "hypothesis certified by the forced-value obstruction to retracting "
                "onto the central cyclic subgroup"
            )
        notes = (f"glued element {elem} at vertex {vertex}", hypothesis)
    else:
        verdict, cert = UNKNOWN, None
        citation = "amalgam over a non-virtual-retract element rule"
        notes = ("hypothesis (element is not a virtual retractor) not established",)
    return DecisionReport(
        group=f"{g.name or 'G'} *_(a=t) F2xZ",
        property="virtually_free_by_cyclic",
        verdict=verdict,
        route="AmalgamOverNonRetractor",
        certificate=cert,
        citation=citation,
        notes=notes,
    )
