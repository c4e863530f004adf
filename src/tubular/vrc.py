"""Obstruction to virtually retracting onto the central cyclic subgroup, for
the two-parameter integer family.  The report it feeds, on amalgams with
F2 x Z, is `report.th9_rule`.

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

from .core import GpqParams, Rat

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
    # Each distinct p - q, twice a forced value, to the first index forcing it.
    first_index: dict[int, int] = {}
    for i, (p, q) in enumerate(zip(params.p, params.q)):
        if p + q != 0 and p - q not in first_index:
            first_index[p - q] = i
    forced = tuple(Fraction(d, 2) for d in first_index)
    if len(forced) >= 2:
        return VrcVerdict(
            OBSTRUCTED, forced, witness_indices=tuple(first_index.values())[:2]
        )
    return VrcVerdict(INCONCLUSIVE, forced)
