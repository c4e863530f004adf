import itertools
import random
from fractions import Fraction

import numpy as np

from tubular.core import GpqParams, IntVec2
from tubular.corpus import gersten_params, gersten_presentation
from tubular.report import th9_rule
from tubular.vrc import INCONCLUSIVE, OBSTRUCTED, vrc_obstruction


def test_gersten_obstructed_with_golden_forced_values():
    verdict = vrc_obstruction(gersten_params())
    assert verdict.answer == OBSTRUCTED
    assert set(verdict.forced_values) == {Fraction(-1, 2), Fraction(-1)}
    assert verdict.witness_indices == (0, 1)


def test_all_vacuous_is_inconclusive():
    verdict = vrc_obstruction(GpqParams((1, 3), (-1, -3)))
    assert verdict.answer == INCONCLUSIVE
    assert verdict.forced_values == ()


def test_single_forced_value_is_inconclusive():
    verdict = vrc_obstruction(GpqParams((0, 0), (3, 3)))
    assert verdict.answer == INCONCLUSIVE
    assert verdict.forced_values == (Fraction(-3, 2),)


def test_distinct_nonzero_q_always_obstructed():
    # p = (0,0), q = (q1,q2) with q1, q2 nonzero and q1 != +-q2.
    for q1, q2 in itertools.product(range(-5, 6), repeat=2):
        if q1 == 0 or q2 == 0 or abs(q1) == abs(q2):
            continue
        assert vrc_obstruction(GpqParams((0, 0), (q1, q2))).answer == OBSTRUCTED


def test_scaling_invariance():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        p = tuple(rng.randint(-3, 3) for _ in range(n))
        q = tuple(rng.randint(-3, 3) for _ in range(n))
        base = vrc_obstruction(GpqParams(p, q)).answer
        for lam in (2, 3, 5):
            scaled = vrc_obstruction(
                GpqParams(tuple(lam * x for x in p), tuple(lam * x for x in q))
            )
            assert scaled.answer == base


def _numeric_feasible(p, q, tol=1e-9):
    """Brute-force oracle: scan w over unit directions and v over a grid of
    inner products; the squared-norm equalities depend only on t = <v, w>
    with w normalized, so one angle suffices, but several are scanned anyway
    as a cross-check of that reduction."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    t = np.arange(-20, 20 + 1e-12, 0.125)
    # residual_i(t) = |-2 (p_i + q_i) t + p_i^2 - q_i^2|, for ||w|| = 1.
    res = np.abs(-2 * (p + q)[None, :] * t[:, None] + (p**2 - q**2)[None, :])
    return bool((res.max(axis=1) < tol).any())


def test_closed_form_matches_numeric_oracle_on_sample():
    rng = random.Random(20240820)
    for _ in range(300):
        n = rng.randint(1, 3)
        p = tuple(rng.randint(-3, 3) for _ in range(n))
        q = tuple(rng.randint(-3, 3) for _ in range(n))
        verdict = vrc_obstruction(GpqParams(p, q))
        feasible = _numeric_feasible(p, q)
        if verdict.answer == OBSTRUCTED:
            assert not feasible, (p, q)
        else:
            assert feasible, (p, q)


def test_angle_scan_reduction():
    """Direct check that the planar search over (v, w) with w on the unit
    circle reduces to the inner-product scan: rotate a solution and verify
    the residuals are unchanged."""
    p, q = (0, 0), (3, 3)
    t_star = -1.5
    for k in range(12):
        theta = 2 * np.pi * k / 12
        w = np.array([np.cos(theta), np.sin(theta)])
        v = t_star * w  # <v, w> = t_star
        for pi, qi in zip(p, q):
            lhs = np.dot(v - pi * w, v - pi * w)
            rhs = np.dot(v + qi * w, v + qi * w)
            assert abs(lhs - rhs) < 1e-9


def test_th9_rule_reports():
    g = gersten_presentation()
    verdict = vrc_obstruction(gersten_params())
    report = th9_rule(
        g, ("V", IntVec2(1, 0)), verdict.obstructed,
        forced_values=verdict.forced_values,
    )
    assert report.verdict == "No"
    assert report.property == "virtually_free_by_cyclic"
    assert report.certificate["values"] == ["-1/2", "-1/1"]

    unknown = th9_rule(g, ("V", IntVec2(1, 0)), False)
    assert unknown.verdict == "Unknown"

    asserted = th9_rule(g, ("V", IntVec2(1, 0)), True, user_asserted=True)
    assert asserted.verdict == "No"
    assert any("user-asserted" in n for n in asserted.notes)
