"""Acceptance suite: one test per criterion, each asserting exact verdicts and
its runtime budget, and printing a single pass line.

Criteria:
 1. Gersten group: all five verdicts, exact, < 1 s.
 2. 400-case family sweep (|m|, |n| <= 10), < 5 s.
 3. Family characterization == quadratic-form decider, exhaustive for
    1-2 extra generators over [-4,4], 50k fixed-seed sample for 3, < 2 min.
 4. Line criterion == homomorphism criterion on 1000 random presentations.
 5. Amalgam suite (corlast, eg2 double, F2xZ gluing rule), < 1 s.
 6. Cubulation suite (search + dilation + bounded nonexistence), < 30 s.
 7. Certificate soundness: every Yes verdict re-verifies exactly.
 8. Verdict invariance under 20 random unimodular basis changes per entry.
 9. Closed-form retract obstruction == numeric grid search on the [-3,3]
    grid, tolerance 1e-9, < 1 min.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from tubular import cli
from tubular.cat0 import decide_cat0
from tubular.cli import analyze
from tubular.core import (
    EquitableSet,
    GpqParams,
    IntMat2,
    IntVec2,
    TubularPresentation,
    amalgamate,
    change_basis,
    check_certificate,
    single_vertex_presentation,
    verify_equitable,
)
from tubular.corpus import (
    bare_z2,
    bs12_shape,
    corpus,
    eg2_g1,
    gersten_params,
    gersten_presentation,
    lyman_psi,
)
from tubular.cubulate import (
    NotFound,
    dilation_decide,
    equitable_search,
    wall_graph,
)
from tubular.fbc import (
    _edge_table,
    button_decide,
    decide_fbc_single_vertex,
)
from tubular.report import th9_rule
from tubular.special import (
    Answer,
    canonical_th3_set,
    cocompact_cubulation_decide,
    gpq_compact_special_decide,
    gpq_to_tubular,
    gpq_vspecial_decide,
)
from tubular.vrc import OBSTRUCTED, vrc_obstruction

V = IntVec2


def _report(n, t0, detail):
    print(f"criterion {n}: PASS ({time.time() - t0:.2f}s) {detail}")


def _witness_valid(g, f):
    return all(
        f.value(e.src, e.v) == f.value(e.dst, e.w) and f.value(e.src, e.v) != 0
        for e in g.edges
    )


def test_criterion_1_gersten():
    t0 = time.time()
    params = gersten_params()
    g = gpq_to_tubular(params)

    assert not decide_cat0(g.single_vertex_pairs()).answer
    fbc = decide_fbc_single_vertex(g.single_vertex_pairs())
    assert fbc.answer and _witness_valid(g, fbc.witness)
    vs = gpq_vspecial_decide(params)
    assert vs.answer is Answer.NO
    # The equivalence route gives the same No.
    reports = {r.property: r for r in analyze(params, "gersten")}
    assert reports["vspecial"].verdict == "No"
    vrc = vrc_obstruction(params)
    assert vrc.answer == OBSTRUCTED
    assert set(vrc.forced_values) == {Fraction(-1, 2), Fraction(-1)}

    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, t0, "gersten: cat0 No, fbc Yes, vspecial No, vrc Obstructed")


def test_criterion_2_family_sweep():
    t0 = time.time()
    values = [m for m in range(-10, 11) if m != 0]
    cases = 0
    for m in values:
        for n in values:
            params = lyman_psi(m, n)
            assert gpq_vspecial_decide(params).answer is Answer.YES
            compact = gpq_compact_special_decide(params).answer is Answer.YES
            assert compact == (abs(m) == abs(n)), (m, n)
            classes = len({-m, m, -n, n})
            cc = cocompact_cubulation_decide(gpq_to_tubular(params), cat0_known=True)
            if classes >= 3:
                assert cc.answer is Answer.NO, (m, n)
            else:
                assert cc.answer is Answer.YES, (m, n)
            cases += 1
    assert cases == 400
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(2, t0, f"{cases} family cases match the characterization")


def _characterizations_agree(p, q):
    params = GpqParams(p, q)
    a = gpq_vspecial_decide(params).answer is Answer.YES
    b = decide_cat0(gpq_to_tubular(params).single_vertex_pairs()).answer
    return a == b


def test_criterion_3_characterization_equivalence():
    t0 = time.time()
    rng = random.Random(20240822)
    checked = 0
    for n in (1, 2):  # exhaustive
        for p in itertools.product(range(-4, 5), repeat=n):
            for q in itertools.product(range(-4, 5), repeat=n):
                assert _characterizations_agree(p, q), (p, q)
                checked += 1
    for _ in range(50000):  # fixed-seed sample of the n = 3 slice
        p = tuple(rng.randint(-4, 4) for _ in range(3))
        q = tuple(rng.randint(-4, 4) for _ in range(3))
        assert _characterizations_agree(p, q), (p, q)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, t0, f"{checked} cases, zero mismatches")


def test_criterion_4_fbc_oracle_equivalence():
    _edge_table.cache_clear()  # time Button cold
    t0 = time.time()
    rng = random.Random(20240823)
    for _ in range(1000):
        k = rng.randint(1, 4)
        edges = []
        while len(edges) < k:
            v = V(rng.randint(-5, 5), rng.randint(-5, 5))
            w = V(rng.randint(-5, 5), rng.randint(-5, 5))
            if not v.is_zero() and not w.is_zero():
                edges.append((v, w))
        g = single_vertex_presentation(edges)
        assert decide_fbc_single_vertex(edges).answer == button_decide(g).answer, edges
    _report(4, t0, "1000 random presentations, zero mismatches")


def test_criterion_5_amalgam_suite():
    _edge_table.cache_clear()  # time Button cold
    t0 = time.time()
    # corlast: Gersten glued to a bare Z^2 over a = x.
    corlast = amalgamate(
        gersten_presentation(), ("V", V(1, 0)), bare_z2(), ("V", V(1, 0))
    )
    assert not button_decide(corlast).answer
    # eg2 double: two copies of eg2-g1 over a b^-1 = a.
    double = amalgamate(eg2_g1(), ("V", V(1, -1)), eg2_g1(), ("V", V(1, 0)))
    assert not button_decide(double).answer
    # Gersten * F2xZ over a = t, via the non-retractor rule.
    vrc = vrc_obstruction(gersten_params())
    report = th9_rule(
        gersten_presentation(), ("V", V(1, 0)), vrc.obstructed,
        forced_values=vrc.forced_values,
    )
    assert report.verdict == "No"
    assert report.property == "virtually_free_by_cyclic"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(5, t0, "corlast No, eg2-double No, F2xZ gluing rule No")


def test_criterion_6_cubulation_suite():
    t0 = time.time()
    g = gersten_presentation()
    s = equitable_search(g, 3, 3)
    assert isinstance(s, EquitableSet) and verify_equitable(g, s)
    d = dilation_decide(wall_graph(g, s))
    assert d.dilated and d.holonomy != 1 and d.witness_cycle

    lyman = gpq_to_tubular(lyman_psi(1, 1))
    canonical = canonical_th3_set(lyman.single_vertex_pairs())
    assert verify_equitable(lyman, canonical)
    assert not dilation_decide(wall_graph(lyman, canonical)).dilated

    for bounds in [(3, 3), (4, 3), (5, 4), (6, 4)]:
        assert isinstance(equitable_search(bs12_shape(), *bounds), NotFound), bounds

    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(6, t0, "gersten Dilated, family NonDilated, BS(1,2) NotFound")


def test_criterion_7_certificate_soundness():
    _edge_table.cache_clear()  # time Button cold
    t0 = time.time()
    checked = 0
    presentations = [
        gpq_to_tubular(e.presentation)
        if isinstance(e.presentation, GpqParams)
        else e.presentation
        for e in corpus()
    ] + [gpq_to_tubular(lyman_psi(m, n)) for m in (-3, 1, 2) for n in (1, 2, 5)]
    for g in presentations:
        if len(g.vertices) == 1 and g.edges:
            pairs = g.single_vertex_pairs()
            cat0 = decide_cat0(pairs)
            if cat0.answer:
                assert check_certificate(cat0.certificate, pairs)
                checked += 1
            fbc = decide_fbc_single_vertex(pairs)
        else:
            fbc = button_decide(g)
        if fbc.answer:
            assert _witness_valid(g, fbc.witness)
            checked += 1
        found = equitable_search(g, 3, 3)
        if isinstance(found, EquitableSet):
            assert verify_equitable(g, found)
            checked += 1
    assert checked >= 20
    _report(7, t0, f"{checked} Yes certificates re-verified exactly")


def _random_unimodular(rng) -> IntMat2:
    m = IntMat2(1, 0, 0, 1)
    gens = [IntMat2(1, 1, 0, 1), IntMat2(1, -1, 0, 1), IntMat2(0, -1, 1, 0)]
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(gens)
        m = IntMat2(
            m.a * g.a + m.b * g.c,
            m.a * g.b + m.b * g.d,
            m.c * g.a + m.d * g.c,
            m.c * g.b + m.d * g.d,
        )
    return m


def _verdict_tuple(g: TubularPresentation):
    if len(g.vertices) == 1 and g.edges:
        pairs = g.single_vertex_pairs()
        cat0 = decide_cat0(pairs).answer
        fbc = decide_fbc_single_vertex(pairs).answer
    else:
        cat0 = None
        fbc = button_decide(g).answer
    vspecial = cli._reports(cli._Input(g, "x"), ("vspecial",))[0].verdict
    cocompact = cocompact_cubulation_decide(g, cat0_known=bool(cat0)).answer
    return (cat0, fbc, vspecial, cocompact)


def test_criterion_8_unimodular_invariance():
    _edge_table.cache_clear()  # time Button cold
    t0 = time.time()
    rng = random.Random(20240824)
    for entry in corpus():
        g = (
            gpq_to_tubular(entry.presentation)
            if isinstance(entry.presentation, GpqParams)
            else entry.presentation
        )
        base = _verdict_tuple(g)
        for _ in range(20):
            h = g
            for vertex in g.vertices:
                u = _random_unimodular(rng)
                assert abs(u.det()) == 1
                h = change_basis(h, vertex, u)
            assert _verdict_tuple(h) == base, (entry.name, h)
    _report(8, t0, "verdicts stable under 20 basis changes per corpus entry")


def test_criterion_9_vrc_closed_form_vs_numeric():
    t0 = time.time()
    tol = 1e-9
    t_grid = np.arange(-20, 20 + 1e-12, 0.125)
    total = 0
    for n in (1, 2, 3):
        grid = np.array(
            list(itertools.product(range(-3, 4), repeat=2 * n)), dtype=float
        )
        P, Q = grid[:, :n], grid[:, n:]
        # Obstructed iff two masked indices force distinct values of
        # t = <v, w> / ||w||^2, namely (p - q) / 2.
        mask = (P + Q) != 0
        forced = (P - Q) / 2.0
        obstructed = np.zeros(len(grid), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                obstructed |= mask[:, i] & mask[:, j] & (
                    forced[:, i] != forced[:, j]
                )
        # Numeric search: residual_i(t) = |-2 (p+q) t + p^2 - q^2| for unit w.
        feasible = np.zeros(len(grid), dtype=bool)
        for lo in range(0, len(grid), 4096):
            P_, Q_ = P[lo : lo + 4096], Q[lo : lo + 4096]
            res = np.abs(
                -2 * (P_ + Q_)[:, None, :] * t_grid[None, :, None]
                + (P_**2 - Q_**2)[:, None, :]
            )
            feasible[lo : lo + 4096] = (res.max(axis=2) < tol).any(axis=1)
        assert not (obstructed & feasible).any()
        assert (feasible | obstructed).all()  # inconclusive => grid solution
        total += len(grid)
        # Spot-check the vectorized classification against the exact decider.
        rng = random.Random(n)
        for _ in range(500):
            i = rng.randrange(len(grid))
            exact = vrc_obstruction(
                GpqParams(tuple(int(x) for x in P[i]), tuple(int(x) for x in Q[i]))
            )
            assert (exact.answer == OBSTRUCTED) == bool(obstructed[i])
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(9, t0, f"{total} grid cases, closed form matches numeric search")
