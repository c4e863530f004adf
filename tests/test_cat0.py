import random
from fractions import Fraction

import pytest

import tubular.cat0
from tubular.cat0 import (
    Cat0Verdict,
    ObstructionDatum,
    ObstructionKind,
    _cos_constraint,
    decide_cat0,
    vertex_necessary_checks,
)
from test_invariance import _random_presentation
from tubular.core import Edge, IntVec2, QForm2, TubularPresentation, check_certificate, det2
from tubular.corpus import (
    bs12_shape,
    corlast,
    f2xz,
    gersten_presentation,
    lyman_phi,
    lyman_psi,
)
from tubular.special import gpq_to_tubular

V = IntVec2


def pairs(*tuples):
    return [(V(*a), V(*b)) for a, b in tuples]


def test_gersten_is_not_cat0_forced_cosine_one():
    verdict = decide_cat0(gersten_presentation().single_vertex_pairs())
    assert not verdict.answer
    assert verdict.obstruction.kind is ObstructionKind.COS_OUT_OF_RANGE
    assert verdict.obstruction.values == (Fraction(1),)


def test_lyman_psi_family_is_cat0():
    for m, n in [(1, 1), (1, 2), (-3, 2), (5, -5)]:
        g = gpq_to_tubular(lyman_psi(m, n))
        verdict = decide_cat0(g.single_vertex_pairs())
        assert verdict.answer, (m, n)
        assert check_certificate(verdict.certificate, g.single_vertex_pairs())


def test_lyman_phi_is_cat0():
    verdict = decide_cat0(lyman_phi().single_vertex_pairs())
    assert verdict.answer
    assert verdict.certificate is not None


def test_all_parallel_equal_pairs_yield_identity_form():
    verdict = decide_cat0(f2xz().single_vertex_pairs())
    assert verdict.answer
    assert verdict.certificate.value(V(1, 0)) == 1
    assert verdict.certificate.value(V(0, 1)) == 1
    # Every form equalizes v == w, but a degenerate one is no certificate.
    degenerate = QForm2(Fraction(1), Fraction(1), Fraction(1))
    assert not check_certificate(degenerate, f2xz().single_vertex_pairs())


def test_parallel_mismatch_is_fatal():
    verdict = decide_cat0(bs12_shape().single_vertex_pairs())
    assert not verdict.answer
    assert verdict.obstruction.kind is ObstructionKind.PARALLEL_MISMATCH
    assert verdict.obstruction.indices == (0,)


def test_inconsistent_cosines():
    # First edge fixes the base; the next two force different cosines.
    # Relative to the base (1,0),(0,1): the second edge forces cos = 0, the
    # third forces cos = -3/4.
    verdict = decide_cat0(
        pairs(((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 2), (2, 2)))
    )
    assert not verdict.answer
    assert verdict.obstruction.kind is ObstructionKind.INCONSISTENT_COS


def test_rejects_degenerate_input():
    # No edges is Z^2, not a degenerate input: Yes with a checkable form.
    verdict = decide_cat0([])
    assert verdict.answer and check_certificate(verdict.certificate, [])
    with pytest.raises(ValueError):
        decide_cat0(pairs(((0, 0), (1, 0))))


def _random_pairs(rng, k, bound=5):
    out = []
    for _ in range(k):
        while True:
            v = V(rng.randint(-bound, bound), rng.randint(-bound, bound))
            w = V(rng.randint(-bound, bound), rng.randint(-bound, bound))
            if not v.is_zero() and not w.is_zero():
                out.append((v, w))
                break
    return out


def test_yes_certificates_reverify_and_no_verdicts_are_complete():
    """Soundness: every Yes certificate re-verifies exactly.  Completeness
    oracle: for No verdicts without a parallel mismatch, no rational cosine on
    a fine grid satisfies every edge constraint (the constraints are linear in
    the cosine, so a consistent value would be the single forced one)."""
    rng = random.Random(20240817)
    for _ in range(400):
        edges = _random_pairs(rng, rng.randint(1, 4))
        verdict = decide_cat0(edges)
        if verdict.answer:
            assert check_certificate(verdict.certificate, edges)
            continue
        if verdict.obstruction.kind is ObstructionKind.PARALLEL_MISMATCH:
            i = verdict.obstruction.indices[0]
            v, w = edges[i]
            assert det2(v, w) == 0 and v != w and v != -w
            continue
        base = next(i for i, (v, w) in enumerate(edges) if det2(v, w) != 0)
        v1, w1 = edges[base]
        constraints = [
            _cos_constraint(v1, w1, v, w)
            for i, (v, w) in enumerate(edges)
            if i != base
        ]
        for k in range(-49, 50):
            c = Fraction(k, 50)
            assert any(a != b * c for a, b in constraints), (edges, c)


def test_edge_loop_is_linear_in_the_loops(monkeypatch):
    """A bound that does not depend on the machine: on n loops that the
    identity form certifies, each rotating its vector by a quarter turn,
    `decide_cat0` poses one cosine constraint per loop besides the base."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _cos_constraint(*args)

    monkeypatch.setattr(tubular.cat0, "_cos_constraint", counted)
    counts = []
    for n in (500, 1000):
        calls = 0
        edges = [(V(1, k), V(-k, 1)) for k in range(n)]
        verdict = decide_cat0(edges)
        assert verdict.answer and check_certificate(verdict.certificate, edges)
        counts.append(calls)
    assert counts[0] > 0 and counts[1] / counts[0] <= 2.2, counts


def test_verdict_invariant_under_edge_reordering():
    rng = random.Random(999)
    for _ in range(200):
        edges = _random_pairs(rng, rng.randint(2, 4))
        answer = decide_cat0(edges).answer
        shuffled = edges[:]
        rng.shuffle(shuffled)
        assert decide_cat0(shuffled).answer == answer


def test_vertex_necessary_checks_multi_vertex():
    checks = vertex_necessary_checks(corlast())
    assert not checks["g1.V"].answer  # the Gersten loops fail
    assert checks["g2.V"].certificate == QForm2.identity()  # no loops: Z^2


def _per_vertex_checks_oracle(g):
    """The per-vertex scan that the one-pass grouping replaced."""
    out = {}
    for v in g.vertices:
        loops = [e for e in g.edges if e.src == e.dst == v]
        if loops:
            out[v] = decide_cat0([(e.v, e.w) for e in loops])
        else:
            out[v] = Cat0Verdict(True, QForm2.identity(), cos_phi=Fraction(0))
    return out


def test_vertex_necessary_checks_agree_with_per_vertex_oracle():
    """Equal verdicts, in vertex order, on random presentations and on
    isolated vertices, loops with v == w and huge coordinates."""
    huge = 10**30
    hand_made = [
        TubularPresentation(("V", "W", "X"), (Edge("e", "V", "V", V(2, 4), V(2, 4)),)),
        TubularPresentation(("V", "W"), (
            Edge("a", "V", "W", V(huge, -3 * huge), V(-huge, 0)),
            Edge("b", "V", "V", V(huge, 1), V(1, huge)),
            Edge("c", "W", "W", V(huge, huge), V(huge, huge)),
            Edge("d", "V", "V", V(huge, 0), V(0, huge + 1)),
            Edge("f", "W", "W", V(3, huge), V(huge, -3)),
        )),
        TubularPresentation(("V",), ()),
    ]
    rng = random.Random(20261019)
    inputs = hand_made + [_random_presentation(rng) for _ in range(1000)]
    answers = set()
    for g in inputs:
        checks = vertex_necessary_checks(g)
        assert list(checks.items()) == list(_per_vertex_checks_oracle(g).items())
        answers.update(c.answer for c in checks.values())
    assert answers == {True, False}
    assert not vertex_necessary_checks(hand_made[1])["V"].answer


def _oracle_decide_cat0(edges):
    """The replaced decider, kept as an oracle: coordinates relative to the base
    pair through the rational inverse of the matrix with columns v1, w1, and the
    certificate M^-T [[1, c], [c, 1]] M^-1, all in Fractions."""
    for i, (v, w) in enumerate(edges):
        if det2(v, w) == 0 and v != w and v != -w:
            return Cat0Verdict(
                False,
                obstruction=ObstructionDatum(ObstructionKind.PARALLEL_MISMATCH, (i,)),
            )
    base = next((i for i, (v, w) in enumerate(edges) if det2(v, w) != 0), None)
    if base is None:
        return Cat0Verdict(True, QForm2.identity(), cos_phi=Fraction(0))
    v1, w1 = edges[base]
    d = Fraction(det2(v1, w1))
    (p, q), (r, s) = (w1.y / d, -w1.x / d), (-v1.y / d, v1.x / d)

    forced = {}
    for i, (v, w) in enumerate(edges):
        if i == base:
            continue
        x, y = p * v.x + q * v.y, r * v.x + s * v.y
        xp, yp = p * w.x + q * w.y, r * w.x + s * w.y
        a = (x * x + y * y) - (xp * xp + yp * yp)
        b = 2 * (xp * yp - x * y)
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
    c = next(iter(forced)) if forced else Fraction(0)
    if not (-1 < c < 1):
        return Cat0Verdict(
            False,
            obstruction=ObstructionDatum(
                ObstructionKind.COS_OUT_OF_RANGE, (forced[c],), (c,)
            ),
        )
    cert = QForm2(
        p * p + 2 * c * p * r + r * r,
        p * q + c * (p * s + q * r) + r * s,
        q * q + 2 * c * q * s + s * s,
    )
    return Cat0Verdict(True, cert, cos_phi=c)


def _planted_yes_pairs(rng, k):
    """k pairs drawn from level sets of a random positive-definite integer form,
    so the group is CAT(0) by construction."""
    while True:
        a, b, c = rng.randint(1, 4), rng.randint(-3, 3), rng.randint(1, 4)
        if a * c - b * b > 0:
            break
    levels = {}
    for x in range(-4, 5):
        for y in range(-4, 5):
            if x or y:
                value = a * x * x + 2 * b * x * y + c * y * y
                levels.setdefault(value, []).append(V(x, y))
    rich = [vs for _, vs in sorted(levels.items()) if len(vs) > 2]
    return [tuple(rng.sample(rng.choice(rich), 2)) for _ in range(k)]


def _datum(verdict):
    o = verdict.obstruction
    q = verdict.certificate
    return (
        verdict.answer,
        q and (q.a, q.b, q.c),
        verdict.cos_phi,
        o and (o.kind, o.indices, o.values, o.describe()),
    )


def test_integer_decider_agrees_with_fraction_oracle():
    """Same answer, certificate, cosine, obstruction and description as the
    Fraction inverse-matrix decider; every rational field is a Fraction."""
    rng = random.Random(5150)
    cases = [_random_pairs(rng, rng.randint(1, 4), bound=3) for _ in range(2500)]
    planted = [_planted_yes_pairs(rng, rng.randint(2, 5)) for _ in range(600)]
    kinds = set()
    for edges in cases + planted:
        verdict = decide_cat0(edges)
        assert _datum(verdict) == _datum(_oracle_decide_cat0(edges)), edges
        if verdict.answer:
            q = verdict.certificate
            assert all(type(f) is Fraction for f in (q.a, q.b, q.c, verdict.cos_phi))
            assert check_certificate(q, edges)
        else:
            o = verdict.obstruction
            assert all(type(f) is Fraction for f in o.values)
            kinds.add((o.kind, len(o.values)))
    assert all(decide_cat0(edges).answer for edges in planted)
    assert kinds == {
        (ObstructionKind.PARALLEL_MISMATCH, 0),
        (ObstructionKind.INCONSISTENT_COS, 1),
        (ObstructionKind.INCONSISTENT_COS, 2),
        (ObstructionKind.COS_OUT_OF_RANGE, 1),
    }
