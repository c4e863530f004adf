import itertools
import random
import time

import pytest

from tubular import fbc
from tubular.core import (
    Edge,
    IntVec2,
    TubularPresentation,
    det2,
    single_vertex_presentation,
)
from tubular.corpus import (
    bare_z2,
    bs12_shape,
    corlast,
    eg2_double,
    eg2_g1,
    f2xz,
    gersten_presentation,
    lyman_phi,
)
from tubular.fbc import (
    Functional,
    amalgam_fbc_sufficient,
    amalgamate,
    button_decide,
    decide_fbc_single_vertex,
    generalized_retractor,
    hom_space,
)

V = IntVec2


def witness_is_valid(g, f: Functional) -> bool:
    return all(
        f.value(e.src, e.v) == f.value(e.dst, e.w) and f.value(e.src, e.v) != 0
        for e in g.edges
    )


def test_gersten_fbc_with_golden_witness():
    verdict = decide_fbc_single_vertex(gersten_presentation().single_vertex_pairs())
    assert verdict.answer
    assert verdict.witness.at("V") == (0, 1)


def test_gersten_button_witness_edge_values():
    g = gersten_presentation()
    verdict = button_decide(g)
    assert verdict.answer
    assert [verdict.witness.edge_value(e) for e in g.edges] == [1, 1]


def test_lyman_phi_and_f2xz_are_fbc():
    for g in (lyman_phi(), f2xz()):
        verdict = decide_fbc_single_vertex(g.single_vertex_pairs())
        assert verdict.answer
        assert witness_is_valid(g, Functional((("V", verdict.witness.at("V")),)))


def test_bs12_is_not_fbc():
    assert not decide_fbc_single_vertex(bs12_shape().single_vertex_pairs()).answer
    assert not button_decide(bs12_shape()).answer


def test_non_parallel_differences_rejected():
    # Differences (1,-1) and (-1,1) are parallel and their line avoids all
    # attaching vectors.
    assert decide_fbc_single_vertex([(V(1, 0), V(0, 1)), (V(0, 1), V(1, 0))]).answer
    # Differences (1,-1) and (-1,0) are not parallel.
    assert not decide_fbc_single_vertex(
        [(V(1, 0), V(0, 1)), (V(1, 1), V(2, 1))]
    ).answer


def test_line_containing_attaching_vector_rejected():
    # Single edge with difference parallel to v itself: line contains v.
    verdict = decide_fbc_single_vertex([(V(1, 0), V(2, 0))])
    assert not verdict.answer


def test_hom_space_dimensions():
    assert hom_space(gersten_presentation()).dim == 1
    assert hom_space(f2xz()).dim == 2
    assert hom_space(corlast()).dim == 2


def _random_pairs(rng, k):
    out = []
    for _ in range(k):
        while True:
            v = V(rng.randint(-5, 5), rng.randint(-5, 5))
            w = V(rng.randint(-5, 5), rng.randint(-5, 5))
            if not v.is_zero() and not w.is_zero():
                out.append((v, w))
                break
    return out


def test_line_criterion_agrees_with_button_criterion():
    rng = random.Random(20240818)
    for _ in range(300):
        edges = _random_pairs(rng, rng.randint(1, 4))
        g = single_vertex_presentation(edges)
        a = decide_fbc_single_vertex(edges)
        b = button_decide(g)
        assert a.answer == b.answer, edges
        if a.answer:
            assert witness_is_valid(g, a.witness)
            assert witness_is_valid(g, b.witness)


def test_generalized_retractor_eg2():
    verdict = generalized_retractor(eg2_g1(), "V", V(1, 0))
    assert verdict.answer
    assert verdict.witness.at("V") == (1, 1)
    # a b^-1 = (1,-1) is killed by every compatible functional.
    assert not generalized_retractor(eg2_g1(), "V", V(1, -1)).answer


def test_generalized_retractor_input_validation():
    with pytest.raises(ValueError):
        generalized_retractor(eg2_g1(), "V", V(0, 0))
    with pytest.raises(ValueError):
        generalized_retractor(eg2_g1(), "X", V(1, 0))


def test_amalgamate_structure():
    g = amalgamate(eg2_g1(), ("V", V(1, -1)), eg2_g1(), ("V", V(1, 0)))
    assert g.vertices == ("g1.V", "g2.V")
    bridge = g.edges[-1]
    assert (bridge.src, bridge.dst) == ("g1.V", "g2.V")
    assert (bridge.v, bridge.w) == (V(1, -1), V(1, 0))


def test_eg2_double_not_fbc():
    assert not button_decide(eg2_double()).answer


def test_corlast_not_fbc():
    assert not button_decide(corlast()).answer


def test_amalgam_rule_on_double_eg2_over_retractors():
    analysis = amalgam_fbc_sufficient(
        eg2_g1(), ("V", V(1, 0)), eg2_g1(), ("V", V(1, 0))
    )
    assert analysis.rule_applies
    assert analysis.button.answer
    assert witness_is_valid(analysis.amalgam, analysis.button.witness)


def test_amalgam_rule_inconclusive_on_corlast():
    analysis = amalgam_fbc_sufficient(
        gersten_presentation(), ("V", V(1, 0)), bare_z2(), ("V", V(1, 0))
    )
    assert not analysis.rule_applies
    assert not analysis.button.answer


def test_button_necessary_direction_of_retractor_rule():
    """When Button answers Yes with a witness nonzero on the bridge, both
    bridge vectors pass the retractor certificate."""
    rng = random.Random(7)

    def fbc_friendly_pairs(k):
        # Pairs (v, v + j*d) for a common direction d: free-by-cyclic by the
        # line criterion, so the amalgam has a chance of passing Button.
        while True:
            d = V(rng.randint(-2, 2), rng.randint(-2, 2))
            if not d.is_zero():
                break
        out = []
        while len(out) < k:
            v = V(rng.randint(-4, 4), rng.randint(-4, 4))
            if not v.is_zero() and det2(d, v) != 0:
                j = rng.randint(-2, 2)
                out.append((v, v + V(j * d.x, j * d.y)))
        return out

    tried = 0
    for _ in range(200):
        g1 = single_vertex_presentation(fbc_friendly_pairs(2), vertex="V")
        g2 = single_vertex_presentation(fbc_friendly_pairs(2), vertex="V")
        a = V(rng.randint(-3, 3), rng.randint(-3, 3))
        b = V(rng.randint(-3, 3), rng.randint(-3, 3))
        if a.is_zero() or b.is_zero():
            continue
        glued = amalgamate(g1, ("V", a), g2, ("V", b))
        verdict = button_decide(glued)
        if not verdict.answer:
            continue
        tried += 1
        assert generalized_retractor(g1, "V", a).answer
        assert generalized_retractor(g2, "V", b).answer
    assert tried > 10


def _gadget(d):
    """A graph whose homomorphisms to Z are d free integers t_1..t_d, one per
    vertex V_i, free-by-cyclic only through a functional with every t_i and
    every t_i +- t_j nonzero."""
    vs = [f"V{i}" for i in range(d)]
    edges = [
        Edge(f"l{i}", v, v, V(1, 0), V(0, 1 if i % 2 else -1))
        for i, v in enumerate(vs)
    ]
    ws = []
    for i, j in itertools.combinations(range(d), 2):
        for s in (1, -1):
            w = f"W{len(ws)}"
            ws.append(w)
            edges.append(Edge(f"a{w}", vs[i], w, V(1, 0), V(1, 0)))
            edges.append(Edge(f"b{w}", vs[j], w, V(1, 0), V(0, 1)))
            edges.append(Edge(f"c{w}", w, w, V(1, s), V(1, s)))
    return TubularPresentation(tuple(vs + ws), tuple(edges), name=f"gadget{d}")


def test_button_gadget_bounded_work():
    g = _gadget(6)
    k = len(g.edges)
    t0 = time.process_time()
    verdict = button_decide(g)
    elapsed = time.process_time() - t0
    assert verdict.answer
    assert witness_is_valid(g, verdict.witness)
    assert max(abs(c) for _, ab in verdict.witness.coeffs for c in ab) <= k + 1
    assert elapsed < 2.0


def _oracle(g, extra):
    """The max-norm shell search that the greedy walk replaced, on dense
    coordinate rows.  Returns its verdict and the table of required values on
    the hom-space basis."""
    space = hom_space(g)

    def row(vertex, vec):
        lin = [0] * (2 * len(g.vertices))
        i = 2 * g.vertex_index(vertex)
        lin[i], lin[i + 1] = vec.x, vec.y
        return lin

    required = [
        (
            row(e.src, e.v),
            f"every edge-compatible functional vanishes on edge {e.label or e.id}",
        )
        for e in g.edges
    ] + [(row(vertex, elem), text) for vertex, elem, text in extra]
    table = [
        [sum(c * x for c, x in zip(lin, b)) for b in space.basis] for lin, _ in required
    ]
    for vals, (_, text) in zip(table, required):
        if not any(vals):
            return fbc.FbcVerdict(False, obstruction=text), table
    for tup in fbc._coefficient_tuples(space.dim):
        if all(sum(t * x for t, x in zip(tup, vals)) != 0 for vals in table):
            coords = tuple(
                sum(t * b[j] for t, b in zip(tup, space.basis))
                for j in range(2 * len(g.vertices))
            )
            witness = fbc._integer_functional(space, coords)
            return fbc.FbcVerdict(True, witness=witness), table


def _vec(rng):
    while True:
        v = V(rng.randint(-4, 4), rng.randint(-4, 4))
        if not v.is_zero():
            return v


def _random_graph(rng):
    """2-5 vertices joined by a random spanning tree plus up to n extra edges,
    every coordinate in [-4, 4]."""
    n = rng.randint(2, 5)
    vs = [f"V{i}" for i in range(n)]
    ends = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    ends += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, n))]
    edges = [
        Edge(f"e{i}", src, dst, _vec(rng), _vec(rng)) for i, (src, dst) in enumerate(ends)
    ]
    return TubularPresentation(tuple(vs), tuple(edges))


def test_greedy_search_agrees_with_shell_oracle():
    rng = random.Random(20261018)
    yes = dim_one = 0
    for _ in range(300):
        g = _random_graph(rng)
        space = hom_space(g)
        vertex, elem = rng.choice(g.vertices), _vec(rng)
        text = f"every edge-compatible functional vanishes on {elem} at vertex {vertex}"
        for extra, verdict in (
            ([], button_decide(g)),
            ([(vertex, elem, text)], generalized_retractor(g, vertex, elem)),
        ):
            expected, table = _oracle(g, extra)
            assert verdict.answer == expected.answer
            assert verdict.obstruction == expected.obstruction
            if not verdict.answer:
                continue
            yes += 1
            f = verdict.witness
            assert witness_is_valid(g, f)
            assert all(f.value(v, x) != 0 for v, x, _ in extra)
            if space.dim == 1:
                dim_one += 1
                assert f == expected.witness
            coeffs = fbc._greedy_coefficients(table, space.dim)
            assert max(coeffs) <= len(table) + 1
            coords = [
                sum(c * b[j] for c, b in zip(coeffs, space.basis))
                for j in range(2 * len(g.vertices))
            ]
            assert fbc._integer_functional(space, coords) == f
    assert yes > 100 and dim_one > 20
