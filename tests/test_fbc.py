import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from tubular import fbc, linalg
from tubular.core import (
    Edge,
    Functional,
    IntVec2,
    TubularPresentation,
    amalgamate,
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
    amalgam_fbc_sufficient,
    button_decide,
    decide_fbc_single_vertex,
    generalized_retractor,
    hom_space,
)
from tubular.dsl import parse, unparse
from tubular.linalg import nullspace

from test_cubulate import _path

V = IntVec2


def witness_is_valid(g, f: Functional) -> bool:
    return all(
        f.value(e.src, e.v) == f.value(e.dst, e.w) and f.value(e.src, e.v) != 0
        for e in g.edges
    )


def _numerators(space):
    """The dense basis of a HomSpace: basis vector i's numerator at every
    coordinate, read back from the sparse entries."""
    numerators = [[0] * len(space.entries) for _ in range(space.dim)]
    for j, column in enumerate(space.entries):
        for i, a in column:
            numerators[i][j] = a
    return tuple(map(tuple, numerators))


def test_gersten_fbc_with_golden_witness():
    verdict = decide_fbc_single_vertex(gersten_presentation().single_vertex_pairs())
    assert verdict.answer
    assert verdict.witness.at("V") == (0, 1)


def test_gersten_button_witness_edge_values():
    g = gersten_presentation()
    verdict = button_decide(g)
    assert verdict.answer
    assert [verdict.witness.value(e.src, e.v) for e in g.edges] == [1, 1]


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
    with pytest.raises(KeyError):
        verdict.witness.at("W")
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
    with pytest.raises(ValueError, match="must be nonzero"):
        amalgamate(eg2_g1(), ("V", V(0, 0)), eg2_g1(), ("V", V(1, 0)))
    with pytest.raises(ValueError, match="vertex not found"):
        amalgamate(eg2_g1(), ("V", V(1, 0)), eg2_g1(), ("W", V(1, 0)))


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
    fbc._edge_table.cache_clear()
    t0 = time.process_time()
    verdict = button_decide(g)
    elapsed = time.process_time() - t0
    assert verdict.answer
    assert witness_is_valid(g, verdict.witness)
    assert max(abs(c) for _, ab in verdict.witness.coeffs for c in ab) <= k + 1
    assert elapsed < 2.0


def _coefficient_tuples(dim: int):
    """All nonzero integer tuples, ordered by increasing max-norm then
    lexicographically; deterministic and exhaustive."""
    for n in itertools.count(1):
        for tup in itertools.product(range(-n, n + 1), repeat=dim):
            if max(abs(t) for t in tup) == n:
                yield tup


def _oracle(g, extra):
    """The max-norm shell search that the greedy walk replaced, on dense
    coordinate rows.  Returns its verdict and the table of required values on
    the integer form of the hom-space basis."""
    space = hom_space(g)

    def row(vertex, vec):
        lin = [0] * (2 * len(g.vertices))
        i = 2 * g.vertices.index(vertex)
        lin[i], lin[i + 1] = vec.x, vec.y
        return lin

    required = [
        (
            row(e.src, e.v),
            f"every edge-compatible functional vanishes on edge {e.id}",
        )
        for e in g.edges
    ] + [(row(vertex, elem), text) for vertex, elem, text in extra]
    numerators = _numerators(space)
    table = [[sum(c * x for c, x in zip(lin, b)) for b in numerators] for lin, _ in required]
    for vals, (_, text) in zip(table, required):
        if not any(vals):
            return fbc.FbcVerdict(False, obstruction=text), table
    for tup in _coefficient_tuples(space.dim):
        if all(sum(t * x for t, x in zip(tup, vals)) != 0 for vals in table):
            coords = [
                sum(t * b[j] for t, b in zip(tup, numerators))
                for j in range(2 * len(g.vertices))
            ]
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


def test_line_avoiding_takes_the_first_direction_in_shell_order():
    """The single-vertex witness direction is the first primitive tuple of
    the max-norm shell order whose line avoids every attaching vector."""
    rng = random.Random(20261020)
    small = [V(x, y) for x, y in itertools.product(range(-2, 3), repeat=2)]
    for _ in range(300):
        vectors = [v for v in rng.sample(small, rng.randint(1, 12)) if not v.is_zero()]
        expected = next(
            V(*t)
            for t in _coefficient_tuples(2)
            if math.gcd(*t) == 1 and all(det2(V(*t), v) != 0 for v in vectors)
        )
        assert fbc._line_avoiding(vectors) == expected, vectors


def _line_avoiding_oracle(vectors):
    """The loop `fbc._line_avoiding` replaced: every direction of the shell
    order checked against every vector by a determinant."""
    for n in itertools.count(1):
        for x, y in itertools.product(range(-n, n + 1), repeat=2):
            d = V(x, y)
            if max(abs(x), abs(y)) == n and math.gcd(x, y) == 1:
                if all(det2(d, v) != 0 for v in vectors):
                    return d


def _sign_normalized_directions(k):
    """The first k primitive directions of the shell order whose first
    nonzero coordinate is positive."""
    out = (
        V(*t)
        for t in _coefficient_tuples(2)
        if math.gcd(*t) == 1 and (t[0] > 0 or (t[0] == 0 and t[1] > 0))
    )
    return list(itertools.islice(out, k))


def test_line_avoiding_agrees_with_determinant_oracle():
    """Non-primitive and negated attaching vectors block the same line as
    their primitive direction."""
    rng = random.Random(20261019)
    for k in range(40):
        vectors = [
            V(d.x * m, d.y * m)
            for d in _sign_normalized_directions(k)
            for m in rng.sample((1, -1, 2, -3), rng.randint(1, 2))
        ]
        rng.shuffle(vectors)
        assert fbc._line_avoiding(vectors) == _line_avoiding_oracle(vectors), k


def test_line_criterion_on_many_equal_loops_is_fast():
    """One vertex whose 2,000 loops have v = w, on the first 2,000
    sign-normalized directions: the direction search made 2,000 determinant
    checks per candidate and took about 1 s of CPU."""
    pairs = [(d, d) for d in _sign_normalized_directions(2000)]
    t0 = time.process_time()
    verdict = decide_fbc_single_vertex(pairs)
    elapsed = time.process_time() - t0
    assert verdict.answer
    assert witness_is_valid(single_vertex_presentation(pairs), verdict.witness)
    assert elapsed < 0.5


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
            sparse = [tuple((i, x) for i, x in enumerate(row) if x) for row in table]
            coeffs = fbc._greedy_coefficients(sparse, space.dim)
            assert coeffs == _dense_greedy_coefficients(table, space.dim)
            assert max(coeffs) <= len(table) + 1
            coords = [
                sum(c * b[j] for c, b in zip(coeffs, _numerators(space)))
                for j in range(2 * len(g.vertices))
            ]
            assert fbc._integer_functional(space, coords) == f
    assert yes > 100 and dim_one > 20


def _rref_nullspace(rows, ncols):
    """The dense Fraction Gauss-Jordan that `linalg.nullspace` replaced: the
    standard free-variable basis in increasing free-column order, and those
    free columns."""
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(tuple(vec))
    return basis, free


def _dense_hom_space(g):
    """The dense Fraction hom_space: its Fraction basis, and the HomSpace
    holding it over its least common denominator."""
    columns = {v: 2 * i for i, v in enumerate(g.vertices)}
    ncols = 2 * len(g.vertices)
    rows = []
    for e in g.edges:
        row = [Fraction(0)] * ncols
        row[columns[e.src]] += e.v.x
        row[columns[e.src] + 1] += e.v.y
        row[columns[e.dst]] -= e.w.x
        row[columns[e.dst] + 1] -= e.w.y
        rows.append(row)
    basis, free = _rref_nullspace(rows, ncols)
    den = math.lcm(*(x.denominator for b in basis for x in b))
    entries = tuple(
        tuple((i, int(b[j] * den)) for i, b in enumerate(basis) if b[j]) for j in range(ncols)
    )
    return basis, fbc.HomSpace(g.vertices, den, tuple(free), entries)


def _fraction_downstream(g, basis, extra):
    """The Fraction witness path that the integer one replaced: the required
    value table, the greedy walk and the coordinate sum on the dense Fraction
    basis of g, then denominators cleared."""
    required = [
        (
            e.src,
            e.v,
            f"every edge-compatible functional vanishes on edge {e.id}",
        )
        for e in g.edges
    ] + extra
    table = []
    for vertex, vec, text in required:
        i = 2 * g.vertices.index(vertex)
        row = [b[i] * vec.x + b[i + 1] * vec.y for b in basis]
        if not any(row):
            return fbc.FbcVerdict(False, obstruction=text)
        table.append(row)
    if not basis:
        return fbc.FbcVerdict(False, obstruction="empty homomorphism space")
    at = [Fraction(0)] * len(table)
    coeffs = []
    for i in range(len(basis)):
        ruled_out = {-a / row[i] for a, row in zip(at, table) if a and row[i]}
        c = next(c for c in range(1, len(table) + 2) if c not in ruled_out)
        at = [a + c * row[i] for a, row in zip(at, table)]
        coeffs.append(c)
    coords = [
        sum(c * b[j] for c, b in zip(coeffs, basis))
        for j in range(2 * len(g.vertices))
    ]
    den = math.lcm(*(x.denominator for x in coords))
    ints = [int(x * den) for x in coords]
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    pairs = tuple(
        (v, (ints[2 * i], ints[2 * i + 1])) for i, v in enumerate(g.vertices)
    )
    return fbc.FbcVerdict(True, witness=Functional(pairs))


def _workload_graph(rng, n, extra):
    """A graph of the benchmark's shape: n vertices joined by a random
    spanning tree plus `extra` edges, some of them loops, some parallel to an
    earlier edge, and some loops with v == w, whose constraint row is zero."""
    vs = [f"V{i}" for i in range(n)]
    ends = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    for _ in range(extra):
        kind = rng.randrange(4)
        if kind == 0:
            ends.append(rng.choice(ends))
        elif kind == 1:
            v = rng.choice(vs)
            ends.append((v, v))
        else:
            ends.append((rng.choice(vs), rng.choice(vs)))
    rng.shuffle(ends)
    edges = []
    for i, (src, dst) in enumerate(ends):
        v = _vec(rng)
        w = v if src == dst and rng.randrange(4) == 0 else _vec(rng)
        edges.append(Edge(f"e{i}", src, dst, v, w))
    return TubularPresentation(tuple(vs), tuple(edges))


def _text(vertex, elem):
    return f"every edge-compatible functional vanishes on {elem} at vertex {vertex}"


def _assert_matches_dense(g, vertex, elem):
    """hom_space, Button and the retractor certificate agree with the dense
    Fraction path."""
    basis, expected = _dense_hom_space(g)
    space = hom_space(g)
    assert space == expected
    assert [
        tuple(Fraction(x, space.denominator) for x in b) for b in _numerators(space)
    ] == list(basis)
    assert button_decide(g) == _fraction_downstream(g, basis, [])
    assert generalized_retractor(g, vertex, elem) == _fraction_downstream(
        g, basis, [(vertex, elem, _text(vertex, elem))]
    )


def test_hom_space_and_witnesses_match_dense_fraction_path():
    rng = random.Random(20261019)
    zero_rows = 0
    for n in range(2, 9):
        for extra in range(n + 1):
            for _ in range(4):
                g = _workload_graph(rng, n, extra)
                zero_rows += any(e.src == e.dst and e.v == e.w for e in g.edges)
                _assert_matches_dense(g, rng.choice(g.vertices), _vec(rng))
    assert zero_rows > 10
    for _ in range(40):
        g1 = _workload_graph(rng, rng.randint(2, 4), rng.randint(0, 4))
        g2 = _workload_graph(rng, rng.randint(2, 4), rng.randint(0, 4))
        a = (rng.choice(g1.vertices), _vec(rng))
        b = (rng.choice(g2.vertices), _vec(rng))
        analysis = amalgam_fbc_sufficient(g1, a, g2, b)
        for h, (vertex, elem), verdict in (
            (g1, a, analysis.retractor_1),
            (g2, b, analysis.retractor_2),
        ):
            extra = [(vertex, elem, _text(vertex, elem))]
            assert verdict == _fraction_downstream(h, _dense_hom_space(h)[0], extra)
        _assert_matches_dense(analysis.amalgam, f"g1.{a[0]}", a[1])
        assert analysis.button == button_decide(analysis.amalgam)
    for d in range(3, 9):
        g = _gadget(d)
        _assert_matches_dense(g, "V0", V(1, 1))
    for vs in ((), ("V",), ("V", "W")):
        g = TubularPresentation(vs, ())
        basis, expected = _dense_hom_space(g)
        assert hom_space(g) == expected
        assert button_decide(g) == _fraction_downstream(g, basis, [])
    assert _rref_nullspace([], 4) == (
        [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)],
        [0, 1, 2, 3],
    )


def test_retractor_rule_agrees_with_button_on_the_amalgam():
    """Both retractor certificates exist exactly when Button finds a witness
    on the glued presentation: the witness restricts to a certificate on each
    side, and two certificates rescale to agree on the bridge."""
    rng = random.Random(20261020)
    answers = []
    for _ in range(1000):
        g1 = _workload_graph(rng, rng.randint(2, 4), rng.randint(0, 4))
        g2 = _workload_graph(rng, rng.randint(2, 4), rng.randint(0, 4))
        a = (rng.choice(g1.vertices), _vec(rng))
        b = (rng.choice(g2.vertices), _vec(rng))
        analysis = amalgam_fbc_sufficient(g1, a, g2, b)
        assert analysis.rule_applies == analysis.button.answer
        if analysis.button.answer:
            witness = analysis.button.witness
            assert witness.value(f"g1.{a[0]}", a[1]) == witness.value(f"g2.{b[0]}", b[1]) != 0
        answers.append(analysis.rule_applies)
    assert answers.count(True) > 300 and answers.count(False) > 300


def _incremental_nullspace(rows, ncols):
    """The kernel that the two-phase `linalg.nullspace` replaced: each new
    row is reduced at every stored pivot column, and every stored row is
    then back-reduced by it, which is quadratic on a chain."""

    def combine(a, r, b, s):
        out = {c: a * x for c, x in r.items()}
        for c, x in s.items():
            y = out.get(c, 0) - b * x
            if y:
                out[c] = y
            else:
                del out[c]
        return out

    def primitive(r, p):
        g = math.gcd(*r.values())
        if r[p] < 0:
            g = -g
        return {c: x // g for c, x in r.items()} if g != 1 else r

    pivots = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for c in [c for c in r if c in pivots]:
            s = pivots[c]
            g = math.gcd(s[c], r[c])
            r = combine(s[c] // g, r, r[c] // g, s)
        if not r:
            continue
        p = min(r)
        r = primitive(r, p)
        for q, s in pivots.items():
            if p in s:
                g = math.gcd(r[p], s[p])
                pivots[q] = primitive(combine(r[p] // g, s, s[p] // g, r), q)
        pivots[p] = r
    return pivots, [c for c in range(ncols) if c not in pivots]


def _dense_basis(pivots, free, ncols):
    """The dense free-variable basis of reduced pivot rows over its least
    common denominator D, as (D, [D * b for each basis vector b]): what
    `linalg.nullspace` returned before it returned the pivot rows."""
    denominator = math.lcm(*(s[p] for p, s in pivots.items()))
    index = {c: i for i, c in enumerate(free)}
    basis = [[0] * ncols for _ in free]
    for c, i in index.items():
        basis[i][c] = denominator
    for p, s in pivots.items():
        scale = denominator // s[p]
        for c, x in s.items():
            if c != p:
                basis[index[c]][p] = -x * scale
    return denominator, [tuple(b) for b in basis]


def test_nullspace_matches_dense_rref_on_integer_matrices():
    """Random integer matrices, including zero rows, repeated rows and rank
    deficiency: the pivot rows and free columns are the incremental kernel's,
    and give the dense basis over its least common denominator."""
    rng = random.Random(7)
    for _ in range(300):
        ncols = rng.randint(1, 7)
        rows = [
            [rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)]
            for _ in range(rng.randint(0, 7))
        ]
        if rows and rng.randrange(3) == 0:
            rows.append([2 * x for x in rng.choice(rows)])
        pivots, free = nullspace([dict(enumerate(r)) for r in rows], ncols)
        assert (pivots, free) == _incremental_nullspace([dict(enumerate(r)) for r in rows], ncols)
        assert all(s[p] > 0 and math.gcd(*s.values()) == 1 for p, s in pivots.items())
        assert all(q == p or q not in pivots for p, s in pivots.items() for q in s)
        den, numerators = _dense_basis(pivots, free, ncols)
        dense, dense_free = _rref_nullspace([[Fraction(x) for x in r] for r in rows], ncols)
        assert free == dense_free
        assert den == math.lcm(*(x.denominator for b in dense for x in b))
        assert [tuple(Fraction(x, den) for x in b) for b in numerators] == dense


def test_hom_space_is_linear_on_a_chain():
    """Back-reducing every stored row after each new one took 2.8-6 s on
    this path; two-phase elimination takes under 0.4 s."""
    vertices = tuple(f"V{i}" for i in range(2000))
    edges = (Edge(f"e{i}", vertices[i], vertices[i + 1], V(1, 0), V(1, 0)) for i in range(1999))
    g = TubularPresentation(vertices, tuple(edges))
    t0 = time.process_time()
    space = hom_space(g)
    assert time.process_time() - t0 < 1.5
    assert space.dim == 2001 and space.denominator == 1


def test_sparse_kernel_bounded_work():
    """The dense Fraction rref took 2.35 s for hom_space at d=14 and about
    7.4 s for Button at d=18."""
    g = _gadget(14)
    t0 = time.process_time()
    space = hom_space(g)
    elapsed = time.process_time() - t0
    assert space.dim == 14
    assert elapsed < 2.0
    g = _gadget(18)
    fbc._edge_table.cache_clear()
    t0 = time.process_time()
    verdict = button_decide(g)
    elapsed = time.process_time() - t0
    assert verdict.answer
    assert witness_is_valid(g, verdict.witness)
    assert elapsed < 2.0


def test_each_presentation_builds_its_hom_space_once(monkeypatch):
    """Button, three retractors and an amalgam compute the hom space of g, of
    h and of the glued presentation once each; an equal presentation parsed
    separately hits the cache."""
    calls = []
    real = fbc.hom_space

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(fbc, "hom_space", spy)
    fbc._edge_table.cache_clear()
    g, h = eg2_g1(), gersten_presentation()
    button_decide(g)
    for elem in (V(1, 0), V(1, -1), V(2, 3)):
        generalized_retractor(g, "V", elem)
    analysis = amalgam_fbc_sufficient(g, ("V", V(1, 0)), h, ("V", V(1, 0)))
    assert calls == [g, h, analysis.amalgam]
    same = parse(unparse(g))
    assert same == g and same is not g
    assert button_decide(same) == button_decide(g)
    assert generalized_retractor(same, "V", V(5, 1)).answer
    assert len(calls) == 3


def _dense_greedy_coefficients(table, dim):
    """The greedy walk on dense rows that the sparse walk replaced: every
    step reads and updates every row of the table."""
    at = [0] * len(table)
    coeffs = []
    for i in range(dim):
        ruled_out = {
            -a // row[i]
            for a, row in zip(at, table)
            if a and row[i] and not a % row[i]
        }
        c = next(c for c in range(1, len(table) + 2) if c not in ruled_out)
        at = [a + c * row[i] for a, row in zip(at, table)]
        coeffs.append(c)
    return coeffs


def _primitive_functional(vertices, coords):
    """The functional with these coordinates divided by their gcd, its first
    nonzero coordinate positive, paired with the vertices in order."""
    d = math.gcd(*coords) or 1
    ints = [c // d for c in coords]
    if next((c for c in ints if c), 0) < 0:
        ints = [-c for c in ints]
    return Functional(
        tuple((v, (ints[2 * i], ints[2 * i + 1])) for i, v in enumerate(vertices))
    )


def _per_call_oracle(g, extra):
    """The dense per-call path that the cached sparse table replaced: on
    every call a fresh dense basis from the incremental kernel, a dense value
    table and the dense greedy walk."""
    columns = {v: 2 * i for i, v in enumerate(g.vertices)}
    ncols = 2 * len(g.vertices)
    rows = []
    for e in g.edges:
        row = dict.fromkeys(range(ncols), 0)
        row[columns[e.src]] += e.v.x
        row[columns[e.src] + 1] += e.v.y
        row[columns[e.dst]] -= e.w.x
        row[columns[e.dst] + 1] -= e.w.y
        rows.append(row)
    _, numerators = _dense_basis(*_incremental_nullspace(rows, ncols), ncols)
    required = [
        (
            e.src,
            e.v,
            f"every edge-compatible functional vanishes on edge {e.id}",
        )
        for e in g.edges
    ] + extra
    table = []
    for vertex, vec, obstruction in required:
        i = columns[vertex]
        row = [b[i] * vec.x + b[i + 1] * vec.y for b in numerators]
        if not any(row):
            return fbc.FbcVerdict(False, obstruction=obstruction)
        table.append(row)
    if not numerators:
        return fbc.FbcVerdict(False, obstruction="empty homomorphism space")
    coeffs = _dense_greedy_coefficients(table, len(numerators))
    coords = [sum(c * b[j] for c, b in zip(coeffs, numerators)) for j in range(ncols)]
    return fbc.FbcVerdict(True, witness=_primitive_functional(g.vertices, coords))


def test_cached_verdicts_match_per_call_oracle():
    """Button and three retractors per graph give the per-call oracle's
    verdicts in either call order and with the cache cleared before every
    call, so no call changes what the cache holds for the next."""
    rng = random.Random(20261021)
    yes = no = 0
    for n in range(2, 9):
        for extra in range(n + 1):
            for _ in range(8):
                g = _workload_graph(rng, n, extra)
                keys = [None] + [(rng.choice(g.vertices), _vec(rng)) for _ in range(3)]

                def decide(key):
                    if key is None:
                        return button_decide(g)
                    return generalized_retractor(g, *key)

                expected = [
                    _per_call_oracle(g, [] if key is None else [(*key, _text(*key))])
                    for key in keys
                ]
                fbc._edge_table.cache_clear()
                forward = [decide(key) for key in keys]
                fbc._edge_table.cache_clear()
                backward = [decide(key) for key in reversed(keys)][::-1]
                cold = []
                for key in keys:
                    fbc._edge_table.cache_clear()
                    cold.append(decide(key))
                assert forward == backward == cold == expected, g
                yes += sum(v.answer for v in expected)
                no += sum(not v.answer for v in expected)
    assert yes > 300 and no > 100


def _item5_graph(rng):
    """1-9 vertices and 0-12 edges between random ends, loops and parallel
    edges included, every coordinate in [-4, 4]."""
    vs = [f"V{i}" for i in range(rng.randint(1, 9))]
    edges = [
        Edge(f"e{i}", rng.choice(vs), rng.choice(vs), _vec(rng), _vec(rng))
        for i in range(rng.randint(0, 12))
    ]
    return TubularPresentation(tuple(vs), tuple(edges))


def test_sparse_basis_matches_dense_path_on_random_graphs():
    """Button and the retractor give the dense path's verdicts, witnesses
    and obstruction texts on 3,000 random graphs."""
    rng = random.Random(99)
    answers = Counter()
    for _ in range(3000):
        g = _item5_graph(rng)
        vertex, elem = rng.choice(g.vertices), _vec(rng)
        extra = [(vertex, elem, _text(vertex, elem))]
        fbc._edge_table.cache_clear()
        button = button_decide(g)
        assert button == _per_call_oracle(g, []), g
        assert generalized_retractor(g, vertex, elem) == _per_call_oracle(g, extra), g
        answers[button.answer] += 1
    assert answers[True] > 1000 and answers[False] > 1000, answers


def test_button_is_linear_on_a_chain():
    """With the dense basis, 2,001 vectors of 4,000 integers, Button took
    1.6-2.35 s on this path; the sparse form takes a few hundredths."""
    g = _path(2000)
    fbc._edge_table.cache_clear()
    t0 = time.process_time()
    verdict = button_decide(g)
    elapsed = time.process_time() - t0
    assert verdict.answer and witness_is_valid(g, verdict.witness)
    assert elapsed < 0.5


def _work_on_path(monkeypatch, n):
    """Calls of `linalg._eliminate`, and table entries given to the greedy
    walk, which updates one row per entry, for Button on the n-vertex path."""
    counts = Counter()
    eliminate, walk = linalg._eliminate, fbc._greedy_coefficients

    def counted_eliminate(*args):
        counts["eliminate"] += 1
        return eliminate(*args)

    def counted_walk(table, dim):
        counts["updates"] += sum(len(row) for row in table)
        return walk(table, dim)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(fbc, "_greedy_coefficients", counted_walk)
    fbc._edge_table.cache_clear()
    assert button_decide(_path(n)).answer
    return counts


@pytest.mark.parametrize("work", ["eliminate", "updates"])
def test_button_work_is_linear_on_a_chain(monkeypatch, work):
    """Counts, unlike CPU time, do not depend on the machine: doubling the
    path at most about doubles them."""
    small, large = (_work_on_path(monkeypatch, n)[work] for n in (300, 600))
    assert small >= 298
    assert large / small <= 2.2, (small, large)


def _changes_buttons_walk(g, vertex, elem):
    """Whether the greedy walk with elem's row added to Button's table picks
    some coefficient other than Button's walk, on dense rows of the basis;
    None where Button says No or elem's row is zero, so nothing walks the
    extended table."""
    numerators = _numerators(hom_space(g))
    columns = {v: 2 * i for i, v in enumerate(g.vertices)}

    def dense(vertex, vec):
        i = columns[vertex]
        return [b[i] * vec.x + b[i + 1] * vec.y for b in numerators]

    table, extra = [dense(e.src, e.v) for e in g.edges], dense(vertex, elem)
    if not numerators or not all(map(any, table)) or not any(extra):
        return None
    dim = len(numerators)
    return _dense_greedy_coefficients([*table, extra], dim) != _dense_greedy_coefficients(
        table, dim
    )


def _small_vec(rng):
    """A nonzero vector with coordinates in [-2, 2]: its row rules out one
    of Button's coefficients more often than `_vec`'s do."""
    while True:
        v = V(rng.randint(-2, 2), rng.randint(-2, 2))
        if not v.is_zero():
            return v


def _count_walks(monkeypatch) -> Counter:
    """Count the calls of the sparse greedy walk under key "walks"."""
    counts = Counter()
    walk = fbc._greedy_coefficients

    def counted(table, dim):
        counts["walks"] += 1
        return walk(table, dim)

    monkeypatch.setattr(fbc, "_greedy_coefficients", counted)
    return counts


def test_button_and_a_retractor_share_one_walk(monkeypatch):
    """The cached table holds Button's walk.  A retractor walks again only
    where its row rules out one of Button's coefficients, and so changes the
    walk on the extended table; otherwise it returns Button's witness.  The
    verdicts are the per-call oracle's in every call order."""
    counts = _count_walks(monkeypatch)
    rng = random.Random(20261022)
    cases = Counter()
    for n in range(2, 9):
        for extra in range(n + 1):
            for _ in range(24):
                g = _workload_graph(rng, n, extra)
                vertex, elem = rng.choice(g.vertices), _small_vec(rng)
                expected = [
                    _per_call_oracle(g, []),
                    _per_call_oracle(g, [(vertex, elem, _text(vertex, elem))]),
                ]
                conflict = _changes_buttons_walk(g, vertex, elem)
                button_walks = int(expected[0].answer)
                orders = {
                    "forward": ([0, 1], button_walks + bool(conflict)),
                    "backward": ([1, 0], button_walks + bool(conflict)),
                    "cold": ([0, None, 1], 2 * button_walks + bool(conflict)),
                }
                for name, (order, walks) in orders.items():
                    fbc._edge_table.cache_clear()
                    counts["walks"] = 0
                    got = [None, None]
                    for k in order:
                        if k is None:
                            fbc._edge_table.cache_clear()
                        elif k == 0:
                            got[0] = button_decide(g)
                        else:
                            got[1] = generalized_retractor(g, vertex, elem)
                    assert got == expected, (name, g, vertex, elem)
                    assert counts["walks"] == walks, (name, g, vertex, elem)
                cases[conflict] += 1
    assert cases[True] > 30 and cases[False] > 500, cases


def test_a_retractor_walks_again_where_its_value_conflicts(monkeypatch):
    """On V - W glued along alpha_V = alpha_W, Button's coefficients are all
    1, so its witness alpha + beta vanishes on (1,-1) at V: that row's
    partial sum is -1 when Button picks 1 at alpha_W's basis vector, and the
    walk on the extended table picks 2 there instead."""
    counts = _count_walks(monkeypatch)
    g = parse("group g { vertex V, W; edge e : V(1,0) -> W(1,0); }\n")
    fbc._edge_table.cache_clear()
    button = button_decide(g)
    assert button.witness == Functional((("V", (1, 1)), ("W", (1, 1))))
    assert counts["walks"] == 1
    retractor = generalized_retractor(g, "V", V(1, -1))
    assert retractor.witness == Functional((("V", (2, 1)), ("W", (2, 1))))
    assert counts["walks"] == 2
    assert _changes_buttons_walk(g, "V", V(1, -1))
    assert [button, retractor] == [
        _per_call_oracle(g, []),
        _per_call_oracle(g, [("V", V(1, -1), _text("V", V(1, -1)))]),
    ]
    assert generalized_retractor(g, "V", V(1, 1)) == button
    assert counts["walks"] == 2
