import itertools
import random
import sys
from pathlib import Path

import pytest

from test_invariance import _random_presentation
from tubular import cat0, fbc, special
from tubular.cat0 import decide_cat0
from tubular.core import (
    Edge,
    GpqParams,
    IntVec2,
    TubularPresentation,
    primitive_of,
    single_vertex_presentation,
)
from tubular.corpus import (
    bs12_shape,
    eg2_g1,
    f2xz,
    gersten_params,
    gersten_presentation,
    lyman_phi,
    lyman_psi,
)
from tubular.dsl import unparse
from tubular.fbc import decide_fbc_single_vertex
from tubular.special import (
    Answer,
    _line_counts,
    cocompact_cubulation_decide,
    gpq_compact_special_decide,
    gpq_to_tubular,
    gpq_vspecial_decide,
    vspecial_fbc_decide,
    vspecial_sufficient,
)

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import ops  # noqa: E402

V = IntVec2


def test_det_sufficient_yes_on_eg2():
    verdict = vspecial_sufficient(eg2_g1().single_vertex_pairs())
    assert verdict.answer is Answer.YES
    assert verdict.route == "DetSufficient"


def test_det_sufficient_unknown_on_gersten():
    verdict = vspecial_sufficient(gersten_presentation().single_vertex_pairs())
    assert verdict.answer is Answer.UNKNOWN
    assert any("disagree" in n for n in verdict.notes)


def test_det_sufficient_not_applicable_without_independent_pair():
    verdict = vspecial_sufficient(f2xz().single_vertex_pairs())
    assert verdict.answer is Answer.UNKNOWN


def test_fbc_route_decides_gersten_no():
    verdict = vspecial_fbc_decide(gersten_presentation().single_vertex_pairs())
    assert verdict.answer is Answer.NO
    assert verdict.route == "FbcCat0Equiv"


def test_fbc_route_decides_lyman_phi_yes():
    verdict = vspecial_fbc_decide(lyman_phi().single_vertex_pairs())
    assert verdict.answer is Answer.YES


def test_fbc_route_unknown_on_non_fbc():
    verdict = vspecial_fbc_decide(bs12_shape().single_vertex_pairs())
    assert verdict.answer is Answer.UNKNOWN


def test_gpq_to_tubular_gersten():
    g = gpq_to_tubular(gersten_params())
    assert [(e.v, e.w) for e in g.edges] == [
        (V(1, 1), V(0, 1)),
        (V(2, 1), V(0, 1)),
    ]


def test_gpq_vspecial_goldens():
    assert gpq_vspecial_decide(gersten_params()).answer is Answer.NO
    assert gpq_vspecial_decide(lyman_psi(1, 1)).answer is Answer.YES
    assert gpq_vspecial_decide(lyman_psi(3, -2)).answer is Answer.YES
    # Degenerate branch: p_i = -q_i for all i.
    assert gpq_vspecial_decide(GpqParams((1, 3), (-1, -3))).answer is Answer.YES


def test_gpq_vspecial_independent_of_reference_index():
    """The quadratic identity is evaluated at the first index with
    p_s != -q_s; the verdict must not depend on that choice."""
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 3)
        p = tuple(rng.randint(-4, 4) for _ in range(n))
        q = tuple(rng.randint(-4, 4) for _ in range(n))
        params = GpqParams(p, q)
        candidates = [s for s in range(n) if p[s] != -q[s]]
        if len(candidates) < 2:
            continue
        verdicts = set()
        for s in candidates:
            ok = all(
                q[i] * (q[i] + p[s] - q[s]) == p[i] * (p[i] - p[s] + q[s])
                for i in range(n)
            )
            verdicts.add(ok)
        assert len(verdicts) == 1, (p, q)
        assert (gpq_vspecial_decide(params).answer is Answer.YES) == verdicts.pop()


def test_gpq_characterization_matches_cat0_on_small_grid():
    for p1, q1, p2, q2 in itertools.product(range(-3, 4), repeat=4):
        params = GpqParams((p1, p2), (q1, q2))
        a = gpq_vspecial_decide(params).answer is Answer.YES
        b = decide_cat0(gpq_to_tubular(params).single_vertex_pairs()).answer
        assert a == b, (params,)


def test_compact_special_goldens():
    assert gpq_compact_special_decide(lyman_psi(1, 1)).answer is Answer.YES
    assert gpq_compact_special_decide(lyman_psi(2, -2)).answer is Answer.YES
    assert gpq_compact_special_decide(lyman_psi(1, 2)).answer is Answer.NO
    assert gpq_compact_special_decide(gersten_params()).answer is Answer.NO


def test_parallelism_class_counts():
    assert _line_counts(gersten_presentation()) == {"V": 3}
    assert _line_counts(lyman_phi()) == {"V": 2}
    assert _line_counts(f2xz()) == {"V": 1}


def _per_vertex_count_oracle(g, vertex):
    """The per-vertex scan that the one-pass count replaced: every attaching
    vector at the vertex (both ends of loops), as a sign-normalized primitive
    vector."""
    lines = set()
    for e in g.edges:
        for end, vec in ((e.src, e.v), (e.dst, e.w)):
            if end == vertex:
                p = primitive_of(vec)
                if p.x < 0 or (p.x == 0 and p.y < 0):
                    p = -p
                lines.add((p.x, p.y))
    return len(lines)


def test_line_counts_agree_with_per_vertex_oracle():
    """Counts and cocompact notes from the one-pass scan equal the per-vertex
    oracle's, on random presentations and on isolated vertices, loops with
    v == w and huge coordinates."""
    huge = 10**30
    hand_made = [
        TubularPresentation(("V", "W", "X"), (Edge("e", "V", "V", V(2, 4), V(2, 4)),)),
        TubularPresentation(("V", "W"), (
            Edge("a", "V", "W", V(huge, -3 * huge), V(-huge, 0)),
            Edge("b", "W", "V", V(0, -(huge + 1)), V(-1, 3)),
            Edge("c", "W", "W", V(huge, huge), V(huge, huge)),
            Edge("d", "V", "V", V(huge, 0), V(-7, 21)),
        )),
        TubularPresentation(("V",), ()),
    ]
    rng = random.Random(20261019)
    inputs = hand_made + [_random_presentation(rng) for _ in range(1000)]
    isolated = 0
    for g in inputs:
        counts = [_per_vertex_count_oracle(g, v) for v in g.vertices]
        isolated += counts.count(0)
        assert list(_line_counts(g).values()) == counts
        notes = cocompact_cubulation_decide(g, cat0_known=True).notes
        if max(counts, default=0) < 3:
            assert notes == tuple(
                f"vertex {v}: {c} classes" for v, c in zip(g.vertices, counts)
            )
        else:
            assert notes == tuple(
                f"vertex {v}: {c} parallelism classes"
                for v, c in zip(g.vertices, counts)
                if c >= 3
            )
    assert _line_counts(hand_made[1]) == {"V": 2, "W": 3}
    assert isolated > 100


def test_cocompact_cubulation_routes():
    no = cocompact_cubulation_decide(gersten_presentation(), cat0_known=False)
    assert no.answer is Answer.NO

    yes = cocompact_cubulation_decide(lyman_phi(), cat0_known=True)
    assert yes.answer is Answer.YES
    assert yes.route == "ParallelismClassCount"
    assert yes.notes == ("vertex V: 2 classes",)

    unknown = cocompact_cubulation_decide(lyman_phi(), cat0_known=False)
    assert unknown.answer is Answer.UNKNOWN


# The cached one-vertex deciders; a run of one is a miss of its cache.
CACHED = (cat0._decide_cat0, fbc._decide_fbc_single_vertex, special.gpq_vspecial_decide)


def _clear_caches():
    for cached in CACHED:
        cached.cache_clear()


def _sweep_texts(seed: int, n: int) -> list[str]:
    """n gpq texts and n texts of one vertex with 1-4 loops, alternating,
    none of whose edge lists or parameters repeats an earlier one."""
    rng = random.Random(seed)

    def vec():
        x, y = 0, 0
        while (x, y) == (0, 0):
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        return V(x, y)

    texts, seen = [], set()
    while len(texts) < 2 * n:
        k = rng.randint(1, 4)
        if len(texts) % 2 == 0:
            p = tuple(rng.randint(-4, 4) for _ in range(k))
            params = GpqParams(p, tuple(rng.randint(-4, 4) for _ in range(k)))
            pairs, text = gpq_to_tubular(params).single_vertex_pairs(), unparse(params)
            keys = {params, tuple(pairs)}
        else:
            pairs = [(vec(), vec()) for _ in range(k)]
            text = unparse(single_vertex_presentation(pairs, name="s"))
            keys = {tuple(pairs)}
        if not keys & seen:
            seen |= keys
            texts.append(text)
    return texts


def test_sweep_runs_each_one_vertex_decider_once_per_input():
    """perfbench's sweep operation asks `decide_fbc_single_vertex` again in
    `vspecial_fbc_decide`, `decide_cat0` again there after a free-by-cyclic
    Yes, and `gpq_vspecial_decide` again in `gpq_compact_special_decide`.
    Each repeat is a cache hit: every decider runs once per distinct input."""
    texts = _sweep_texts(1, 60)
    _clear_caches()
    outs = [ops.sweep(text) for text in texts]
    fbc_yes = sum(out["fbc"].answer for out in outs)
    gpqs = sum("gpq_vspecial" in out for out in outs)
    runs = {f.__name__: (f.cache_info().misses, f.cache_info().hits) for f in CACHED}
    assert runs == {
        "_decide_cat0": (len(texts), fbc_yes),
        "_decide_fbc_single_vertex": (len(texts), len(texts)),
        "gpq_vspecial_decide": (gpqs, gpqs),
    }
    assert gpqs == 60 and 60 < fbc_yes < 120


def test_warm_verdicts_equal_cold_ones():
    """Every verdict of the sweep operation is the same whether its caches
    are cold, or warm from the inputs before it in forward or backward
    order, each input asked twice in a row, over more inputs than a cache
    holds.  A zero vector raises on every call: no exception is cached."""
    texts = _sweep_texts(2, 20)
    cold = {}
    for text in texts:
        _clear_caches()
        cold[text] = ops.sweep(text)
    for order in (texts, texts[::-1]):
        _clear_caches()
        for text in order:
            assert ops.sweep(text) == cold[text], text
            assert ops.sweep(text) == cold[text], text
    zero = [(V(1, 2), V(2, 1)), (V(0, 0), V(1, 0))]
    for _ in range(2):
        for decide in (decide_cat0, decide_fbc_single_vertex, vspecial_fbc_decide):
            with pytest.raises(ValueError, match="must be nonzero"):
                decide(zero)
