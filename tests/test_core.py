import copy
import math
import pickle
import sys
import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from tubular.core import (
    Edge,
    GpqParams,
    IntMat2,
    IntVec2,
    QForm2,
    TubularPresentation,
    change_basis,
    det2,
    line_of,
    primitive_of,
    single_vertex_presentation,
)
from tubular.corpus import CorpusEntry
from tubular.fbc import hom_space
from tubular.special import _line_counts

nonzero_vec = st.builds(IntVec2, st.integers(-50, 50), st.integers(-50, 50)).filter(
    lambda v: not v.is_zero()
)


def test_vector_arithmetic():
    assert IntVec2(1, 2) + IntVec2(3, -1) == IntVec2(4, 1)
    assert IntVec2(1, 2) - IntVec2(3, -1) == IntVec2(-2, 3)
    assert -IntVec2(1, -2) == IntVec2(-1, 2)
    assert str(IntVec2(-1, 2)) == "(-1,2)"


def test_det2_bilinear_antisymmetric():
    u, v = IntVec2(2, 3), IntVec2(-1, 4)
    assert det2(u, v) == 11
    assert det2(v, u) == -11
    assert det2(u, u) == 0


@given(nonzero_vec)
def test_primitive_of(v):
    p = primitive_of(v)
    assert math.gcd(abs(p.x), abs(p.y)) == 1
    assert det2(p, v) == 0
    assert p.x * v.x + p.y * v.y > 0  # same direction


@given(nonzero_vec, st.integers(-20, 20).filter(bool))
def test_line_of_picks_one_vector_per_line(v, k):
    x, y = line_of(v.x, v.y)
    assert line_of(k * v.x, k * v.y) == line_of(-v.x, -v.y) == (x, y)
    assert math.gcd(x, y) == 1 and det2(IntVec2(x, y), v) == 0
    assert x > 0 or (x == 0 and y > 0)


def test_primitive_of_rejects_zero():
    with pytest.raises(ValueError, match="nonzero"):
        primitive_of(IntVec2(0, 0))


def test_edge_rejects_zero_vectors():
    """On every construction path the tuple type offers: `_make` and
    `_replace` of a NamedTuple would otherwise skip `__new__`."""
    e = Edge("e", "V", "V", IntVec2(1, 0), IntVec2(1, 0))
    zero = IntVec2(0, 0)
    for build in (
        lambda: Edge("e", "V", "V", zero, IntVec2(1, 0)),
        lambda: Edge(id="e", src="V", dst="V", v=IntVec2(1, 0), w=zero),
        lambda: Edge._make(("e", "V", "V", zero, zero)),
        lambda: e._replace(v=zero),
        lambda: e._replace(w=zero),
    ):
        with pytest.raises(ValueError, match=r"^edge e: attaching vectors must be nonzero$"):
            build()
    with pytest.raises(ValueError, match="unexpected field names"):
        e._replace(label="f")
    assert e._replace(src="W") == Edge("e", "W", "V", IntVec2(1, 0), IntVec2(1, 0))
    assert Edge._make(e) == e and type(Edge._make(e)) is Edge


def test_presentation_and_gpq_reject_bad_data_on_every_path():
    """Like `Edge`, on the constructor, `_make`, `_replace` and, from
    Python 3.13, `copy.replace`."""
    e = Edge("e", "V", "V", IntVec2(1, 0), IntVec2(1, 0))
    g = TubularPresentation(("V",), (e,), "g")
    gpq = GpqParams((1, 2), (3, 4))
    bad = [
        (lambda: TubularPresentation(("V", "V"), ()), "duplicate vertex ids"),
        (lambda: TubularPresentation._make((("V",), (e, e), "g")), "duplicate edge ids"),
        (lambda: g._replace(vertices=("W",)), "unknown vertex"),
        (lambda: GpqParams((1,), ()), "equal positive length"),
        (lambda: GpqParams._make(((), ())), "equal positive length"),
        (lambda: gpq._replace(q=(1,)), "equal positive length"),
    ]
    if sys.version_info >= (3, 13):
        bad += [
            (lambda: copy.replace(g, edges=(e, e)), "duplicate edge ids"),
            (lambda: copy.replace(gpq, p=(1, 2, 3)), "equal positive length"),
        ]
    for build, message in bad:
        with pytest.raises(ValueError, match=message):
            build()
    assert g._replace(name="h") == (("V",), (e,), "h") and type(g._replace(name="h")) is TubularPresentation
    assert GpqParams._make(gpq) == gpq == ((1, 2), (3, 4)) and type(gpq._replace()) is GpqParams
    assert g == TubularPresentation(vertices=("V",), edges=(e,), name="g")
    assert repr(gpq) == "GpqParams(p=(1, 2), q=(3, 4))"


def test_hom_space_hashes_and_compares_without_columns():
    g = TubularPresentation(("A", "B"), (Edge("e", "A", "B", IntVec2(1, 0), IntVec2(0, 1)),))
    space = hom_space(g)
    other = hom_space(g)
    assert other == space and not other != space and hash(other) == hash(space)
    assert space != space._replace(denominator=2 * space.denominator)
    assert {space: 1}[hom_space(g)] == 1
    assert repr(space) == (
        "HomSpace(vertices=('A', 'B'), denominator=1, free=(1, 2, 3), "
        "entries=(((2, 1),), ((0, 1),), ((1, 1),), ((2, 1),)))"
    )


def test_corpus_entries_built_without_expected_do_not_share_it():
    g = single_vertex_presentation([(IntVec2(1, 0), IntVec2(1, 0))])
    a, b = CorpusEntry("a", g), CorpusEntry(name="b", presentation=g)
    assert a.expected == b.expected == {} and a.expected is not b.expected
    assert CorpusEntry("c", g, {"cat0": "Yes"}).expected == {"cat0": "Yes"}


def test_value_types_are_tuples():
    v = IntVec2(1, 2)
    assert repr(v) == "IntVec2(x=1, y=2)" and str(v) == f"{v}" == "(1,2)"
    assert v == (1, 2) and tuple(v) == (1, 2) and hash(v) == hash((v.x, v.y))
    x, y = v
    assert (x, y) == (1, 2)
    assert sorted([IntVec2(1, 0), IntVec2(0, 5), IntVec2(0, -1), IntVec2(-2, 9)]) == [
        IntVec2(-2, 9), IntVec2(0, -1), IntVec2(0, 5), IntVec2(1, 0)
    ]
    assert IntVec2(0, 5) < IntVec2(1, -9) and not IntVec2(1, 0) < IntVec2(1, 0)
    e = Edge("e", "A", "B", v, IntVec2(0, -1))
    assert e == ("e", "A", "B", (1, 2), (0, -1)) and hash(e) == hash(tuple(e))
    assert repr(e) == "Edge(id='e', src='A', dst='B', v=IntVec2(x=1, y=2), w=IntVec2(x=0, y=-1))"
    label, src, dst, ev, ew = e
    assert (label, src, dst, ev, ew) == (e.id, e.src, e.dst, e.v, e.w)
    for obj in (v, e, single_vertex_presentation([(v, IntVec2(0, 1))])):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert back == obj and type(back) is type(obj)
        assert copy.deepcopy(obj) == obj


def test_edge_reversed():
    """An edge reverses through `_replace`, which keeps its type."""
    e = Edge("e", "A", "B", IntVec2(1, 0), IntVec2(0, 1))
    r = e._replace(src=e.dst, dst=e.src, v=e.w, w=e.v)
    assert type(r) is Edge
    assert r == ("e", "B", "A", (0, 1), (1, 0))


def test_presentation_validation():
    with pytest.raises(ValueError):
        TubularPresentation(("V", "V"), ())
    e = Edge("e", "V", "W", IntVec2(1, 0), IntVec2(1, 0))
    with pytest.raises(ValueError):
        TubularPresentation(("V",), (e,))
    with pytest.raises(ValueError):
        TubularPresentation(("V",), (
            Edge("e", "V", "V", IntVec2(1, 0), IntVec2(1, 0)),
            Edge("e", "V", "V", IntVec2(0, 1), IntVec2(0, 1)),
        ))
    with pytest.raises(ValueError, match="more than one vertex"):
        TubularPresentation(("V", "W"), (e,)).single_vertex_pairs()
    with pytest.raises(ValueError, match="equal positive length"):
        GpqParams((1,), ())


def test_parallelism_classes_count_both_loop_ends():
    g = single_vertex_presentation([(IntVec2(1, 0), IntVec2(0, 1))])
    assert _line_counts(g)["V"] == 2


def test_change_basis_requires_unimodular():
    g = single_vertex_presentation([(IntVec2(1, 0), IntVec2(0, 1))])
    with pytest.raises(ValueError):
        change_basis(g, "V", IntMat2(2, 0, 0, 1))
    with pytest.raises(ValueError, match="unknown vertex 'W'"):
        change_basis(g, "W", IntMat2(1, 1, 0, 1))
    u = IntMat2(1, 1, 0, 1)
    g2 = change_basis(g, "V", u)
    assert g2.edges[0].v == IntVec2(1, 0)
    assert g2.edges[0].w == IntVec2(1, 1)


def test_qform_positive_definite_and_values():
    q = QForm2(Fraction(2), Fraction(1), Fraction(3))
    assert q.is_positive_definite()
    assert q.value(IntVec2(1, -1)) == 2 - 2 + 3
    assert not QForm2(Fraction(1), Fraction(1), Fraction(1)).is_positive_definite()
    assert not QForm2(Fraction(-1), Fraction(0), Fraction(1)).is_positive_definite()
