import math
import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from tubular.core import (
    Edge,
    IntMat2,
    IntVec2,
    QForm2,
    TubularPresentation,
    change_basis,
    det2,
    primitive_of,
    single_vertex_presentation,
)
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


def test_edge_rejects_zero_vectors():
    with pytest.raises(ValueError):
        Edge("e", "V", "V", IntVec2(0, 0), IntVec2(1, 0))


def test_edge_reversed():
    e = Edge("e", "A", "B", IntVec2(1, 0), IntVec2(0, 1))
    r = e.reversed()
    assert (r.src, r.dst, r.v, r.w) == ("B", "A", IntVec2(0, 1), IntVec2(1, 0))


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


def test_parallelism_classes_count_both_loop_ends():
    g = single_vertex_presentation([(IntVec2(1, 0), IntVec2(0, 1))])
    assert _line_counts(g)["V"] == 2
    assert g.loops_at("V") == list(g.edges)


def test_change_basis_requires_unimodular():
    g = single_vertex_presentation([(IntVec2(1, 0), IntVec2(0, 1))])
    with pytest.raises(ValueError):
        change_basis(g, "V", IntMat2(2, 0, 0, 1))
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
