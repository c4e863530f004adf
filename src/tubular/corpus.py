"""Named example presentations with their known verdicts.

Each entry records the presentation (tubular or two-parameter family form) and
the expected verdicts used by the regression and acceptance suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import GpqParams, IntVec2, TubularPresentation, amalgamate, single_vertex_presentation


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    presentation: TubularPresentation | GpqParams
    expected: dict = field(default_factory=dict)


def gersten_params() -> GpqParams:
    """The Gersten group: stable letters send t -> at and t -> a^2 t."""
    return GpqParams((0, 0), (1, 2))


def lyman_psi(m: int, n: int) -> GpqParams:
    """F3-by-Z for the polynomially growing automorphism b -> a^m b a^m,
    c -> a^n c a^n; as a tubular group this is the family with p = q = (m, n)."""
    return GpqParams((m, n), (m, n))


def lyman_phi() -> TubularPresentation:
    """F3-by-Z for b -> a^-1 b a, c -> a^-2 c a^2; after a change of
    generators this is a right-angled Artin group.  Tubular form: edges
    t -> t and at -> at in the basis (a, t)."""
    return single_vertex_presentation(
        [(IntVec2(0, 1), IntVec2(0, 1)), (IntVec2(1, 1), IntVec2(1, 1))],
        name="lyman-phi",
    )


def eg2_g1() -> TubularPresentation:
    """<a, b, s | ab = ba, s a s^-1 = b>: one edge (1,0) -> (0,1)."""
    return single_vertex_presentation(
        [(IntVec2(1, 0), IntVec2(0, 1))], name="eg2-g1"
    )


def eg2_double() -> TubularPresentation:
    """Two copies of eg2-g1 glued over a b^-1 = a; not free-by-cyclic because
    every homomorphism to Z kills a b^-1 and hence, in the second copy, both
    a and b."""
    g = eg2_g1()
    return amalgamate(
        g, ("V", IntVec2(1, -1)), g, ("V", IntVec2(1, 0)), name="eg2-double"
    )


def bare_z2(name: str = "z2") -> TubularPresentation:
    """A single Z^2 vertex with no edges."""
    return TubularPresentation(("V",), (), name=name)


def gersten_presentation() -> TubularPresentation:
    """The Gersten group in tubular form, basis (a, t): edges
    (0,1) -> (1,1) and (0,1) -> (2,1)."""
    return single_vertex_presentation(
        [(IntVec2(0, 1), IntVec2(1, 1)), (IntVec2(0, 1), IntVec2(2, 1))],
        name="gersten",
    )


def corlast() -> TubularPresentation:
    """The Gersten group amalgamated with a bare Z^2 over a = x; not
    virtually free-by-cyclic."""
    return amalgamate(
        gersten_presentation(),
        ("V", IntVec2(1, 0)),
        bare_z2(),
        ("V", IntVec2(1, 0)),
        name="corlast",
    )


def f2xz() -> TubularPresentation:
    """F2 x Z as a tubular group: one edge t -> t in the basis (x, t)."""
    return single_vertex_presentation(
        [(IntVec2(0, 1), IntVec2(0, 1))], name="f2xz"
    )


def bs12_shape() -> TubularPresentation:
    """The tubular group containing BS(1,2): one edge a -> a^2.  Not CAT(0),
    not free-by-cyclic, and no equitable set is expected at small bounds."""
    return single_vertex_presentation(
        [(IntVec2(1, 0), IntVec2(2, 0))], name="bs12"
    )


def corpus() -> list[CorpusEntry]:
    return [
        CorpusEntry(
            "gersten",
            gersten_params(),
            expected={
                "cat0": "No",
                "fbc": "Yes",
                "vspecial": "No",
                "cocompact_cubulation": "No",
                "vrc": "Obstructed",
                "dilation": "Dilated",
            },
        ),
        CorpusEntry(
            "lyman-psi(1,1)",
            lyman_psi(1, 1),
            expected={
                "vspecial": "Yes",
                "compact_special": "Yes",
            },
        ),
        CorpusEntry(
            "lyman-psi(1,2)",
            lyman_psi(1, 2),
            expected={
                "vspecial": "Yes",
                "compact_special": "No",
                "cocompact_cubulation": "No",
            },
        ),
        CorpusEntry(
            "lyman-phi",
            lyman_phi(),
            expected={"cat0": "Yes", "fbc": "Yes", "vspecial": "Yes"},
        ),
        CorpusEntry(
            "eg2-g1",
            eg2_g1(),
            expected={"cat0": "Yes", "fbc": "Yes", "vspecial": "Yes"},
        ),
        CorpusEntry("eg2-double", eg2_double(), expected={"fbc": "No"}),
        CorpusEntry("corlast", corlast(), expected={"fbc": "No"}),
        CorpusEntry(
            "f2xz",
            f2xz(),
            expected={"cat0": "Yes", "fbc": "Yes", "vspecial": "Yes"},
        ),
        CorpusEntry(
            "bs12",
            bs12_shape(),
            expected={"cat0": "No", "fbc": "No"},
        ),
    ]


def corpus_entry(name: str) -> CorpusEntry:
    for entry in corpus():
        if entry.name == name:
            return entry
    raise KeyError(name)
