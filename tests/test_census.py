"""A census of small one-vertex tubular groups: every multiset of one or two
loops whose attaching vectors have coordinates in {-1, 0, 1}, analyzed as
`tubular analyze` does.  The source paper's claims become counts here.

Beside it, a ledger of the verdicts `analyze` gives on fixed random draws
with one to three vertices, so that a change which settles `Unknown` rows
shows its counts falling, and one which moves a decided word is caught."""

import itertools
import random
from collections import Counter

from test_invariance import _random_presentation
from tubular.cli import analyze
from tubular.core import IntVec2, single_vertex_presentation

_BOX = range(-1, 2)
_VECTORS = [IntVec2(x, y) for x in _BOX for y in _BOX if x or y]
LOOPS = [(v, w) for v in _VECTORS for w in _VECTORS]
CENSUS = [list(c) for k in (1, 2) for c in itertools.combinations_with_replacement(LOOPS, k)]

# The count of each (row, verdict) on the census.  An `Unknown` count may
# only fall: a change that settles more inputs lowers it here.
VERDICTS = {
    ("cat0", "No"): 512,
    ("cat0", "Yes"): 1632,
    ("cocompact_cubulation", "No"): 1344,
    ("cocompact_cubulation", "Yes"): 800,
    ("dilation", "Dilated"): 896,
    ("dilation", "NonDilated"): 1248,
    ("fbc", "No"): 1516,
    ("fbc", "Yes"): 628,
    ("vspecial", "No"): 96,
    ("vspecial", "Unknown"): 972,
    ("vspecial", "Yes"): 1076,
}


def test_census_of_one_vertex_groups_with_small_loops():
    """A CAT(0) free-by-cyclic tubular group is virtually special (the
    paper's theorem), yet many of them have no free cocompact cubulation."""
    assert (len(LOOPS), len(CENSUS)) == (64, 2144)
    verdicts, cat0_fbc = Counter(), Counter()
    for pairs in CENSUS:
        words = {r.property: r.verdict for r in analyze(single_vertex_presentation(pairs), "c")}
        verdicts.update(words.items())
        if words["cat0"] == words["fbc"] == "Yes":
            assert words["vspecial"] == "Yes", pairs
            cat0_fbc[words["cocompact_cubulation"]] += 1
    assert dict(verdicts) == VERDICTS
    assert cat0_fbc == {"Yes": 404, "No": 128}


# The count of each (vertex class, row, verdict) on the ledger's draws.  The
# rule is the census's: an `Unknown` count may only fall, a decided count may
# change only by absorbing `Unknown`s, and a word never moves between Yes and
# No.  A change that settles inputs lowers the `Unknown` counts here.
LEDGER = {
    ("one vertex", "cat0", "No"): 753,
    ("one vertex", "cat0", "Yes"): 381,
    ("one vertex", "cocompact_cubulation", "No"): 857,
    ("one vertex", "cocompact_cubulation", "Unknown"): 18,
    ("one vertex", "cocompact_cubulation", "Yes"): 259,
    ("one vertex", "dilation", "Dilated"): 425,
    ("one vertex", "dilation", "NonDilated"): 86,
    ("one vertex", "dilation", "Unknown"): 623,
    ("one vertex", "fbc", "No"): 867,
    ("one vertex", "fbc", "Yes"): 267,
    ("one vertex", "vspecial", "No"): 8,
    ("one vertex", "vspecial", "Unknown"): 850,
    ("one vertex", "vspecial", "Yes"): 276,
    ("more vertices", "cat0", "No"): 246,
    ("more vertices", "cat0", "Unknown"): 1843,
    ("more vertices", "cocompact_cubulation", "No"): 1160,
    ("more vertices", "cocompact_cubulation", "Unknown"): 929,
    ("more vertices", "dilation", "Dilated"): 1308,
    ("more vertices", "dilation", "NonDilated"): 489,
    ("more vertices", "dilation", "Unknown"): 292,
    ("more vertices", "fbc", "No"): 594,
    ("more vertices", "fbc", "Yes"): 1495,
    ("more vertices", "vspecial", "Unknown"): 2089,
}


def test_unknown_ledger_over_fixed_draws():
    """Every analyze row on the 4,000 seed-11 draws of
    `test_invariance._random_presentation` that have an edge, counted by
    vertex class."""
    rng = random.Random(11)
    draws = [g for g in (_random_presentation(rng) for _ in range(4000)) if g.edges]
    verdicts = Counter()
    for g in draws:
        vertex_class = "one vertex" if len(g.vertices) == 1 else "more vertices"
        verdicts.update((vertex_class, r.property, r.verdict) for r in analyze(g, "g"))
    assert len(draws) == 3223
    assert dict(verdicts) == LEDGER
