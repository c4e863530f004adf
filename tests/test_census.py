"""A census of small one-vertex tubular groups: every multiset of one or two
loops whose attaching vectors have coordinates in {-1, 0, 1}, analyzed as
`tubular analyze` does.  The source paper's claims become counts here."""

import itertools
from collections import Counter

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
