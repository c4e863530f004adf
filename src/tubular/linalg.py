"""Exact sparse linear algebra over the integers.

This is the only module that does elimination.  Rows are sparse integer
vectors, `dict[column, int]`, and elimination is fraction-free two-phase
Gauss-Jordan: every stored row is primitive (gcd 1) with a positive pivot.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

Row = dict[int, int]


def _eliminate(r: Row, s: Row, c: int) -> Row:
    """The integer combination of r and s that is zero at column c,
    (s[c] * r - r[c] * s) / gcd(r[c], s[c]), without zero entries.  The scale
    of r is positive when s[c] is, as it is in a stored pivot row; where it
    is 1, r is copied."""
    g = math.gcd(r[c], s[c])
    a, b = s[c] // g, r[c] // g
    out = r.copy() if a == 1 else {k: a * x for k, x in r.items()}
    for k, x in s.items():
        if y := out.get(k, 0) - b * x:
            out[k] = y
        else:
            del out[k]
    return out


def _primitive(r: Row, p: int) -> Row:
    """r divided by the gcd of its entries, with the sign that makes r[p] > 0."""
    g = math.gcd(*r.values())
    if r[p] < 0:
        g = -g
    return {c: x // g for c, x in r.items()} if g != 1 else r


def nullspace(rows: Iterable[Row], ncols: int) -> tuple[dict[int, Row], list[int]]:
    """The solution space {x : row . x = 0 for every row}, as the reduced row
    echelon form of the rows: its pivot rows, keyed by pivot column, and its
    free columns in increasing order.  Each pivot row s of pivot p
    is primitive, has s[p] > 0 and is zero at every other pivot column.  So
    the standard free-variable basis has one vector per free column c, equal
    to 1 at c, to -s[c] / s[p] at each pivot p, and to 0 elsewhere.

    Forward, each row loses its lowest column while that is a pivot; a
    nonzero remainder becomes the pivot row of its lowest column.  Backward,
    by decreasing pivot, each row's other pivot columns are cleared by the
    later pivot rows, reduced by then.  An echelon form has the pivot columns
    of the unique reduced row echelon form, so each row is that form's row
    up to the positive scale `_primitive` removes.  On a chain both phases
    are linear; a graph with many independent cycles can fill the rows in.
    Pivots are never reordered: that would change the free columns.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        while r and (p := min(r)) in pivots:
            r = _eliminate(r, pivots[p], p)
        if r:
            pivots[p] = _primitive(r, p)
    for p in sorted(pivots, reverse=True):
        s = pivots[p]
        for q in [q for q in s if q != p and q in pivots]:
            s = _eliminate(s, pivots[q], q)
        pivots[p] = _primitive(s, p)
    return pivots, [c for c in range(ncols) if c not in pivots]
