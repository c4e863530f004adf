"""Exact sparse linear algebra over the integers.

This is the only module that does elimination.  Rows are sparse integer
vectors, `dict[column, int]`, and elimination is fraction-free: every stored
row is primitive (its entries have gcd 1) with a positive pivot.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

Row = dict[int, int]


def _combine(a: int, r: Row, b: int, s: Row) -> Row:
    """The row a*r - b*s, dropping zero entries."""
    out = {c: a * x for c, x in r.items()}
    for c, x in s.items():
        y = out.get(c, 0) - b * x
        if y:
            out[c] = y
        else:
            del out[c]
    return out


def _primitive(r: Row, p: int) -> Row:
    """r divided by the gcd of its entries, with the sign that makes r[p] > 0."""
    g = math.gcd(*r.values())
    if r[p] < 0:
        g = -g
    return {c: x // g for c, x in r.items()} if g != 1 else r


def nullspace(rows: Iterable[Row], ncols: int) -> tuple[int, list[tuple[int, ...]]]:
    """The standard free-variable basis of {x : row . x = 0 for every row},
    in increasing free-column order, as integer vectors over one common
    denominator: returns (D, [D * b for each basis vector b]).

    The rows are added one at a time.  Each is reduced by the stored pivot
    rows, its leftmost nonzero column becomes a new pivot, and the other
    pivot rows are back-reduced by it.  A stored row is then zero at every
    other pivot column, so it is the unique reduced-row-echelon row for its
    pivot up to a positive scale, and the basis is the dense Gauss-Jordan one
    by construction.  D is the least common multiple of the pivot entries,
    which is the least common denominator of that basis (1 when it has no
    vectors).  Pivots are never reordered to reduce fill: that would change
    the free columns, and with them the basis.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for c in [c for c in r if c in pivots]:
            s = pivots[c]
            g = math.gcd(s[c], r[c])
            r = _combine(s[c] // g, r, r[c] // g, s)
        if not r:
            continue
        p = min(r)
        r = _primitive(r, p)
        for q, s in pivots.items():
            if p in s:
                g = math.gcd(r[p], s[p])
                pivots[q] = _primitive(_combine(r[p] // g, s, s[p] // g, r), q)
        pivots[p] = r
    denominator = math.lcm(*(s[p] for p, s in pivots.items()))
    free = {c: i for i, c in enumerate(c for c in range(ncols) if c not in pivots)}
    basis = [[0] * ncols for _ in free]
    for c, i in free.items():
        basis[i][c] = denominator
    for p, s in pivots.items():
        scale = denominator // s[p]
        for c, x in s.items():
            if c != p:
                basis[free[c]][p] = -x * scale
    return denominator, [tuple(b) for b in basis]
