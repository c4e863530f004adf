"""Independent checker for the certificates tubular emits.

This module imports nothing from `tubular`.  Every check re-derives its claim
from plain integers and `fractions.Fraction`, so a defect in a decider cannot
hide in the code that checks it.

Presentations are passed as plain data: `edges` is a sequence of
`(label, src, dst, v, w)` with `v`, `w` integer pairs, one per edge.  JSON
certificates are the dicts found under `"certificate"` in a report.
"""

from __future__ import annotations

import json
from fractions import Fraction


def det(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _vec_value(coeffs, vec) -> int:
    return coeffs[0] * vec[0] + coeffs[1] * vec[1]


def check_qform(form, edges) -> bool:
    """A form (a, b, c), meaning a x^2 + 2b xy + c y^2, is positive definite
    and takes equal values on both attaching vectors of every edge."""
    a, b, c = (Fraction(x) for x in form)
    if not (a > 0 and a * c - b * b > 0):
        return False

    def q(v):
        return a * v[0] * v[0] + 2 * b * v[0] * v[1] + c * v[1] * v[1]

    return all(q(v) == q(w) for _, _, _, v, w in edges)


def check_functional(coeffs, edges, extra=()) -> bool:
    """`coeffs` maps each vertex to (alpha, beta).  Requires
    f_src(v) = f_dst(w) != 0 on every edge, and f != 0 on each listed
    (vertex, element) in `extra`."""
    try:
        for _, src, dst, v, w in edges:
            left = _vec_value(coeffs[src], v)
            if left == 0 or left != _vec_value(coeffs[dst], w):
                return False
        return all(_vec_value(coeffs[vx], elem) != 0 for vx, elem in extra)
    except KeyError:
        return False


def check_equitable(sets, vertices, edges) -> bool:
    """`sets` maps each vertex to its circle vectors.  Every vertex has an
    independent pair of nonzero circles, and every edge sees equal sums of
    |det| on its two ends."""
    for vx in vertices:
        circles = sets.get(vx)
        if not circles or any(c[0] == 0 and c[1] == 0 for c in circles):
            return False
        if not any(
            det(circles[i], circles[j]) != 0
            for i in range(len(circles))
            for j in range(i + 1, len(circles))
        ):
            return False
    for _, src, dst, v, w in edges:
        if sum(abs(det(x, v)) for x in sets[src]) != sum(
            abs(det(y, w)) for y in sets[dst]
        ):
            return False
    return True


def check_dilation_cycle(cert, sets, edges) -> bool:
    """A dilation cycle closes up, every arc joins circles that meet its edge,
    and the holonomy recomputed from the arc data is the reported one and is
    not 1.  Arc weights are recomputed as |det(v_e, c_src)| / |det(w_e, c_dst)|
    from the equitable set `sets`, never read from the certificate."""
    by_label = {label: (src, dst, v, w) for label, src, dst, v, w in edges}
    steps = cert["steps"]
    if not steps:
        return False
    holonomy = Fraction(1)
    walk = []
    for step in steps:
        if step["edge"] not in by_label or step["direction"] not in (1, -1):
            return False
        src, dst, v, w = by_label[step["edge"]]
        fv, fi = step["from"].rsplit(":", 1)
        tv, ti = step["to"].rsplit(":", 1)
        if fv != src or tv != dst:
            return False
        try:
            cs, cd = sets[fv][int(fi)], sets[tv][int(ti)]
        except (KeyError, IndexError, ValueError):
            return False
        num, den = abs(det(v, cs)), abs(det(w, cd))
        if num == 0 or den == 0:
            return False
        weight = Fraction(num, den)
        if step["direction"] == 1:
            holonomy *= weight
            walk.append((step["from"], step["to"]))
        else:
            holonomy /= weight
            walk.append((step["to"], step["from"]))
    closes = all(walk[k][1] == walk[(k + 1) % len(walk)][0] for k in range(len(walk)))
    return closes and holonomy != 1 and holonomy == Fraction(cert["holonomy"])


def _forced_cos(base, v, w):
    """Coefficients (a, b) of the equation a = b cos(phi) that the pair
    (v, w) imposes, in coordinates relative to the independent base pair."""
    v1, w1 = base
    d = det(v1, w1)

    def coords(u):
        return Fraction(det(u, w1), d), Fraction(det(v1, u), d)

    x, y = coords(v)
    xp, yp = coords(w)
    return (x * x + y * y) - (xp * xp + yp * yp), 2 * (xp * yp - x * y)


def check_cat0_obstruction(cert, pairs) -> bool:
    """Re-derive a single-vertex CAT(0) No from its obstruction datum.

    ParallelMismatch: the named pair is parallel but not equal up to sign.
    CosOutOfRange: the named pair forces cos(phi) outside (-1, 1).
    InconsistentCos: two pairs force different cosines, or one pair forces a
    nonzero constant to vanish.  Cosines are taken relative to the first
    independent pair.
    """
    kind, idx = cert["kind"], cert["indices"]
    values = [Fraction(x) for x in cert["values"]]
    if not idx or any(not 0 <= i < len(pairs) for i in idx):
        return False
    if kind == "ParallelMismatch":
        v, w = pairs[idx[0]]
        return det(v, w) == 0 and v != w and v != (-w[0], -w[1])
    base = next(((v, w) for v, w in pairs if det(v, w) != 0), None)
    if base is None:
        return False
    eqs = [_forced_cos(base, *pairs[i]) for i in idx]
    if kind == "CosOutOfRange":
        a, b = eqs[0]
        return b != 0 and a / b == values[0] and not (-1 < values[0] < 1)
    if kind == "InconsistentCos":
        if len(idx) != 2:
            return False
        if len(values) == 1:
            a, b = eqs[1]
            return b == 0 and a == values[0] != 0
        return (
            len(values) == 2
            and all(b != 0 and a / b == c for (a, b), c in zip(eqs, values))
            and values[0] != values[1]
        )
    return False


def forced_values(p, q) -> list[Fraction]:
    """Distinct values (p_i - q_i)/2 over indices with p_i + q_i != 0, in
    first-seen order: the vrc obstruction is these values being >= 2."""
    out: list[Fraction] = []
    for pi, qi in zip(p, q):
        val = Fraction(pi - qi, 2)
        if pi + qi != 0 and val not in out:
            out.append(val)
    return out


def parallel_classes(vectors) -> int:
    """Number of lines through the origin spanned by nonzero vectors."""
    lines: list = []
    for v in vectors:
        if not any(det(v, u) == 0 for u in lines):
            lines.append(v)
    return len(lines)


def load_reports(text: str) -> list[dict]:
    """The report array printed by `tubular ... --json`."""
    reports = json.loads(text)
    if not isinstance(reports, list):
        raise ValueError("expected a JSON array of reports")
    return reports


def sets_from_json(cert) -> dict:
    return {vx: [tuple(c) for c in circles] for vx, circles in cert["sets"].items()}


def coeffs_from_json(cert) -> dict:
    return {vx: tuple(ab) for vx, ab in cert["coefficients"].items()}
