"""The host's current speed, from a fixed stdlib routine.

The benchmark runs on shared virtual machines whose speed drifts: for
seconds at a time, neighbours on the host slow this CPU down by half or
more, and the thread's CPU clock counts the slow time in full.  The
benchmark therefore times `reference()`, fixed work of the kind tubular
does (exact fractions, dicts, lists, elimination) that does not depend on
tubular, before and after each stretch of operations.  Its mix was chosen
so that its speed moves with the program's when the host's does.  Each
time the benchmark reports is scaled by `REFERENCE_S` over the routine's
cost around it: seconds on a host that runs the routine in `REFERENCE_S`.
A change to the program moves those seconds; a change in the host's speed
does not.
"""

from __future__ import annotations

import time
from fractions import Fraction

# CPU seconds one reference() takes on an otherwise idle 2-CPU x86-64 Xeon
# Linux container with Python 3.11.
REFERENCE_S = 0.0057
_MATRIX = [[(i * 7 + j * 5) % 9 - 4 for j in range(10)] for i in range(6)]


def reference():
    """Arithmetic on small fractions, a few hundred live objects in a list
    and a dict, and exact Gauss-Jordan elimination.  Loops of plain integer
    arithmetic track the program's speed poorly: when the host sped up, one
    sped up 21% less than the program did."""
    acc = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, 280):
        f = Fraction(i, 7) + Fraction(3, i)
        acc += f * f
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
        str(i * i).split("0")
    xs = [Fraction(i * 7919 % 1009, 1 + i % 97) for i in range(250)]
    sums: dict[tuple[int, int], Fraction] = {}
    for i, x in enumerate(xs):
        key = (i % 53, x.denominator)
        sums[key] = sums.get(key, Fraction(0)) + x
    xs.sort()
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    r = 0
    for c in range(10):
        piv = next((i for i in range(r, 6) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(6):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == 6:
            break
    return acc, len(counts), sum(sums.values()), m


def reference_cost() -> float:
    """CPU seconds of one reference().  CPU time leaves out the time other
    processes hold the CPU."""
    c0 = time.thread_time()
    reference()
    return time.thread_time() - c0


def scale(before: float, after: float) -> float:
    """The factor that turns CPU seconds spent between two reference costs
    into seconds at reference speed."""
    return 2 * REFERENCE_S / (before + after)
