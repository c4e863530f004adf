"""The timed operation of each workload.

Each function calls tubular's public functions the way a library user or the
command line would.  Functions are looked up on their modules at call time,
so the tracer, which patches module attributes, sees every call.

Run as a script, this file performs one operation in a fresh interpreter,
which is what the benchmark's set-up time measures:

    PYTHONPATH=src python3 perfbench/ops.py WORKLOAD < ARGS.json
"""

from __future__ import annotations

import contextlib
import io
import sys

import tubular
from tubular import cat0, cli


def sweep(text):
    """Parse one single-vertex input and run every single-vertex decider."""
    obj = tubular.parse(text)
    g = tubular.gpq_to_tubular(obj) if isinstance(obj, tubular.GpqParams) else obj
    out = {"presentation": g}
    pairs = g.single_vertex_pairs()
    out["cat0"] = tubular.decide_cat0(pairs)
    out["fbc"] = tubular.decide_fbc_single_vertex(pairs)
    out["vspecial_sufficient"] = tubular.vspecial_sufficient(pairs)
    out["vspecial_fbc"] = tubular.vspecial_fbc_decide(pairs)
    out["cocompact"] = tubular.cocompact_cubulation_decide(g, out["cat0"].answer)
    if isinstance(obj, tubular.GpqParams):
        out["gpq_vspecial"] = tubular.gpq_vspecial_decide(obj)
        out["gpq_compact"] = tubular.gpq_compact_special_decide(obj)
        out["vrc"] = tubular.vrc_obstruction(obj)
    return out


def graph(text, vertex, elem, glue=None):
    """Parse one multi-vertex input and run the graph deciders; with `glue`,
    also glue it to a second input and decide the amalgam."""
    g = tubular.parse(text)
    out = {
        "presentation": g,
        "button": tubular.button_decide(g),
        "retractor": tubular.generalized_retractor(g, vertex, tubular.IntVec2(*elem)),
        "vertex_checks": cat0.vertex_necessary_checks(g),
        "cocompact": tubular.cocompact_cubulation_decide(g, False),
    }
    if glue is not None:
        text2, (va, a), (vb, b) = glue
        g2 = tubular.parse(text2)
        out["amalgam"] = tubular.amalgam_fbc_sufficient(
            g, (va, tubular.IntVec2(*a)), g2, (vb, tubular.IntVec2(*b))
        )
    return out


def command(argv, stdin_text):
    """One in-process `tubular` command with the given stdin; returns the exit
    status and everything it printed."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, buf.getvalue()


OPS = {"sweep": sweep, "graph": graph, "analyze": command, "spectrum": command}


if __name__ == "__main__":
    import json

    OPS[sys.argv[1]](*json.load(sys.stdin))
