"""Spans around tubular's public functions, recorded from outside the package.

`Tracer.install` replaces each listed function, in every `tubular` module
namespace that holds it, by a wrapper that records a span: its name, start,
end, the enclosing span and the operation it belongs to.  Calls between
modules go through those namespaces, so nested calls become child spans.
Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs, and the extra statistics each one reports.
LAYERS = {
    ("cli", "main"): ("timeouts",),
    ("dsl", "parse"): ("bytes_in",),
    ("report", "reports_to_json"): ("bytes_out",),
    ("cat0", "decide_cat0"): ("yes_ratio",),
    ("cat0", "vertex_necessary_checks"): (),
    ("fbc", "decide_fbc_single_vertex"): (),
    ("fbc", "hom_space"): ("dim_mean", "dim_max"),
    ("fbc", "button_decide"): ("timeouts",),
    ("fbc", "generalized_retractor"): ("timeouts",),
    ("fbc", "amalgam_fbc_sufficient"): (),
    ("special", "vspecial_sufficient"): ("decided_ratio",),
    ("special", "vspecial_fbc_decide"): (),
    ("special", "gpq_vspecial_decide"): (),
    ("special", "gpq_compact_special_decide"): (),
    ("special", "cocompact_cubulation_decide"): (),
    ("special", "gpq_to_tubular"): (),
    ("cubulate", "equitable_search"): ("found_ratio", "timeouts"),
    ("cubulate", "wall_graph"): ("arcs_mean",),
    ("cubulate", "dilation_decide"): (),
    ("cubulate", "all_matching_verdicts"): ("complete_ratio", "timeouts"),
    ("vrc", "vrc_obstruction"): (),
}

UNITS = {
    "calls": "1/op",
    "self_s": "s/op",
    "timeouts": "1/op",
    "bytes_in": "B/call",
    "bytes_out": "B/call",
    "dim_mean": "dim",
    "dim_max": "dim",
    "arcs_mean": "arcs",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric this module reports, with its unit."""
    out = []
    for (mod, fn), extra in LAYERS.items():
        for stat in ("calls", "self_s") + extra:
            out.append((f"{mod}.{fn}.{stat}", UNITS.get(stat, "ratio")))
    return out


class _Stats:
    __slots__ = ("calls", "self_s", "timeouts", "interrupted", "total", "hits", "max")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.timeouts = 0  # budget hits while this was the innermost open span
        self.interrupted = 0  # calls cut short by a budget hit anywhere below
        self.total = 0  # sum of the per-call figure (bytes, dimension, arcs)
        self.hits = 0  # calls whose result counts toward a ratio
        self.max = 0


def _measure(name, args, result):
    """(figure to sum, whether the call counts as a hit) for one call."""
    if name == "dsl.parse":
        return len(args[0].encode()), False
    if name == "report.reports_to_json":
        return len(result.encode()), False
    if name == "cat0.decide_cat0":
        return 0, result.answer
    if name == "special.vspecial_sufficient":
        return 0, result.answer.value == "Yes"
    if name == "fbc.hom_space":
        return result.dim, False
    if name == "cubulate.equitable_search":
        return 0, hasattr(result, "sets")
    if name == "cubulate.wall_graph":
        return len(result.arcs), False
    if name == "cubulate.all_matching_verdicts":
        return 0, result[1]
    return 0, False


class Tracer:
    def __init__(self, budget_exc: type[BaseException]):
        self.budget_exc = budget_exc
        self.active = False  # spans are recorded only inside timed operations
        self.op = -1
        self.spans: list[tuple] = []  # (name, op, parent, start, end)
        self.stats = {f"{m}.{f}": _Stats() for m, f in LAYERS}
        self._stack: list[list] = []  # [span index, child time] per open span
        self._patched: list[tuple] = []

    def install(self):
        mods = [m for n, m in list(sys.modules.items()) if n == "tubular" or n.startswith("tubular.")]
        for mod, fn in LAYERS:
            orig = getattr(sys.modules[f"tubular.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name, orig):
        stats = self.stats[name]
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except self.budget_exc as exc:
                stats.interrupted += 1
                if not getattr(exc, "attributed", False):
                    exc.attributed = True
                    stats.timeouts += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, self.op, parent, start, end)
                stats.calls += 1
                stats.self_s += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            figure, hit = _measure(name, args, result)
            stats.total += figure
            stats.hits += hit
            stats.max = max(stats.max, figure)
            return result

        return wrapper

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures over `ops` traced operations."""
        out = {}
        for (mod, fn), extra in LAYERS.items():
            name = f"{mod}.{fn}"
            s = self.stats[name]
            done = s.calls - s.interrupted
            out[f"{name}.calls"] = s.calls / ops
            out[f"{name}.self_s"] = s.self_s / ops
            for stat in extra:
                if stat == "timeouts":
                    val = s.timeouts / ops
                elif stat == "dim_max":
                    val = s.max
                elif stat.endswith("_ratio"):
                    val = s.hits / done if done else 0.0
                else:
                    val = s.total / done if done else 0.0
                out[f"{name}.{stat}"] = val
        return out

    def covered_s(self) -> float:
        """Time inside any span: the sum of every span's self time."""
        return sum(s.self_s for s in self.stats.values())

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end"], "spans": self.spans}, fh)
