#!/usr/bin/env python3
"""Benchmark for tubular: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, as a table

One process, one thread, a closed loop with one caller: each operation
starts when the previous one returns.  Operations run in complete passes
(see workloads.py) until `--seconds` of operation time is spent.  Times are
CPU time of the one thread, scaled to a reference host speed (speed.py): on
a shared virtual machine, wall time also counts the time the host gives this
CPU to other machines, and CPU time the time neighbours slow it down.  Each
operation runs under its workload's budget; one that exceeds it is
interrupted, counted as failed and listed, never dropped or redrawn.  Every
output is checked outside the timed region.  The last line of standard
output is one JSON object; the exit status is nonzero when an output fails
its check.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
CALIBRATE_EVERY_S = 0.2  # CPU seconds of operations between two speed measurements
PERCENTILES = (50, 75)
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OverBudget(BaseException):
    """Raised by the profiling timer inside an operation that has used more
    than its budget of CPU time at reference speed.  Such a budget stops the
    same inputs on a loaded or slowed machine as on an idle one.

    A BaseException, so no `except Exception` in the program can swallow it.
    """


def _alarm(signum, frame):
    raise OverBudget()


class Phase:
    """The outcome of the operations of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []  # CPU seconds per operation, at reference speed
        self.busy_s = 0.0  # wall time inside operations
        self.cpu_s = 0.0  # at reference speed
        self.completed = 0
        self.over_budget: list[str] = []
        self.passes = 0
        self.pass_rates: list[float] = []  # completed operations per CPU second, at reference speed
        self.pass_cpu: list[float] = []  # CPU seconds per attempted operation, at reference speed

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Median over passes, so a burst of load from other processes on the
        machine moves one pass, not the run."""
        return statistics.median(self.pass_rates)


def run_phase(wl, seed, seconds, checks, tracer=None) -> Phase:
    """Run complete passes until the next one would end past `seconds` of
    operation time.

    The host's speed is measured (speed.py) before each pass and after each
    stretch of at least CALIBRATE_EVERY_S of operations.  The operations of
    a stretch are scaled by the speed around it, and budgets are set in
    reference seconds by the last speed measured."""
    ph = Phase()
    while ph.passes == 0 or ph.busy_s * (ph.passes + 0.5) / ph.passes < seconds:
        inputs = wl.inputs(seed, ph.passes)
        outputs = []
        cpu0, done0, first = ph.cpu_s, ph.completed, len(ph.latencies)
        cost, stretch, stretch_s = speed.reference_cost(), first, 0.0
        for i, inp in enumerate(inputs):
            if tracer:
                tracer.op += 1
                tracer.active = True
            # The thread clock, not the process clock: while a profiling
            # timer is armed Linux advances the process clock only at ticks.
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_PROF, wl.budget_s * cost / speed.REFERENCE_S)
                try:
                    out = wl.op(*inp.args)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
            except OverBudget:
                out = OverBudget
            except Exception as exc:  # a failed operation is reported, not fatal
                out = exc
            t1, c1 = time.perf_counter(), time.thread_time()
            if tracer:
                tracer.active = False
            ph.latencies.append(c1 - c0)
            ph.busy_s += t1 - t0
            stretch_s += c1 - c0
            outputs.append(out)
            if i == len(inputs) - 1 or stretch_s >= CALIBRATE_EVERY_S:
                after = speed.reference_cost()
                k = speed.scale(cost, after)
                ph.latencies[stretch:] = [x * k for x in ph.latencies[stretch:]]
                cost, stretch, stretch_s = after, len(ph.latencies), 0.0
        # An interrupted operation ran for its budget, which is set in
        # reference seconds; how the host's speed moved during it is unknown.
        for i, out in enumerate(outputs):
            if out is OverBudget:
                ph.latencies[first + i] = wl.budget_s
        ph.cpu_s += sum(ph.latencies[first:])
        for i, (inp, out) in enumerate(zip(inputs, outputs)):
            where = f"workload={wl.name} seed={seed} input={ph.passes}.{i} kind={inp.kind}"
            if out is OverBudget:
                ph.over_budget.append(f"{where} budget_s={wl.budget_s}")
                continue
            before = len(checks.problems)
            if isinstance(out, Exception):
                checks.problems.append(f"raised {type(out).__name__}: {out}")
            else:
                wl.check(checks, inp, out, tubular)
            if len(checks.problems) == before:
                ph.completed += 1
            else:
                checks.problems[before:] = [f"{where}: {p}" for p in checks.problems[before:]]
        ph.pass_rates.append((ph.completed - done0) / (ph.cpu_s - cpu0))
        ph.pass_cpu.append((ph.cpu_s - cpu0) / len(inputs))
        ph.passes += 1
    return ph


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it."""
    n = len(latencies)
    p = max([q for q in PERCENTILES if n * (100 - q) / 100 >= 10], default=50)
    return p, statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def setup_seconds(wl, seed) -> float:
    """Median CPU time of a fresh interpreter that imports tubular and
    finishes the workload's first operation, at reference speed, after one
    run that warms file caches."""
    inp = wl.make_pass(random.Random(f"{wl.name}/{seed}/setup"))[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, os.path.join(HERE, "ops.py"), wl.name]
    stdin = json.dumps(inp.args)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        cost = speed.reference_cost()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, input=stdin, text=True, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        k = speed.scale(cost, speed.reference_cost())
        times.append(k * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime))
    return statistics.median(times[1:])


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGPROF, _alarm)
    checks = workloads.Checks()
    warm = wl.make_pass(random.Random(f"{wl.name}/{args.seed}/setup"))[0]
    wl.op(*warm.args)

    if args.trace:
        plain = run_phase(wl, args.seed, args.seconds / 2, checks)
        tracer = spans.Tracer(OverBudget)
        tracer.install()
        try:
            traced = run_phase(wl, args.seed, args.seconds / 2, checks, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(traced.attempted)
        metrics["trace.overhead_ratio"] = plain.ops_per_s() / traced.ops_per_s()
        metrics["trace.coverage_ratio"] = tracer.covered_s() / traced.busy_s
        # The layers account for the operation when little time falls outside
        # every span; what does is glue code plus the wrappers' own cost.
        print(f"trace check: spans cover {metrics['trace.coverage_ratio']:.3f} of operation time, "
              f"tracing overhead ratio {metrics['trace.overhead_ratio']:.3f}: "
              f"{'ok' if metrics['trace.coverage_ratio'] >= 0.9 else 'LOW COVERAGE'}")
        units = dict(spans.metric_names(), **{"trace.overhead_ratio": "ratio", "trace.coverage_ratio": "ratio"})
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"trace-{wl.name}-{args.seed}.json"))
        phases = (plain, traced)
    else:
        ph = run_phase(wl, args.seed, args.seconds, checks)
        p, tail_s = tail(ph.latencies)
        metrics = {
            "ops_per_s": ph.ops_per_s(),
            "latency_p50_ms": statistics.median(ph.latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "cpu_ms_per_op": statistics.median(ph.pass_cpu) * 1e3,
            "completed_ratio": ph.completed / ph.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_seconds(wl, args.seed),
        }
        units = END_TO_END
        phases = (ph,)
        print(f"latency_tail_ms is p{p} of {ph.attempted} samples")

    attempted = sum(ph.attempted for ph in phases)
    completed = sum(ph.completed for ph in phases)
    for ph in phases:
        for line in ph.over_budget:
            print(f"over budget: {line}")
    for what, n in sorted(checks.unverified.items()):
        print(f"unverified (no certificate, no second route): {what} x{n}")
    for line in checks.problems:
        print(f"FAILED CHECK: {line}")
    print(f"failed_ratio {(attempted - completed) / attempted:.6f} over {attempted} operations, "
          f"{sum(ph.passes for ph in phases)} passes")
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "metrics": {}}
        if proc.returncode or not result["correct"]:
            status = 1
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:45s} {m['value']:14.6g} {m['unit']}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "tubular", "__init__.py")):
        sys.exit(f"error: no tubular sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import tubular
    import tubular.corpus  # the checks load corpus presentations from it

    import spans
    import speed
    import workloads

    sys.exit(main())
