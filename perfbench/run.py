"""Benchmark for moritakit: one workload per run, checked against references.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

Each workload runs in this one process on one thread as a closed loop:
every task starts when the previous one has ended, and a pass is one walk
over the workload's task list.  Passes repeat until --seconds have passed
and the workload's minimum pass count is reached.

--trace 0 measures the end-to-end metrics with no tracing installed.
Their times are wall times scaled to a reference host speed, measured
by a kernel that runs between the program's bytecodes (hostclock.py);
the detail line also gives the unscaled times.
--trace 1 runs untraced passes for half the time, then wraps the library
(spans.py), sets up again and runs traced passes; the per-layer metrics
cover the traced set-up and the first traced pass, and every span is
written to perfbench/out/ when the run ends.

Standard output ends with one detail line (quartiles, sample counts,
failures) and then the result object as its last line.  The exit code is
0 whenever a result is printed; 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import hostclock
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-ups per --trace 0 run, setup_s being their median: 21, or fewer
# (at least 3) once they have taken SETUP_BUDGET_S, for the verify
# workload, whose set-up builds catalogs for seconds
SETUP_REPS = (3, 21)
SETUP_BUDGET_S = 5.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, label: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {error}")


def import_library():
    """A fresh import of the package from src/, so that each set-up pays
    the import cost and starts with cold module state."""
    for name in [n for n in sys.modules if n == "moritakit" or n.startswith("moritakit.")]:
        del sys.modules[name]
    package = importlib.import_module("moritakit")
    return SimpleNamespace(package=package, **{
        layer: importlib.import_module(f"moritakit.{layer}") for layer in spans.LAYERS})


class Times:
    """Pass times and task latencies of a run, in seconds at reference
    speed, and the passes' unscaled wall times."""

    def __init__(self, tasks):
        self.passes, self.wall_passes, self.latencies = [], [], []
        self.per_task = {task.label: [] for task in tasks}

    def task_medians(self) -> list:
        return [statistics.median(v) for v in self.per_task.values() if v]


def run_passes(tasks_for, seconds: float, min_passes: int, tally: Tally,
               clock: hostclock.HostClock, on_task=None) -> Times:
    """Closed-loop passes over the task lists; a pass's time is the sum of
    its timed task calls, so checking outputs is not counted."""
    times = Times(tasks_for(0))
    deadline = time.perf_counter() + seconds
    while len(times.passes) < min_passes or time.perf_counter() < deadline:
        total = wall_total = 0.0
        for task in tasks_for(len(times.passes)):
            if on_task is not None:
                on_task(len(times.passes), task)
            start = clock.stamp()
            try:
                out = task.run()
            except Exception as e:  # a raising task is a failed task; keep measuring
                end = clock.stamp()
                error = f"raised {e!r}"
            else:
                end = clock.stamp()
                error = task.check(out)
            wall, elapsed = clock.interval(start, end)
            total += elapsed
            wall_total += wall
            times.latencies.append(elapsed)
            times.per_task[task.label].append(elapsed)
            tally.add(task.label, error)
        times.passes.append(total)
        times.wall_passes.append(wall_total)
    return times


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def end_to_end(workload, seed: int, seconds: int, tally: Tally):
    setup_times, setup_wall = [], []
    with hostclock.HostClock() as clock:
        while len(setup_times) < SETUP_REPS[0] or (
                len(setup_times) < SETUP_REPS[1] and sum(setup_wall) < SETUP_BUDGET_S):
            start = clock.stamp()
            lib = import_library()
            tasks_for, errors = workload.setup(lib, seed)
            wall, scaled = clock.interval(start, clock.stamp())
            setup_times.append(scaled)
            setup_wall.append(wall)
            for e in errors:
                tally.add("setup", e)
        times = run_passes(tasks_for, seconds, workload.min_passes, tally, clock)
    # Percentiles over single samples need 10 samples beyond p90, which
    # the minimum pass count guarantees only on some workloads; elsewhere
    # they are taken over each task's median latency.
    by_sample = workload.min_passes * len(tasks_for(0)) >= 100
    values = times.latencies if by_sample else times.task_medians()
    ms = [x * 1000.0 for x in values]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    p50, p90 = cuts[49], cuts[89]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(times.passes), "s"),
        "cmd_p50_ms": (p50, "ms"),
        "cmd_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_s": setup_times,
        "pass_s": dict(quartiles(times.passes), passes=len(times.passes)),
        "wall_setup_s": statistics.median(setup_wall),
        "wall_pass_s": quartiles(times.wall_passes),
        "host_speed": dict(quartiles(clock.speeds()), ticks=len(clock.took)),
        "cmd_ms": {"p50": p50, "p90": p90,
                   "over": "samples" if by_sample else "task medians",
                   "samples": len(times.latencies),
                   "beyond_p90": sum(1 for x in times.latencies if x * 1000.0 > p90)},
        "task_median_ms": {label: statistics.median(v) * 1000.0
                           for label, v in times.per_task.items()},
    }
    return metrics, detail


def traced(workload, seed: int, seconds: int, tally: Tally, name: str):
    lib = import_library()
    tasks_for, errors = workload.setup(lib, seed)
    for e in errors:
        tally.add("setup", e)
    # per-layer times are plain wall times: no host clock ticks here, so
    # that no kernel time falls inside the spans
    clock = hostclock.HostClock()
    plain = run_passes(tasks_for, seconds / 2.0, 1, tally, clock)

    tracer = spans.Tracer()
    labels = {1: "setup"}
    first_pass = {1}

    def on_task(pass_index, task):
        tracer.current_task = len(labels) + 1
        labels[tracer.current_task] = f"pass {pass_index}: {task.label}"
        if pass_index == 0:
            first_pass.add(tracer.current_task)

    tracer.install(lib)
    try:
        tracer.current_task = 1
        tasks_for, errors = workload.setup(lib, seed)
        for e in errors:
            tally.add("setup", e)
        wrapped = run_passes(tasks_for, seconds / 2.0, 1, tally, clock, on_task)
    finally:
        tracer.uninstall()

    profile = spans.Profile(tracer, first_pass)
    metrics = spans.layer_metrics(profile)
    overhead = statistics.median(wrapped.passes) / statistics.median(plain.passes) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv.gz")
    tracer.write(path, labels)
    detail = {
        "untraced_pass_s": dict(quartiles(plain.passes), passes=len(plain.passes)),
        "traced_pass_s": dict(quartiles(wrapped.passes), passes=len(wrapped.passes)),
        "spans": len(tracer.name),
        "spans_file": os.path.relpath(path, ROOT),
    }
    if name == "catalog":
        # ROADMAP profile of build_catalog(T2/GF(2), 4): at seed 0 it reads
        # 668 is_isomorphic calls, 202 found, 79,621 candidates
        task = min(t for t in first_pass if labels[t].endswith("T2/GF(2)<=4"))
        detail["iso_profile_T2_GF2_4"] = spans.iso_profile(profile, task)
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="moritakit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "moritakit", "__init__.py")):
        print(f"error: no moritakit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics, detail = traced(workload, args.seed, args.seconds, tally, args.workload)
    else:
        metrics, detail = end_to_end(workload, args.seed, args.seconds, tally)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failed_frac=tally.failed / tally.attempted, errors=tally.errors)
    for e in tally.errors:
        print(f"mismatch: {e}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
