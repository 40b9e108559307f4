"""congestspan benchmark: the time to a verified spanner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gnp-polylog --seed 1 --seconds 20 --trace 0

One process, one workload. After one untimed warm-up build, the run repeats
"generate the inputs, build, verify every claim" until --seconds have passed,
with tracing off, and reports the median of each timing over the repetitions.
Every instance must pass ``verify_build``, and its exact counts (rounds,
messages, episodes, spanner edges, stretch) must repeat in every repetition.

With --trace 1 the run then makes one traced pass, which attributes time to
the package's modules (and must reproduce the same counts), and one pass under
tracemalloc for allocation peaks. Times are reported in reference seconds,
corrected for the host's speed swings as ``speed.py`` explains; the wall
seconds are printed too. Human-readable lines list every metric with its
unit; the last line of standard output is one JSON object holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The exit
code is 0 exactly when every attempted instance was verified.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Counts(NamedTuple):
    """The exact figures of one build, identical on every run of a seed."""
    rounds: int
    messages: int
    episodes: int
    edges: int
    stretch: int


class BenchFailure(RuntimeError):
    """An instance built, but its output failed a check."""


class Tally:
    """Instances attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """fn(*args), or None after logging the failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:   # one failing instance must not hide the others
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def check_output(g, result, report) -> Counts:
    """The exact counts of a build, once its outputs are shown correct."""
    if not report["passed"]:
        failed = [v["name"] for v in report["verdicts"] if not v["ok"]]
        raise BenchFailure(f"verdicts failed: {failed}")
    edges = result.spanner.edges
    graph_edges = g.edge_set()
    if any(e not in graph_edges for e in edges):
        raise BenchFailure("spanner holds an edge that is not in the graph")
    if not _spans(g.vertices, edges):
        raise BenchFailure("spanner does not connect every vertex")
    trace = result.trace
    return Counts(trace.rounds_total, trace.messages_total, len(trace.episodes),
                  len(edges), report["max_edge_stretch"])


def _spans(vertices, edges) -> bool:
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vertices)


def _same_counts(expected: List[Optional[Counts]], index: int,
                 counts: Counts, where: str) -> None:
    if expected[index] is None:
        expected[index] = counts
    elif counts != expected[index]:
        raise BenchFailure(f"instance {index}: {where} counts {counts} differ "
                           f"from the first run's {expected[index]}")


class Steps(NamedTuple):
    """Seconds per step of one repetition, summed over its instances."""
    setup: float
    build: float
    verify: float

    def __add__(self, other):
        return Steps(*(a + b for a, b in zip(self, other)))


def run_instance(wl, verify, speed, seed: int, index: int,
                 expected: List[Optional[Counts]], tracer=None
                 ) -> Tuple[Steps, Steps]:
    """One instance: its (wall, reference) seconds per step. With a tracer,
    each step is one of its root spans."""
    def step(name: str, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.span("bench", name):
            return fn(*args)

    g, setup_wall, setup_ref = speed.measure(step, "setup", wl.make, seed, index)
    result, build_wall, build_ref = speed.measure(step, "build", wl.build, g)
    report, verify_wall, verify_ref = speed.measure(
        step, "verify", verify.verify_build, g, result)
    _same_counts(expected, index, check_output(g, result, report),
                 "timed" if tracer is None else "traced")
    return (Steps(setup_wall, build_wall, verify_wall),
            Steps(setup_ref, build_ref, verify_ref))


def run_pass(wl, verify, speed, seed: int, tally: Tally,
             expected: List[Optional[Counts]], tracer=None) -> Tuple[Steps, Steps]:
    """Every instance once: the (wall, reference) seconds per step, summed."""
    wall = ref = Steps(0.0, 0.0, 0.0)
    for index in range(wl.instances):
        done = tally.attempt(run_instance, wl, verify, speed, seed, index,
                             expected, tracer)
        if done is not None:
            wall, ref = wall + done[0], ref + done[1]
    return wall, ref


def timed_passes(wl, verify, speed, seed: int, seconds: float, tally: Tally,
                 expected: List[Optional[Counts]]) -> List[Tuple[Steps, Steps]]:
    """Untraced passes until seconds have gone by, after a warm-up build."""
    wl.build(wl.make(seed, 0))   # warm-up: the first build in a process is slow
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        gc.collect()
        reps.append(run_pass(wl, verify, speed, seed, tally, expected))
    return reps


def alloc_peaks(wl, verify, seed: int) -> Tuple[float, float]:
    """tracemalloc peaks of the first instance's build and verify, in MB,
    each above what was live when the step began."""
    def peak_above(base: int) -> float:
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20

    tracemalloc.start()
    try:
        g = wl.make(seed, 0)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = wl.build(g)
        build_mb = peak_above(base)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify.verify_build(g, result)
        return build_mb, peak_above(base)
    finally:
        tracemalloc.stop()


def medians(steps: List[Steps]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(r.setup for r in steps),
        "build_s": statistics.median(r.build for r in steps),
        "verify_s": statistics.median(r.verify for r in steps),
        "e2e_s": statistics.median(r.build + r.verify for r in steps),
    }


def end_to_end(ref: List[Steps], expected, tally: Tally
               ) -> Dict[str, Tuple[float, str]]:
    done = [c for c in expected if c is not None]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {name: (value, "s") for name, value in medians(ref).items()}
    metrics.update({
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "sim_rounds": (sum(c.rounds for c in done), "count"),
        "sim_messages": (sum(c.messages for c in done), "count"),
        "sim_episodes": (sum(c.episodes for c in done), "count"),
        "spanner_edges": (sum(c.edges for c in done), "count"),
        "verified_frac": ((tally.attempted - tally.failed) / tally.attempted,
                          "ratio"),
    })
    return metrics


def _unit(name: str) -> str:
    if name.endswith("stretch_max"):
        return "hops"
    if name.endswith("msgs_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def per_layer(tracing, spans, traced: Steps, untraced_e2e_s: float,
              build_mb: float, verify_mb: float, expected
              ) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of the traced pass, in reference seconds.

    traced holds the pass's reference seconds per step. The probes that
    measured the host's speed fell inside the spans in proportion to their
    length, so one scale (reference seconds over the root spans' wall
    seconds) converts every span.
    """
    roots = sum(s.duration for s in spans if s.parent < 0)
    scale = sum(traced) / roots if roots else 0.0
    figures = tracing.layer_metrics(spans, scale)
    # the largest stretch is an extreme value that swings by a third from
    # seed to seed on the grid, too much to bound as an end-to-end metric
    figures["verify.stretch_max"] = max(
        (c.stretch for c in expected if c is not None), default=0)
    figures["build.alloc_peak_mb"] = build_mb
    figures["verify.alloc_peak_mb"] = verify_mb
    figures["trace.overhead_frac"] = ((traced.build + traced.verify)
                                      / untraced_e2e_s - 1
                                      if untraced_e2e_s else 0.0)
    figures["trace.unattributed_s"] = tracing.self_times(spans, scale).get(
        "bench", 0.0)
    return {name: (value, _unit(name)) for name, value in figures.items()}


def largest_share(metrics: Dict[str, Tuple[float, str]]) -> str:
    """The layer metric holding the most time, among the disjoint ones."""
    parts = ["graph.gen_s", "sim.run_s", "verify.stretch_s"]
    parts += [k for k in metrics if k.endswith(".self_s")]
    parts += [k for k in metrics if k.startswith("verify.verdict.")]
    return max(parts, key=lambda k: metrics[k][0])


def print_metrics(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")


def parse_args(argv, workload_names) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "congestspan" / "__init__.py").is_file():
        print(f"error: no congestspan package under {SRC}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from congestspan import verify
    from speed import Speedometer
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]
    print(f"# congestspan benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# host: nproc {os.cpu_count()}, Python {platform.python_version()}")
    print(f"# {wl.instances} instance(s), {wl.construction}, one process")

    tally = Tally()
    speed = Speedometer()
    expected: List[Optional[Counts]] = [None] * wl.instances
    reps = timed_passes(wl, verify, speed, args.seed, args.seconds, tally,
                        expected)
    wall = medians([r[0] for r in reps])
    factors = speed.factors or [0.0]
    print(f"# timed repetitions: {len(reps)}; host speed factor median "
          f"{statistics.median(factors):.3f}, range "
          f"{min(factors):.3f} to {max(factors):.3f}")
    print("# wall seconds, medians: " + ", ".join(
        f"{name} {value:.4f}" for name, value in wall.items()))
    e2e = end_to_end([r[1] for r in reps], expected, tally)
    print_metrics("end to end (tracing off, medians, reference seconds)", e2e)
    metrics = e2e
    if args.trace:
        tracer = tracing.Tracer()
        gc.collect()
        with tracing.installed(tracer):
            _, traced = run_pass(wl, verify, speed, args.seed, tally, expected,
                                 tracer)
        build_mb, verify_mb = alloc_peaks(wl, verify, args.seed)
        metrics = per_layer(tracing, tracer.spans, traced, e2e["e2e_s"][0],
                            build_mb, verify_mb, expected)
        print_metrics("per layer (one traced pass)", metrics)
        print(f"# largest share: {largest_share(metrics)}")

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
