"""The measuring loop shared by the workloads.

An untraced run repeats passes of the workload for the given seconds and
reports end-to-end figures.  A traced run alternates an untraced pass with a
traced one, so the difference between them is the tracing overhead, and
derives the per-layer figures from the traced passes' spans.
"""

from __future__ import annotations

import resource
from time import perf_counter

from layers import BOUNDARIES, GENERIC_COUNTS, LAYERS, summarize_passes
from stats import Tally, median
from tracer import NULL, Tracer


class Workload:
    """One workload: inputs made from a seed, a pass of operations, checks.

    Subclasses set ``name`` and implement ``setup``, ``run_pass``,
    ``peak_rss_mb``, ``report`` (the workload's own figures of an untraced
    run) and ``layer_metrics`` (its own per-layer figures of a traced run).
    """

    name = ""

    def __init__(self, seed: int, root, work):
        self.seed = seed
        self.root = root
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tally: Tally, tr) -> list[tuple[str, float]]:
        """Run every operation once; return (operation, seconds) pairs."""
        raise NotImplementedError

    def traced_cycle(self, tally: Tally, tracer: Tracer) -> dict:
        """One untraced pass, then the same pass traced."""
        untraced = pass_seconds(self.run_pass(tally, NULL))
        with tracer.installed(BOUNDARIES), tracer.span("bench.pass"):
            traced = pass_seconds(self.run_pass(tally, tracer))
        return {"untraced_s": untraced, "traced_s": traced}


def pass_seconds(ops) -> float:
    """A pass's time is the sum of its operations' times, so the checks run
    between operations stay out of it."""
    return sum(t for _, t in ops)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl: Workload, seconds: float, tally: Tally, min_passes: int):
    """Passes until ``seconds`` have gone by; wall time per pass and per op."""
    walls, ops = [], []
    start = perf_counter()
    while len(walls) < min_passes or perf_counter() - start < seconds:
        pass_ops = wl.run_pass(tally, NULL)
        ops.extend(pass_ops)
        walls.append(pass_seconds(pass_ops))
    return walls, ops


def run_traced(wl: Workload, seconds: float, tally: Tally):
    """Cycles until ``seconds`` have gone by; per-layer figures and spans."""
    tracer = Tracer()
    cycles = []
    start = perf_counter()
    while not cycles or perf_counter() - start < seconds:
        tracer.run_id = len(cycles)
        cycles.append(wl.traced_cycle(tally, tracer))
    runs = list(range(len(cycles)))
    per_pass = summarize_passes(tracer, runs)

    metrics = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if key in GENERIC_COUNTS:
            if len(set(values)) != 1:
                raise RuntimeError(f"count {key} differs between passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = median(values)
    layers_self = [sum(p[f"{layer}.self_s"] for layer in LAYERS) for p in per_pass]
    untraced = median(c["untraced_s"] for c in cycles)
    traced = median(c["traced_s"] for c in cycles)
    metrics.update(
        {
            "trace.untraced_pass_s": untraced,
            "trace.traced_pass_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.layers_self_s": median(layers_self),
        }
    )
    metrics.update(wl.layer_metrics(tracer, cycles, tally))
    return metrics, tracer
