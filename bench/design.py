"""schedule-design: optimize schedules in process, as the paper's use case.

Each design point is one ``optimize_schedule`` call with the default
``OptimizeConfig`` apart from loss, process and steps, preceded by the four
heuristic baselines it has to beat.  The d=50 points use the README's
circulant target; the d=400 point uses the model estimated from the seed's
signal, which changes the working set of one objective evaluation.  This
workload loads ``losses`` and ``optimize`` almost exclusively and never
touches ``simulate``.
"""

from __future__ import annotations

import math
from time import perf_counter

from diffsched import (
    LossKind,
    OptimizeConfig,
    cosine_schedule,
    ddim_transfer,
    ddpm_transfer,
    edm_schedule,
    kl_loss,
    linear_schedule,
    optimize_schedule,
    sigmoid_schedule,
    w2_loss,
)

from harness import Workload, self_peak_rss_mb
from inputs import signal_model, synthetic_target
from layers import OBJECTIVE
from stats import geometric_mean, median
from tracer import NULL, ancestor_index

W2, KL = LossKind.WASSERSTEIN2, LossKind.KL

# (point, loss, process, steps, model)
POINTS = [
    ("w2-ddim-S10", W2, "ddim", 10, "d50"),
    ("w2-ddim-S28", W2, "ddim", 28, "d50"),
    ("w2-ddim-S60", W2, "ddim", 60, "d50"),
    ("w2-ddim-S112", W2, "ddim", 112, "d50"),
    ("kl-ddpm-S60", KL, "ddpm", 60, "d50"),
    ("w2-ddim-S28-d400", W2, "ddim", 28, "d400"),
]
POINT_NAMES = [p[0] for p in POINTS]

HEURISTICS = [
    ("linear_schedule", linear_schedule, ()),
    ("cosine_schedule", cosine_schedule, ()),
    ("sigmoid_schedule", sigmoid_schedule, (-3.0, 3.0, 1.0)),
    ("edm_schedule", edm_schedule, (7.0, 0.002, 80.0)),
]
LOSSES = {W2: ("w2_loss", w2_loss), KL: ("kl_loss", kl_loss)}
TRANSFERS = {"ddim": ("ddim_transfer", ddim_transfer), "ddpm": ("ddpm_transfer", ddpm_transfer)}
OPTIMIZE = "optimize.optimize_schedule"
WARMUP_STEPS = 10


class Design(Workload):
    name = "schedule-design"

    def setup(self) -> None:
        _, d50 = synthetic_target()
        self.models = {"d50": d50, "d400": signal_model(self.seed)}
        # point -> (iterations, objective evals, optimized schedule bytes, gain)
        self.first: dict[str, tuple] = {}
        for loss, process, model in sorted({(p[1], p[2], p[4]) for p in POINTS}):
            self._solve(NULL, None, None, loss, process, WARMUP_STEPS, self.models[model])

    def _solve(self, tr, point, op, loss, process, steps, model):
        loss_name, loss_fn = LOSSES[loss]
        transfer_name, transfer_fn = TRANSFERS[process]

        def evaluate(schedule):
            with tr.span(f"spectral.{transfer_name}"):
                transfer = transfer_fn(model, schedule)
            with tr.span(f"losses.{loss_name}"):
                return loss_fn(model, transfer)

        best = math.inf
        for name, family, params in HEURISTICS:
            with tr.span(f"schedules.{name}"):
                baseline = family(steps, *params)
            best = min(best, evaluate(baseline))
        config = OptimizeConfig(loss=loss, process=process, steps=steps)
        with tr.span(OPTIMIZE, point=point, op=op):
            schedule, report = optimize_schedule(model, config)
        return schedule, report, best, evaluate(schedule)

    def run_pass(self, tally, tr):
        ops = []
        for point, loss, process, steps, model in POINTS:
            op = tally.attempt()
            start = perf_counter()
            try:
                schedule, report, best, optimized = self._solve(
                    tr, point, op, loss, process, steps, self.models[model]
                )
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.fail(op, f"{point}: {exc!r}")
                continue
            ops.append((point, perf_counter() - start))
            self._check(tally, op, point, schedule, report, best, optimized)
        return ops

    def _check(self, tally, op, point, schedule, report, best, optimized) -> None:
        try:
            schedule.validate()
        except ValueError as exc:
            tally.fail(op, f"{point}: optimized schedule does not validate: {exc}")
        tally.check(
            op,
            optimized < best,
            f"{point}: optimized loss {optimized!r} does not beat the best heuristic {best!r}",
        )
        result = (report.iterations, report.objective_evals, schedule.alpha_bar.tobytes())
        first = self.first.setdefault(point, result + (best / optimized,))
        tally.check(op, first[:3] == result, f"{point}: optimizer run differs from the first pass")

    def gain(self) -> float:
        """Geometric mean over the points of best heuristic / optimized loss."""
        gains = [first[3] for first in self.first.values()]
        return geometric_mean(gains) if gains else 0.0

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def report(self, walls, ops) -> dict:
        out = {"design_s": (median(walls), "s"), "design_loss_gain": (self.gain(), "ratio")}
        for point in POINT_NAMES:
            times = [t for n, t in ops if n == point]
            if times:  # a point that failed every pass has no time
                out[f"design_point_s.{point}"] = (median(times), "s")
        return out

    def layer_metrics(self, tracer, cycles, tally) -> dict:
        spans = tracer.spans
        calls: dict[int, int] = {}
        for i, span in enumerate(spans):
            if span[0] == OBJECTIVE:
                owner = ancestor_index(spans, i, OPTIMIZE)
                calls[owner] = calls.get(owner, 0) + 1
        walls: dict[str, list[float]] = {p: [] for p in POINT_NAMES}
        for i, span in enumerate(spans):
            info = tracer.attrs.get(i)
            if span[0] != OPTIMIZE or not info or info["point"] not in self.first:
                continue
            point = info["point"]
            walls[point].append(span[2] - span[1])
            # optimize_schedule makes one direct loss call after the solver.
            expected = self.first[point][1] + 1
            tally.check(
                info["op"],
                calls.get(i, 0) == expected,
                f"{point}: {calls.get(i, 0)} objective calls traced, report implies {expected}",
            )
        out = {"optimize.loss_gain": self.gain()}
        for point in POINT_NAMES:
            iterations, evals = self.first.get(point, (0, 0))[:2]
            out[f"optimize.wall_s.{point}"] = median(walls[point]) if walls[point] else 0.0
            out[f"optimize.iterations.{point}"] = iterations
            out[f"optimize.objective_evals.{point}"] = evals
        return out
