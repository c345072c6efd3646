"""Constrained schedule optimization for a given spectral target.

The decision variables are the interior retention levels
``alpha_bar[1..S-1]``; the endpoints stay pinned at ``1 - eps0`` and
``epsS``.  The solver is sequential least-squares programming over box
bounds, with the monotonicity inequalities active in ``constrained`` mode
and dropped in ``free`` mode (they are passive at the optimum for
well-behaved targets, which ``free`` mode lets one verify).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

# finite_difference_gradient is not called here; it stays importable from
# this module as the reference the exact gradient is checked against.
from .losses import (
    LossKind,
    finite_difference_gradient,  # noqa: F401
    loss_from_alpha_bar,
    loss_gradient_from_alpha_bar,
)
from .schedules import cosine_schedule, warm_start_interpolate
from .spectral import DEFAULT_EPS0, DEFAULT_EPSS, Schedule, SpectralModel

__all__ = [
    "OptimizeConfig",
    "OptimizeReport",
    "optimize_schedule",
    "isotonic_project",
    "single_eigenvalue_problem",
]

# Minimum interior spacing restored after projection when the projection
# produced exact ties; keeps the per-step coefficients well-conditioned.
MIN_SPACING = 1e-10


@dataclass
class OptimizeConfig:
    """Settings for one schedule-optimization run.

    ``init`` selects the starting schedule: "linear", "cosine",
    "random" (uniform values sorted decreasing, seeded by ``init_seed``) or
    "warm" (resampled from ``init_schedule``).
    """

    loss: LossKind = LossKind.WASSERSTEIN2
    process: str = "ddim"
    steps: int = 28
    eps0: float = DEFAULT_EPS0
    epsS: float = DEFAULT_EPSS
    mode: str = "constrained"
    init: str = "linear"
    init_seed: int = 0
    init_schedule: Schedule | None = None
    max_iter: int = 2000
    ftol: float = 1e-6
    single_eigenvalue_index: int | None = None

    def __post_init__(self):
        self.loss = LossKind(self.loss)
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        for name in ("ftol", "eps0", "epsS"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.eps0 + self.epsS >= 1.0:
            raise ValueError(
                f"eps0 + epsS must be < 1, got eps0={self.eps0}, epsS={self.epsS}"
            )
        if self.process not in ("ddim", "ddpm"):
            raise ValueError(f"process must be 'ddim' or 'ddpm', got {self.process!r}")
        if self.mode not in ("constrained", "free"):
            raise ValueError(f"mode must be 'constrained' or 'free', got {self.mode!r}")
        if self.init not in ("linear", "cosine", "random", "warm"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "warm" and self.init_schedule is None:
            raise ValueError("init='warm' requires init_schedule")


@dataclass
class OptimizeReport:
    """Run summary.  ``loss_trace`` holds the incumbent (best objective seen
    so far) per iteration, so it is nonincreasing by construction even though
    the solver's merit-function line search may overshoot the raw objective."""

    final_loss: float
    iterations: int
    objective_evals: int
    gradient_evals: int
    loss_trace: np.ndarray
    converged: bool
    wall_time_seconds: float


def isotonic_project(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Nearest (least-squares) nonincreasing vector within [lower, upper].

    Pool-adjacent-violators (scipy's ``isotonic_regression``), then
    clipping; for the monotone cone intersected with a box the clipped
    unbounded solution is the exact projection.
    """
    from scipy.optimize import isotonic_regression  # deferred: keeps CLI start-up light

    if not lower < upper:
        raise ValueError(f"require lower < upper, got {lower}, {upper}")
    v = np.asarray(values, dtype=float)
    return np.clip(isotonic_regression(v, increasing=False).x, lower, upper)


def single_eigenvalue_problem(model: SpectralModel, index: int) -> SpectralModel:
    """Copy of the model keeping only one eigenvalue, with a centered mean."""
    if not 0 <= index < model.dim:
        raise ValueError(f"index {index} out of range for dim {model.dim}")
    lam = np.zeros(model.dim)
    lam[index] = model.eigenvalues[index]
    return SpectralModel(
        dim=model.dim,
        eigenvalues=lam,
        mean_spectral=np.zeros(model.dim),
        source=f"{model.source}#eigenvalue{index}",
    )


def _initial_schedule(config: OptimizeConfig) -> np.ndarray:
    S, eps0, epsS = config.steps, config.eps0, config.epsS
    if config.init == "linear":
        return np.linspace(1.0 - eps0, epsS, S + 1)
    if config.init == "cosine":
        return cosine_schedule(S, eps0=eps0, epsS=epsS).alpha_bar
    if config.init == "random":
        rng = np.random.default_rng(config.init_seed)
        interior = np.sort(rng.uniform(epsS, 1.0 - eps0, S - 1))[::-1]
        return np.concatenate([[1.0 - eps0], interior, [epsS]])
    resampled = warm_start_interpolate(config.init_schedule, S)
    ab = resampled.alpha_bar.copy()
    ab[0] = 1.0 - eps0
    ab[-1] = epsS
    return ab


def _enforce_spacing(ab: np.ndarray) -> np.ndarray:
    """Break exact ties left by projection with MIN_SPACING-sized gaps."""
    if np.all(np.diff(ab) < 0.0):
        return ab
    out = ab.copy()
    for s in range(len(out) - 2, 0, -1):
        out[s] = max(out[s], out[s + 1] + MIN_SPACING)
    for s in range(1, len(out) - 1):
        out[s] = min(out[s], out[s - 1] - MIN_SPACING)
    out[1:-1] = np.clip(out[1:-1], out[-1], out[0])
    return out


def optimize_schedule(
    model: SpectralModel, config: OptimizeConfig
) -> tuple[Schedule, OptimizeReport]:
    """Minimize the chosen distance over the interior retention levels.

    Returns the optimized schedule (projected back onto the monotone cone in
    constrained mode) and a run report.  Runs are deterministic: the same
    model and config give bit-identical results.
    """
    from scipy.optimize import minimize  # deferred: costs most of the CLI start-up

    if config.single_eigenvalue_index is not None:
        model = single_eigenvalue_problem(model, config.single_eigenvalue_index)
    if np.all(model.eigenvalues == 0.0) and np.all(model.mean_spectral == 0.0):
        raise ValueError("degenerate model: all eigenvalues and means are zero")

    S, eps0, epsS = config.steps, config.eps0, config.epsS
    head = np.array([1.0 - eps0])
    tail = np.array([epsS])
    lower = np.full(S - 1, epsS)
    upper = np.full(S - 1, 1.0 - eps0)

    def objective(interior: np.ndarray) -> float:
        full = np.concatenate([head, interior, tail])
        return loss_from_alpha_bar(model, full, config.loss, config.process)

    def gradient(interior: np.ndarray) -> np.ndarray:
        full = np.concatenate([head, interior, tail])
        return loss_gradient_from_alpha_bar(model, full, config.loss, config.process)

    # warm starts may come from schedules with wider endpoints; keep the
    # starting interior inside the box
    x0 = np.clip(_initial_schedule(config)[1:-1], lower, upper)
    f0 = objective(x0)
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the initial schedule ({f0})")

    trace = [f0]

    def callback(intermediate_result) -> None:
        trace.append(min(trace[-1], intermediate_result.fun))

    constraints = []
    if config.mode == "constrained":

        def monotone_slack(interior: np.ndarray) -> np.ndarray:
            full = np.concatenate([head, interior, tail])
            return full[:-1] - full[1:]

        # the slack is linear in the interior: a constant bidiagonal Jacobian
        slack_jac = np.eye(S, S - 1, k=-1) - np.eye(S, S - 1)
        constraints = [{"type": "ineq", "fun": monotone_slack, "jac": lambda _: slack_jac}]

    start = time.perf_counter()
    with warnings.catch_warnings():
        # The solver's line search probes slightly past the box; scipy
        # clips and warns, and the objective tolerates clipped points.
        warnings.filterwarnings(
            "ignore", message="Values in x were outside bounds", category=RuntimeWarning
        )
        result = minimize(
            objective,
            x0,
            method="SLSQP",
            jac=gradient,
            bounds=list(zip(lower, upper)),
            constraints=constraints,
            callback=callback,
            options={"maxiter": config.max_iter, "ftol": config.ftol},
        )
    wall = time.perf_counter() - start
    converged = bool(result.status == 0)

    x_final = np.clip(result.x, lower, upper)
    full = np.concatenate([head, x_final, tail])
    if config.mode == "constrained":
        projected = isotonic_project(full, epsS, 1.0 - eps0)
        projected[0] = 1.0 - eps0
        projected[-1] = epsS
        full = _enforce_spacing(projected)

    final_loss = loss_from_alpha_bar(model, full, config.loss, config.process)
    if final_loss > f0 + config.ftol:
        # The solver never beat the starting point; keep the start.
        full = np.concatenate([head, x0, tail])
        final_loss = f0
        converged = False

    schedule = Schedule(
        kind="spectral-optimized", steps=S, alpha_bar=full, eps0=eps0, epsS=epsS
    )
    schedule.validate(require_monotone=(config.mode == "constrained"))
    report = OptimizeReport(
        final_loss=float(final_loss),
        iterations=int(result.nit),
        # the extra objective call is the f0 check before the solver starts
        objective_evals=1 + int(result.nfev),
        gradient_evals=int(result.njev),
        loss_trace=np.asarray(trace),
        converged=converged,
        wall_time_seconds=wall,
    )
    return schedule, report
