"""Schedule optimization for a given spectral target.

The schedule is optimized in log-SNR form, ``logit(alpha_bar)`` (Kingma et
al., "Variational Diffusion Models"), with the endpoints pinned at
``1 - eps0`` and ``epsS``.  In ``constrained`` mode the variables are
``theta`` in R^S: the log-SNR gaps between consecutive levels are
``span * softmax(theta)``, so the schedule is monotone by
construction and no constraint is needed.  In ``free`` mode the variables
are the interior log-SNR levels themselves, box-bounded by the endpoints'
and free to cross (monotonicity is passive at the optimum for well-behaved
targets, which ``free`` mode lets one verify).  Both run L-BFGS-B on the
loss divided by its value at the start, so the stopping rule does not depend
on the loss's scale.
"""

from __future__ import annotations

import time
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
    "single_eigenvalue_problem",
]

# L-BFGS-B's projected-gradient stop, on the loss scaled to 1 at the start.
GTOL = 1e-8
# Floor on a starting log-SNR gap, relative to the endpoints' log-SNR span:
# tied (or crossed) starting levels still give a finite softmax weight.
MIN_START_GAP = 1e-12


@dataclass
class OptimizeConfig:
    """Settings for one schedule-optimization run.

    ``init`` selects the starting schedule: "linear", "cosine",
    "random" (uniform values sorted decreasing, seeded by ``init_seed``) or
    "warm" (resampled from ``init_schedule``).  ``ftol`` is L-BFGS-B's
    relative-reduction stop on the loss divided by its starting value.
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
    ftol: float = 1e-9

    def __post_init__(self):
        self.loss = LossKind(self.loss)
        for name in ("ftol", "eps0", "epsS"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.eps0 + self.epsS >= 1.0:
            raise ValueError(
                f"eps0 + epsS must be < 1, got eps0={self.eps0}, epsS={self.epsS}"
            )
        for name, least in (("steps", 2), ("init_seed", 0), ("max_iter", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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
    """Run summary.  ``loss_trace`` holds the loss at the start and after
    each iteration; L-BFGS-B is a descent method, so it is nonincreasing.
    ``min_log_snr_gap`` is the smallest ``logit(ab[s]) - logit(ab[s+1])`` of
    the result: how close the schedule came to a tie (negative if a free-mode
    schedule is not monotone)."""

    final_loss: float
    iterations: int
    objective_evals: int
    gradient_evals: int
    loss_trace: np.ndarray
    converged: bool
    status_message: str
    min_log_snr_gap: float
    wall_time_seconds: float


def _logit(p):
    return np.log(p) - np.log1p(-p)


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


def optimize_schedule(
    model: SpectralModel, config: OptimizeConfig
) -> tuple[Schedule, OptimizeReport]:
    """Minimize the chosen distance over the interior retention levels.

    Returns the optimized schedule and a run report.  Runs are
    deterministic: the same model and config give bit-identical results.
    """
    from scipy.optimize import minimize  # deferred: costs most of the CLI start-up

    if np.all(model.eigenvalues == 0.0) and np.all(model.mean_spectral == 0.0):
        raise ValueError("degenerate model: all eigenvalues and means are zero")

    S, eps0, epsS = config.steps, config.eps0, config.epsS
    head, tail = 1.0 - eps0, epsS
    top, bottom = _logit(head), _logit(tail)
    span = top - bottom
    # warm starts may come from schedules with wider endpoints; keep the
    # starting interior inside the endpoints
    start_levels = _logit(np.clip(_initial_schedule(config), tail, head))

    if config.mode == "constrained":
        gaps = np.maximum(-np.diff(start_levels), MIN_START_GAP * span)
        x0 = np.log(gaps / gaps.sum())
        bounds = None

        def parameterise(theta):
            w = np.exp(theta - theta.max())
            w /= w.sum()

            def pullback(g_levels):
                # levels[s] = top - span * (w[0] + ... + w[s]): a suffix sum,
                # then the softmax Jacobian diag(w) - w w^T
                g_w = np.append(-span * np.cumsum(g_levels[::-1])[::-1], 0.0)
                return w * (g_w - w @ g_w)

            return top - span * np.cumsum(w[:-1]), pullback

    else:
        x0 = start_levels[1:-1]
        bounds = [(bottom, top)] * (S - 1)

        def parameterise(levels):
            return levels, lambda g_levels: g_levels

    def schedule_of(x):
        levels, pullback = parameterise(x)
        # clipping only absorbs rounding at the endpoints
        interior = np.clip(1.0 / (1.0 + np.exp(-levels)), tail, head)
        return np.concatenate([[head], interior, [tail]]), pullback

    f0 = loss_from_alpha_bar(model, schedule_of(x0)[0], config.loss, config.process)
    if not (np.isfinite(f0) and f0 > 0.0):
        raise ValueError(f"objective is not finite and positive at the initial schedule ({f0})")

    def objective(x):
        # scaled to 1 at the start, so ftol and GTOL are relative
        full, pullback = schedule_of(x)
        f = loss_from_alpha_bar(model, full, config.loss, config.process)
        g_ab = loss_gradient_from_alpha_bar(model, full, config.loss, config.process)
        interior = full[1:-1]
        return f / f0, pullback(g_ab * interior * (1.0 - interior)) / f0

    trace = [f0]

    def callback(intermediate_result) -> None:
        trace.append(f0 * intermediate_result.fun)

    start = time.perf_counter()
    result = minimize(
        objective,
        x0,
        method="L-BFGS-B",
        jac=True,
        bounds=bounds,
        callback=callback,
        options={"maxiter": config.max_iter, "ftol": config.ftol, "gtol": GTOL},
    )
    wall = time.perf_counter() - start

    full = schedule_of(result.x)[0]
    final_loss = loss_from_alpha_bar(model, full, config.loss, config.process)
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
        converged=bool(result.status == 0),
        status_message=str(result.message),
        min_log_snr_gap=float(np.min(-np.diff(_logit(full)))),
        wall_time_seconds=wall,
    )
    return schedule, report
