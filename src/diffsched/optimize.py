"""Schedule optimization for a given spectral target.

The schedule is optimized in log-SNR form, ``logit(alpha_bar)`` (Kingma et
al., "Variational Diffusion Models"), with the endpoints pinned at
``1 - eps0`` and ``epsS``.  In ``constrained`` mode the variables are
``theta`` in R^S: the log-SNR gaps between consecutive levels are
``span * softmax(theta)``, so the schedule is monotone by
construction and no constraint is needed.  In ``free`` mode the variables
are the interior log-SNR levels themselves, box-bounded by the endpoints'
and free to cross (monotonicity is passive at the optimum for well-behaved
targets, which ``free`` mode lets one verify).  Both run the same in-package
L-BFGS loop (``_lbfgs``, plain numpy) on the loss divided by its value at the
start, so the stopping rule does not depend on the loss's scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# finite_difference_gradient is not called here; the traced benchmark
# (bench/layers.py) still wraps it under this module's name.
from .losses import (
    LossKind,
    finite_difference_gradient,  # noqa: F401
    loss_from_alpha_bar,
)
from .schedules import cosine_schedule, warm_start_interpolate
from .spectral import DEFAULT_EPS0, DEFAULT_EPSS, Schedule, SpectralModel

__all__ = [
    "OptimizeConfig",
    "OptimizeReport",
    "optimize_schedule",
    "single_eigenvalue_problem",
]

# The optimizer's projected-gradient stop (infinity norm), on the loss scaled
# to 1 at the start.
GTOL = 1e-8
# Floor on a starting log-SNR gap, relative to the endpoints' log-SNR span:
# tied (or crossed) starting levels still give a finite softmax weight.
MIN_START_GAP = 1e-12
# L-BFGS correction pairs kept, the line search's sufficient-decrease
# constant and its limit on trial points per iteration.
MEMORY = 10
ARMIJO = 1e-4
MAX_TRIALS = 20


@dataclass
class OptimizeConfig:
    """Settings for one schedule-optimization run.

    ``init`` selects the starting schedule: "linear", "cosine",
    "random" (uniform values sorted decreasing, seeded by ``init_seed``) or
    "warm" (resampled from ``init_schedule``).  ``ftol`` is the optimizer's
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
    each iteration; the optimizer takes only decreasing steps, so it is
    nonincreasing.  ``min_log_snr_gap`` is the smallest
    ``logit(ab[s]) - logit(ab[s+1])`` of the result: how close the schedule
    came to a tie (negative if a free-mode schedule is not monotone).
    ``projected_gradient_norm`` is the infinity norm of the projected
    gradient of the scaled objective at the result; the gradient stop fires
    when it reaches ``GTOL``."""

    final_loss: float
    iterations: int
    objective_evals: int
    gradient_evals: int
    loss_trace: np.ndarray
    converged: bool
    status_message: str
    min_log_snr_gap: float
    projected_gradient_norm: float
    wall_time_seconds: float


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _projected_gradient_norm(x, g, lower, upper) -> float:
    """Infinity norm of ``x - clip(x - g, lower, upper)``, formed without
    rounding: ``g`` itself away from the bounds, zero where ``g`` pushes
    against one."""
    projected = np.where(g < 0.0, np.maximum(x - upper, g), np.minimum(x - lower, g))
    return float(np.max(np.abs(projected)))


def _lbfgs(fun, x, lower, upper, ftol, max_iter, on_iteration):
    """Minimize ``fun(x) -> (f, gradient)`` over the box ``[lower, upper]``.

    Limited-memory BFGS (Liu & Nocedal, Math. Prog. 1989): the two-loop
    recursion over the last ``MEMORY`` pairs, scaled by ``s.y / y.y`` and
    updated only when ``s.y > 0``, with a backtracking Armijo line search.
    Bounds follow Byrd, Lu, Nocedal & Zhu (SIAM J. Sci. Comput. 1995) in
    their simplest form: variables the gradient holds at a bound stay out
    of the quasi-Newton step, direction components leaving an active bound
    are dropped, and trial points are clipped to the box; infinite bounds
    give plain L-BFGS.  The stops are a relative reduction of ``f`` of at
    most ``ftol``, a projected-gradient infinity norm of at most ``GTOL``,
    and ``max_iter`` iterations.  Only decreasing steps are accepted, so the
    point returned is the best one evaluated.  ``on_iteration(f)`` is called
    after each iteration.

    Returns ``(x, projected_gradient_norm, iterations, evaluations,
    message)``; the message starts with "CONVERGENCE" when a stop on
    ``ftol`` or ``GTOL`` fired.
    """
    f, g = fun(x)
    evaluations, iterations = 1, 0
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1/s.y), oldest first

    def direction():
        held = ((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0))
        q = np.where(held, 0.0, -g)
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q = q - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q = q * ((s @ y) / (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q = q + (alpha - rho * (y @ q)) * s
        q[held | ((x >= upper) & (q > 0.0)) | ((x <= lower) & (q < 0.0))] = 0.0
        return q

    pg_norm = _projected_gradient_norm(x, g, lower, upper)
    message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL" if pg_norm <= GTOL else None
    while message is None:
        d = direction()
        if not g @ d < 0.0:  # no descent along the quasi-Newton step: restart
            pairs.clear()
            d = direction()
        slope = g @ d
        t = 1.0 if pairs else min(1.0, 1.0 / np.linalg.norm(d))
        for _ in range(MAX_TRIALS):
            x_new = np.clip(x + t * d, lower, upper)
            f_new, g_new = fun(x_new)
            evaluations += 1
            if f_new < f and f_new <= f + ARMIJO * (g @ (x_new - x)):
                break
            # minimizer of the quadratic through f, slope and f_new, kept
            # within [0.1 t, 0.5 t]; a non-finite f_new takes the 0.1 t end
            t_quad = -slope * t * t / (2.0 * (f_new - f - slope * t))
            t = min(max(t_quad, 0.1 * t), 0.5 * t) if np.isfinite(t_quad) else 0.1 * t
        else:
            if pairs:  # retry the iteration along the projected gradient
                pairs.clear()
                continue
            message = "ABNORMAL: NO DECREASE FOUND ALONG THE PROJECTED GRADIENT"
            break
        s, y = x_new - x, g_new - g
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
            del pairs[:-MEMORY]
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        iterations += 1
        on_iteration(f)
        pg_norm = _projected_gradient_norm(x, g, lower, upper)
        if pg_norm <= GTOL:
            message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        elif reduction <= ftol:
            message = "CONVERGENCE: RELATIVE REDUCTION OF F <= FTOL"
        elif iterations >= max_iter:
            message = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    return x, pg_norm, iterations, evaluations, message


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
        lower, upper = -np.inf, np.inf

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
        lower, upper = bottom, top

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
        f, g_ab = loss_from_alpha_bar(model, full, config.loss, config.process, gradient=True)
        interior = full[1:-1]
        return f / f0, pullback(g_ab * interior * (1.0 - interior)) / f0

    trace = [f0]
    start = time.perf_counter()
    x, pg_norm, iterations, evaluations, message = _lbfgs(
        objective,
        x0,
        lower,
        upper,
        config.ftol,
        config.max_iter,
        lambda f: trace.append(f0 * f),
    )
    wall = time.perf_counter() - start

    full = schedule_of(x)[0]
    final_loss = loss_from_alpha_bar(model, full, config.loss, config.process)
    schedule = Schedule(
        kind="spectral-optimized", steps=S, alpha_bar=full, eps0=eps0, epsS=epsS
    )
    schedule.validate(require_monotone=(config.mode == "constrained"))
    report = OptimizeReport(
        final_loss=float(final_loss),
        iterations=iterations,
        # the extra objective call is the f0 check before the solver starts
        objective_evals=1 + evaluations,
        gradient_evals=evaluations,
        loss_trace=np.asarray(trace),
        converged=message.startswith("CONVERGENCE"),
        status_message=message,
        min_log_snr_gap=float(np.min(-np.diff(_logit(full)))),
        projected_gradient_norm=pg_norm,
        wall_time_seconds=wall,
    )
    return schedule, report
