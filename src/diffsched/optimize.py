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
start, so the stopping rule does not depend on the loss's scale.  The same
solver, on central-difference gradients, fits the cosine and sigmoid
families of ``schedules`` to a schedule (:func:`fit_parametric`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .losses import LossKind, loss_from_alpha_bar
from .schedules import _FAMILIES, cosine_schedule, warm_start_interpolate
from .spectral import (
    DEFAULT_EPS0,
    DEFAULT_EPSS,
    Schedule,
    SpectralModel,
    _require_endpoints,
    _require_integer,
    _require_process,
)

__all__ = [
    "OptimizeConfig",
    "OptimizeReport",
    "optimize_schedule",
    "single_eigenvalue_problem",
    "fit_parametric",
]

# The optimizer's parameterisations and named starting schedules (``OptimizeConfig``).
MODES = ("constrained", "free")
INITS = ("linear", "cosine", "random")

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

    ``init`` is the starting schedule: "linear", "cosine", "random" (uniform
    values sorted decreasing, seeded by ``init_seed``) or a :class:`Schedule`
    to warm start from, resampled to ``steps``.  ``ftol`` is the optimizer's
    relative-reduction stop on the loss divided by its starting value.
    """

    loss: LossKind = LossKind.WASSERSTEIN2
    process: str = "ddim"
    steps: int = 28
    eps0: float = DEFAULT_EPS0
    epsS: float = DEFAULT_EPSS
    mode: str = "constrained"
    init: str | Schedule = "linear"
    init_seed: int = 0
    max_iter: int = 2000
    ftol: float = 1e-9

    def __post_init__(self):
        self.loss = LossKind(self.loss)
        if not (np.isfinite(self.ftol) and self.ftol > 0.0):
            raise ValueError(f"ftol must be finite and positive, got {self.ftol}")
        _require_endpoints(self.eps0, self.epsS)
        for name, least in (("steps", 2), ("init_seed", 0), ("max_iter", 1)):
            _require_integer(getattr(self, name), name, least)
        _require_process(self.process)
        if self.mode not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {self.mode!r}")
        if not isinstance(self.init, Schedule) and self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")


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


def _lbfgs(fun, x, lower, upper, ftol, max_iter):
    """Minimize ``fun(x) -> (f, gradient)`` over the box ``[lower, upper]``.

    Limited-memory BFGS (Liu & Nocedal, Math. Prog. 1989): the two-loop
    recursion over the last ``MEMORY`` pairs, run in place and scaled by the
    newest pair's ``s.y / y.y``; a pair is kept only when ``s.y > 0`` and
    stores that scale beside its ``1 / s.y``.  The line search backtracks
    under the Armijo condition.  Bounds follow Byrd, Lu, Nocedal & Zhu (SIAM
    J. Sci. Comput. 1995) in their simplest form: variables the gradient
    holds at a bound stay out of the quasi-Newton step, direction components
    leaving an active bound are dropped, and trial points are clipped to the
    box.  When neither bound is finite this bookkeeping is skipped: plain
    L-BFGS, whose projected gradient is the gradient.  The stops are a
    relative reduction of ``f`` of at most ``ftol``, a projected-gradient
    infinity norm of at most ``GTOL``, and ``max_iter`` iterations.  Only
    decreasing steps are accepted, so the point returned is the best one
    evaluated.

    One way back from a bad direction suffices.  Pairs with ``s.y > 0``
    make the two-loop matrix ``H`` positive definite and the held variables
    are masked on both of its sides, so ``d = -Z H Z g`` has ``g.d < 0``
    (Nocedal & Wright, Numerical Optimization, 2nd ed., sec. 7.2); a
    component dropped for leaving an active bound has ``g_i d_i >= 0``, so
    dropping it only lowers ``g.d``.  If rounding or a NaN gradient still
    gives a step along which no trial lowers ``f``, the memory is cleared
    and the iteration retried along the projected gradient.

    Returns ``(x, projected_gradient_norm, history, evaluations, message)``:
    ``history`` holds ``f`` after each iteration; the message starts with
    "CONVERGENCE" when a stop on ``ftol`` or ``GTOL`` fired.
    """
    bounded = np.any(np.isfinite(lower)) or np.any(np.isfinite(upper))
    f, g = fun(x)
    evaluations, history = 1, []
    # (s, y, 1/s.y, s.y/y.y), oldest first
    pairs: list[tuple[np.ndarray, np.ndarray, float, float]] = []

    def direction():
        if bounded:
            held = ((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0))
            q = np.where(held, 0.0, -g)
        else:
            q = -g
        alphas = []
        for s, y, rho, _ in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            q *= pairs[-1][3]
        for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        if bounded:
            q[held | ((x >= upper) & (q > 0.0)) | ((x <= lower) & (q < 0.0))] = 0.0
        return q

    def projected_gradient_norm():
        """Infinity norm of ``x - clip(x - g, lower, upper)``, formed without
        rounding: ``g`` itself away from the bounds, zero where ``g`` pushes
        against one."""
        if not bounded:
            return float(np.abs(g).max())
        projected = np.where(g < 0.0, np.maximum(x - upper, g), np.minimum(x - lower, g))
        return float(np.max(np.abs(projected)))

    pg_norm = projected_gradient_norm()
    message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL" if pg_norm <= GTOL else None
    while message is None:
        d = direction()
        slope = g @ d
        t = 1.0 if pairs else min(1.0, 1.0 / np.linalg.norm(d))
        for _ in range(MAX_TRIALS):
            x_new = x + t * d
            if bounded:
                x_new = np.clip(x_new, lower, upper)
            f_new, g_new = fun(x_new)
            evaluations += 1
            if f_new < f:
                s = x_new - x
                if f_new <= f + ARMIJO * (g @ s):
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
        y = g_new - g
        sy = s @ y
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy, sy / (y @ y)))
            del pairs[:-MEMORY]
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        history.append(f)
        pg_norm = projected_gradient_norm()
        if pg_norm <= GTOL:
            message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        elif reduction <= ftol:
            message = "CONVERGENCE: RELATIVE REDUCTION OF F <= FTOL"
        elif len(history) >= max_iter:
            message = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    return x, pg_norm, history, evaluations, message


def finite_difference_gradient(f, x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Central-difference gradient with steps clipped to stay inside bounds.

    Step per coordinate is ``1e-7 * max(1, |x_i|)``, shrunk so both stencil
    points remain strictly inside ``(lower_i, upper_i)``; degenerate spacing
    falls back to a one-sided difference.  Used by :func:`fit_parametric` and
    as the test oracle for the exact gradient of ``loss_from_alpha_bar``.
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        h = 1e-7 * max(1.0, abs(x[i]))
        room_up = max(upper[i] - x[i], 0.0)
        room_down = max(x[i] - lower[i], 0.0)
        step = min(h, 0.5 * room_up, 0.5 * room_down)
        if step > 0.0:
            xp = x.copy()
            xm = x.copy()
            xp[i] += step
            xm[i] -= step
            grad[i] = (f(xp) - f(xm)) / (2.0 * step)
        else:
            side = min(h, 0.5 * room_up)
            if side == 0.0:
                side = -min(h, 0.5 * room_down)
            if side == 0.0:
                grad[i] = 0.0
                continue
            xs = x.copy()
            xs[i] += side
            grad[i] = (f(xs) - f(x)) / side
    return grad


def fit_parametric(schedule: Schedule, family: str) -> tuple[float, float, float, float]:
    """Best-fitting (s, e, tau) of a parametric family, plus the L2 residual.

    Minimizes the L2 norm of the pointwise deviation between the schedule and
    the family curve (with the same pinned endpoints), using a coarse grid of
    starting points refined by the box-bounded :func:`_lbfgs` on the
    gradients of :func:`finite_difference_gradient`.  Cosine fits search
    ``s/e`` in [0, 0.999], ``e`` in [0.001, 1] and ``log tau``; sigmoid fits
    search ``s`` and ``log(e - s)`` and return ``tau = 1`` (see
    ``schedules.sigmoid_schedule``).
    Equal curves have many parameters, so compare fits by their residuals.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {family!r}")
    t = np.linspace(0.0, 1.0, schedule.steps + 1)
    span = 1.0 - schedule.eps0 - schedule.epsS

    if family == "cosine":
        s_grid, e_grid = np.linspace(0.0, 0.6, 4), np.linspace(0.4, 1.0, 4)
        # s = e or e = 0 flattens the curve, which then has no normalized form
        lower, upper = np.array([0.0, 1e-3, -np.inf]), np.array([0.999, 1.0, np.inf])
        to_x = lambda s, e, tau: np.array([s / e, e, np.log(tau)])
        shape = lambda x: (x[0] * x[1], x[1], np.exp(x[2]))
    else:
        s_grid, e_grid = np.linspace(-4.0, 1.0, 4), np.linspace(0.0, 5.0, 4)
        lower, upper = np.full(2, -np.inf), np.full(2, np.inf)
        to_x = lambda s, e, tau: np.array([s / tau, np.log((e - s) / tau)])
        shape = lambda x: (x[0], x[0] + np.exp(x[1]), 1.0)
    grid = [to_x(s, e, tau) for s in s_grid for e in e_grid if s < e for tau in (0.5, 1.0, 2.0)]
    # rounding leaves cosine grid points with s = e just below e, outside the box
    starts = [x for x in grid if np.all((lower <= x) & (x <= upper))]

    def sum_sq(x):
        # far out in tau (or in the sigmoid's s and e) the curve under- or
        # overflows to a constant, giving NaN; the solver backs off from it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            fitted = schedule.epsS + _FAMILIES[family](t, *shape(x)) * span
            return float(np.sum((fitted - schedule.alpha_bar) ** 2))

    def refine(start):
        scale = sum_sq(start)  # the solver's stops are relative to the start
        if scale == 0.0:  # an exact fit
            return start
        scaled = lambda x: sum_sq(x) / scale
        fun = lambda x: (scaled(x), finite_difference_gradient(scaled, x, lower, upper))
        # ftol 0: run until the projected gradient vanishes or no step lowers f
        return _lbfgs(fun, start, lower, upper, 0.0, 1000)[0]

    starts.sort(key=sum_sq)
    best = min((refine(start) for start in starts[:3]), key=sum_sq)
    s, e, tau = shape(best)
    return float(s), float(e), float(tau), float(np.sqrt(sum_sq(best)))


def single_eigenvalue_problem(model: SpectralModel, index: int) -> SpectralModel:
    """Copy of the model keeping only one eigenvalue, with a centered mean."""
    _require_integer(index, "index", None)
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
    ab = warm_start_interpolate(config.init, S).alpha_bar
    ab[0] = 1.0 - eps0
    ab[-1] = epsS
    return ab


def optimize_schedule(
    model: SpectralModel, config: OptimizeConfig
) -> tuple[Schedule, OptimizeReport]:
    """Minimize the chosen distance over the interior retention levels.

    Returns the optimized schedule and a run report.  Runs are
    deterministic: the same model and config give bit-identical results.
    ``objective_evals`` counts the solver's loss-and-gradient evaluations;
    the first, at the starting schedule, sets the loss's scale.  Raises
    ValueError when there the loss is not finite and positive or its scaled
    gradient is not finite.
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

    # one schedule vector and one softmax cotangent per run, rewritten by
    # every evaluation; the endpoints are set once
    full = np.empty(S + 1)
    full[0], full[-1] = head, tail
    interior = full[1:-1]

    if config.mode == "constrained":
        gaps = np.maximum(-np.diff(start_levels), MIN_START_GAP * span)
        x0 = np.log(gaps / gaps.sum())
        lower, upper = -np.inf, np.inf
        g_w = np.zeros(S)  # g_w[S-1] stays 0: w[S-1] is the last gap, in no level

        def parameterise(theta):
            w = np.exp(theta - theta.max())
            w /= w.sum()

            def pullback(g_levels):
                # levels[s] = top - span * (w[0] + ... + w[s]): a suffix sum,
                # then the softmax Jacobian diag(w) - w w^T
                np.cumsum(g_levels[::-1], out=g_w[-2::-1])
                g_w[:-1] *= -span
                return w * (g_w - w @ g_w)

            return top - span * np.cumsum(w[:-1]), pullback

    else:
        x0 = start_levels[1:-1]
        lower, upper = bottom, top

        def parameterise(levels):
            return levels, lambda g_levels: g_levels

    def schedule_of(x):
        """Write the schedule of ``x`` into ``full``; return the pullback."""
        levels, pullback = parameterise(x)
        np.negative(levels, out=interior)
        np.exp(interior, out=interior)
        np.add(interior, 1.0, out=interior)
        np.divide(1.0, interior, out=interior)
        # clamping only absorbs rounding at the endpoints
        np.maximum(interior, tail, out=interior)
        np.minimum(interior, head, out=interior)
        return pullback

    f0 = None

    def objective(x):
        # scaled to 1 at the solver's first call, at x0, so ftol and GTOL are
        # relative; a start that overflows gives the solver no direction
        nonlocal f0
        pullback = schedule_of(x)
        f, g_ab = loss_from_alpha_bar(model, full, config.loss, config.process, gradient=True)
        first = f0 is None
        if first:
            if not (np.isfinite(f) and f > 0.0):
                raise ValueError(f"objective is not finite and positive at the initial schedule ({f})")
            f0 = f
        g = pullback(g_ab * interior * (1.0 - interior)) / f0
        if first and not np.all(np.isfinite(g)):
            raise ValueError("objective gradient is not finite at the initial schedule")
        return f / f0, g

    start = time.perf_counter()
    # the solver backs off from an iterate whose loss or gradient overflows
    with np.errstate(all="ignore"):
        x, pg_norm, history, evaluations, message = _lbfgs(
            objective, x0, lower, upper, config.ftol, config.max_iter
        )
    wall = time.perf_counter() - start

    schedule_of(x)
    full = full.copy()
    final_loss = loss_from_alpha_bar(model, full, config.loss, config.process)
    schedule = Schedule(
        kind="spectral-optimized", steps=S, alpha_bar=full, eps0=eps0, epsS=epsS
    )
    report = OptimizeReport(
        final_loss=float(final_loss),
        iterations=len(history),
        objective_evals=evaluations,
        gradient_evals=evaluations,
        loss_trace=f0 * np.array([1.0, *history]),
        converged=message.startswith("CONVERGENCE"),
        status_message=message,
        min_log_snr_gap=float(np.min(-np.diff(_logit(full)))),
        projected_gradient_norm=pg_norm,
        wall_time_seconds=wall,
    )
    return schedule, report
