"""Heuristic baseline schedules and schedule utilities.

All generators emit a :class:`~diffsched.spectral.Schedule` whose endpoints
are pinned to ``(1 - eps0, epsS)`` by an affine rescale of the raw curve,
which keeps the interior shape intact (no truncation).  Generators are
deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

from .spectral import DEFAULT_EPS0, DEFAULT_EPSS, Schedule, VeSchedule, ve_to_vp

__all__ = [
    "linear_schedule",
    "cosine_schedule",
    "sigmoid_schedule",
    "edm_schedule",
    "warm_start_interpolate",
    "fit_parametric",
]

# Incremental-noise range of the classic 1000-step linear recipe; for other
# step counts the range is scaled by 1000/S so the total accumulated noise is
# preserved.
_BETA_MIN = 1e-4
_BETA_MAX = 0.02
_BETA_CAP = 0.999


def _pin_endpoints(raw: np.ndarray, eps0: float, epsS: float) -> np.ndarray:
    """Affinely map a decreasing curve onto [epsS, 1 - eps0]."""
    lo, hi = raw[-1], raw[0]
    if hi <= lo:
        raise ValueError("raw schedule must be decreasing to pin endpoints")
    out = epsS + (raw - lo) * (1.0 - eps0 - epsS) / (hi - lo)
    out[0] = 1.0 - eps0
    out[-1] = epsS
    return out


def linear_schedule(S: int, eps0: float = DEFAULT_EPS0, epsS: float = DEFAULT_EPSS) -> Schedule:
    """Cumulative product of a linearly increasing incremental noise rate.

    ``beta`` runs over the classic T=1000 range scaled by 1000/S (capped
    below 1), endpoints pinned afterwards.
    """
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    if S == 1:
        ab = np.array([1.0 - eps0, epsS])
    else:
        scale = 1000.0 / S
        beta = np.minimum(scale * np.linspace(_BETA_MIN, _BETA_MAX, S), _BETA_CAP)
        raw = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
        ab = _pin_endpoints(raw, eps0, epsS)
    return Schedule(kind="linear", steps=S, alpha_bar=ab, eps0=eps0, epsS=epsS).validate()


def _cosine_curve(t: np.ndarray, s: float, e: float, tau: float) -> np.ndarray:
    f = np.cos((t * (e - s) + s) * np.pi / 2.0) ** (2.0 * tau)
    return (f - f[-1]) / (f[0] - f[-1])


def cosine_schedule(
    S: int,
    s: float = 0.0,
    e: float = 1.0,
    tau: float = 1.0,
    eps0: float = DEFAULT_EPS0,
    epsS: float = DEFAULT_EPSS,
) -> Schedule:
    """Cosine-family schedule with shape parameters (s, e, tau).

    The raw curve is ``cos((t (e-s) + s) pi/2) ** (2 tau)`` on a uniform time
    grid, normalized to span [0, 1] and then pinned to the endpoints.  The
    default (0, 1, 1) is the plain squared-cosine curve.
    """
    if not (0.0 <= s < e <= 1.0):
        raise ValueError(f"require 0 <= s < e <= 1, got s={s}, e={e}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    t = np.linspace(0.0, 1.0, S + 1)
    ab = _pin_endpoints(_cosine_curve(t, s, e, tau), eps0, epsS)
    return Schedule(
        kind=f"cosine({s},{e},{tau})", steps=S, alpha_bar=ab, eps0=eps0, epsS=epsS
    ).validate()


def _sigmoid_curve(t: np.ndarray, s: float, e: float, tau: float) -> np.ndarray:
    g = 1.0 / (1.0 + np.exp((t * (e - s) + s) / tau))
    return (g - g[-1]) / (g[0] - g[-1])


def sigmoid_schedule(
    S: int,
    s: float = -3.0,
    e: float = 3.0,
    tau: float = 1.0,
    eps0: float = DEFAULT_EPS0,
    epsS: float = DEFAULT_EPSS,
) -> Schedule:
    """Logistic-family schedule with shape parameters (s, e, tau)."""
    if not s < e:
        raise ValueError(f"require s < e, got s={s}, e={e}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    t = np.linspace(0.0, 1.0, S + 1)
    ab = _pin_endpoints(_sigmoid_curve(t, s, e, tau), eps0, epsS)
    return Schedule(
        kind=f"sigmoid({s},{e},{tau})", steps=S, alpha_bar=ab, eps0=eps0, epsS=epsS
    ).validate()


def edm_schedule(
    S: int,
    rho: float = 7.0,
    sigma_min: float = 0.002,
    sigma_max: float = 80.0,
    eps0: float = DEFAULT_EPS0,
    epsS: float = DEFAULT_EPSS,
) -> Schedule:
    """Power-interpolated sigma ladder converted to retention form.

    ``sigma`` is interpolated between ``sigma_max`` (noisiest end) and
    ``sigma_min`` with exponent rho, mapped through ``alpha_bar = 1 / (1 +
    sigma**2)`` and pinned to the endpoints.
    """
    if rho < 1.0:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if not 0.0 < sigma_min < sigma_max:
        raise ValueError(f"require 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}")
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    s = np.arange(S + 1)
    sigma = (
        sigma_max ** (1.0 / rho)
        + ((S - s) / S) * (sigma_min ** (1.0 / rho) - sigma_max ** (1.0 / rho))
    ) ** rho
    raw = ve_to_vp(VeSchedule(steps=S, sigma=sigma)).alpha_bar
    ab = _pin_endpoints(raw, eps0, epsS)
    return Schedule(
        kind=f"edm({rho},{sigma_min},{sigma_max})", steps=S, alpha_bar=ab, eps0=eps0, epsS=epsS
    ).validate()


def warm_start_interpolate(schedule: Schedule, S_new: int) -> Schedule:
    """Resample a schedule to a new step count by linear interpolation.

    Interpolates ``alpha_bar`` over normalized time; linear interpolation of
    a monotone sequence stays monotone, endpoints are re-pinned exactly.
    """
    schedule.validate()
    if S_new < 1:
        raise ValueError(f"S_new must be >= 1, got {S_new}")
    t_old = np.linspace(0.0, 1.0, schedule.steps + 1)
    t_new = np.linspace(0.0, 1.0, S_new + 1)
    ab = np.interp(t_new, t_old, schedule.alpha_bar)
    ab[0] = 1.0 - schedule.eps0
    ab[-1] = schedule.epsS
    return Schedule(
        kind=schedule.kind,
        steps=S_new,
        alpha_bar=ab,
        eps0=schedule.eps0,
        epsS=schedule.epsS,
    ).validate()


_FAMILIES = {"cosine": _cosine_curve, "sigmoid": _sigmoid_curve}


def fit_parametric(schedule: Schedule, family: str) -> tuple[float, float, float, float]:
    """Best-fitting (s, e, tau) of a parametric family, plus the L2 residual.

    Minimizes the L2 norm of the pointwise deviation between the schedule and
    the family curve (with the same pinned endpoints), using a coarse grid of
    starting points refined by a local simplex search.  Always returns the
    best parameters found.
    """
    from scipy.optimize import minimize  # deferred: costs most of the CLI start-up

    schedule.validate()
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {family!r}")
    curve = _FAMILIES[family]
    ab = schedule.alpha_bar
    t = np.linspace(0.0, 1.0, schedule.steps + 1)
    span = 1.0 - schedule.eps0 - schedule.epsS

    if family == "cosine":
        s_grid = np.linspace(0.0, 0.6, 4)
        e_grid = np.linspace(0.4, 1.0, 4)
        box_ok = lambda s, e: 0.0 <= s < e <= 1.0
    else:
        s_grid = np.linspace(-4.0, 1.0, 4)
        e_grid = np.linspace(0.0, 5.0, 4)
        box_ok = lambda s, e: s < e
    tau_grid = (0.5, 1.0, 2.0)

    def sum_sq(p):
        s, e, tau = p
        if not box_ok(s, e) or tau <= 0.0:
            return 1e12
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            fitted = schedule.epsS + curve(t, s, e, tau) * span
            value = float(np.sum((fitted - ab) ** 2))
        # extreme tau can underflow the whole curve; treat as infeasible
        return value if np.isfinite(value) else 1e12

    starts = [
        np.array([s0, e0, tau0])
        for s0 in s_grid
        for e0 in e_grid
        if box_ok(s0, e0)
        for tau0 in tau_grid
    ]
    starts.sort(key=sum_sq)
    best = None
    for start in starts[:3]:
        res = minimize(
            sum_sq,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    s, e, tau = best.x
    return float(s), float(e), float(tau), float(np.sqrt(best.fun))
