"""Heuristic baseline schedules and warm-start resampling.

All generators emit a :class:`~diffsched.spectral.Schedule` whose endpoints
are pinned to ``(1 - eps0, epsS)`` by an affine rescale of the raw curve,
which keeps the interior shape intact (no truncation).  Generators are
deterministic: identical inputs give bit-identical outputs.  The raw curves
of the cosine and sigmoid families (``_CURVES``) are also what
``optimize.fit_parametric`` fits to a schedule.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    DEFAULT_EPS0,
    DEFAULT_EPSS,
    Schedule,
    VeSchedule,
    _require_endpoints,
    _require_finite,
    _require_integer,
    ve_to_vp,
)

__all__ = [
    "linear_schedule",
    "cosine_schedule",
    "sigmoid_schedule",
    "edm_schedule",
    "warm_start_interpolate",
]

# Incremental-noise range of the classic 1000-step linear recipe; for other
# step counts the range is scaled by 1000/S so the total accumulated noise is
# preserved.
_BETA_MIN = 1e-4
_BETA_MAX = 0.02
_BETA_CAP = 0.999


def _pinned_schedule(kind: str, raw: np.ndarray, eps0: float, epsS: float) -> Schedule:
    """A decreasing curve affinely mapped onto [epsS, 1 - eps0]."""
    _require_endpoints(eps0, epsS)
    lo, hi = raw[-1], raw[0]
    if hi <= lo:
        raise ValueError("raw schedule must be decreasing to pin endpoints")
    ab = epsS + (raw - lo) * (1.0 - eps0 - epsS) / (hi - lo)
    ab[0] = 1.0 - eps0
    ab[-1] = epsS
    return Schedule(kind=kind, steps=len(ab) - 1, alpha_bar=ab, eps0=eps0, epsS=epsS)


def linear_schedule(S: int, eps0: float = DEFAULT_EPS0, epsS: float = DEFAULT_EPSS) -> Schedule:
    """Cumulative product of a linearly increasing incremental noise rate.

    ``beta`` runs over the classic T=1000 range scaled by 1000/S (capped
    below 1), endpoints pinned afterwards.
    """
    _require_integer(S, "steps", 1)
    beta = np.minimum(1000.0 / S * np.linspace(_BETA_MIN, _BETA_MAX, S), _BETA_CAP)
    raw = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return _pinned_schedule("linear", raw, eps0, epsS)


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
    return _family_schedule("cosine", S, s, e, tau, eps0, epsS)


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
    """Logistic-family schedule with shape parameters (s, e, tau): the raw
    curve ``1 / (1 + exp((t (e-s) + s) / tau))`` depends on ``s/tau`` and
    ``e/tau`` only, so ``(k s, k e, k tau)`` gives the same schedule for any
    ``k > 0`` (bit for bit when ``k`` is a power of 2)."""
    if not s < e:
        raise ValueError(f"require s < e, got s={s}, e={e}")
    return _family_schedule("sigmoid", S, s, e, tau, eps0, epsS)


_CURVES = {"cosine": _cosine_curve, "sigmoid": _sigmoid_curve}


def _family_schedule(family, S, s, e, tau, eps0, epsS) -> Schedule:
    """The cosine or sigmoid curve with shape (s, e, tau), endpoints pinned."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    _require_integer(S, "steps", 1)
    # A saturating curve overflows to its limit, which is right; a flat one
    # normalizes to 0/0.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        raw = _CURVES[family](np.linspace(0.0, 1.0, S + 1), s, e, tau)
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"{family} curve is flat or not finite at (s, e, tau) = ({s}, {e}, {tau})")
    return _pinned_schedule(f"{family}({s},{e},{tau})", raw, eps0, epsS)


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
    # before any power: an infinite base or exponent warns, and NaN passes
    # every comparison below
    for value, name in ((rho, "rho"), (sigma_min, "sigma_min"), (sigma_max, "sigma_max")):
        _require_finite(value, name)
    if rho < 1.0:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if not 0.0 < sigma_min < sigma_max:
        raise ValueError(f"require 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}")
    _require_integer(S, "steps", 1)
    s = np.arange(S + 1)
    sigma = (
        sigma_max ** (1.0 / rho)
        + ((S - s) / S) * (sigma_min ** (1.0 / rho) - sigma_max ** (1.0 / rho))
    ) ** rho
    raw = ve_to_vp(VeSchedule(steps=S, sigma=sigma)).alpha_bar
    return _pinned_schedule(f"edm({rho},{sigma_min},{sigma_max})", raw, eps0, epsS)


# family -> number of shape parameters its generator ``<family>_schedule``
# takes; parameters left out fall back to the generator's own defaults
_FAMILIES = {"linear": 0, "cosine": 3, "sigmoid": 3, "edm": 3}


def warm_start_interpolate(schedule: Schedule, S_new: int) -> Schedule:
    """Resample a schedule to a new step count by linear interpolation.

    Interpolates ``alpha_bar`` over normalized time and re-pins the
    endpoints exactly.  Linear interpolation keeps a monotone schedule
    monotone; crossed levels stay crossed.
    """
    _require_integer(S_new, "steps", 1)
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
    )
