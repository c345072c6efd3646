"""Closed-form distances between the generated and target diagonal Gaussians.

All distances use the total output variance ``noise_gain**2 + var_extra``,
so the same formulas cover both the deterministic and stochastic samplers.
Reported squared-distance values are squared (no root) unless callers take
the root themselves.  Gradients with respect to the schedule are exact:
one forward pass through the per-step gains, then one reverse sweep.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .spectral import (
    SpectralModel,
    Schedule,
    Transfer,
    _accumulate,
    _check_dims,
    _ddim_ab,
    _ddpm_abc,
    _step_gains,
    _trajectory_coefficients,
    _transfer_arrays,
)

__all__ = [
    "LossKind",
    "LAMBDA_FLOOR",
    "w2_loss",
    "kl_loss",
    "weighted_l1_loss",
    "loss_gradient",
]

# Coordinates with eigenvalue below this floor are kept in the quadratic
# losses but excluded from KL sums (their log is undefined).
LAMBDA_FLOOR = 1e-12


class LossKind(str, Enum):
    WASSERSTEIN2 = "wasserstein2"
    KL = "kl"
    WEIGHTED_L1 = "weighted_l1"

    @classmethod
    def from_cli_name(cls, name: str) -> "LossKind":
        table = {"w2": cls.WASSERSTEIN2, "kl": cls.KL, "wl1": cls.WEIGHTED_L1}
        if name not in table:
            raise ValueError(f"unknown loss {name!r}; expected one of {sorted(table)}")
        return table[name]


def _w2_value(lam: np.ndarray, mu: np.ndarray, variance: np.ndarray, mean_gain: np.ndarray) -> float:
    std = np.sqrt(variance)
    return float(np.sum((np.sqrt(lam) - std) ** 2) + np.sum(mu**2 * (mean_gain - 1.0) ** 2))


def _kl_value(lam: np.ndarray, mu: np.ndarray, variance: np.ndarray, mean_gain: np.ndarray) -> float:
    keep = lam >= LAMBDA_FLOOR
    if not np.any(keep):
        raise ValueError("all coordinates fall below the eigenvalue floor; KL undefined")
    lam, mu = lam[keep], mu[keep]
    var, gain = variance[keep], mean_gain[keep]
    if np.any(var <= 0.0):
        # a degenerate generated coordinate: infinite divergence, not NaN
        # (log -> -inf and the ratio -> +inf would otherwise cancel badly)
        return float("inf")
    return float(
        0.5
        * np.sum(np.log(var) - np.log(lam) - 1.0 + (lam + (gain - 1.0) ** 2 * mu**2) / var)
    )


def _weighted_l1_value(
    lam: np.ndarray, mu: np.ndarray, variance: np.ndarray, mean_gain: np.ndarray
) -> float:
    lam_total = np.sum(lam)
    if lam_total <= 0.0:
        raise ValueError("all eigenvalues are zero; weighted-L1 loss undefined")
    value = float(np.sum(lam / lam_total * np.abs(variance - lam)))
    mu_total = np.sum(mu**2)
    if mu_total > 0.0:
        value += float(np.sum(mu**2 / mu_total * (mean_gain - 1.0) ** 2))
    return value


_EVALUATORS = {
    LossKind.WASSERSTEIN2: _w2_value,
    LossKind.KL: _kl_value,
    LossKind.WEIGHTED_L1: _weighted_l1_value,
}


# Partials of each loss with respect to the per-coordinate output variance
# and mean gain, as ``(d_variance, d_mean_gain)``.


def _w2_partials(lam: np.ndarray, mu: np.ndarray, variance: np.ndarray, mean_gain: np.ndarray):
    return 1.0 - np.sqrt(lam) / np.sqrt(variance), 2.0 * mu**2 * (mean_gain - 1.0)


def _kl_partials(lam: np.ndarray, mu: np.ndarray, variance: np.ndarray, mean_gain: np.ndarray):
    keep = lam >= LAMBDA_FLOOR
    if not np.any(keep):
        raise ValueError("all coordinates fall below the eigenvalue floor; KL undefined")
    drift = (mean_gain - 1.0) * mu**2
    d_var = 0.5 * (1.0 - (lam + (mean_gain - 1.0) * drift) / variance) / variance
    return np.where(keep, d_var, 0.0), np.where(keep, drift / variance, 0.0)


def _weighted_l1_partials(
    lam: np.ndarray, mu: np.ndarray, variance: np.ndarray, mean_gain: np.ndarray
):
    lam_total = np.sum(lam)
    if lam_total <= 0.0:
        raise ValueError("all eigenvalues are zero; weighted-L1 loss undefined")
    mu_total = np.sum(mu**2)
    if mu_total > 0.0:
        d_gain = 2.0 * mu**2 / mu_total * (mean_gain - 1.0)
    else:
        d_gain = np.zeros_like(mu)
    return lam / lam_total * np.sign(variance - lam), d_gain


_PARTIALS = {
    LossKind.WASSERSTEIN2: _w2_partials,
    LossKind.KL: _kl_partials,
    LossKind.WEIGHTED_L1: _weighted_l1_partials,
}


def w2_loss(model: SpectralModel, transfer: Transfer) -> float:
    """Squared quadratic-transport distance to the target.

    Variance term plus mean term, both coordinatewise; zero exactly when the
    output standard deviations match ``sqrt(eigenvalues)`` and the mean gain
    is 1 on every coordinate with nonzero mean.  Unlike the KL, coordinates
    below the eigenvalue floor stay included.
    """
    _check_dims(model, transfer)
    return _w2_value(
        model.eigenvalues, model.mean_spectral, transfer.output_variance, transfer.mean_gain
    )


def kl_loss(model: SpectralModel, transfer: Transfer) -> float:
    """Relative entropy D(target || generated).

    Coordinates with eigenvalue below :data:`LAMBDA_FLOOR` are excluded from
    the sums (the effective dimension shrinks accordingly); raises when every
    coordinate is excluded.
    """
    _check_dims(model, transfer)
    return _kl_value(
        model.eigenvalues, model.mean_spectral, transfer.output_variance, transfer.mean_gain
    )


def weighted_l1_loss(model: SpectralModel, transfer: Transfer) -> float:
    """Eigenvalue-weighted L1 variance mismatch plus mean-weighted drift term.

    The variance term weights each coordinate by its share of the total
    eigenvalue mass; the mean term weights by the share of squared mean and
    is dropped entirely for a centered target.
    """
    _check_dims(model, transfer)
    return _weighted_l1_value(
        model.eigenvalues, model.mean_spectral, transfer.output_variance, transfer.mean_gain
    )


def loss_from_alpha_bar(
    model: SpectralModel, alpha_bar: np.ndarray, kind: LossKind, process: str = "ddim"
) -> float:
    """Loss of a raw alpha_bar vector (no schedule validation).

    Fast path for optimizer iterates, which may be non-monotone in the
    unconstrained mode.
    """
    noise_gain, mean_gain, var_extra = _transfer_arrays(model.eigenvalues, alpha_bar, process)
    variance = noise_gain**2 + var_extra
    return _EVALUATORS[LossKind(kind)](model.eigenvalues, model.mean_spectral, variance, mean_gain)


def loss_gradient_from_alpha_bar(
    model: SpectralModel, alpha_bar: np.ndarray, kind: LossKind, process: str = "ddim"
) -> np.ndarray:
    """Exact gradient of :func:`loss_from_alpha_bar` with respect to
    ``alpha_bar[1:-1]`` (no schedule validation), in O(S d).

    Reverse-mode sweep: the forward pass builds the per-step gains ``G`` and
    ``M``; their adjoints follow from the suffix folds of
    ``_trajectory_coefficients`` (``A[s+1]`` is the product of the later
    gains, ``B[s+1]`` the mean gain they carry), and the stochastic sampler's
    ``var_extra`` is the same fold run on ``(G**2, c**2)``.  The chain rule
    then goes through the closed-form partials of ``(a, b, c**2)`` in the
    two neighbouring levels ``p = alpha_bar[s-1]`` and ``x = alpha_bar[s]``;
    the partial of ``c**2`` is zero where its clip at zero is active.
    """
    lam, mu = model.eigenvalues, model.mean_spectral
    p, x = alpha_bar[:-1], alpha_bar[1:]
    sqrt_p, sqrt_x = np.sqrt(p), np.sqrt(x)
    if process == "ddim":
        a, b = _ddim_ab(alpha_bar)
        a_p = -0.5 * a / (1.0 - p)
        a_x = 0.5 * a / (1.0 - x)
        b_p = 0.5 / sqrt_p - sqrt_x * a_p
        b_x = -0.5 * a / sqrt_x - sqrt_x * a_x
    elif process == "ddpm":
        a, b, c2 = _ddpm_abc(alpha_bar)
        a_p = -a * (1.0 / (1.0 - p) + 0.5 / p)
        a_x = a * (0.5 / x + 1.0 / (1.0 - x))
        b_p = (p + x) / (2.0 * p * sqrt_p * (1.0 - x))
        b_x = (p - 1.0) / (sqrt_p * (1.0 - x) ** 2)
        unclipped = c2 > 0.0
        c2_p = np.where(unclipped, ((1.0 - p) * x / p**2 - (1.0 - x / p)) / (1.0 - x), 0.0)
        c2_x = np.where(unclipped, -((1.0 - p) ** 2) / (p * (1.0 - x) ** 2), 0.0)
    else:
        raise ValueError(f"unknown process {process!r}")

    G, M = _step_gains(lam, alpha_bar, a, b)
    noise_gain, mean_gain, prefix = _accumulate(G, M)
    variance = noise_gain**2
    if process == "ddpm":
        _, var_fold = _trajectory_coefficients(G**2, np.broadcast_to(c2[:, None], G.shape))
        variance = variance + var_fold[0]
    d_var, d_gain = _PARTIALS[LossKind(kind)](lam, mu, variance, mean_gain)

    # adjoints of the per-step gains, shape (S, d)
    A, B = _trajectory_coefficients(G, M)
    dG = prefix * (2.0 * d_var * noise_gain * A[1:] + d_gain * B[1:])
    dM = prefix * d_gain
    grad_p = grad_x = 0.0
    if process == "ddpm":
        dG += 2.0 * d_var * G * prefix**2 * var_fold[1:]
        d_c2 = (d_var * prefix**2).sum(axis=1)
        grad_p, grad_x = d_c2 * c2_p, d_c2 * c2_x

    # chain through G = a + b sqrt(x) lam / den and M = b (1 - x) / den,
    # with den = 1 + x (lam - 1), summing each step over coordinates
    den = 1.0 + x[:, None] * (lam - 1.0)
    ratio = lam / den
    slope = (lam - 1.0) / den
    g_sum = dG.sum(axis=1)
    g_ratio = (dG * ratio).sum(axis=1)
    g_slope = (dG * ratio * slope).sum(axis=1)
    m_inv = (dM / den).sum(axis=1)
    m_slope = (dM * slope / den).sum(axis=1)
    grad_p = grad_p + a_p * g_sum + b_p * sqrt_x * g_ratio + b_p * (1.0 - x) * m_inv
    grad_x = (
        grad_x
        + a_x * g_sum
        + (b_x * sqrt_x + 0.5 * b / sqrt_x) * g_ratio
        - b * sqrt_x * g_slope
        + (b_x * (1.0 - x) - b) * m_inv
        - b * (1.0 - x) * m_slope
    )
    # interior level s is x of step s and p of step s + 1
    return grad_x[:-1] + grad_p[1:]


def finite_difference_gradient(f, x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Central-difference gradient with steps clipped to stay inside bounds.

    Step per coordinate is ``1e-7 * max(1, |x_i|)``, shrunk so both stencil
    points remain strictly inside ``(lower_i, upper_i)``; degenerate spacing
    falls back to a one-sided difference.  Kept as the test oracle for
    :func:`loss_gradient_from_alpha_bar`.
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


def loss_gradient(
    model: SpectralModel, schedule: Schedule, kind: LossKind, process: str = "ddim"
) -> np.ndarray:
    """Exact gradient of the loss with respect to the interior alpha_bar values.

    Endpoints stay fixed; component ``i`` differentiates ``alpha_bar[i+1]``.
    Computed by the reverse-mode sweep of
    :func:`loss_gradient_from_alpha_bar` in O(S d), instead of the
    2(S-1) loss evaluations of central differences.  Differences were also a
    poor reference near tied levels: on ``linear_schedule(10)`` the last
    interior levels sit within 1.4e-11 of ``epsS``, the stencil is clipped
    to that sliver and the last component comes out near -4.6e-2, while
    shrinking the step moves central differences toward the exact -4.6e-7.
    """
    schedule.validate()
    if schedule.steps < 2:
        return np.zeros(0)
    return loss_gradient_from_alpha_bar(model, schedule.alpha_bar, kind, process)
