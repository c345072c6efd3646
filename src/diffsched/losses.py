"""Closed-form distances between the generated and target diagonal Gaussians.

All distances use the total output variance ``noise_gain**2 + var_extra``,
so the same formulas cover both the deterministic and stochastic samplers.
Reported squared-distance values are squared (no root) unless callers take
the root themselves.  Gradients with respect to the schedule are exact and
come with the loss: ``loss_from_alpha_bar(..., gradient=True)`` makes one
forward pass through the per-step gains and one reverse sweep over the same
arrays, whose suffix folds run as a log-depth scan (``spectral._suffix_fold``).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .spectral import (
    SpectralModel,
    Schedule,
    Transfer,
    _check_dims,
    _suffix_fold,
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
    model: SpectralModel,
    alpha_bar: np.ndarray,
    kind: LossKind,
    process: str = "ddim",
    gradient: bool = False,
):
    """Loss of a raw alpha_bar vector (no schedule validation).

    Fast path for optimizer iterates, which may be non-monotone in the
    unconstrained mode.  With ``gradient=True`` returns ``(loss, grad)``,
    ``grad`` the exact gradient with respect to ``alpha_bar[1:-1]``, from
    one forward pass and one reverse sweep over its arrays in O(S d), the
    sweep's suffix folds done by a log-depth scan; the loss is the same
    float either way.
    """
    lam, mu = model.eigenvalues, model.mean_spectral
    kind = LossKind(kind)
    arrays = _transfer_arrays(lam, alpha_bar, process, forward=gradient)
    noise_gain, mean_gain, var_extra = arrays[:3]
    variance = noise_gain**2 + var_extra
    loss = _EVALUATORS[kind](lam, mu, variance, mean_gain)
    if not gradient:
        return loss
    d_var, d_gain = _PARTIALS[kind](lam, mu, variance, mean_gain)
    return loss, _reverse_sweep(lam, alpha_bar, process, noise_gain, d_var, d_gain, arrays[3])


def _reverse_sweep(lam, alpha_bar, process, noise_gain, d_var, d_gain, forward) -> np.ndarray:
    """Gradient with respect to ``alpha_bar[1:-1]`` from the loss's partials
    ``(d_var, d_gain)`` in the output variance and mean gain, reusing the
    forward arrays of :func:`_transfer_arrays`.

    The adjoints of the per-step gains ``G`` and ``M`` need, per step, the
    product of the later gains (``A[s+1]`` of ``_trajectory_coefficients``)
    and the mean gain they carry (``B[s+1]``, by the log-depth scan
    ``_suffix_fold``); the stochastic sampler's extra variance adds the same
    fold run on ``(G**2, c**2)``.  The chain rule then goes through the
    closed-form partials of ``(a, b, c**2)`` in the two neighbouring levels
    ``p = alpha_bar[s-1]`` and ``x = alpha_bar[s]``; the partial of ``c**2``
    is zero where its clip at zero is active.
    """
    a, b, c2, den, G, M, prefix, prefix2 = forward
    p, x = alpha_bar[:-1], alpha_bar[1:]
    sqrt_p, sqrt_x = np.sqrt(p), np.sqrt(x)
    one_p, one_x = 1.0 - p, 1.0 - x
    if process == "ddim":
        a_p = -0.5 * a / one_p
        a_x = 0.5 * a / one_x
        b_p = 0.5 / sqrt_p - sqrt_x * a_p
        b_x = -0.5 * a / sqrt_x - sqrt_x * a_x
    else:
        a_p = -a * (1.0 / one_p + 0.5 / p)
        a_x = a * (0.5 / x + 1.0 / one_x)
        b_p = (p + x) / (2.0 * p * sqrt_p * one_x)
        b_x = (p - 1.0) / (sqrt_p * one_x**2)
        unclipped = c2 > 0.0
        c2_p = np.where(unclipped, (one_p * x / p**2 - (1.0 - x / p)) / one_x, 0.0)
        c2_x = np.where(unclipped, -(one_p**2) / (p * one_x**2), 0.0)

    # adjoints of the per-step gains, shape (S, d):
    # dG = prefix * (2 d_var noise_gain A[1:] + d_gain B[1:]), dM = prefix * d_gain.
    # work[0] becomes dG, work[1:] the products summed over coordinates below.
    work = np.empty((5,) + G.shape)
    if process == "ddim":
        later_gain, mean_part = _suffix_fold(G, M)
    else:
        # the mean fold and the extra-variance fold on (G**2, c**2), side by
        # side in one scan
        d = G.shape[1]
        A, B = _suffix_fold(
            np.hstack((G, G**2)), np.hstack((M, np.broadcast_to(c2[:, None], G.shape)))
        )
        later_gain, mean_part, var_part = A[:, :d], B[:, :d], B[:, d:]
    dG = np.multiply(2.0 * d_var * noise_gain, later_gain, out=work[0])
    mean_part *= d_gain
    dG += mean_part
    dG *= prefix
    grad_p = grad_x = 0.0
    if process == "ddpm":
        var_gain = 2.0 * d_var * G
        var_gain *= prefix2
        var_gain *= var_part
        dG += var_gain
        d_c2 = (d_var * prefix2).sum(axis=1)
        grad_p, grad_x = d_c2 * c2_p, d_c2 * c2_x

    # chain through G = a + b sqrt(x) lam / den and M = b (1 - x) / den,
    # with den = x lam + 1 - x, summing each step over coordinates:
    # dG, dG ratio, dG ratio slope, dM / den and dM slope / den
    slope = (lam - 1.0) / den
    np.divide(lam, den, out=work[1])
    work[1] *= dG
    np.multiply(work[1], slope, out=work[2])
    dM = np.multiply(prefix, d_gain, out=work[4])
    np.divide(dM, den, out=work[3])
    dM *= slope
    dM /= den
    g_sum, g_ratio, g_slope, m_inv, m_slope = work.sum(axis=2)
    grad_p = grad_p + a_p * g_sum + b_p * sqrt_x * g_ratio + b_p * one_x * m_inv
    grad_x = (
        grad_x
        + a_x * g_sum
        + (b_x * sqrt_x + 0.5 * b / sqrt_x) * g_ratio
        - b * sqrt_x * g_slope
        + (b_x * one_x - b) * m_inv
        - b * one_x * m_slope
    )
    # interior level s is x of step s and p of step s + 1
    return grad_x[:-1] + grad_p[1:]


def finite_difference_gradient(f, x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Central-difference gradient with steps clipped to stay inside bounds.

    Step per coordinate is ``1e-7 * max(1, |x_i|)``, shrunk so both stencil
    points remain strictly inside ``(lower_i, upper_i)``; degenerate spacing
    falls back to a one-sided difference.  Kept as the test oracle for the
    exact gradient of :func:`loss_from_alpha_bar`.
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
    Computed by the reverse-mode sweep of :func:`loss_from_alpha_bar` in
    O(S d), instead of the 2(S-1) loss evaluations of central differences.
    Differences were also a poor reference near tied levels: on
    ``linear_schedule(10)`` the last interior levels sit within 1.4e-11 of
    ``epsS``, the stencil is clipped to that sliver and the last component
    comes out near -4.6e-2, while shrinking the step moves central
    differences toward the exact -4.6e-7.
    """
    schedule.validate()
    if schedule.steps < 2:
        return np.zeros(0)
    return loss_from_alpha_bar(model, schedule.alpha_bar, kind, process, gradient=True)[1]
