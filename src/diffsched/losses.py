"""Closed-form distances between the generated and target diagonal Gaussians.

All distances use the total output variance ``noise_gain**2 + var_extra``,
so the same formulas cover both the deterministic and stochastic samplers.
Reported squared-distance values are squared (no root) unless callers take
the root themselves.  Gradients with respect to the schedule are exact and
come with the loss.  Every forward pass of ``spectral`` returns its pullback
and every loss its partials in the output variance and mean gain;
``loss_from_alpha_bar(..., gradient=True)``, the only place the gradient is
asked for, hands the one to the other, whose local form gives the gradient.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .spectral import (
    LAMBDA_FLOOR,
    SpectralModel,
    Schedule,
    Transfer,
    _check_dims,
    _transfer_arrays,
)

__all__ = [
    "LossKind",
    "w2_loss",
    "kl_loss",
    "weighted_l1_loss",
    "transfer_loss",
    "loss_gradient",
]


class LossKind(str, Enum):
    WASSERSTEIN2 = "wasserstein2"
    KL = "kl"
    WEIGHTED_L1 = "weighted_l1"

    @classmethod
    def from_cli_name(cls, name: str) -> "LossKind":
        if name not in _CLI_NAMES:
            raise ValueError(f"unknown loss {name!r}; expected one of {sorted(_CLI_NAMES)}")
        return _CLI_NAMES[name]


_CLI_NAMES = {"w2": LossKind.WASSERSTEIN2, "kl": LossKind.KL, "wl1": LossKind.WEIGHTED_L1}


# Each loss of the per-coordinate output variance and mean gain returns its
# value and its partials in both, as ``(value, d_variance, d_mean_gain)``.  A
# zero output variance has no finite slope: W2's and KL's partials there are
# inf or NaN, silently, and only a gradient evaluation reads them.


def _w2(lam, mu, variance, mean_gain):
    sqrt_lam, std = np.sqrt(lam), np.sqrt(variance)
    # a sum past the float range is inf, which the callers refuse
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = float(((sqrt_lam - std) ** 2).sum() + (mu**2 * (mean_gain - 1.0) ** 2).sum())
        d_var = 1.0 - sqrt_lam / std
    return value, d_var, 2.0 * mu**2 * (mean_gain - 1.0)


def _kl(lam, mu, variance, mean_gain):
    keep = lam >= LAMBDA_FLOOR
    if not np.any(keep):
        raise ValueError("all coordinates fall below the eigenvalue floor; KL undefined")
    lam_k, mu_k, var, gain = lam[keep], mu[keep], variance[keep], mean_gain[keep]
    # a degenerate generated coordinate: infinite divergence, not NaN
    # (log -> -inf and the ratio -> +inf would otherwise cancel badly)
    value = float("inf")
    if not np.any(var <= 0.0):
        ratio = (lam_k + (gain - 1.0) ** 2 * mu_k**2) / var
        value = float(0.5 * np.sum(np.log(var) - np.log(lam_k) - 1.0 + ratio))
    drift = (mean_gain - 1.0) * mu**2
    with np.errstate(divide="ignore", invalid="ignore"):
        d_var = 0.5 * (1.0 - (lam + (mean_gain - 1.0) * drift) / variance) / variance
        d_gain = drift / variance
    return value, np.where(keep, d_var, 0.0), np.where(keep, d_gain, 0.0)


def _weighted_l1(lam, mu, variance, mean_gain):
    with np.errstate(over="ignore"):  # an overflowing mass is rejected below
        lam_total, mu_total = np.sum(lam), np.sum(mu**2)
    for total, mass in ((lam_total, "sum(eigenvalues)"), (mu_total, "sum(mean_spectral**2)")):
        if not np.isfinite(total):
            raise ValueError(f"weighted-L1 loss undefined: the mass {mass} overflows to {total}")
    if lam_total <= 0.0:
        raise ValueError("all eigenvalues are zero; weighted-L1 loss undefined")
    weight = lam / lam_total
    value = float(np.sum(weight * np.abs(variance - lam)))
    d_gain = np.zeros_like(mu)
    if mu_total > 0.0:
        value += float(np.sum(mu**2 / mu_total * (mean_gain - 1.0) ** 2))
        d_gain = 2.0 * mu**2 / mu_total * (mean_gain - 1.0)
    return value, weight * np.sign(variance - lam), d_gain


_LOSSES = {
    LossKind.WASSERSTEIN2: _w2,
    LossKind.KL: _kl,
    LossKind.WEIGHTED_L1: _weighted_l1,
}


def transfer_loss(model: SpectralModel, transfer: Transfer, kind: LossKind) -> float:
    """Loss ``kind`` between the target and the output ``transfer`` implies."""
    _check_dims(model, transfer)
    loss = _LOSSES[LossKind(kind)]
    variance = transfer.output_variance
    return loss(model.eigenvalues, model.mean_spectral, variance, transfer.mean_gain)[0]


def w2_loss(model: SpectralModel, transfer: Transfer) -> float:
    """Squared quadratic-transport distance to the target.

    Variance term plus mean term, both coordinatewise; zero exactly when the
    output standard deviations match ``sqrt(eigenvalues)`` and the mean gain
    is 1 on every coordinate with nonzero mean.  Unlike the KL, coordinates
    below the eigenvalue floor stay included.
    """
    return transfer_loss(model, transfer, LossKind.WASSERSTEIN2)


def kl_loss(model: SpectralModel, transfer: Transfer) -> float:
    """Relative entropy D(target || generated).

    Coordinates with eigenvalue below :data:`LAMBDA_FLOOR` are excluded from
    the sums (the effective dimension shrinks accordingly); raises when every
    coordinate is excluded.
    """
    return transfer_loss(model, transfer, LossKind.KL)


def weighted_l1_loss(model: SpectralModel, transfer: Transfer) -> float:
    """Eigenvalue-weighted L1 variance mismatch plus mean-weighted drift term.

    The variance term weights each coordinate by its share of the total
    eigenvalue mass; the mean term weights by the share of squared mean and
    is dropped entirely for a centered target.  Raises when the eigenvalue
    mass is zero or either mass overflows.
    """
    return transfer_loss(model, transfer, LossKind.WEIGHTED_L1)


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
    one forward pass and its pullback, each O(S d) with no scan: each level
    enters only its two neighbouring steps, so its partial is local.  The
    loss is the same float either way.
    """
    lam, mu = model.eigenvalues, model.mean_spectral
    noise_gain, mean_gain, var_extra, pullback = _transfer_arrays(lam, alpha_bar, process)
    variance = noise_gain**2 if var_extra is None else noise_gain**2 + var_extra
    loss, d_var, d_gain = _LOSSES[LossKind(kind)](lam, mu, variance, mean_gain)
    return (loss, pullback(d_var, d_gain)) if gradient else loss


def loss_gradient(
    model: SpectralModel, schedule: Schedule, kind: LossKind, process: str = "ddim"
) -> np.ndarray:
    """Exact gradient of the loss with respect to the interior alpha_bar values.

    Endpoints stay fixed; component ``i`` differentiates ``alpha_bar[i+1]``.
    Computed by the local pullback of :func:`loss_from_alpha_bar` in O(S d)
    work for both samplers, instead of the 2(S-1) loss evaluations of
    central differences.
    Differences were also a poor reference near tied levels: on
    ``linear_schedule(10)`` the last interior levels sit within 1.4e-11 of
    ``epsS``, the stencil is clipped to that sliver and the last component
    comes out near -4.6e-2, while shrinking the step moves central
    differences toward the exact -4.6e-7.
    """
    return loss_from_alpha_bar(model, schedule.alpha_bar, kind, process, gradient=True)[1]
