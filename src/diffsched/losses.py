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
    Transfer,
    _check_dims,
    _transfer_arrays,
)

__all__ = [
    "LossKind",
    "w2_loss",
    "kl_loss",
    "transfer_loss",
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
# value and its partials in both, as ``(value, d_variance, d_mean_gain)``.
# The kernels and the pullbacks run with numpy silenced by the entry points,
# ``transfer_loss`` and ``loss_from_alpha_bar``: an overflow gives inf or
# NaN, which the callers refuse or back off from, and a zero output variance
# has no finite slope, which only a gradient evaluation reads.


def _w2(lam, mu, variance, mean_gain):
    sqrt_lam, std = np.sqrt(lam), np.sqrt(variance)
    value = float(((sqrt_lam - std) ** 2).sum() + (mu**2 * (mean_gain - 1.0) ** 2).sum())
    return value, 1.0 - sqrt_lam / std, 2.0 * mu**2 * (mean_gain - 1.0)


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
    d_var = 0.5 * (1.0 - (lam + (mean_gain - 1.0) * drift) / variance) / variance
    return value, np.where(keep, d_var, 0.0), np.where(keep, drift / variance, 0.0)


def _weighted_l1(lam, mu, variance, mean_gain):
    """Eigenvalue-weighted L1 variance mismatch plus mean-weighted drift term.

    The variance term weights each coordinate by its share of the total
    eigenvalue mass; the mean term weights by the share of squared mean and
    is dropped entirely for a centered target.  Raises when the eigenvalue
    mass is zero or either mass overflows.
    """
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
    with np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
        noise_gain, mean_gain, var_extra, pullback = _transfer_arrays(lam, alpha_bar, process)
        variance = noise_gain**2 if var_extra is None else noise_gain**2 + var_extra
        loss, d_var, d_gain = _LOSSES[LossKind(kind)](lam, mu, variance, mean_gain)
        return (loss, pullback(d_var, d_gain)) if gradient else loss
