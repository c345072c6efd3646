"""Building spectral targets from data or synthetic constructions.

Covers the synthetic circulant benchmark model, sliding-window covariance
estimation from sample streams with silence rejection, the spectral model of
an estimate (an eigendecomposition, or circulant eigenvalues read as the DFT
of the covariance's cyclic-diagonal means: the averaged periodogram), and
principal-component truncation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .simulate import DenseGaussian, _rounding_level
from .spectral import SpectralModel, _require_integer

__all__ = [
    "EstimationConfig",
    "CovarianceEstimate",
    "synthetic_circulant_model",
    "sliding_window_covariance",
    "covariance_from_windows",
    "circulant_projection",
    "spectral_model_from_covariance",
    "pca_truncate",
]


# How ``spectral_model_from_covariance`` diagonalizes an estimate.
STRUCTURES = ("circulant", "symmetric")


def _check_silence_threshold(value: float) -> None:
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"silence_threshold must be finite and >= 0, got {value!r}")


@dataclass
class EstimationConfig:
    """Sliding-window estimation settings.

    ``stride`` defaults to the window length (non-overlapping windows, which
    avoids inflating the estimate with correlated samples).  A window is
    rejected as silence when its mean absolute amplitude falls below
    ``silence_threshold``.
    """

    window: int
    stride: int | None = None
    silence_threshold: float = 0.05

    def __post_init__(self):
        _require_integer(self.window, "window", 2)
        if self.stride is None:
            self.stride = self.window
        _require_integer(self.stride, "stride", 1)
        _check_silence_threshold(self.silence_threshold)


@dataclass
class CovarianceEstimate(DenseGaussian):
    """Moments of the windows kept, checked as any dense Gaussian, with the
    counts of windows kept and dropped as silence."""

    windows_used: int
    windows_rejected: int


def synthetic_circulant_model(
    d: int, l: float, mu_const: float
) -> tuple[DenseGaussian, SpectralModel]:
    """Benchmark target with a circulant covariance and a constant mean.

    The covariance is ``A.T @ A`` for the circulant matrix ``A`` whose first
    row ramps linearly from ``-l`` to ``l`` over ``d`` entries.  Because the
    ramp sums to zero, the DC eigenvalue vanishes exactly.  The spectral
    form uses the Fourier eigenbasis: eigenvalues are the squared DFT
    magnitudes of the ramp row, and the constant mean projects onto the DC
    coordinate alone (value ``mu_const * sqrt(d)``).
    """
    _require_integer(d, "d", 2)
    if not (np.isfinite(l) and l > 0):
        raise ValueError(f"l must be finite and positive, got {l!r}")
    if not np.isfinite(mu_const):
        raise ValueError(f"mu_const must be finite, got {mu_const!r}")
    row = np.linspace(-l, l, d)
    A = _circulant_matrix(row)
    with np.errstate(all="ignore"):  # an overflow is refused below
        covariance = A.T @ A
        covariance = 0.5 * (covariance + covariance.T)
        eigenvalues = np.abs(np.fft.fft(row)) ** 2
    if not (np.isfinite(covariance).all() and np.isfinite(eigenvalues).all()):
        raise ValueError(f"l={l!r} is too large: the target's covariance overflows")
    mean_spectral = np.zeros(d)
    mean_spectral[0] = mu_const * np.sqrt(d)
    dense = DenseGaussian(mean=mu_const * np.ones(d), covariance=covariance)
    model = SpectralModel(
        dim=d,
        eigenvalues=eigenvalues,
        mean_spectral=mean_spectral,
        source=f"synthetic-circulant(d={d}, l={l}, mu={mu_const})",
    )
    return dense, model


def _circulant_matrix(first_row: np.ndarray) -> np.ndarray:
    """Dense circulant matrix with the given first row (rows shift right)."""
    row = np.asarray(first_row, dtype=float)
    n = len(row)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return row[idx]


def covariance_from_windows(windows: np.ndarray, silence_threshold: float) -> CovarianceEstimate:
    """Mean and unbiased (n-1 divisor) covariance of the window rows at or
    above the silence threshold; fewer than two such rows raise ``ValueError``."""
    _check_silence_threshold(silence_threshold)
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2:
        raise ValueError(f"windows must be 2-D, got shape {windows.shape}")
    finite = np.isfinite(windows).all(axis=1)
    if not finite.all():
        raise ValueError(f"window row {np.argmin(finite)} holds NaN or inf (rows count from 0)")
    with np.errstate(all="ignore"):  # an overflow is refused as a non-finite moment
        loud = np.mean(np.abs(windows), axis=1) >= silence_threshold
        used = int(np.sum(loud))
        if used < 2:
            raise ValueError(
                f"need at least 2 windows at or above the silence threshold "
                f"{silence_threshold!r}, got {used} of {len(loud)}"
            )
        kept = windows[loud]
        mean = kept.mean(axis=0)
        centered = kept - mean
        cov = centered.T @ centered / (used - 1)
        cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(mean, cov, used, len(loud) - used)


def sliding_window_covariance(signal: np.ndarray, cfg: EstimationConfig) -> CovarianceEstimate:
    """Estimate mean and covariance from windows slid over a scalar stream."""
    signal = np.asarray(signal, dtype=float).ravel()
    if len(signal) < cfg.window:
        raise ValueError(
            f"stream length {len(signal)} is shorter than the window {cfg.window}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(signal, cfg.window)[:: cfg.stride]
    return covariance_from_windows(windows, cfg.silence_threshold)


def circulant_projection(toeplitz_row: np.ndarray) -> np.ndarray:
    """First row of the circulant matrix closest to a symmetric Toeplitz one.

    Minimizes, independently per lag k, the occurrence-weighted mismatch
    against the Toeplitz lags k and n-k, giving
    ``X_A[k] = (X_B[k] (n-k) + X_B[n-k] k) / n`` with ``X_A[0] = X_B[0]``.
    A row already satisfying ``X_B[k] == X_B[n-k]`` is a fixed point.
    """
    row = np.asarray(toeplitz_row, dtype=float)
    n = len(row)
    k = np.arange(1, n)
    out = np.empty(n)
    out[0] = row[0]  # copied: row[0] * n / n need not round back to row[0]
    out[1:] = (row[1:] * (n - k) + row[n - k] * k) / n
    return out


def spectral_model_from_covariance(est: DenseGaussian, structure: str) -> SpectralModel:
    """Diagonalize a dense Gaussian, such as a covariance estimate, into a spectral target.

    ``symmetric`` eigendecomposes the dense matrix (eigenvalues sorted
    descending, mean projected onto the eigenbasis).  ``circulant`` takes
    the eigenvalues, in frequency order, as the DFT of the cyclic-diagonal
    means ``r[k] = mean_i C[i, (i + k) mod d]``, the averaged periodogram;
    for a symmetric ``C``, ``r`` is the :func:`circulant_projection` of its
    Toeplitz average.  The mean reduces to its stationary (constant) part
    on the DC coordinate.  Negative estimated eigenvalues are clamped to
    zero, with a warning only when one lies beyond rounding (below
    ``-_ROUNDING_SLACK * d * eps`` times the largest |eigenvalue|, the rule
    by which a dense covariance is refused as not PSD).
    """
    cov = est.covariance
    d = cov.shape[0]
    with np.errstate(all="ignore"):  # an overflow is refused as a non-finite eigenvalue
        if structure == "symmetric":
            eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
            order = np.argsort(eigvals)[::-1]
            eigvals = eigvals[order]
            eigvecs = eigvecs[:, order]
            mean_spectral = eigvecs.T @ est.mean
            source = "estimated-symmetric"
        elif structure == "circulant":
            # row i of [C C], read from column i on, is C[i, (i + k) mod d];
            # in the flattened pair it starts at i (2d + 1)
            doubled = np.concatenate((cov, cov), axis=1).ravel()
            cyclic = np.lib.stride_tricks.sliding_window_view(doubled, d)[:: 2 * d + 1]
            eigvals = np.fft.fft(cyclic.mean(axis=0)).real
            mean_spectral = np.zeros(d)
            mean_spectral[0] = est.mean.mean() * np.sqrt(d)
            source = "estimated-circulant"
        else:
            choices = " or ".join(map(repr, STRUCTURES))
            raise ValueError(f"structure must be {choices}, got {structure!r}")
    if not np.all(np.isfinite(eigvals)):
        raise ValueError(
            f"{structure} eigenvalues are not finite: the estimate is too large to diagonalize"
        )
    negatives = int(np.sum(eigvals < 0.0))
    if negatives:
        if eigvals.min() < -_rounding_level(eigvals):
            warnings.warn(f"clamped {negatives} negative eigenvalue(s) to zero", stacklevel=2)
        eigvals = np.clip(eigvals, 0.0, None)
    return SpectralModel(dim=d, eigenvalues=eigvals, mean_spectral=mean_spectral, source=source)


def pca_truncate(model: SpectralModel, d_reduced: int) -> SpectralModel:
    """Keep the ``d_reduced`` largest-variance coordinates of a spectral model.

    A dense Gaussian is diagonalized first, by
    :func:`spectral_model_from_covariance` with the structure that suits it.
    """
    if not isinstance(model, SpectralModel):
        raise TypeError(f"expected a SpectralModel, got {type(model)!r}")
    _require_integer(d_reduced, "d_reduced", None)
    if not 1 <= d_reduced <= model.dim:
        raise ValueError(f"d_reduced must be in [1, {model.dim}], got {d_reduced}")
    order = np.argsort(model.eigenvalues)[::-1][:d_reduced]
    return SpectralModel(
        dim=d_reduced,
        eigenvalues=model.eigenvalues[order],
        mean_spectral=model.mean_spectral[order],
        source=f"{model.source}#pca{d_reduced}",
    )
