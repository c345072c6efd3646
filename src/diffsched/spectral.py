"""Gaussian data model and closed-form transfer functions of discrete reverse samplers.

Everything here works in the eigenbasis of the data covariance, where each
reverse step of a deterministic (DDIM-style) or stochastic (DDPM-style)
sampler acts coordinatewise.  A whole sampler run therefore collapses to a
diagonal affine map ``v_out = noise_gain * v_in + mean_gain * mean_spectral``
plus, for the stochastic sampler, an accumulated extra variance term.

Index convention: ``alpha_bar`` has length ``S + 1`` with index 0 the
cleanest level and index ``S`` the noisiest; the reverse recursion runs
``s = S .. 1``, each step producing index ``s - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralModel",
    "Schedule",
    "Transfer",
    "GaussianDiag",
    "VeSchedule",
    "wiener_denoise",
    "ddim_gains",
    "ddim_transfer",
    "ddpm_transfer",
    "intermediate_distribution",
    "output_distribution",
    "mean_bias",
    "vp_to_ve",
    "ve_to_vp",
    "ve_ddim_transfer",
    "DEFAULT_EPS0",
    "DEFAULT_EPSS",
]

# Endpoint defaults: the reverse process starts at alpha_bar = 1 - 1e-4
# (almost clean) and ends at 4e-5 (almost pure noise).
DEFAULT_EPS0 = 1e-4
DEFAULT_EPSS = 4e-5

ENDPOINT_TOL = 1e-12


def _vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _require_finite(value, name: str) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite (no NaN or inf)")


@dataclass
class SpectralModel:
    """Gaussian target expressed in the eigenbasis of its covariance.

    Attributes
    ----------
    dim :
        Number of coordinates ``d``.
    eigenvalues :
        Nonnegative variances per coordinate (covariance eigenvalues).
    mean_spectral :
        Target mean projected onto the eigenbasis.
    source :
        Free-text provenance tag (e.g. file name or generator call).
    """

    dim: int
    eigenvalues: np.ndarray
    mean_spectral: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.eigenvalues = _vector(self.eigenvalues, "eigenvalues")
        self.mean_spectral = _vector(self.mean_spectral, "mean_spectral")
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if len(self.eigenvalues) != self.dim or len(self.mean_spectral) != self.dim:
            raise ValueError(
                "dim mismatch: dim=%d, eigenvalues=%d, mean_spectral=%d"
                % (self.dim, len(self.eigenvalues), len(self.mean_spectral))
            )
        _require_finite(self.eigenvalues, "eigenvalues")
        _require_finite(self.mean_spectral, "mean_spectral")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be nonnegative")


@dataclass
class Schedule:
    """Monotone noise schedule ``alpha_bar[0..S]`` with pinned endpoints.

    ``alpha_bar[0] = 1 - eps0`` and ``alpha_bar[S] = epsS``.  Construction
    does not validate so that intermediate (e.g. unconstrained-optimizer)
    iterates can be carried around; call :meth:`validate` before handing a
    schedule to an operation that requires a proper one.
    """

    kind: str
    steps: int
    alpha_bar: np.ndarray
    eps0: float = DEFAULT_EPS0
    epsS: float = DEFAULT_EPSS

    def __post_init__(self):
        self.alpha_bar = _vector(self.alpha_bar, "alpha_bar")

    def validate(self, require_monotone: bool = True) -> "Schedule":
        ab = self.alpha_bar
        for value, name in ((ab, "alpha_bar"), (self.eps0, "eps0"), (self.epsS, "epsS")):
            _require_finite(value, name)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if len(ab) != self.steps + 1:
            raise ValueError(
                f"alpha_bar must have length steps+1={self.steps + 1}, got {len(ab)}"
            )
        if abs(ab[0] - (1.0 - self.eps0)) > ENDPOINT_TOL:
            raise ValueError(f"alpha_bar[0]={ab[0]!r} != 1-eps0={1.0 - self.eps0!r}")
        if abs(ab[-1] - self.epsS) > ENDPOINT_TOL:
            raise ValueError(f"alpha_bar[S]={ab[-1]!r} != epsS={self.epsS!r}")
        if np.any(ab <= 0.0) or np.any(ab >= 1.0):
            raise ValueError("alpha_bar values must lie strictly inside (0, 1)")
        if require_monotone and np.any(np.diff(ab) > 0.0):
            raise ValueError("alpha_bar must be nonincreasing")
        return self


@dataclass
class Transfer:
    """Diagonal output map of a full reverse run.

    ``v_out = noise_gain * v_in + mean_gain * mean_spectral`` where
    ``v_in ~ N(0, I)``; the stochastic sampler adds ``var_extra`` to the
    output variance (zero for the deterministic one).
    """

    noise_gain: np.ndarray
    mean_gain: np.ndarray
    var_extra: np.ndarray
    process: str = "ddim"
    formulation: str = "vp"

    def __post_init__(self):
        self.noise_gain = _vector(self.noise_gain, "noise_gain")
        self.mean_gain = _vector(self.mean_gain, "mean_gain")
        self.var_extra = _vector(self.var_extra, "var_extra")

    @property
    def output_variance(self) -> np.ndarray:
        """Total output variance per coordinate."""
        return self.noise_gain**2 + self.var_extra


@dataclass
class GaussianDiag:
    """Diagonal Gaussian: per-coordinate mean and variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        self.mean = _vector(self.mean, "mean")
        self.variance = _vector(self.variance, "variance")
        if np.any(self.variance < 0):
            raise ValueError("variance must be nonnegative")


@dataclass
class VeSchedule:
    """Noise schedule in exploding-variance form: nondecreasing sigma[0..S]."""

    steps: int
    sigma: np.ndarray

    def __post_init__(self):
        self.sigma = _vector(self.sigma, "sigma")

    def validate(self) -> "VeSchedule":
        if len(self.sigma) != self.steps + 1:
            raise ValueError(
                f"sigma must have length steps+1={self.steps + 1}, got {len(self.sigma)}"
            )
        _require_finite(self.sigma, "sigma")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")
        if np.any(np.diff(self.sigma) < 0):
            raise ValueError("sigma must be nondecreasing")
        return self


def wiener_denoise(model: SpectralModel, alpha_bar: float, v_t: np.ndarray) -> np.ndarray:
    """Posterior-mean (linear MMSE) estimate of the clean signal, coordinatewise.

    Parameters
    ----------
    model :
        Gaussian prior in the eigenbasis.
    alpha_bar :
        Retention level in (0, 1] at which ``v_t`` was observed.
    v_t :
        Noisy observation, ``v_t = sqrt(alpha_bar) v_0 + sqrt(1-alpha_bar) eps``.
    """
    if not 0.0 < alpha_bar <= 1.0:
        raise ValueError(f"alpha_bar must be in (0, 1], got {alpha_bar}")
    v_t = _vector(v_t, "v_t")
    if len(v_t) != model.dim:
        raise ValueError(f"v_t has length {len(v_t)}, expected {model.dim}")
    lam = model.eigenvalues
    denom = alpha_bar * lam + (1.0 - alpha_bar)
    num = np.sqrt(alpha_bar) * lam * v_t + (1.0 - alpha_bar) * model.mean_spectral
    # alpha_bar == 1 with a zero eigenvalue is 0/0; the observation is then
    # noiseless so the posterior mean is v_t itself.
    return np.divide(num, denom, out=v_t.astype(float), where=denom > 0.0)


def ddim_gains(alpha_bar_prev: float, alpha_bar_cur: float) -> tuple[float, float]:
    """Per-step deterministic-sampler coefficients ``(a_s, b_s)``.

    ``a_s`` multiplies the current state, ``b_s`` the denoised estimate:
    ``x_{s-1} = a_s x_s + b_s x0_hat``.
    """
    if not 0.0 < alpha_bar_cur < 1.0 or not 0.0 < alpha_bar_prev < 1.0:
        raise ValueError("alpha_bar values must lie in (0, 1)")
    if alpha_bar_cur > alpha_bar_prev:
        raise ValueError(
            f"ordering violated: alpha_bar_cur={alpha_bar_cur} > alpha_bar_prev={alpha_bar_prev}"
        )
    a, b = _ddim_ab(np.array([alpha_bar_prev, alpha_bar_cur]))
    return float(a[0]), float(b[0])


def _ddim_ab(alpha_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_s, b_s) arrays over steps s = 1..S for the deterministic sampler."""
    ab_cur = alpha_bar[1:]
    ab_prev = alpha_bar[:-1]
    a = np.sqrt(1.0 - ab_prev) / np.sqrt(1.0 - ab_cur)
    b = np.sqrt(ab_prev) - np.sqrt(ab_cur) * a
    return a, b


def _ddpm_abc(alpha_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_t, b_t, c_t^2) arrays over steps t = 1..S for the stochastic sampler.

    ``c_t`` is the fresh-noise scale; clamped at zero so that a tied step
    (alpha_bar_t == alpha_bar_{t-1}) contributes no extra variance.
    """
    ab_cur = alpha_bar[1:]
    ab_prev = alpha_bar[:-1]
    step_alpha = ab_cur / ab_prev
    a = (step_alpha - ab_cur) / (np.sqrt(step_alpha) * (1.0 - ab_cur))
    b = np.sqrt(ab_prev) * (1.0 - step_alpha) / (1.0 - ab_cur)
    c2 = np.clip((1.0 - ab_prev) / (1.0 - ab_cur) * (1.0 - step_alpha), 0.0, None)
    return a, b, c2


def _step_gains(
    eigenvalues: np.ndarray, alpha_bar: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step diagonal gains, shape (S, d).

    ``G[s-1]`` multiplies the state, ``M[s-1]`` the spectral mean:
    ``v_{s-1} = G v_s + M mean_spectral``.
    """
    ab_cur = alpha_bar[1:, None]
    lam = eigenvalues[None, :]
    denom = ab_cur * lam + (1.0 - ab_cur)
    G = a[:, None] + (b * np.sqrt(alpha_bar[1:]))[:, None] * lam / denom
    M = (b * (1.0 - alpha_bar[1:]))[:, None] / denom
    return G, M


def _accumulate(G: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold per-step gains left-to-right into whole-run coefficients.

    Returns ``(noise_gain, mean_gain, prefix)`` where ``prefix[i-1]`` is the
    exclusive product of G over steps 1..i-1 (used for variance accumulation).
    """
    cum = np.cumprod(G, axis=0)
    noise_gain = cum[-1]
    prefix = np.vstack([np.ones((1, G.shape[1])), cum[:-1]])
    mean_gain = np.sum(prefix * M, axis=0)
    return noise_gain, mean_gain, prefix


def _transfer_arrays(
    eigenvalues: np.ndarray, alpha_bar: np.ndarray, process: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(noise_gain, mean_gain, var_extra) from a raw alpha_bar vector.

    Fast path shared with the loss/optimizer code; does no validation so it
    can be called on unconstrained optimizer iterates.
    """
    if process == "ddim":
        a, b = _ddim_ab(alpha_bar)
    elif process == "ddpm":
        a, b, c2 = _ddpm_abc(alpha_bar)
    else:
        raise ValueError(f"unknown process {process!r}")
    noise_gain, mean_gain, prefix = _accumulate(*_step_gains(eigenvalues, alpha_bar, a, b))
    if process == "ddim":
        return noise_gain, mean_gain, np.zeros_like(noise_gain)
    return noise_gain, mean_gain, np.sum(prefix**2 * c2[:, None], axis=0)


def _vp_transfer(model: SpectralModel, schedule: Schedule, process: str) -> Transfer:
    schedule.validate()
    arrays = _transfer_arrays(model.eigenvalues, schedule.alpha_bar, process)
    return Transfer(*arrays, process=process, formulation="vp")


def ddim_transfer(model: SpectralModel, schedule: Schedule) -> Transfer:
    """Whole-run transfer of the deterministic sampler with the exact denoiser.

    Single left-to-right pass, O(S d).
    """
    return _vp_transfer(model, schedule, "ddim")


def ddpm_transfer(model: SpectralModel, schedule: Schedule) -> Transfer:
    """Whole-run transfer of the stochastic sampler with the exact denoiser.

    The output variance is ``noise_gain**2 + var_extra`` where ``var_extra``
    accumulates the per-step fresh noise through the remaining gains.
    """
    return _vp_transfer(model, schedule, "ddpm")


def _trajectory_coefficients(G: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State/mean coefficients of every intermediate step, shape (S+1, d).

    Row ``l`` gives ``v_l = A[l] * v_S + B[l] * mean_spectral`` under the
    deterministic recursion; ``A[S] = 1`` and ``B[S] = 0``.
    """
    S, d = G.shape
    A = np.ones((S + 1, d))
    A[:S] = np.cumprod(G[::-1], axis=0)[::-1]
    B = np.empty((S + 1, d))
    B[S] = 0.0
    for s in range(S, 0, -1):
        B[s - 1] = G[s - 1] * B[s] + M[s - 1]
    return A, B


def _ddim_trajectory(eigenvalues: np.ndarray, alpha_bar: np.ndarray):
    """:func:`_trajectory_coefficients` of the deterministic sampler (no validation)."""
    a, b = _ddim_ab(alpha_bar)
    return _trajectory_coefficients(*_step_gains(eigenvalues, alpha_bar, a, b))


def intermediate_distribution(model: SpectralModel, schedule: Schedule, l: int) -> GaussianDiag:
    """Distribution of the deterministic sampler's state at step index ``l``.

    ``l = S`` is the initial noise (mean 0, unit variance); ``l = 0``
    reproduces the output distribution of :func:`ddim_transfer`.
    """
    schedule.validate()
    if not 0 <= l <= schedule.steps:
        raise ValueError(f"step index l={l} out of range [0, {schedule.steps}]")
    A, B = _ddim_trajectory(model.eigenvalues, schedule.alpha_bar)
    return GaussianDiag(mean=B[l] * model.mean_spectral, variance=A[l] ** 2)


def _check_dims(model: SpectralModel, transfer: Transfer) -> None:
    if len(transfer.noise_gain) != model.dim:
        raise ValueError(
            f"transfer dimension {len(transfer.noise_gain)} != model dim {model.dim}"
        )


def output_distribution(transfer: Transfer, model: SpectralModel) -> GaussianDiag:
    """Gaussian of the generated signal implied by a transfer."""
    _check_dims(model, transfer)
    return GaussianDiag(
        mean=transfer.mean_gain * model.mean_spectral,
        variance=transfer.output_variance,
    )


def mean_bias(transfer: Transfer, model: SpectralModel) -> tuple[np.ndarray, np.ndarray]:
    """Drift of the generated mean away from the target mean.

    Returns ``(bias, gain_deviation)`` where ``bias[i] = (mean_gain[i] - 1) *
    mean_spectral[i]`` and ``gain_deviation = |mean_gain - 1|`` (the
    schedule-dependent factor, independent of the mean itself).
    """
    _check_dims(model, transfer)
    deviation = transfer.mean_gain - 1.0
    return deviation * model.mean_spectral, np.abs(deviation)


def vp_to_ve(schedule: Schedule) -> VeSchedule:
    """Convert a retention schedule to exploding-variance form.

    ``sigma = sqrt((1 - alpha_bar) / alpha_bar)``; the noisiest retention
    level maps to the largest sigma.
    """
    ab = schedule.validate().alpha_bar  # validate() keeps alpha_bar inside (0, 1)
    sigma = np.sqrt((1.0 - ab) / ab)
    return VeSchedule(steps=schedule.steps, sigma=sigma).validate()


def ve_to_vp(ve: VeSchedule) -> Schedule:
    """Inverse of :func:`vp_to_ve`: ``alpha_bar = 1 / (1 + sigma**2)``."""
    ve.validate()
    ab = 1.0 / (1.0 + ve.sigma**2)
    return Schedule(
        kind="custom",
        steps=ve.steps,
        alpha_bar=ab,
        eps0=float(1.0 - ab[0]),
        epsS=float(ab[-1]),
    )


def ve_ddim_transfer(model: SpectralModel, ve: VeSchedule) -> Transfer:
    """Deterministic-sampler transfer in exploding form.

    The exploding state is the preserving one divided by ``sqrt(alpha_bar)``,
    so this is the preserving run on ``alpha_bar = 1 / (1 + sigma**2)`` with
    the noise gain scaled by ``sqrt(alpha_bar[S] / alpha_bar[0])`` and the
    mean gain by ``1 / sqrt(alpha_bar[0])``; requires strictly positive
    sigma at every step s >= 1.
    """
    ve.validate()
    if np.any(ve.sigma[1:] <= 0.0):
        raise ValueError("sigma must be strictly positive at every step s >= 1")
    ab = 1.0 / (1.0 + ve.sigma**2)
    noise_gain, mean_gain, var_extra = _transfer_arrays(model.eigenvalues, ab, "ddim")
    noise_gain = noise_gain * np.sqrt(ab[-1] / ab[0])
    return Transfer(noise_gain, mean_gain / np.sqrt(ab[0]), var_extra, "ddim", "ve")
