"""Gaussian data model and closed-form transfer functions of discrete reverse samplers.

Everything here works in the eigenbasis of the data covariance, where each
reverse step of a deterministic (DDIM-style) or stochastic (DDPM-style)
sampler acts coordinatewise.  A whole sampler run therefore collapses to a
diagonal affine map ``v_out = noise_gain * v_in + mean_gain * mean_spectral``
plus, for the stochastic sampler, an accumulated extra variance term.

The transfers run in retention (VP) form.  An exploding-sigma (VE) schedule
is analysed after :func:`ve_to_vp` maps it to ``alpha_bar = 1 / (1 +
sigma**2)``: the VE state is the VP one divided by ``sqrt(alpha_bar)``.

Index convention: ``alpha_bar`` has length ``S + 1`` with index 0 the
cleanest level and index ``S`` the noisiest; the reverse recursion runs
``s = S .. 1``, each step producing index ``s - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "SpectralModel",
    "Schedule",
    "Transfer",
    "VeSchedule",
    "ddim_transfer",
    "ddpm_transfer",
    "intermediate_distribution",
    "relative_error_dynamics",
    "w2_dynamics",
    "mean_bias",
    "vp_to_ve",
    "ve_to_vp",
    "DEFAULT_EPS0",
    "DEFAULT_EPSS",
]

# Endpoint defaults: the reverse process starts at alpha_bar = 1 - 1e-4
# (almost clean) and ends at 4e-5 (almost pure noise).
DEFAULT_EPS0 = 1e-4
DEFAULT_EPSS = 4e-5
# The two samplers, both members of DDIM's family (``_step_coefficients``).
PROCESSES = ("ddim", "ddpm")

ENDPOINT_TOL = 1e-12
# Below this eigenvalue a coordinate has no relative scale: KL drops it,
# relative_error_dynamics reports its absolute mismatch, W2 and weighted-L1 keep it.
LAMBDA_FLOOR = 1e-12


def _vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _require_finite(value, name: str) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite (no NaN or inf)")


def _require_integer(value, name: str, least: int | None, bits: int | None = None) -> None:
    """Reject ``value`` unless it is an int or numpy integer, not a bool, of
    at least ``least`` and, when ``bits`` is given, below ``2**bits``.  A
    caller that words its own range check passes ``least=None``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and (least is None or least <= value) and (bits is None or value < 2**bits)):
        bound = f" >= {least}" if bits is None else f" in [{least}, 2**{bits})"
        bound = "" if least is None else bound
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _require_process(process) -> None:
    if process not in PROCESSES:
        raise ValueError(f"process must be {' or '.join(map(repr, PROCESSES))}, got {process!r}")


def _require_endpoints(eps0, epsS) -> None:
    """Reject endpoints unless both are finite and positive, sum below 1 and
    ``1 - eps0`` does not round to 1."""
    for value, name in ((eps0, "eps0"), (epsS, "epsS")):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if 1.0 - eps0 == 1.0:
        raise ValueError(f"eps0 must be large enough that 1 - eps0 < 1 in floats, got {eps0}")
    if eps0 + epsS >= 1.0:
        raise ValueError(f"eps0 + epsS must be < 1, got eps0={eps0}, epsS={epsS}")


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
        _require_integer(self.dim, "dim", 1)
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
    """Noise schedule ``alpha_bar[0..S]``, checked on construction.

    ``alpha_bar[0] = 1 - eps0``, ``alpha_bar[S] = epsS`` and every level lies
    strictly inside (0, 1).  Interior levels may cross, as free-mode
    optimization may leave them; the transfers and the dense oracle hold for
    any such levels, and only :func:`vp_to_ve` needs them nonincreasing.
    """

    kind: str
    steps: int
    alpha_bar: np.ndarray
    eps0: float = DEFAULT_EPS0
    epsS: float = DEFAULT_EPSS

    def __post_init__(self):
        self.alpha_bar = _vector(self.alpha_bar, "alpha_bar")
        self.validate()

    def validate(self) -> "Schedule":
        """Check the fields as construction does; return ``self``."""
        ab = self.alpha_bar
        for value, name in ((ab, "alpha_bar"), (self.eps0, "eps0"), (self.epsS, "epsS")):
            _require_finite(value, name)
        _require_integer(self.steps, "steps", 1)
        if len(ab) != self.steps + 1:
            raise ValueError(
                f"alpha_bar must have length steps+1={self.steps + 1}, got {len(ab)}"
            )
        if abs(ab[0] - (1.0 - self.eps0)) > ENDPOINT_TOL:
            raise ValueError(f"alpha_bar[0]={float(ab[0])!r} != 1-eps0={float(1.0 - self.eps0)!r}")
        if abs(ab[-1] - self.epsS) > ENDPOINT_TOL:
            raise ValueError(f"alpha_bar[S]={float(ab[-1])!r} != epsS={float(self.epsS)!r}")
        if np.any(ab <= 0.0) or np.any(ab >= 1.0):
            raise ValueError("alpha_bar values must lie strictly inside (0, 1)")
        return self


@dataclass
class Transfer:
    """Diagonal output map of a full reverse run.

    ``v_out = noise_gain * v_in + mean_gain * mean_spectral`` where
    ``v_in ~ N(0, I)``; the stochastic sampler adds ``var_extra`` to the
    output variance (zero for the deterministic one).  The three vectors
    have one length, checked on construction.
    """

    noise_gain: np.ndarray
    mean_gain: np.ndarray
    var_extra: np.ndarray

    def __post_init__(self):
        self.noise_gain = _vector(self.noise_gain, "noise_gain")
        self.mean_gain = _vector(self.mean_gain, "mean_gain")
        self.var_extra = _vector(self.var_extra, "var_extra")
        for name in ("mean_gain", "var_extra"):
            got, want = len(getattr(self, name)), len(self.noise_gain)
            if got != want:
                raise ValueError(f"{name} must have length {want}, that of noise_gain, got {got}")

    @property
    def output_variance(self) -> np.ndarray:
        """Total output variance per coordinate."""
        return self.noise_gain**2 + self.var_extra


@dataclass
class VeSchedule:
    """Noise schedule in exploding-variance form: nondecreasing sigma[0..S],
    checked on construction."""

    steps: int
    sigma: np.ndarray

    def __post_init__(self):
        self.sigma = _vector(self.sigma, "sigma")
        self.validate()

    def validate(self) -> "VeSchedule":
        """Check the fields as construction does; return ``self``."""
        _require_integer(self.steps, "steps", 1)
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


def _step_coefficients(alpha_bar: np.ndarray, process: str):
    """Per-step sampler coefficients ``(a, b, c2)`` over steps s = 1..S.

    Both samplers are members of one family (Song, Meng & Ermon 2021,
    eq. 12): step ``s`` keeps a share ``r`` of the noise of level
    ``x = alpha_bar[s]`` and goes to level ``p = alpha_bar[s-1]`` by
    ``a = sqrt((1 - p) / (1 - x) * r)``, ``b = sqrt(p) - sqrt(x) * a`` and
    fresh-noise variance ``c2 = (1 - p) * (1 - r)``.  The deterministic
    sampler has ``r = 1`` and ``c2`` None; the stochastic one the forward
    posterior's ``r = x (1 - p) / (p (1 - x))``, with ``c2`` clamped at zero
    so that a tied or crossed step adds no variance.
    """
    _require_process(process)
    p, x = alpha_bar[:-1], alpha_bar[1:]
    one_p, one_x = 1.0 - p, 1.0 - x
    a = np.sqrt(one_p) / np.sqrt(one_x)
    if process == "ddim":
        c2 = None
    else:
        # r and 1 - r as quotients of products: no cancellation in 1 - r
        den = p * one_x
        a *= np.sqrt(x * one_p / den)
        c2 = np.maximum(one_p * ((p - x) / den), 0.0)
    return a, np.sqrt(p) - np.sqrt(x) * a, c2


def _step_partials(alpha_bar: np.ndarray, a: np.ndarray, c2):
    """Partials ``(a_p, a_x, b_p, b_x, c2_p, c2_x)`` of :func:`_step_coefficients`'
    ``(a, b, c2)`` in ``p`` and ``x``; those of ``c2`` are zero on a crossed
    step ``p < x``, where its clamp is active, and a tie ``p = x`` takes them
    from the monotone side (None for ddim)."""
    p, x = alpha_bar[:-1], alpha_bar[1:]
    one_p, one_x = 1.0 - p, 1.0 - x
    if c2 is None:
        a_p = -0.5 * a / one_p
        a_x = 0.5 * a / one_x
        c2_p = c2_x = None
    else:
        a_p = -a * (1.0 / one_p + 0.5 / p)
        a_x = a * (0.5 / x + 1.0 / one_x)
        monotone = p >= x
        c2_p = np.where(monotone, (x / p**2 - 1.0) / one_x, 0.0)
        c2_x = np.where(monotone, -(one_p**2) / (p * one_x**2), 0.0)
    sqrt_x = np.sqrt(x)
    b_p = 0.5 / np.sqrt(p) - sqrt_x * a_p
    b_x = -0.5 * a / sqrt_x - sqrt_x * a_x
    return a_p, a_x, b_p, b_x, c2_p, c2_x


def _step_gains(eigenvalues: np.ndarray, alpha_bar: np.ndarray, a: np.ndarray):
    """Per-step state gains ``G`` and ``inv_den = 1 / den``, each of shape (S, d).

    ``G[s-1]`` multiplies the state, ``v_{s-1} = G v_s + M mean_spectral``, at
    ``x = alpha_bar[s]`` and ``p = alpha_bar[s-1]``; ``den = x lam + 1 - x`` is
    the variance of the noisy state at the step's input level.  ``G = a + b
    sqrt(x) lam / den`` is formed as ``(sqrt(p) sqrt(x) lam + a (1 - x)) /
    den``, a sum of nonnegative terms, so a crossed step (``b < 0``) cancels
    nothing and ``G >= 0`` on any levels.  The mean gain ``M = b (1 - x) /
    den`` is never formed: in DDIM's family ``G sqrt(x) + M = a sqrt(x) + b =
    sqrt(p)``, each step keeping the clean-mean path.
    """
    ab_cur = alpha_bar[1:, None]
    inv_den = ab_cur * eigenvalues[None, :]
    inv_den += 1.0 - ab_cur
    np.reciprocal(inv_den, out=inv_den)
    root = np.sqrt(alpha_bar)
    G = (root[:-1] * root[1:])[:, None] * eigenvalues[None, :]
    G += (a * (1.0 - alpha_bar[1:]))[:, None]
    G *= inv_den
    return G, inv_den


def _suffix_products(G: np.ndarray) -> np.ndarray:
    """``A[l]``, the product of ``G[l:]``, shape (S+1, d) with ``A[S] = 1``:
    one reversed cumulative product, row ``l`` the state coefficient at step
    ``l`` and row 0 the whole run's noise gain."""
    A = np.empty((len(G) + 1, G.shape[1]))
    A[-1] = 1.0
    np.cumprod(G[::-1], axis=0, out=A[-2::-1])
    return A


def _transfer_arrays(eigenvalues: np.ndarray, alpha_bar: np.ndarray, process: str):
    """``(noise_gain, mean_gain, var_extra, pullback)`` from a raw alpha_bar
    vector; ``var_extra`` is None for ddim, which adds no variance.

    Fast path shared with the loss/optimizer code; does no validation so it
    can be called on unconstrained optimizer iterates.  Only the state gains
    are folded: each step maps the clean-mean path ``sqrt(alpha_bar) *
    mean_spectral`` onto itself (:func:`_step_gains`), which telescopes to
    ``mean_gain = sqrt(alpha_bar[0]) - sqrt(alpha_bar[S]) * noise_gain``.  The
    pullback ``(d_var, d_gain) -> gradient`` takes a loss's partials in the
    output variance and the mean gain and returns the gradient with respect
    to ``alpha_bar[1:-1]`` by :func:`_reverse_sweep` over this pass's arrays;
    it does no work until called.
    """
    a, b, c2 = _step_coefficients(alpha_bar, process)
    G, inv_den = _step_gains(eigenvalues, alpha_bar, a)
    # prefix[i] is the product of G over the steps before i
    prefix = np.empty_like(G)
    prefix[0] = 1.0
    np.cumprod(G[:-1], axis=0, out=prefix[1:])
    noise_gain = prefix[-1] * G[-1]
    mean_gain = np.sqrt(alpha_bar[0]) - np.sqrt(alpha_bar[-1]) * noise_gain
    prefix2 = var_extra = None
    if c2 is not None:
        prefix2 = prefix**2
        var_extra = (prefix2 * c2[:, None]).sum(axis=0)
    pullback = partial(
        _reverse_sweep, eigenvalues, alpha_bar, a, b, c2, inv_den, G, noise_gain, prefix, prefix2
    )
    return noise_gain, mean_gain, var_extra, pullback


def _transfer(model: SpectralModel, schedule: Schedule, process: str) -> Transfer:
    gain, mean_gain, var_extra, _ = _transfer_arrays(model.eigenvalues, schedule.alpha_bar, process)
    return Transfer(gain, mean_gain, np.zeros_like(gain) if var_extra is None else var_extra)


def ddim_transfer(model: SpectralModel, schedule: Schedule) -> Transfer:
    """Whole-run transfer of the deterministic sampler with the exact denoiser.

    Single left-to-right pass, O(S d).
    """
    return _transfer(model, schedule, "ddim")


def ddpm_transfer(model: SpectralModel, schedule: Schedule) -> Transfer:
    """Whole-run transfer of the stochastic sampler with the exact denoiser.

    The output variance is ``noise_gain**2 + var_extra`` where ``var_extra``
    accumulates the per-step fresh noise through the remaining gains.
    """
    return _transfer(model, schedule, "ddpm")


def _suffix_fold(G: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(A, B)`` of the affine recurrence ``v_{s-1} = G[s-1] *
    v_s + M[s-1]`` at every step, shape (S+1, d): ``v_l = A[l] * v_S + B[l]``,
    ``A[S] = 1``, ``B[S] = 0`` and row 0 is the whole run.

    Folded by a log-depth suffix scan (Hillis & Steele 1986; Blelloch 1990):
    after the round with offset ``k``, ``(A[i], B[i])`` compose the ``2k``
    steps from ``i`` on, so ``ceil(log2 S)`` vector rounds replace the S-step
    loop.  Only products of gains are formed, never quotients, so gains that
    underflow leave the result finite.  The stochastic sampler's extra
    variance is its one user, on ``(G**2, c**2)``.
    """
    S = len(G)
    A, B = np.empty((S + 1, G.shape[1])), np.empty((S + 1, G.shape[1]))
    A[S], B[S] = 1.0, 0.0
    g, m = A[:-1], B[:-1]  # the last rows stay as set
    g[...] = G
    m[...] = M
    tmp = np.empty_like(m)
    k = 1
    while k < S:
        np.multiply(g[: S - k], m[k:], out=tmp[: S - k])
        m[: S - k] += tmp[: S - k]
        g[: S - k] *= g[k:]
        k *= 2
    return A, B


def _reverse_sweep(
    lam, alpha_bar, a, b, c2, inv_den, G, noise_gain, prefix, prefix2, d_var, d_gain
) -> np.ndarray:
    """Gradient with respect to ``alpha_bar[1:-1]`` from a loss's partials
    ``(d_var, d_gain)`` in the output variance and mean gain, reusing the
    arrays of the forward pass of :func:`_transfer_arrays`.

    The mean gain is ``sqrt(alpha_bar[0]) - sqrt(alpha_bar[S]) * noise_gain``
    with fixed endpoints, so the loss's partial in the noise gain is ``d_ng =
    2 d_var noise_gain - sqrt(alpha_bar[S]) d_gain``, and the adjoint of the
    per-step gains is ``dG = prefix * later * d_ng``, ``later`` the product
    of the later gains (:func:`_suffix_products`): products only, O(S d).  The
    stochastic sampler's extra variance adds the log-depth fold
    :func:`_suffix_fold` on ``(G**2, c**2)``, its only branch on the process.
    The chain rule then goes through the partials of ``(a, b, c**2)`` in the
    two neighbouring levels ``p = alpha_bar[s-1]`` and ``x = alpha_bar[s]``,
    from :func:`_step_partials`.
    """
    a_p, a_x, b_p, b_x, c2_p, c2_x = _step_partials(alpha_bar, a, c2)
    sqrt_x = np.sqrt(alpha_bar[1:])
    d_ng = 2.0 * d_var * noise_gain - np.sqrt(alpha_bar[-1]) * d_gain
    dG = _suffix_products(G)[1:]
    dG *= d_ng
    dG *= prefix
    grad_p = grad_x = 0.0
    if c2 is not None:
        var_part = _suffix_fold(G * G, c2[:, None])[1]
        var_gain = 2.0 * d_var * G
        var_gain *= prefix2
        var_gain *= var_part[1:]
        dG += var_gain
        d_c2 = (d_var * prefix2).sum(axis=1)
        grad_p, grad_x = d_c2 * c2_p, d_c2 * c2_x

    # chain through G = a + b sqrt(x) lam / den with den = x lam + 1 - x,
    # summing each step over coordinates: dG, dG ratio and dG ratio slope
    g_sum = dG.sum(axis=1)
    dG *= inv_den
    dG *= lam
    g_ratio = dG.sum(axis=1)
    dG *= lam - 1.0
    dG *= inv_den
    g_slope = dG.sum(axis=1)
    grad_p = grad_p + a_p * g_sum + b_p * sqrt_x * g_ratio
    grad_x = (
        grad_x
        + a_x * g_sum
        + (b_x * sqrt_x + 0.5 * b / sqrt_x) * g_ratio
        - b * sqrt_x * g_slope
    )
    # interior level s is x of step s and p of step s + 1
    return grad_x[:-1] + grad_p[1:]


def _trajectory(G: np.ndarray, alpha_bar: np.ndarray):
    """``(A, B)``, shape (S+1, d): ``v_l = A[l] * v_S + B[l] * mean_spectral``
    at every step of a run with state gains ``G``.  ``A`` is
    :func:`_suffix_products`; ``B[l] = sqrt(alpha_bar[l]) - sqrt(alpha_bar[S])
    * A[l]``, as the steps keep the clean-mean path, so no mean is folded."""
    A = _suffix_products(G)
    return A, np.sqrt(alpha_bar)[:, None] - np.sqrt(alpha_bar[-1]) * A


def _ddim_trajectory(eigenvalues: np.ndarray, alpha_bar: np.ndarray):
    """:func:`_trajectory` of the deterministic sampler (no validation)."""
    a, _, _ = _step_coefficients(alpha_bar, "ddim")
    return _trajectory(_step_gains(eigenvalues, alpha_bar, a)[0], alpha_bar)


def intermediate_distribution(model: SpectralModel, schedule: Schedule, l: int) -> SpectralModel:
    """Distribution of the deterministic sampler's state at step index ``l``.

    ``l = S`` is the initial noise (mean 0, unit variance); ``l = 0``
    reproduces the output distribution of :func:`ddim_transfer`.  The state
    is a model in the same eigenbasis, ``source`` ``<model.source>#step<l>``;
    a variance past the float range fails its ``eigenvalues`` check.
    """
    _require_integer(l, "l", 0)
    if l > schedule.steps:
        raise ValueError(f"step index l={l} out of range [0, {schedule.steps}]")
    A, B = _ddim_trajectory(model.eigenvalues, schedule.alpha_bar)
    source = f"{model.source}#step{l}"
    return SpectralModel(model.dim, A[l] ** 2, B[l] * model.mean_spectral, source)


def relative_error_dynamics(model: SpectralModel, schedule: Schedule) -> np.ndarray:
    """Per-step, per-coordinate variance mismatch of the deterministic sampler.

    Row ``l`` holds ``|lam_i - var_{l,i}| / lam_i`` where ``var_{l,i}`` is
    the state variance at step ``l``; row 0 is the output.  A coordinate
    below :data:`LAMBDA_FLOOR` holds the absolute mismatch ``|lam_i - var_{l,i}|``.
    """
    A, _ = _ddim_trajectory(model.eigenvalues, schedule.alpha_bar)
    lam = model.eigenvalues
    return np.abs(lam - A**2) / np.where(lam < LAMBDA_FLOOR, 1.0, lam)


def w2_dynamics(model: SpectralModel, schedule: Schedule) -> np.ndarray:
    """Squared quadratic-transport distance to the target at every step.

    Entry ``l`` compares the step-``l`` state distribution with the target;
    entry ``S`` is the distance from the initial unit Gaussian, entry 0
    equals the terminal loss.
    """
    A, B = _ddim_trajectory(model.eigenvalues, schedule.alpha_bar)
    lam = model.eigenvalues
    mu = model.mean_spectral
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        var_term = ((np.sqrt(lam)[None, :] - np.abs(A)) ** 2).sum(axis=1)
        mean_term = (mu[None, :] ** 2 * (B - 1.0) ** 2).sum(axis=1)
        return var_term + mean_term


def _check_dims(model: SpectralModel, transfer: Transfer) -> None:
    if len(transfer.noise_gain) != model.dim:
        raise ValueError(
            f"transfer dimension {len(transfer.noise_gain)} != model dim {model.dim}"
        )


def mean_bias(transfer: Transfer, model: SpectralModel) -> tuple[np.ndarray, np.ndarray]:
    """Drift of the generated mean away from the target mean.

    Returns ``(bias, gain_deviation)`` where ``bias[i] = (mean_gain[i] - 1) *
    mean_spectral[i]`` and ``gain_deviation = |mean_gain - 1|`` (the
    schedule-dependent factor, independent of the mean itself).  As both
    samplers keep the clean-mean path, the bias is ``((sqrt(alpha_bar[0]) -
    1) - sqrt(alpha_bar[S]) * noise_gain) * mean_spectral``: the endpoints'
    share plus the noise gain's.
    """
    _check_dims(model, transfer)
    deviation = transfer.mean_gain - 1.0
    return deviation * model.mean_spectral, np.abs(deviation)


def vp_to_ve(schedule: Schedule) -> VeSchedule:
    """Convert a retention schedule to exploding-variance form.

    ``sigma = sqrt((1 - alpha_bar) / alpha_bar)``; the noisiest retention
    level maps to the largest sigma.  A sigma schedule is nondecreasing, so
    levels that cross are refused.
    """
    ab = schedule.alpha_bar  # a Schedule keeps alpha_bar inside (0, 1)
    if np.any(np.diff(ab) > 0.0):
        raise ValueError("alpha_bar must be nonincreasing to convert to sigma form")
    return VeSchedule(steps=schedule.steps, sigma=np.sqrt((1.0 - ab) / ab))


def ve_to_vp(ve: VeSchedule) -> Schedule:
    """Inverse of :func:`vp_to_ve`: ``alpha_bar = 1 / (1 + sigma**2)``.

    Every level must land strictly inside (0, 1): a ``sigma`` so small that
    ``alpha_bar`` rounds to 1 (such as 0) or so large that it rounds to 0 is
    rejected.
    """
    with np.errstate(over="ignore"):  # sigma**2 = inf gives alpha_bar = 0, rejected below
        ab = 1.0 / (1.0 + ve.sigma**2)
    bad = np.flatnonzero((ab <= 0.0) | (ab >= 1.0))
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"sigma[{i}]={float(ve.sigma[i])!r} gives alpha_bar = 1 / (1 + sigma**2) = {float(ab[i])!r};"
            " every level must lie strictly inside (0, 1)"
        )
    return Schedule(
        kind="custom",
        steps=ve.steps,
        alpha_bar=ab,
        eps0=float(1.0 - ab[0]),
        epsS=float(ab[-1]),
    )

