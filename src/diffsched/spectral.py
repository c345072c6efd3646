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


def _step_dots(eigenvalues: np.ndarray, alpha_bar: np.ndarray, a: np.ndarray):
    """``(dot, inv_den)``, each of shape (S, d), the numerator and the
    reciprocal denominator of :func:`_step_gains`' ``G = dot / den``."""
    ab_cur = alpha_bar[1:, None]
    inv_den = ab_cur * eigenvalues[None, :]
    inv_den += 1.0 - ab_cur
    np.reciprocal(inv_den, out=inv_den)
    root = np.sqrt(alpha_bar)
    dot = (root[:-1] * root[1:])[:, None] * eigenvalues[None, :]
    dot += (a * (1.0 - alpha_bar[1:]))[:, None]
    return dot, inv_den


def _step_gains(eigenvalues: np.ndarray, alpha_bar: np.ndarray, a: np.ndarray):
    """Per-step state gains ``G`` and ``inv_den = 1 / den``, each of shape (S, d).

    ``G[s-1]`` multiplies the state, ``v_{s-1} = G v_s + M mean_spectral``, at
    ``x = alpha_bar[s]`` and ``p = alpha_bar[s-1]``; ``den = x lam + 1 - x`` is
    the variance of the noisy state at the step's input level.  ``G = a + b
    sqrt(x) lam / den`` is formed as ``dot / den`` with ``dot = sqrt(p)
    sqrt(x) lam + a (1 - x)``, a sum of nonnegative terms, so a crossed step
    (``b < 0``) cancels nothing and ``G >= 0`` on any levels.  The mean gain
    ``M = b (1 - x) / den`` is never formed: in DDIM's family ``G sqrt(x) +
    M = a sqrt(x) + b = sqrt(p)``, each step keeping the clean-mean path.
    """
    G, inv_den = _step_dots(eigenvalues, alpha_bar, a)
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
    can be called on unconstrained optimizer iterates.  Each step maps the
    clean-mean path ``sqrt(alpha_bar) * mean_spectral`` onto itself
    (:func:`_step_gains`), which telescopes to ``mean_gain =
    sqrt(alpha_bar[0]) - sqrt(alpha_bar[S]) * noise_gain``.  ddim's noise
    gain is the product of its step gains; ddpm's is fixed by the endpoints
    and its ``var_extra`` is one weighted sum over levels
    (:func:`ddpm_transfer`).  The pullback ``(d_var, d_gain) -> gradient``
    takes a loss's partials in the output variance and the mean gain and
    returns the gradient with respect to ``alpha_bar[1:-1]`` in local form,
    O(S d) with no scan (:func:`_ddim_pullback`, :func:`_ddpm_pullback`);
    it does no work until called.
    """
    a, _, c2 = _step_coefficients(alpha_bar, process)
    if c2 is None:
        dot, inv_den = _step_dots(eigenvalues, alpha_bar, a)
        inv_dot = 1.0 / dot
        noise_gain = np.multiply(dot, inv_den, out=dot).prod(axis=0)
        var_extra = None
        pullback = partial(_ddim_pullback, eigenvalues, alpha_bar, inv_dot, inv_den, noise_gain)
    else:
        p, ends = alpha_bar[:-1], alpha_bar[[0, -1], None]
        var_0, var_S = ends * eigenvalues + (1.0 - ends)
        noise_gain = np.sqrt(alpha_bar[-1] / alpha_bar[0]) * (var_0 / var_S)
        # r[i] = var_0 / var_i, a ratio: var_0**2 alone can overflow
        r = p[:, None] * eigenvalues[None, :]
        r += (1.0 - p)[:, None]
        np.divide(var_0, r, out=r)
        weight = c2 * (p / alpha_bar[0])
        var_extra = weight @ (r * r)
        pullback = partial(_ddpm_pullback, eigenvalues, alpha_bar, weight, r, var_0)
    mean_gain = np.sqrt(alpha_bar[0]) - np.sqrt(alpha_bar[-1]) * noise_gain
    return noise_gain, mean_gain, var_extra, pullback


def _ddim_pullback(lam, alpha_bar, inv_dot, inv_den, noise_gain, d_var, d_gain) -> np.ndarray:
    """ddim's gradient with respect to ``alpha_bar[1:-1]`` from a loss's
    partials ``(d_var, d_gain)`` in the output variance and mean gain.

    ``log noise_gain`` sums ``log G = log dot - log den`` over the steps,
    and level ``k`` is ``x`` of step ``k`` and ``p`` of step ``k + 1``.  With
    ``u`` the loss's partial in the noise gain times the noise gain, the
    gradient sums ``u (d_x log G[k-1] + d_p log G[k])`` over coordinates,
    where ``d_p log G = (sqrt(x / p) lam - sqrt((1 - x) / (1 - p))) / (2
    dot)`` and ``d_x log G`` is the same with ``p`` and ``x`` swapped, less
    ``(lam - 1) / den``: three matrix-vector products over the steps, and no
    gain divided by.  Where the noise gain underflows to 0, so does ``u``.
    """
    u = (2.0 * d_var * noise_gain - np.sqrt(alpha_bar[-1]) * d_gain) * noise_gain
    by_lam, by_one, by_den = inv_dot @ (lam * u), inv_dot @ u, inv_den @ ((lam - 1.0) * u)
    root, root_c = np.sqrt(alpha_bar), np.sqrt(1.0 - alpha_bar)
    # the square roots of p, x, 1 - p and 1 - x
    rp, rx, rp_c, rx_c = root[:-1], root[1:], root_c[:-1], root_c[1:]
    grad_p = 0.5 * (rx / rp * by_lam - rx_c / rp_c * by_one)
    grad_x = 0.5 * (rp / rx * by_lam - rp_c / rx_c * by_one) - by_den
    return grad_x[:-1] + grad_p[1:]


def _ddpm_pullback(lam, alpha_bar, weight, r, var_0, d_var, d_gain) -> np.ndarray:
    """ddpm's gradient with respect to ``alpha_bar[1:-1]`` from a loss's
    partials in the output variance and mean gain.

    The noise and mean gains are fixed by the endpoints, so only ``var_extra
    = weight @ r**2`` (:func:`ddpm_transfer`) carries a gradient.  Level
    ``k`` enters it through ``w[k-1]`` (as ``x``), ``w[k]`` (as ``p``) and
    ``r[k]`` alone, ``w = alpha_bar[0] weight = (1 - p) (p - x) / (1 - x)``:
    the gradient is ``w_x[k-1] T0[k-1] + w_p[k] T0[k] - 2 weight[k] T1[k]``,
    with ``T0 = r**2 @ d_var / alpha_bar[0]`` and ``T1 = (r**2 (lam - 1) /
    var_k) @ d_var = r**3 @ ((lam - 1) d_var / var_0)``.  The partials of
    ``w`` are zero on a crossed step, where its clamp is active, and a tie
    ``p = x`` takes them from the monotone side.
    """
    p, x = alpha_bar[:-1], alpha_bar[1:]
    monotone = p >= x
    w_p = np.where(monotone, ((1.0 - p) - (p - x)) / (1.0 - x), 0.0)
    w_x = np.where(monotone, -(((1.0 - p) / (1.0 - x)) ** 2), 0.0)
    r_pow = r * r
    T0 = r_pow @ (d_var / alpha_bar[0])
    r_pow *= r
    T1 = r_pow @ ((lam - 1.0) * d_var / var_0)
    return w_x[:-1] * T0[:-1] + w_p[1:] * T0[1:] - 2.0 * weight[1:] * T1[1:]


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

    The output variance is ``noise_gain**2 + var_extra``.  With ``var_t = t
    lam + 1 - t``, a step's state gain is ``sqrt(x / p) var_p / var_x``, so
    products of gains telescope.  ``noise_gain = sqrt(alpha_bar[S] /
    alpha_bar[0]) var_0 / var_S`` is fixed by the endpoints, and the step
    that adds fresh variance ``c2`` at level ``p = alpha_bar[i]`` reaches the
    output with squared gain ``(p / alpha_bar[0]) r[i]**2``, ``r[i] = var_0
    / var_i``.  So ``var_extra = weight @ r**2`` with ``weight = c2 p /
    alpha_bar[0]``: the schedule shapes only ``var_extra``.  O(S d), no fold.
    """
    return _transfer(model, schedule, "ddpm")


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

