"""Time-domain Monte Carlo of the reverse process with the exact denoiser.

This is the independent oracle for the closed-form spectral results: it runs
the sampler as dense affine steps on the original coordinates and never
touches the eigenbasis shortcut.

Reproducibility: sample ``i`` is generated from its own counter-based RNG
stream derived from ``(seed, i)`` (Philox keyed by the seed, counter offset
``i << 128``).  Standard normals come from the Box-Muller transform on pairs
of uniforms (``u1`` mapped from [0,1) to (0,1]), which an oracle
re-implementation can match distributionally.

Both samplers are affine in Gaussian draws, so their output is Gaussian.
``compose_affine`` folds the dense per-step maps, taken one at a time from
``_dense_steps``, into one ``d x d`` factor ``F`` and an offset, and a
sample is ``x_0 = F z + offset`` with ``z`` the first ``d`` normals of its
stream.  For ddim, ``F`` is the composed map itself, and its bytes differ
from a per-step loop by rounding only.  For ddpm, ``F F^T`` is the output
covariance of the per-step process, noise included, so the samples have its
exact law without drawing its per-step noise path.

Samples are drawn in chunks of a fixed number of rows, one after another on
the calling thread.  Each chunk sets one Philox's counter to each sample's
``i << 128`` in turn; Box-Muller then runs over the whole chunk, in place in
the chunk's draw buffer, and one matrix product maps it.  The last chunk is
padded with zero rows, so every sample passes through the same
matrix-product shapes at the same row position and its bytes depend only on
``(seed, i)``, not on the sample count.  The product's inner dimension is
``d``: ddpm's bytes at ``d = 7`` and ``d = 50`` are the same under one and
two BLAS threads (a test checks this), while ddim's at ``d = 200`` are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Schedule, _require_finite, _require_integer, _step_coefficients

__all__ = [
    "DenseGaussian",
    "SimConfig",
    "simulate_reverse",
    "empirical_moments",
]

SYMMETRY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Normals drawn per chunk, d per sample: rows per chunk = this // d.  Fewer
# make small matrix products; many more spill the Box-Muller temporaries out
# of cache.
_CHUNK_NORMALS = 2**18
_WORD = 2**64 - 1  # mask of one of Philox's four 64-bit counter words


@dataclass
class DenseGaussian:
    """Gaussian in original coordinates: mean vector and dense covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        _require_finite(self.mean, "mean")
        _require_finite(self.covariance, "covariance")
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        d = len(self.mean)
        if self.covariance.shape != (d, d):
            raise ValueError(
                f"covariance shape {self.covariance.shape} does not match mean length {d}"
            )
        asym = np.max(np.abs(self.covariance - self.covariance.T))
        if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(self.covariance))):
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3e})")

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass
class SimConfig:
    process: str
    samples: int
    seed: int
    schedule: Schedule

    def __post_init__(self):
        if self.process not in ("ddim", "ddpm"):
            raise ValueError(f"process must be 'ddim' or 'ddpm', got {self.process!r}")
        _require_integer(self.samples, "samples", 1)
        _require_integer(self.seed, "seed", 0, bits=128)


def _box_muller(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Interleaved Box-Muller normals written into ``out``.

    ``u`` holds the ``u1`` half then the ``u2`` half of the uniform pairs
    along its last axis and is overwritten: ``u1`` becomes the radius and
    ``u2`` the angle.  An odd ``out`` width drops the last sine.
    """
    pairs = u.shape[-1] // 2
    radius, angle = u[..., :pairs], u[..., pairs:]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    sines = out.shape[-1] - pairs
    np.cos(angle, out=out[..., 0::2])
    np.sin(angle[..., :sines], out=out[..., 1::2])
    out[..., 0::2] *= radius
    out[..., 1::2] *= radius[..., :sines]
    return out


def _sample_stream_normals(seed: int, index: int, count: int) -> np.ndarray:
    """Sample ``index``'s first ``count`` normals: one row of ``_chunk_stream_normals``."""
    return _chunk_stream_normals(seed, index, 1, count)[0]


def _chunk_stream_normals(
    seed: int,
    start: int,
    rows: int,
    count: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The first ``count`` normals of each sample ``i`` in ``start..start+rows-1``.

    One Philox serves the whole chunk.  Before each sample its counter words
    are set to ``i << 128`` with an empty output buffer, the state a fresh
    ``Philox(key=seed, counter=i << 128)`` starts in.  The normals go into
    ``out`` (shape ``(rows, count)``) and the uniforms into ``scratch``
    (shape ``(rows, 2 * pairs)``); either is allocated when not given.
    Returns ``out``.
    """
    pairs = (count + 1) // 2
    if out is None:
        out = np.empty((rows, count))
    if scratch is None:
        scratch = np.empty((rows, 2 * pairs))
    bits = np.random.Philox(key=seed)
    state = bits.state  # a fresh generator's: buffer_pos 4, nothing buffered
    counter = state["state"]["counter"]
    gen = np.random.Generator(bits)
    for r, i in enumerate(range(start, start + rows)):
        counter[2], counter[3] = i & _WORD, i >> 64
        bits.state = state
        gen.random(out=scratch[r])
    return _box_muller(scratch, out)


def _check_psd(covariance: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(covariance)
    if eigs[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"covariance is not PSD (smallest eigenvalue {eigs[0]:.3e})")


def _dense_steps(
    target: DenseGaussian, alpha_bar: np.ndarray, a: np.ndarray, b: np.ndarray, order
):
    """Yield the dense affine map ``(W_s, o_s)`` of each step ``s`` in ``order``.

    Step ``s`` maps state ``s + 1`` to ``s`` via ``x <- W_s x + o_s (+ c_s z)``;
    ``a`` and ``b`` are ``_step_coefficients``'.  One step at a time, so a
    fold over the steps never holds more than one of them.
    """
    eye = np.eye(target.dim)
    for s in order:
        ab_s = alpha_bar[s + 1]
        shifted = ab_s * target.covariance + (1.0 - ab_s) * eye
        wiener_gain = np.linalg.solve(shifted, target.covariance)
        wiener_offset = np.linalg.solve(shifted, target.mean)
        gain = a[s] * eye + b[s] * np.sqrt(ab_s) * wiener_gain
        yield gain, b[s] * (1.0 - ab_s) * wiener_offset


def compose_affine(
    target: DenseGaussian, schedule: Schedule, process: str
) -> tuple[np.ndarray, np.ndarray]:
    """The whole sampler as ``x_0 = F @ z + offset``, ``z`` of ``d`` normals.

    Step ``s`` maps state ``s + 1`` to ``s``, for ``s = S-1, ..., 0``.  The
    fold runs from the clean end: with ``P_0 = I`` and ``P_{s+1} = P_s W_s``,
    ``x_0 = P_S x_S + sum_s c_s P_s z_s + offset`` with ``offset = sum_s P_s
    o_s``.  ddim has no noise, so ``F = P_S``.  ddpm's output is Gaussian with
    covariance ``C = P_S P_S^T + sum_s c_s^2 P_s P_s^T``, and ``F`` is one
    ``d x d`` factor with ``F F^T = C``: the same law as the per-step noise
    path, from ``d`` draws instead of ``(S + 1) d``.

    ``F`` is folded by QR: a running upper-triangular ``R`` with ``R^T R``
    the noise covariance so far is replaced at each step by the R of
    ``[R; c_s P_s^T]``, and last by that of ``[R; P_S^T]``; ``F = R^T``.  QR
    never forms ``C``, so it does not square ``C``'s condition number, and it
    needs no rule for a singular ``C``, where Cholesky of ``C`` would fail.
    Validates both inputs.
    """
    schedule.validate()
    _check_psd(target.covariance)
    a, b, c2 = _step_coefficients(schedule.alpha_bar, process)
    d, S = target.dim, len(a)
    prefix = np.eye(d)
    offset = np.zeros(d)
    R = np.zeros((0, d))
    for s, (gain, off) in enumerate(_dense_steps(target, schedule.alpha_bar, a, b, range(S))):
        offset += prefix @ off
        if c2 is not None:
            R = np.linalg.qr(np.vstack([R, np.sqrt(c2[s]) * prefix.T]), mode="r")
        prefix = prefix @ gain
    if c2 is None:
        return prefix, offset
    return np.linalg.qr(np.vstack([R, prefix.T]), mode="r").T, offset


def simulate_reverse(target: DenseGaussian, cfg: SimConfig) -> np.ndarray:
    """Draw ``cfg.samples`` outputs of the reverse process, shape (n, d).

    Both samplers fold all steps into one ``d x d`` factor and an offset
    (``compose_affine``), applied to each sample's first ``d`` normals as one
    matrix product per chunk of samples.  Sample ``i`` depends only on
    ``(seed, i)``.
    """
    d = target.dim
    n = cfg.samples
    F, offset = compose_affine(target, cfg.schedule, cfg.process)
    rows = max(1, _CHUNK_NORMALS // d)
    out = np.empty((n, d))
    draws, tmp = np.empty((rows, d)), np.empty((rows, d))
    scratch = np.empty((rows, 2 * ((d + 1) // 2)))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        _chunk_stream_normals(cfg.seed, start, m, d, draws[:m], scratch[:m])
        draws[m:] = 0.0
        np.matmul(draws, F.T, out=tmp)
        np.add(tmp[:m], offset, out=out[start : start + m])
    return out


def empirical_moments(samples: np.ndarray) -> DenseGaussian:
    """Sample mean and unbiased (n-1 divisor) covariance of sample rows."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be 2-D (n, d), got shape {samples.shape}")
    n = samples.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return DenseGaussian(mean=mean, covariance=cov)
