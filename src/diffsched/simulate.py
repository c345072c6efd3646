"""Time-domain Monte Carlo of the reverse process with the exact denoiser.

This is the independent oracle for the closed-form spectral results: it runs
the sampler as dense affine steps on the original coordinates and never
touches the eigenbasis shortcut.

Reproducibility: sample ``i`` is generated from its own counter-based RNG
stream derived from ``(seed, i)`` (Philox keyed by the seed, counter offset
``i << 128``).  Standard normals come from the Box-Muller transform on pairs
of uniforms (``u1`` mapped from [0,1) to (0,1]), which an oracle
re-implementation can match distributionally.

Both samplers are one affine map of a sample's draws ``[x_S, z, ...]`` (the
initial state, then ddpm's step noises): the Gaussian steps compose exactly,
so the dense per-step maps are folded once per run into ``x_0 = draws @ M +
offset``.  One fold, ``compose_affine``, serves both: it takes the steps
one at a time from ``_dense_steps``, so it holds one step's ``d x d`` gain,
never all S of them, and ``M`` is its map transposed, one ``d x d`` block
per draw.  Each sampler's bytes differ from a per-step loop by rounding only.

Samples are drawn in chunks of a fixed number of rows.  Each chunk sets one
Philox's counter to each sample's ``i << 128`` in turn; Box-Muller then runs
over the whole chunk, in place in the chunk's draw buffer, and one matrix
product maps it.  The last chunk is padded with zero rows, so every sample
passes through the same matrix-product shapes at the same row position and
its bytes depend only on ``(seed, i)``, not on the sample count.

Chunks are therefore independent, and a run of several chunks splits them
statically over up to one thread per usable CPU: worker ``w`` takes every
``workers``-th chunk from chunk ``w``, in buffers the calling thread
allocates.  The Philox fills, Box-Muller and the matrix products run in numpy
with the interpreter lock released; the per-row Python loop that sets the
Philox counter does not.  The bytes do not depend on the thread count.
"""

from __future__ import annotations

import os
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

# Normals drawn per chunk: rows per chunk = this // normals per sample.  Fewer
# leave ddpm (d*(S+1) normals per sample) too few rows for efficient matrix
# products; many more spill the Box-Muller temporaries out of cache.
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    """The whole sampler as ``x_0 = T @ draws + offset`` for one draw vector.

    ``draws`` is the initial state ``x_S``, then one noise per ddpm step in
    the order the steps run: step ``s`` maps state ``s + 1`` to ``s``, for
    ``s = S-1, ..., 0``, and its noise is block ``S - s``.  The fold runs
    from the clean end: with ``P_0 = I`` and ``P_{s+1} = P_s W_s``, ``T``'s
    first block is ``P_S``, the noise of step ``s`` has block ``c_s P_s``,
    and ``offset = sum_s P_s o_s``.  ddim has no noise, so its ``T`` is
    ``d x d``.  Validates both inputs.
    """
    schedule.validate()
    _check_psd(target.covariance)
    a, b, c2 = _step_coefficients(schedule.alpha_bar, process)
    d, S = target.dim, len(a)
    T = np.empty((d, d if c2 is None else (S + 1) * d))
    prefix = np.eye(d)
    offset = np.zeros(d)
    for s, (gain, off) in enumerate(_dense_steps(target, schedule.alpha_bar, a, b, range(S))):
        offset += prefix @ off
        if c2 is not None:
            T[:, (S - s) * d : (S - s + 1) * d] = np.sqrt(c2[s]) * prefix
        prefix = prefix @ gain
    T[:, :d] = prefix
    return T, offset


def simulate_reverse(target: DenseGaussian, cfg: SimConfig) -> np.ndarray:
    """Draw ``cfg.samples`` outputs of the reverse process, shape (n, d).

    Both samplers fold all steps into one precomputed affine map of a
    sample's draws (``compose_affine``), applied as one matrix product per
    chunk of samples.  Sample ``i`` depends only on ``(seed, i)``.
    """
    d = target.dim
    n = cfg.samples
    T, offset = compose_affine(target, cfg.schedule, cfg.process)
    M = T.T
    per_sample = M.shape[0]  # initial state, then one z per noisy step
    rows = max(1, _CHUNK_NORMALS // per_sample)
    starts = range(0, n, rows)
    workers = min(len(starts), _usable_cpus())
    out = np.empty((n, d))
    # Each worker's buffers come from the calling thread, so worker threads
    # allocate nothing large (freed memory would stay in per-thread arenas).
    buffers = [
        (
            np.empty((rows, per_sample)),
            np.empty((rows, 2 * ((per_sample + 1) // 2))),
            np.empty((rows, d)),
        )
        for _ in range(workers)
    ]

    def run(w: int) -> None:
        draws, scratch, tmp = buffers[w]
        for start in starts[w::workers]:
            m = min(rows, n - start)
            _chunk_stream_normals(cfg.seed, start, m, per_sample, draws[:m], scratch[:m])
            draws[m:] = 0.0
            np.matmul(draws, M, out=tmp)
            np.add(tmp[:m], offset, out=out[start : start + m])

    if workers == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))
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
