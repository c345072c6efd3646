import numpy as np
import pytest

from diffsched import synthetic_circulant_model
from diffsched.simulate import _step_maps


@pytest.fixture(scope="session")
def benchmark_model():
    """d=50 circulant target with a constant mean (the standard test target)."""
    dense, model = synthetic_circulant_model(50, 0.1, 0.05)
    return dense, model


def random_monotone_alpha_bar(rng: np.random.Generator, S: int, eps0=1e-4, epsS=4e-5):
    """A valid random schedule vector: sorted uniforms with pinned endpoints."""
    interior = np.sort(rng.uniform(epsS, 1.0 - eps0, S - 1))[::-1] if S > 1 else np.empty(0)
    return np.concatenate([[1.0 - eps0], interior, [epsS]])


def dense_ddpm_moments(target, alpha_bar):
    """Exact output mean and covariance of the stochastic sampler.

    Pushes the moments of ``x_S ~ N(0, I)`` through the dense per-step maps,
    ``m <- W m + o`` and ``C <- W C W^T + c^2 I``; never uses the eigenbasis.
    """
    gains, offsets, c = _step_maps(target, alpha_bar, "ddpm")
    eye = np.eye(target.dim)
    mean, cov = np.zeros(target.dim), eye
    for W, o, c_s in reversed(list(zip(gains, offsets, c))):
        mean = W @ mean + o
        cov = W @ cov @ W.T + c_s**2 * eye
    return mean, cov
