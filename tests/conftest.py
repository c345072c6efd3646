import numpy as np
import pytest

from diffsched import LossKind, synthetic_circulant_model
from diffsched.simulate import _dense_steps
from diffsched.spectral import LAMBDA_FLOOR, _step_coefficients


@pytest.fixture(scope="session")
def benchmark_model():
    """d=50 circulant target with a constant mean (the standard test target)."""
    dense, model = synthetic_circulant_model(50, 0.1, 0.05)
    return dense, model


def random_monotone_alpha_bar(rng: np.random.Generator, S: int, eps0=1e-4, epsS=4e-5):
    """A valid random schedule vector: sorted uniforms with pinned endpoints."""
    interior = np.sort(rng.uniform(epsS, 1.0 - eps0, S - 1))[::-1] if S > 1 else np.empty(0)
    return np.concatenate([[1.0 - eps0], interior, [epsS]])


def wiener_denoise(model, alpha_bar: float, v_t) -> np.ndarray:
    """Posterior-mean (linear MMSE) estimate of the clean signal, coordinatewise.

    The generic Gaussian-conditioning formula, the oracle that the step
    kernel is checked against: ``v_t = sqrt(alpha_bar) v_0 + sqrt(1 -
    alpha_bar) eps`` observed at retention level ``alpha_bar`` in (0, 1].
    """
    if not 0.0 < alpha_bar <= 1.0:
        raise ValueError(f"alpha_bar must be in (0, 1], got {alpha_bar}")
    v_t = np.asarray(v_t, dtype=float)
    if v_t.shape != (model.dim,):
        raise ValueError(f"v_t has shape {v_t.shape}, expected ({model.dim},)")
    lam = model.eigenvalues
    denom = alpha_bar * lam + (1.0 - alpha_bar)
    num = np.sqrt(alpha_bar) * lam * v_t + (1.0 - alpha_bar) * model.mean_spectral
    # alpha_bar == 1 with a zero eigenvalue is 0/0; the observation is then
    # noiseless so the posterior mean is v_t itself.
    return np.divide(num, denom, out=v_t.copy(), where=denom > 0.0)


def step_loop(G, M):
    """Trajectory coefficients ``(A, B)``, shape (S+1, d), one step at a time:
    ``A[s-1] = G[s-1] A[s]`` and ``B[s-1] = G[s-1] B[s] + M[s-1]`` from
    ``A[S] = 1``, ``B[S] = 0``."""
    S = len(G)
    A, B = np.ones((S + 1,) + G.shape[1:]), np.zeros((S + 1,) + G.shape[1:])
    for s in range(S, 0, -1):
        A[s - 1] = G[s - 1] * A[s]
        B[s - 1] = G[s - 1] * B[s] + M[s - 1]
    return A, B


def dense_affine_oracle(covariance, mean, alpha_bar):
    """The deterministic sampler's whole-run map ``(T, offset)``, folding its
    reverse steps as dense matrices; never uses the eigenbasis."""
    a, b, _ = _step_coefficients(alpha_bar, "ddim")
    d = covariance.shape[0]
    T = np.eye(d)
    offset = np.zeros(d)
    for s in range(len(alpha_bar) - 1, 0, -1):
        ab = alpha_bar[s]
        shifted = ab * covariance + (1 - ab) * np.eye(d)
        W = a[s - 1] * np.eye(d) + b[s - 1] * np.sqrt(ab) * np.linalg.solve(shifted, covariance)
        o = b[s - 1] * (1 - ab) * np.linalg.solve(shifted, mean)
        T = W @ T
        offset = W @ offset + o
    return T, offset


def dense_ddpm_moments(target, alpha_bar, process):
    """Exact output mean and covariance of the sampler.

    Pushes the moments of ``x_S ~ N(0, I)`` through the dense per-step maps,
    ``m <- W m + o`` and ``C <- W C W^T + c^2 I`` (no ``c^2`` term for
    ddim); never uses the eigenbasis.
    """
    a, b, c2 = _step_coefficients(alpha_bar, process)
    steps = range(len(a) - 1, -1, -1)
    eye = np.eye(target.dim)
    mean, cov = np.zeros(target.dim), eye
    for s, (W, o) in zip(steps, _dense_steps(target, alpha_bar, a, b, steps)):
        mean = W @ mean + o
        cov = W @ cov @ W.T
        if c2 is not None:
            cov += c2[s] * eye
    return mean, cov


def generic_loss(target, basis, eigenvalues, alpha_bar, kind, process):
    """W2 or KL from ``target`` to the sampler's output, by the generic
    Gaussian formulas on :func:`dense_ddpm_moments` read in the target's
    eigenbasis ``basis``; ``alpha_bar`` may be complex (a complex step)."""
    mean, cov = dense_ddpm_moments(target, alpha_bar, process)
    out_mean = basis.T @ mean - basis.T @ target.mean
    out_var = np.einsum("ik,ij,jk->k", basis, cov, basis)
    if kind is LossKind.KL:
        kept = eigenvalues >= LAMBDA_FLOOR
        ratio = eigenvalues[kept] / out_var[kept]
        return 0.5 * np.sum(ratio - 1.0 - np.log(ratio) + out_mean[kept] ** 2 / out_var[kept])
    return np.sum(out_mean**2) + np.sum((np.sqrt(out_var) - np.sqrt(eigenvalues)) ** 2)


def toeplitz_average(covariance):
    """First row of the Frobenius-nearest symmetric Toeplitz matrix, one lag
    at a time: entry ``k`` is the mean of the k-th diagonal, super- and
    sub-diagonal pooled.  With :func:`diffsched.estimate.circulant_projection`
    it is the two-stage oracle for the circulant model's one-read route."""
    cov = np.asarray(covariance, dtype=float)
    row = np.empty(len(cov))
    for k in range(len(cov)):
        upper = np.diagonal(cov, k)
        if k == 0:
            row[k] = upper.mean()
        else:
            row[k] = np.concatenate([upper, np.diagonal(cov, -k)]).mean()
    return row
