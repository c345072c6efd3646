import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize_scalar

from diffsched import (
    DenseGaussian,
    EstimationConfig,
    circulant_projection,
    pca_truncate,
    sliding_window_covariance,
    spectral_model_from_covariance,
    synthetic_circulant_model,
)
from diffsched.estimate import (
    STRUCTURES,
    CovarianceEstimate,
    _circulant_matrix,
    covariance_from_windows,
)

from conftest import toeplitz_average


# ------------------------------------------------------- synthetic model


def test_synthetic_model_shapes_and_psd(benchmark_model):
    dense, model = benchmark_model
    assert dense.covariance.shape == (50, 50)
    np.testing.assert_array_equal(dense.covariance, dense.covariance.T)
    assert np.min(np.linalg.eigvalsh(dense.covariance)) >= -1e-12
    assert model.dim == 50
    assert model.mean_spectral[0] == pytest.approx(0.05 * np.sqrt(50))
    assert np.all(model.mean_spectral[1:] == 0)


def test_synthetic_eigenvalues_match_dense_eigensolver(benchmark_model):
    dense, model = benchmark_model
    dense_eigs = np.sort(np.linalg.eigvalsh(dense.covariance))
    np.testing.assert_allclose(np.sort(model.eigenvalues), dense_eigs, atol=1e-10)


def test_synthetic_rejects_bad_params():
    # each argument is checked, by name, before any arithmetic
    for args, message in (
        ((1, 0.1, 0.0), "d must be an integer >= 2, got 1"),
        ((2.5, 0.1, 0.0), "d must be an integer >= 2, got 2.5"),
        ((True, 0.1, 0.0), "d must be an integer >= 2, got True"),
        ((8, 0.0, 0.0), "l must be finite and positive, got 0.0"),
        ((8, np.inf, 0.0), "l must be finite and positive, got inf"),
        ((8, np.nan, 0.0), "l must be finite and positive, got nan"),
        ((8, 0.1, np.inf), "mu_const must be finite, got inf"),
        ((8, 0.1, np.nan), "mu_const must be finite, got nan"),
    ):
        with pytest.raises(ValueError) as info:
            synthetic_circulant_model(*args)
        assert str(info.value) == message
    assert synthetic_circulant_model(np.int64(8), 0.1, 0.0)[1].dim == 8


# -------------------------------------------------------------- windows


def test_silent_signal_rejected():
    cfg = EstimationConfig(window=4, silence_threshold=0.05)
    with pytest.raises(ValueError):
        sliding_window_covariance(np.zeros(64), cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
def test_bad_silence_threshold_rejected(value):
    with pytest.raises(ValueError, match="^silence_threshold must be finite and >= 0"):
        EstimationConfig(window=4, silence_threshold=value)
    with pytest.raises(ValueError, match="^silence_threshold must be finite and >= 0"):
        covariance_from_windows(np.ones((3, 4)), silence_threshold=value)


def test_alternating_signal_all_windows_accepted():
    signal = np.tile([1.0, -1.0], 32)
    cfg = EstimationConfig(window=4, silence_threshold=0.05)
    est = sliding_window_covariance(signal, cfg)
    assert est.windows_rejected == 0
    assert est.windows_used == 16  # non-overlapping windows by default


def test_window_counts_add_up():
    rng = np.random.default_rng(0)
    signal = np.concatenate([np.zeros(40), rng.normal(size=40)])
    cfg = EstimationConfig(window=8, stride=4, silence_threshold=0.05)
    est = sliding_window_covariance(signal, cfg)
    total = len(range(0, len(signal) - cfg.window + 1, cfg.stride))
    assert est.windows_used + est.windows_rejected == total
    assert est.windows_rejected > 0


def test_each_estimate_is_checked_once(monkeypatch):
    # the estimate is the one checked Gaussian built from the loud windows,
    # with the bytes of their empirical moments
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(40, 6))
    mean = windows.mean(axis=0)
    centered = windows - mean
    covariance = centered.T @ centered / (len(windows) - 1)
    covariance = 0.5 * (covariance + covariance.T)
    checks = []
    check = DenseGaussian.__post_init__
    monkeypatch.setattr(DenseGaussian, "__post_init__", lambda g: checks.append(check(g)))
    est = covariance_from_windows(windows, silence_threshold=0.0)
    assert isinstance(est, CovarianceEstimate) and len(checks) == 1
    assert est.mean.tobytes() == mean.tobytes()
    assert est.covariance.tobytes() == covariance.tobytes()
    sliding_window_covariance(windows.ravel(), EstimationConfig(window=6))
    assert len(checks) == 2


@pytest.mark.parametrize("window, stride", [(400, 400), (400, 150), (8, 4), (50, 1)])
def test_sliding_windows_equal_the_sliced_loop(window, stride):
    # The reference builds each window by slicing, as a hand loop would.
    rng = np.random.default_rng(window + stride)
    signal = rng.normal(size=4_000) * np.repeat([1, 0, 1, 1, 0, 0, 1, 1], 500)  # gated
    starts = range(0, len(signal) - window + 1, stride)
    expected = covariance_from_windows(
        np.stack([signal[s : s + window] for s in starts]), silence_threshold=0.3
    )
    est = sliding_window_covariance(
        signal, EstimationConfig(window=window, stride=stride, silence_threshold=0.3)
    )
    assert est.windows_used == expected.windows_used > 0
    assert est.windows_rejected == expected.windows_rejected > 0
    assert est.mean.tobytes() == expected.mean.tobytes()
    assert est.covariance.tobytes() == expected.covariance.tobytes()


def test_window_covariance_recovers_known_gaussian():
    rng = np.random.default_rng(3)
    d = 16
    raw = rng.normal(size=(d, d)) / np.sqrt(d)
    cov_true = raw @ raw.T + 0.1 * np.eye(d)
    chol = np.linalg.cholesky(cov_true)
    windows = rng.standard_normal((100_000, d)) @ chol.T
    est = covariance_from_windows(windows, silence_threshold=0.0)
    assert np.max(np.abs(est.covariance - cov_true)) <= 0.02


@pytest.mark.parametrize("levels, used", [([0.0], 0), ([1.0], 1), ([1.0, 0.1], 1), ([0.1, 0.2], 0)])
def test_fewer_than_two_loud_windows_rejected(levels, used):
    # one loud window would give an all-zero covariance, none an empty mean
    windows = np.outer(levels, [1.0, -2.0, 3.0])
    message = rf"^need at least 2 windows at or above the silence threshold 0.5, got {used} of "
    with pytest.raises(ValueError, match=message + f"{len(levels)}$"):
        covariance_from_windows(windows, silence_threshold=0.5)


@pytest.mark.parametrize("shape", [(8,), (2, 2, 2)])
def test_windows_that_are_not_rows_rejected(shape):
    with pytest.raises(ValueError, match=rf"^windows must be 2-D, got shape {re.escape(str(shape))}$"):
        covariance_from_windows(np.ones(shape), silence_threshold=0.0)


def test_stream_shorter_than_window_rejected():
    with pytest.raises(ValueError):
        sliding_window_covariance(np.ones(3), EstimationConfig(window=8))


# ----------------------------------------------------- toeplitz average


def test_toeplitz_input_returns_first_row():
    row = np.array([3.0, 1.0, 0.5, 0.25])
    n = 4
    T = np.array([[row[abs(i - j)] for j in range(n)] for i in range(n)])
    np.testing.assert_allclose(toeplitz_average(T), row, atol=1e-15)


def test_toeplitz_two_by_two():
    np.testing.assert_allclose(
        toeplitz_average(np.array([[1.0, 2.0], [2.0, 3.0]])), [2.0, 2.0]
    )


def test_toeplitz_average_is_frobenius_projection():
    # Least-squares oracle: fit first-row parameters so the symmetric
    # Toeplitz matrix they define is Frobenius-closest to the input.
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(5, 5))
    sym = 0.5 * (raw + raw.T)
    design = []
    target = []
    for i in range(5):
        for j in range(5):
            basis = np.zeros(5)
            basis[abs(i - j)] = 1.0
            design.append(basis)
            target.append(sym[i, j])
    oracle, *_ = np.linalg.lstsq(np.array(design), np.array(target), rcond=None)
    np.testing.assert_allclose(toeplitz_average(sym), oracle, atol=1e-12)


# ------------------------------------------------- circulant projection


def test_projection_keeps_lag_zero():
    row = np.array([5.0, 1.0, 2.0, 3.0])
    assert circulant_projection(row)[0] == 5.0


def test_projection_fixed_point():
    row = np.array([5.0, 1.0, 2.0, 1.0])  # already circulant-consistent
    np.testing.assert_allclose(circulant_projection(row), row, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_projection_matches_per_lag_quadratic_oracle(n):
    # Oracle: minimize (x - row[k])^2 (n-k) + (x - row[n-k])^2 k per lag by
    # one-dimensional numeric search.
    rng = np.random.default_rng(n)
    row = rng.normal(size=n)
    got = circulant_projection(row)
    assert got[0] == row[0]
    for k in range(1, n):
        res = minimize_scalar(
            lambda x: (x - row[k]) ** 2 * (n - k) + (x - row[n - k]) ** 2 * k,
            bounds=(-10, 10),
            method="bounded",
            options={"xatol": 1e-14},
        )
        assert got[k] == pytest.approx(res.x, abs=1e-8)
        # exact stationary point for the same objective
        exact = (row[k] * (n - k) + row[n - k] * k) / n
        assert got[k] == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 401])
def test_projection_equals_per_lag_loop_bitwise(n):
    rng = np.random.default_rng(n)
    row = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    expected = row.copy()
    for k in range(1, n):
        expected[k] = (row[k] * (n - k) + row[n - k] * k) / n
    np.testing.assert_array_equal(circulant_projection(row), expected)


def test_projection_reconstruction_diagonalizes():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(6, 6))
    sym = raw @ raw.T
    circ_row = circulant_projection(toeplitz_average(sym))
    C = _circulant_matrix(circ_row)
    np.testing.assert_allclose(C, C.T, atol=1e-12)
    fft_eigs = np.sort(np.fft.fft(circ_row).real)
    dense_eigs = np.sort(np.linalg.eigvalsh(C))
    np.testing.assert_allclose(fft_eigs, dense_eigs, atol=1e-10)


# ------------------------------------------- circulant eigenvalues, one read


def circulant_eigenvalues(cov):
    """The circulant model's eigenvalues before the clamp at zero.

    The route is linear and negating every entry of ``C`` negates every
    rounded sum, so the clamped eigenvalues of ``C`` and ``-C`` are the
    positive and negative parts of the same values.
    """
    d = len(cov)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plus, minus = (
            spectral_model_from_covariance(DenseGaussian(np.zeros(d), sign * cov), "circulant")
            for sign in (1.0, -1.0)
        )
    return plus.eigenvalues - minus.eigenvalues


@pytest.mark.parametrize("definite", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 51, 400])
def test_circulant_eigenvalues_match_toeplitz_projection_oracle(d, definite):
    # The cyclic-diagonal means are the circulant projection of the Toeplitz
    # average; the two-stage oracle sums each lag in another order, so the
    # gate is rounding-sized: 1e-14 of the largest |eigenvalue|.
    rng = np.random.default_rng(d)
    raw = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-2, 2, size=d)
    if definite:
        cov = raw @ raw.T
    else:  # trace -d, so some eigenvalue is negative (at d = 1, the only one)
        sym = 0.5 * (raw + raw.T)
        cov = sym - (np.trace(sym) / d + 1.0) * np.eye(d)
    oracle = np.fft.fft(circulant_projection(toeplitz_average(cov))).real
    got = circulant_eigenvalues(cov)
    assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    if definite:  # a PSD covariance has a nonnegative averaged periodogram
        assert np.all(oracle >= -1e-14 * np.max(oracle))
    else:
        assert np.min(oracle) < 0.0


@st.composite
def symmetric_matrices(draw):
    d = draw(st.integers(1, 24))
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    raw = draw(arrays(float, (d, d), elements=entries))
    return 0.5 * (raw + raw.T)


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices(), st.integers(0, 23))
def test_circulant_eigenvalues_sum_to_trace_and_ignore_cyclic_shifts(cov, shift):
    # Both hold exactly for the cyclic-diagonal means; rounding moves each
    # sum by a few ulps of the entries summed, within 1e-13 of sum |C_ij|.
    eigenvalues = circulant_eigenvalues(cov)
    gate = 1e-13 * np.abs(cov).sum()
    assert abs(eigenvalues.sum() - np.trace(cov)) <= gate
    shifted = np.roll(cov, shift, axis=(0, 1))  # P C P^T for the cyclic shift P
    assert np.max(np.abs(circulant_eigenvalues(shifted) - eigenvalues)) <= gate


# ---------------------------------------------------- model construction


def test_diagonal_covariance_symmetric_path():
    est = CovarianceEstimate(
        mean=np.array([1.0, 2.0, 3.0]),
        covariance=np.diag([0.5, 3.0, 1.0]),
        windows_used=10,
        windows_rejected=0,
    )
    model = spectral_model_from_covariance(est, "symmetric")
    np.testing.assert_allclose(model.eigenvalues, [3.0, 1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(np.abs(model.mean_spectral), [2.0, 3.0, 1.0], atol=1e-12)


def test_circulant_covariance_gives_fft_coefficients():
    row = np.array([4.0, 1.0, 0.5, 1.0])
    C = _circulant_matrix(row)
    est = CovarianceEstimate(mean=np.zeros(4), covariance=C, windows_used=1, windows_rejected=0)
    model = spectral_model_from_covariance(est, "circulant")
    np.testing.assert_allclose(model.eigenvalues, np.fft.fft(row).real, atol=1e-12)


def test_cross_method_agreement_on_benchmark(benchmark_model):
    dense, model = benchmark_model
    est = CovarianceEstimate(
        mean=dense.mean, covariance=dense.covariance, windows_used=1, windows_rejected=0
    )
    symmetric = spectral_model_from_covariance(est, "symmetric")
    circulant = spectral_model_from_covariance(est, "circulant")
    np.testing.assert_allclose(
        np.sort(symmetric.eigenvalues), np.sort(circulant.eigenvalues), atol=1e-10
    )
    np.testing.assert_allclose(np.sort(circulant.eigenvalues), np.sort(model.eigenvalues), atol=1e-10)


def test_total_variance_preserved():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(12, 12))
    cov = raw @ raw.T  # PSD, no flooring involved
    est = CovarianceEstimate(mean=np.zeros(12), covariance=cov, windows_used=1, windows_rejected=0)
    model = spectral_model_from_covariance(est, "symmetric")
    assert np.sum(model.eigenvalues) == pytest.approx(np.trace(cov), rel=1e-8)


def test_negative_eigenvalues_clamped_with_warning():
    est = CovarianceEstimate(
        mean=np.zeros(2),
        covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        windows_used=1,
        windows_rejected=0,
    )
    with pytest.warns(UserWarning, match="clamped"):
        model = spectral_model_from_covariance(est, "symmetric")
    assert np.all(model.eigenvalues >= 0)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("d", [7, 50, 400])
def test_rounding_level_negatives_clamped_without_warning(d, structure):
    # The synthetic target's DC eigenvalue is exactly zero and rounds either
    # way; a negative at rounding level is clamped in silence.
    dense, _ = synthetic_circulant_model(d, 0.1, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = spectral_model_from_covariance(dense, structure)
    assert np.all(model.eigenvalues >= 0)


@pytest.mark.parametrize("structure", ["toeplitz", "Circulant", ""])
def test_unknown_structure_rejected(structure):
    dense, _ = synthetic_circulant_model(4, 0.1, 0.05)
    message = f"structure must be 'circulant' or 'symmetric', got {structure!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spectral_model_from_covariance(dense, structure)


# ------------------------------------------------------------------ pca


def test_pca_identity_up_to_sorting(benchmark_model):
    _, model = benchmark_model
    full = pca_truncate(model, model.dim)
    np.testing.assert_allclose(
        np.sort(full.eigenvalues), np.sort(model.eigenvalues), atol=0
    )
    assert full.dim == model.dim


def test_pca_keep_one():
    est = CovarianceEstimate(
        mean=np.array([7.0, 9.0]),
        covariance=np.diag([3.0, 1.0]),
        windows_used=1,
        windows_rejected=0,
    )
    reduced = pca_truncate(spectral_model_from_covariance(est, "symmetric"), 1)
    assert reduced.dim == 1
    assert reduced.eigenvalues[0] == pytest.approx(3.0)
    assert abs(reduced.mean_spectral[0]) == pytest.approx(7.0)


def test_pca_rejects_bad_dimension(benchmark_model):
    dense, model = benchmark_model
    with pytest.raises(ValueError):
        pca_truncate(model, 0)
    with pytest.raises(ValueError):
        pca_truncate(model, model.dim + 1)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"^d_reduced must be an integer, got {bad}$"):
            pca_truncate(model, bad)
    assert pca_truncate(model, np.int64(2)).dim == 2
    # a dense Gaussian is diagonalized by spectral_model_from_covariance first
    for other in (np.eye(3), dense):
        with pytest.raises(TypeError):
            pca_truncate(other, 2)
