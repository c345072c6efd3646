import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffsched import (
    OptimizeConfig,
    cosine_schedule,
    edm_schedule,
    fit_parametric,
    linear_schedule,
    optimize_schedule,
    sigmoid_schedule,
    ve_to_vp,
    warm_start_interpolate,
)
from diffsched.spectral import VeSchedule

ALL_GENERATORS = [
    ("linear", lambda S: linear_schedule(S)),
    ("cosine", lambda S: cosine_schedule(S, 0, 1, 1)),
    ("cosine-half", lambda S: cosine_schedule(S, 0, 0.5, 1)),
    ("sigmoid", lambda S: sigmoid_schedule(S, -3, 3, 1)),
    ("sigmoid-late", lambda S: sigmoid_schedule(S, 0, 3, 0.7)),
    ("edm", lambda S: edm_schedule(S, 7)),
]


@pytest.mark.parametrize("name,gen", ALL_GENERATORS)
@pytest.mark.parametrize("S", [1, 10, 112, 1000])
def test_generator_invariants(name, gen, S):
    schedule = gen(S)
    schedule.validate()
    ab = schedule.alpha_bar
    assert ab[0] == pytest.approx(1 - 1e-4, abs=1e-12)
    assert ab[-1] == pytest.approx(4e-5, abs=1e-12)
    assert np.all(np.diff(ab) <= 0)


@pytest.mark.parametrize("name,gen", ALL_GENERATORS)
def test_generators_deterministic(name, gen):
    a = gen(64).alpha_bar
    b = gen(64).alpha_bar
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- linear


def test_linear_raw_product_magnitude():
    # Oracle: the raw 1000-factor product lands at the 4e-5 order of
    # magnitude before endpoint pinning.
    beta = np.linspace(1e-4, 0.02, 1000)
    raw_terminal = np.prod(1.0 - beta)
    assert 1e-5 < raw_terminal < 1.6e-4


def test_linear_single_step_is_endpoints():
    ab = linear_schedule(1).alpha_bar
    np.testing.assert_allclose(ab, [1 - 1e-4, 4e-5], atol=0)


@pytest.mark.parametrize("S", [10, 50, 200, 1000])
def test_linear_monotone(S):
    assert np.all(np.diff(linear_schedule(S).alpha_bar) < 0)


def test_linear_rejects_zero_steps():
    with pytest.raises(ValueError):
        linear_schedule(0)


# ---------------------------------------------------------------- cosine


def test_cosine_raw_midpoint():
    # (0,1,1) normalization is the identity, so the raw curve at t=0.5 is
    # cos^2(pi/4) = 0.5.
    from diffsched.schedules import _cosine_curve

    t = np.array([0.0, 0.5, 1.0])
    curve = _cosine_curve(t, 0.0, 1.0, 1.0)
    assert curve[1] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(curve, np.cos(t * np.pi / 2) ** 2, atol=1e-15)


def test_cosine_half_range_sits_above():
    base = cosine_schedule(64, 0, 1, 1).alpha_bar
    half = cosine_schedule(64, 0, 0.5, 1).alpha_bar
    assert np.all(half[1:-1] > base[1:-1])
    assert np.all(np.diff(half) < 0)


def test_cosine_rejects_bad_params():
    with pytest.raises(ValueError):
        cosine_schedule(10, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        cosine_schedule(10, 0, 1, 0.0)


# ---------------------------------------------------------------- sigmoid


def test_sigmoid_raw_start_value():
    # g(0) = logistic(-s/tau) = logistic(3)
    assert 1 / (1 + np.exp(-3.0)) == pytest.approx(0.9525741268, abs=1e-9)
    ab = sigmoid_schedule(2, -3, 3, 1).alpha_bar
    assert np.all(np.diff(ab) < 0)


def test_sigmoid_symmetric_midpoint():
    # s = -e makes the normalized curve odd-symmetric about t = 1/2.
    from diffsched.schedules import _sigmoid_curve

    v = _sigmoid_curve(np.array([0.0, 0.5, 1.0]), -2.5, 2.5, 0.9)
    assert v[1] == pytest.approx(0.5, abs=1e-12)


def test_sigmoid_late_family_monotone():
    assert np.all(np.diff(sigmoid_schedule(80, 0, 3, 0.7).alpha_bar) < 0)


def test_sigmoid_shape_depends_only_on_s_and_e_over_tau():
    # Why a sigmoid fit cannot identify tau (scaling by a power of two is exact)
    base = sigmoid_schedule(64, -3, 3, 1).alpha_bar
    for k in (2.0, 0.5):
        assert np.array_equal(sigmoid_schedule(64, -3 * k, 3 * k, k).alpha_bar, base)


def test_sigmoid_rejects_bad_params():
    with pytest.raises(ValueError):
        sigmoid_schedule(10, 3, -3, 1)
    with pytest.raises(ValueError):
        sigmoid_schedule(10, -3, 3, -1)


def test_saturating_sigmoid_is_its_step_limit_without_a_warning():
    # exp overflows on half the grid; the curve's limit there, 0, is right
    eps0, epsS = 1e-4, 4e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ab = sigmoid_schedule(8, -3, 3, 1e-3, eps0, epsS).alpha_bar
    limit = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(ab, epsS + limit * (1.0 - eps0 - epsS), rtol=1e-15, atol=0)


def test_flat_cosine_curve_is_refused_without_a_warning():
    # tau = 1e-300 flattens the curve to 0/0: refused as flat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^cosine curve is flat or not finite"):
            cosine_schedule(8, 0, 1, 1e-300)


# ---------------------------------------------------------------- edm


def test_edm_rho_one_is_linear_in_sigma():
    S = 16
    s = np.arange(S + 1)
    sigma = 80 ** (1 / 1) + ((S - s) / S) * (0.002 - 80)
    # reconstruct through the public generator path pre-pinning
    expected = 1 / (1 + sigma**2)
    got = edm_schedule(S, rho=1.0).alpha_bar
    # affine pinning preserves the shape: correlation with expected is exact
    resid = np.corrcoef(expected, got)[0, 1]
    assert resid == pytest.approx(1.0, abs=1e-12)


def test_edm_default_noisiest_level():
    # sigma_max = 80 maps to alpha_bar = 1/6401 before pinning.
    raw = ve_to_vp(VeSchedule(steps=1, sigma=np.array([0.002, 80.0])))
    assert raw.alpha_bar[-1] == pytest.approx(1 / 6401, rel=1e-12)


@pytest.mark.parametrize("S", [10, 112])
@pytest.mark.parametrize("rho", [1.0, 3.0, 7.0])
def test_edm_monotone(S, rho):
    assert np.all(np.diff(edm_schedule(S, rho).alpha_bar) < 0)


def test_edm_rejects_bad_params():
    with pytest.raises(ValueError):
        edm_schedule(10, rho=0.5)
    with pytest.raises(ValueError):
        edm_schedule(10, sigma_min=2.0, sigma_max=1.0)


@pytest.mark.parametrize("field", ["rho", "sigma_min", "sigma_max"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_edm_rejects_non_finite_params_naming_them(field, value):
    # Refused before any power is taken: tier-1 makes a RuntimeWarning an error.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        edm_schedule(10, **{field: value})


# ---------------------------------------------------------- interpolation


def test_interpolation_identity():
    schedule = cosine_schedule(28)
    again = warm_start_interpolate(schedule, 28)
    assert np.max(np.abs(again.alpha_bar - schedule.alpha_bar)) <= 1e-15


def test_interpolation_preserves_monotonicity():
    coarse = linear_schedule(10)
    fine = warm_start_interpolate(coarse, 50)
    fine.validate()
    assert np.all(np.diff(fine.alpha_bar) <= 0)


def test_interpolated_cosine_tracks_direct():
    direct = cosine_schedule(112)
    interpolated = warm_start_interpolate(cosine_schedule(28), 112)
    assert np.max(np.abs(interpolated.alpha_bar - direct.alpha_bar)) <= 0.01


# ---------------------------------------------------------------- fitting


def test_fit_recovers_own_parameters():
    s, e, tau, residual = fit_parametric(cosine_schedule(64, 0, 1, 1), "cosine")
    assert abs(s - 0.0) <= 0.02
    assert abs(e - 1.0) <= 0.02
    assert abs(tau - 1.0) <= 0.02
    assert residual <= 1e-4


def test_fit_mismatched_family_has_larger_residual():
    target = sigmoid_schedule(64, -3, 3, 1)
    *_, cross_residual = fit_parametric(target, "cosine")
    *_, self_residual = fit_parametric(cosine_schedule(64, 0, 1, 1), "cosine")
    assert cross_residual > self_residual
    assert cross_residual > 1e-4


def test_fit_reports_residual_for_arbitrary_schedule():
    # No ground truth asserted; the fit must simply return a finite residual.
    *params, residual = fit_parametric(linear_schedule(40), "sigmoid")
    assert np.isfinite(residual)


def _nelder_mead_residual(schedule, family):
    """The fit's residual by scipy's Nelder-Mead on (s, e, tau), infeasible
    points penalized, from the same grid: the oracle for the L-BFGS fit."""
    from scipy.optimize import minimize

    from diffsched.schedules import _FAMILIES

    curve = _FAMILIES[family]
    t = np.linspace(0.0, 1.0, schedule.steps + 1)
    span = 1.0 - schedule.eps0 - schedule.epsS
    if family == "cosine":
        s_grid, e_grid = np.linspace(0.0, 0.6, 4), np.linspace(0.4, 1.0, 4)
        feasible = lambda s, e, tau: 0.0 <= s < e <= 1.0 and tau > 0.0
    else:
        s_grid, e_grid = np.linspace(-4.0, 1.0, 4), np.linspace(0.0, 5.0, 4)
        feasible = lambda s, e, tau: s < e and tau > 0.0

    def sum_sq(p):
        if not feasible(*p):
            return 1e12
        with np.errstate(all="ignore"):
            value = float(np.sum((schedule.epsS + curve(t, *p) * span - schedule.alpha_bar) ** 2))
        return value if np.isfinite(value) else 1e12

    starts = [(s, e, tau) for s in s_grid for e in e_grid if s < e for tau in (0.5, 1.0, 2.0)]
    starts.sort(key=sum_sq)
    options = {"xatol": 1e-10, "fatol": 1e-16, "maxiter": 4000}
    best = min(minimize(sum_sq, x, method="Nelder-Mead", options=options).fun for x in starts[:3])
    return np.sqrt(best)


def test_fit_matches_nelder_mead(benchmark_model):
    # Exact fits (residuals near 1e-12 for both) are covered by the absolute term.
    _, model = benchmark_model
    optimum, _ = optimize_schedule(model, OptimizeConfig(steps=112))
    targets = [
        cosine_schedule(64, 0, 1, 1),
        sigmoid_schedule(64, -3, 3, 1),
        linear_schedule(40),
        edm_schedule(60),
        optimum,
    ]
    worse = []
    for target in targets:
        for family in ("cosine", "sigmoid"):
            *_, residual = fit_parametric(target, family)
            oracle = _nelder_mead_residual(target, family)
            if residual > (1 + 1e-6) * oracle + 1e-10:
                worse.append((target.kind, family, residual, oracle))
    assert worse == []


def test_fit_rejects_unknown_family():
    with pytest.raises(ValueError):
        fit_parametric(cosine_schedule(10), "spline")


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 200),
    st.floats(0.0, 0.4),
    st.floats(0.6, 1.0),
    st.floats(0.25, 4.0),
)
def test_cosine_family_always_valid(S, s, e, tau):
    cosine_schedule(S, s, e, tau).validate()
