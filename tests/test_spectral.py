import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffsched import (
    GaussianDiag,
    Schedule,
    SpectralModel,
    VeSchedule,
    cosine_schedule,
    ddim_gains,
    ddim_transfer,
    ddpm_transfer,
    intermediate_distribution,
    mean_bias,
    output_distribution,
    synthetic_circulant_model,
    ve_ddim_transfer,
    ve_to_vp,
    vp_to_ve,
    wiener_denoise,
)
from diffsched.spectral import _ddim_ab, _step_gains, _suffix_fold, _trajectory_coefficients

from conftest import random_monotone_alpha_bar


def make_schedule(alpha_bar, eps0=1e-4, epsS=4e-5):
    ab = np.asarray(alpha_bar, dtype=float)
    return Schedule(kind="custom", steps=len(ab) - 1, alpha_bar=ab, eps0=eps0, epsS=epsS)


# ---------------------------------------------------------------- wiener


def test_wiener_identity_at_full_retention():
    model = SpectralModel(dim=3, eigenvalues=[2.0, 0.5, 0.0], mean_spectral=[1.0, -1.0, 3.0])
    v = np.array([0.3, -0.7, 2.0])
    np.testing.assert_allclose(wiener_denoise(model, 1.0, v), v, rtol=0, atol=0)


def test_wiener_prior_limit():
    model = SpectralModel(dim=2, eigenvalues=[2.0, 0.5], mean_spectral=[1.0, -1.0])
    out = wiener_denoise(model, 1e-300, np.array([5.0, 5.0]))
    np.testing.assert_allclose(out, model.mean_spectral, atol=1e-140)


def test_wiener_matches_gaussian_conditioning_oracle():
    # Jointly Gaussian (v0, vt): vt = sqrt(ab) v0 + sqrt(1-ab) eps.  Condition
    # analytically and compare with the closed form.
    lam = np.array([2.0, 0.5])
    mu = np.array([1.0, 0.0])
    ab = 0.5
    v_t = np.array([1.0, 1.0])
    cross = np.sqrt(ab) * lam
    var_t = ab * lam + (1 - ab)
    oracle = mu + cross / var_t * (v_t - np.sqrt(ab) * mu)
    model = SpectralModel(dim=2, eigenvalues=lam, mean_spectral=mu)
    np.testing.assert_allclose(wiener_denoise(model, ab, v_t), oracle, atol=1e-15)


def test_wiener_rejects_bad_inputs():
    model = SpectralModel(dim=2, eigenvalues=[1.0, 1.0], mean_spectral=[0.0, 0.0])
    with pytest.raises(ValueError):
        wiener_denoise(model, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        wiener_denoise(model, 1.5, np.zeros(2))
    with pytest.raises(ValueError):
        wiener_denoise(model, 0.5, np.zeros(3))


# ---------------------------------------------------------------- gains


def test_gains_identity_step():
    a, b = ddim_gains(0.6, 0.6)
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_gains_known_pair():
    a, b = ddim_gains(0.75, 0.25)
    assert a == pytest.approx(0.5773502691896258, abs=1e-12)
    assert b == pytest.approx(0.5773502691896258, abs=1e-12)


def test_gains_agree_with_time_domain_step():
    # One reverse step applied to a scalar state must equal
    # a_s x + b_s wiener(x).
    lam, mu = 1.7, 0.3
    model = SpectralModel(dim=1, eigenvalues=[lam], mean_spectral=[mu])
    ab_prev, ab_cur = 0.75, 0.25
    a, b = ddim_gains(ab_prev, ab_cur)
    x = 0.9
    stepped = a * x + b * wiener_denoise(model, ab_cur, np.array([x]))[0]
    G, M = _step_gains(np.array([lam]), np.array([ab_prev, ab_cur]), *(_ddim_ab(np.array([ab_prev, ab_cur]))))
    assert stepped == pytest.approx(G[0, 0] * x + M[0, 0] * mu, abs=1e-14)


def test_gains_noise_floor_limit():
    a, b = ddim_gains(0.5, 1e-14)
    assert a == pytest.approx(np.sqrt(0.5), rel=1e-7)
    assert b == pytest.approx(np.sqrt(0.5), rel=1e-6)


def test_gains_reject_bad_ordering():
    with pytest.raises(ValueError):
        ddim_gains(0.25, 0.75)
    with pytest.raises(ValueError):
        ddim_gains(1.0, 0.5)


# ---------------------------------------------------------------- transfer


def test_single_step_transfer_by_hand():
    eps0, epsS = 1e-4, 4e-5
    lam = np.array([2.0, 0.1])
    model = SpectralModel(dim=2, eigenvalues=lam, mean_spectral=[1.0, 1.0])
    schedule = make_schedule([1 - eps0, epsS])
    a, b = ddim_gains(1 - eps0, epsS)
    expected_gain = a + b * np.sqrt(epsS) * lam / (epsS * lam + 1 - epsS)
    expected_mean = b * (1 - epsS) / (epsS * lam + 1 - epsS)
    t = ddim_transfer(model, schedule)
    np.testing.assert_allclose(t.noise_gain, expected_gain, rtol=1e-14)
    np.testing.assert_allclose(t.mean_gain, expected_mean, rtol=1e-14)
    assert np.all(t.var_extra == 0.0)


def test_fine_cosine_converges_to_identity():
    model = SpectralModel(dim=3, eigenvalues=np.ones(3), mean_spectral=np.zeros(3))
    t = ddim_transfer(model, cosine_schedule(1000))
    np.testing.assert_allclose(t.noise_gain, 1.0, rtol=0.01)
    np.testing.assert_allclose(t.mean_gain, 1.0, rtol=0.01)


def dense_affine_oracle(covariance, mean, alpha_bar):
    """Fold the reverse steps as dense matrices (no eigenbasis shortcut)."""
    d = covariance.shape[0]
    T = np.eye(d)
    offset = np.zeros(d)
    for s in range(len(alpha_bar) - 1, 0, -1):
        ab = alpha_bar[s]
        a, b = ddim_gains(alpha_bar[s - 1], ab)
        shifted = ab * covariance + (1 - ab) * np.eye(d)
        W = a * np.eye(d) + b * np.sqrt(ab) * np.linalg.solve(shifted, covariance)
        o = b * (1 - ab) * np.linalg.solve(shifted, mean)
        T = W @ T
        offset = W @ offset + o
    return T, offset


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_matches_dense_composition(seed):
    rng = np.random.default_rng(seed)
    d = 6
    raw = rng.normal(size=(d, d))
    covariance = raw @ raw.T / d
    mean = rng.normal(size=d)
    ab = random_monotone_alpha_bar(rng, 12)

    eigvals, eigvecs = np.linalg.eigh(covariance)
    model = SpectralModel(dim=d, eigenvalues=np.clip(eigvals, 0, None), mean_spectral=eigvecs.T @ mean)
    t = ddim_transfer(model, make_schedule(ab))

    T, offset = dense_affine_oracle(covariance, mean, ab)
    conjugated = eigvecs.T @ T @ eigvecs
    np.testing.assert_allclose(np.diag(conjugated), t.noise_gain, atol=1e-10)
    np.testing.assert_allclose(
        conjugated - np.diag(np.diag(conjugated)), 0.0, atol=1e-10
    )
    np.testing.assert_allclose(eigvecs.T @ offset, t.mean_gain * model.mean_spectral, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 30))
def test_step_gains_positive_for_monotone_schedules(seed, S):
    rng = np.random.default_rng(seed)
    ab = random_monotone_alpha_bar(rng, S)
    a, b = _ddim_ab(ab)
    assert np.all(b >= -1e-15)
    lam = rng.uniform(0.0, 5.0, size=4)
    G, _ = _step_gains(lam, ab, a, b)
    assert np.all(G > 0.0)


def test_transfer_rejects_invalid_schedule():
    model = SpectralModel(dim=1, eigenvalues=[1.0], mean_spectral=[0.0])
    bad = make_schedule([1 - 1e-4, 0.2, 0.5, 4e-5])  # not monotone
    with pytest.raises(ValueError):
        ddim_transfer(model, bad)


# ---------------------------------------------------------------- ddpm


def test_ddpm_tied_step_adds_no_variance():
    model = SpectralModel(dim=1, eigenvalues=[1.0], mean_spectral=[0.0])
    # interior tie: the middle step repeats the same retention level
    schedule = make_schedule([1 - 1e-4, 0.5, 0.5, 4e-5])
    t = ddpm_transfer(model, schedule)
    untied = ddpm_transfer(model, make_schedule([1 - 1e-4, 0.5, 4e-5]))
    assert t.var_extra[0] == pytest.approx(untied.var_extra[0], rel=1e-12)


def test_ddpm_two_step_scalar_oracle():
    # Hand-composed scalar steps: variance accumulates as
    # c_1^2 + G_1^2 c_2^2 and the gain is G_1 G_2.
    import math

    eps0, epsS = 1e-4, 4e-5
    ab = [1 - eps0, 0.5, epsS]
    lam = 1.0

    def step(ab_prev, ab_cur):
        step_alpha = ab_cur / ab_prev
        a = (step_alpha - ab_cur) / (math.sqrt(step_alpha) * (1 - ab_cur))
        b = math.sqrt(ab_prev) * (1 - step_alpha) / (1 - ab_cur)
        c2 = (1 - ab_prev) / (1 - ab_cur) * (1 - step_alpha)
        G = a + b * math.sqrt(ab_cur) * lam / (ab_cur * lam + 1 - ab_cur)
        return G, c2

    G1, c21 = step(ab[0], ab[1])
    G2, c22 = step(ab[1], ab[2])
    model = SpectralModel(dim=1, eigenvalues=[lam], mean_spectral=[0.0])
    t = ddpm_transfer(model, make_schedule(ab))
    assert t.noise_gain[0] == pytest.approx(G1 * G2, rel=1e-14)
    assert t.var_extra[0] == pytest.approx(c21 + G1**2 * c22, rel=1e-14)
    dist = output_distribution(t, model)
    assert dist.variance[0] == pytest.approx((G1 * G2) ** 2 + c21 + G1**2 * c22, rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    eigenvalues=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e4, allow_nan=False)), min_size=1, max_size=8
    ),
    seed=st.integers(0, 2**32 - 1),
    S=st.integers(1, 40),
    tie=st.booleans(),
)
def test_transfers_finite_and_ddpm_extra_variance_nonnegative(eigenvalues, seed, S, tie):
    rng = np.random.default_rng(seed)
    ab = random_monotone_alpha_bar(rng, S)
    if tie and S > 2:
        ab[2] = ab[1]  # a tied interior step
    d = len(eigenvalues)
    model = SpectralModel(dim=d, eigenvalues=eigenvalues, mean_spectral=rng.normal(size=d))
    schedule = make_schedule(ab)
    transfers = [
        ddim_transfer(model, schedule),
        ddpm_transfer(model, schedule),
        ve_ddim_transfer(model, vp_to_ve(schedule)),
    ]
    for t in transfers:
        for field in (t.noise_gain, t.mean_gain, t.var_extra):
            assert np.all(np.isfinite(field))
    assert np.all(transfers[1].var_extra >= 0.0)
    assert np.all(transfers[0].var_extra == 0.0)


# ------------------------------------------------- intermediate / output


def test_intermediate_endpoints(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(16)
    top = intermediate_distribution(model, schedule, 16)
    np.testing.assert_array_equal(top.mean, np.zeros(model.dim))
    np.testing.assert_array_equal(top.variance, np.ones(model.dim))

    bottom = intermediate_distribution(model, schedule, 0)
    t = ddim_transfer(model, schedule)
    np.testing.assert_allclose(bottom.variance, t.noise_gain**2, atol=1e-14)
    np.testing.assert_allclose(bottom.mean, t.mean_gain * model.mean_spectral, atol=1e-14)


def test_intermediate_single_step(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(16)
    ab = schedule.alpha_bar
    a, b = ddim_gains(ab[15], ab[16])
    lam = model.eigenvalues
    G = a + b * np.sqrt(ab[16]) * lam / (ab[16] * lam + 1 - ab[16])
    M = b * (1 - ab[16]) / (ab[16] * lam + 1 - ab[16])
    got = intermediate_distribution(model, schedule, 15)
    np.testing.assert_allclose(got.variance, G**2, rtol=1e-12)
    np.testing.assert_allclose(got.mean, M * model.mean_spectral, rtol=1e-12)


def test_intermediate_rejects_out_of_range(benchmark_model):
    _, model = benchmark_model
    with pytest.raises(ValueError):
        intermediate_distribution(model, cosine_schedule(16), 17)


def test_output_distribution_zero_mean():
    model = SpectralModel(dim=2, eigenvalues=[1.0, 2.0], mean_spectral=[0.0, 0.0])
    t = ddim_transfer(model, cosine_schedule(8))
    dist = output_distribution(t, model)
    np.testing.assert_array_equal(dist.mean, np.zeros(2))
    np.testing.assert_array_equal(dist.variance, t.noise_gain**2)


# ---------------------------------------------------------------- bias


def test_mean_bias_zero_cases(benchmark_model):
    _, model = benchmark_model
    centered = SpectralModel(
        dim=model.dim, eigenvalues=model.eigenvalues, mean_spectral=np.zeros(model.dim)
    )
    t = ddim_transfer(centered, cosine_schedule(12))
    bias, deviation = mean_bias(t, centered)
    np.testing.assert_array_equal(bias, np.zeros(model.dim))
    assert np.all(deviation >= 0)


def test_mean_bias_zero_at_unit_gain():
    from diffsched import Transfer

    model = SpectralModel(dim=3, eigenvalues=[1.0, 2.0, 3.0], mean_spectral=[1.0, -2.0, 0.5])
    t = Transfer(np.ones(3), np.ones(3), np.zeros(3))
    bias, deviation = mean_bias(t, model)
    np.testing.assert_array_equal(bias, np.zeros(3))
    np.testing.assert_array_equal(deviation, np.zeros(3))


def test_mean_bias_grows_with_depth(benchmark_model):
    _, model = benchmark_model
    peaks = []
    for S in (10, 100, 1000):
        t = ddim_transfer(model, cosine_schedule(S, 0, 0.5, 1))
        _, deviation = mean_bias(t, model)
        peaks.append(deviation.max())
    assert peaks[0] <= peaks[1] <= peaks[2]


# ---------------------------------------------------------------- vp/ve


def test_sigma_of_half_retention():
    schedule = make_schedule([1 - 1e-4, 0.5, 4e-5])
    ve = vp_to_ve(schedule)
    assert ve.sigma[1] == pytest.approx(1.0, rel=1e-15)


@st.composite
def _valid_schedules(draw):
    """Nonincreasing levels in (0, 1), drawn partly from a small grid so that
    ties and levels next to 0 and 1 are common.  The smallest level keeps
    ``sigma`` finite: below about 1e-308, ``(1 - ab) / ab`` overflows."""
    steps = draw(st.integers(1, 40))
    near = st.sampled_from([1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-4, 0.5, 1e-4, 1e-12, 1e-300])
    level = near | st.floats(1e-300, 1.0, exclude_max=True)
    ab = np.sort(draw(st.lists(level, min_size=steps + 1, max_size=steps + 1)))[::-1]
    return make_schedule(ab, eps0=1.0 - ab[0], epsS=ab[-1])


@settings(max_examples=200, deadline=None)
@given(schedule=_valid_schedules())
@example(schedule=cosine_schedule(28))
def test_round_trip_is_identity(schedule):
    back = ve_to_vp(vp_to_ve(schedule))
    assert np.max(np.abs(back.alpha_bar - schedule.alpha_bar)) <= 1e-12


def test_ve_rejects_infinite_sigma():
    ve = VeSchedule(steps=1, sigma=np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        ve_to_vp(ve)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ve_rejects_non_finite_sigma(bad):
    ve = VeSchedule(steps=2, sigma=np.array([0.01, bad, 80.0]))
    with pytest.raises(ValueError, match="^sigma must be finite"):
        ve.validate()
    with pytest.raises(ValueError, match="^sigma must be finite"):
        ve_to_vp(ve)


@pytest.mark.parametrize(
    "sigma, level",
    [([0.0, 1.0], 0), ([1e-9, 1.0], 0), ([0.1, 1.0, 1e200], 2)],
    ids=["zero", "rounds-to-one", "overflows-to-zero"],
)
def test_ve_to_vp_rejects_sigma_outside_the_retention_range(sigma, level):
    # sigma = 0 (or one so small that 1 + sigma**2 rounds to 1) would give
    # alpha_bar = 1, and one whose square overflows alpha_bar = 0: neither is
    # a valid strict-interior schedule, so the conversion refuses both
    ve = VeSchedule(steps=len(sigma) - 1, sigma=np.array(sigma))
    with pytest.raises(ValueError, match=rf"^sigma\[{level}\]="):
        ve_to_vp(ve)
    assert ve_to_vp(VeSchedule(steps=1, sigma=np.array([1e-7, 1.0]))).alpha_bar[1] == 0.5


def test_ve_gain_scalar_example():
    # Retention pair (0.99, 0.25) on a unit eigenvalue: the exploding-form
    # gains relate to the preserving-form ones by the sqrt retention ratios.
    model = SpectralModel(dim=1, eigenvalues=[1.0], mean_spectral=[0.0])
    ab = np.array([0.99, 0.25])
    sig = np.sqrt((1 - ab) / ab)
    ve_t = ve_ddim_transfer(model, VeSchedule(steps=1, sigma=sig))
    vp_t = ddim_transfer(
        model,
        Schedule(kind="custom", steps=1, alpha_bar=ab, eps0=1 - ab[0], epsS=ab[-1]),
    )
    assert ve_t.noise_gain[0] == pytest.approx(0.29352, abs=5e-6)
    assert vp_t.noise_gain[0] == pytest.approx(0.58410, abs=5e-6)
    assert ve_t.mean_gain[0] == pytest.approx(0.70648, abs=5e-6)
    assert vp_t.mean_gain[0] == pytest.approx(0.70294, abs=5e-6)
    assert vp_t.noise_gain[0] == pytest.approx(np.sqrt(ab[0] / ab[1]) * ve_t.noise_gain[0], rel=1e-12)
    assert vp_t.mean_gain[0] == pytest.approx(np.sqrt(ab[0]) * ve_t.mean_gain[0], rel=1e-12)


def test_vp_ve_gain_relation_full_schedule(benchmark_model):
    # Per-step relation across a whole schedule, checked through the
    # composed transfers of matching sub-schedules.
    _, model = benchmark_model
    schedule = cosine_schedule(24)
    ab = schedule.alpha_bar
    sigma = np.sqrt((1 - ab) / ab)
    lam = model.eigenvalues
    for s in range(1, 25):
        a, b = ddim_gains(ab[s - 1], ab[s])
        Gvp = a + b * np.sqrt(ab[s]) * lam / (ab[s] * lam + 1 - ab[s])
        Mvp = b * (1 - ab[s]) / (ab[s] * lam + 1 - ab[s])
        av = sigma[s - 1] / sigma[s]
        bv = 1 - av
        Gve = av + bv * lam / (lam + sigma[s] ** 2)
        Mve = bv * sigma[s] ** 2 / (lam + sigma[s] ** 2)
        np.testing.assert_allclose(Gvp, np.sqrt(ab[s - 1] / ab[s]) * Gve, atol=1e-10)
        np.testing.assert_allclose(Mvp, np.sqrt(ab[s - 1]) * Mve, atol=1e-10)


@pytest.mark.parametrize("S", [1, 10, 112, 250])
def test_trajectory_coefficients_equal_step_loop_bitwise(S):
    rng = np.random.default_rng(S)
    G, M = rng.uniform(0.5, 1.5, size=(S, 7)), rng.normal(size=(S, 7))
    A_ref, B_ref = np.ones((S + 1, 7)), np.zeros((S + 1, 7))
    for s in range(S, 0, -1):
        A_ref[s - 1] = G[s - 1] * A_ref[s]
        B_ref[s - 1] = G[s - 1] * B_ref[s] + M[s - 1]
    A, B = _trajectory_coefficients(G, M)
    np.testing.assert_array_equal(A, A_ref)
    np.testing.assert_array_equal(B, B_ref)


def test_ve_transfer_tied_step_is_identity():
    model = SpectralModel(dim=2, eigenvalues=[1.0, 2.0], mean_spectral=[0.0, 0.0])
    ve = VeSchedule(steps=1, sigma=np.array([3.0, 3.0]))
    t = ve_ddim_transfer(model, ve)
    np.testing.assert_allclose(t.noise_gain, 1.0, atol=1e-15)
    np.testing.assert_allclose(t.mean_gain, 0.0, atol=1e-15)


def test_ve_transfer_rejects_zero_interior_sigma():
    model = SpectralModel(dim=1, eigenvalues=[1.0], mean_spectral=[0.0])
    with pytest.raises(ValueError):
        ve_ddim_transfer(model, VeSchedule(steps=2, sigma=np.array([0.0, 0.0, 1.0])))


def ve_per_step_oracle(lam, sigma):
    """Exploding-form transfer as a direct product of per-step gains:
    ``G = a + (1-a) lam / (lam + sigma_s**2)`` and
    ``M = (1-a) sigma_s**2 / (lam + sigma_s**2)`` with ``a = sigma_{s-1} / sigma_s``."""
    noise_gain, mean_gain = np.ones_like(lam), np.zeros_like(lam)
    for s in range(len(sigma) - 1, 0, -1):
        a = sigma[s - 1] / sigma[s]
        G = a + (1 - a) * lam / (lam + sigma[s] ** 2)
        M = (1 - a) * sigma[s] ** 2 / (lam + sigma[s] ** 2)
        noise_gain, mean_gain = G * noise_gain, G * mean_gain + M
    return noise_gain, mean_gain


@pytest.mark.parametrize(
    "ve",
    [vp_to_ve(cosine_schedule(28)), VeSchedule(steps=4, sigma=np.array([0.0, 0.3, 1.0, 1.0, 80.0]))],
    ids=["cosine28", "sigma0-zero"],
)
def test_ve_transfer_matches_per_step_product(benchmark_model, ve):
    # the transfer runs through the retention-form kernel; the oracle stays
    # in exploding form step by step
    _, model = benchmark_model
    t = ve_ddim_transfer(model, ve)
    noise_gain, mean_gain = ve_per_step_oracle(model.eigenvalues, ve.sigma)
    np.testing.assert_allclose(t.noise_gain, noise_gain, rtol=1e-12, atol=0)
    np.testing.assert_allclose(t.mean_gain, mean_gain, rtol=1e-12, atol=0)
    assert np.all(t.var_extra == 0.0)
    assert (t.process, t.formulation) == ("ddim", "ve")


# ---------------------------------------------------------------- types


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel(dim=2, eigenvalues=[1.0], mean_spectral=[0.0, 0.0])
    with pytest.raises(ValueError):
        SpectralModel(dim=1, eigenvalues=[-1.0], mean_spectral=[0.0])


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule([0.9, 4e-5]).validate()  # endpoint mismatch
    with pytest.raises(ValueError):
        make_schedule([1 - 1e-4, 1.5, 4e-5]).validate()  # out of (0,1)
    with pytest.raises(ValueError):
        make_schedule([1 - 1e-4, 0.2, 0.8, 4e-5]).validate()  # not monotone
    # non-monotone passes when monotonicity is not required
    make_schedule([1 - 1e-4, 0.2, 0.8, 4e-5]).validate(require_monotone=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha_bar", "eps0", "epsS"])
def test_schedule_rejects_non_finite(field, bad):
    schedule = make_schedule([1 - 1e-4, 0.5, 4e-5])
    if field == "alpha_bar":
        schedule.alpha_bar[1] = bad
    else:
        setattr(schedule, field, bad)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        schedule.validate(require_monotone=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["eigenvalues", "mean_spectral"])
def test_model_rejects_non_finite(field, bad):
    values = {"eigenvalues": [1.0, 2.0], "mean_spectral": [0.0, 0.5]}
    values[field][1] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SpectralModel(dim=2, **values)


def test_gaussian_diag_rejects_negative_variance():
    with pytest.raises(ValueError):
        GaussianDiag(mean=np.zeros(1), variance=np.array([-1.0]))


def test_refinement_narrows_distance(benchmark_model):
    # finer discretization of the same curve gets closer to the target
    from diffsched import w2_loss

    _, model = benchmark_model
    coarse = w2_loss(model, ddim_transfer(model, cosine_schedule(10)))
    fine = w2_loss(model, ddim_transfer(model, cosine_schedule(334)))
    assert fine < coarse


@pytest.mark.parametrize("scale", [1.0, 1e-3], ids=["gains", "underflowing-gains"])
@pytest.mark.parametrize("S", [1, 2, 3, 10, 112, 250])
def test_suffix_fold_matches_step_loop(S, scale):
    # The log-depth scan against the step loop it replaces in the gradient.
    # Its error is measured against the same fold of |G| and |M|, the size
    # rounding is relative to; gains scaled by 1e-3 make the products
    # underflow, which a form dividing by products of G would not survive.
    rng = np.random.default_rng(S)
    G, M = scale * rng.uniform(0.5, 1.5, size=(S, 7)), rng.normal(size=(S, 7))
    A_ref, B_ref = _trajectory_coefficients(G, M)
    A_abs, B_abs = _trajectory_coefficients(np.abs(G), np.abs(M))
    A, B = _suffix_fold(G, M)
    assert A.shape == B.shape == (S, 7)
    assert np.all(np.abs(B - B_ref[1:]) <= 1e-14 * B_abs[1:])
    # products that leave the normal range only owe an absolute error there
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(A - A_ref[1:]) <= 1e-14 * A_abs[1:] + tiny)
    np.testing.assert_array_equal(A[-1], 1.0)
    np.testing.assert_array_equal(B[-1], 0.0)
