import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffsched import (
    DenseGaussian,
    Schedule,
    SpectralModel,
    Transfer,
    cosine_schedule,
    ddim_transfer,
    ddpm_transfer,
    intermediate_distribution,
    mean_bias,
    synthetic_circulant_model,
    ve_to_vp,
    vp_to_ve,
)
from diffsched.spectral import (
    VeSchedule,
    _ddim_trajectory,
    _step_coefficients,
    _step_dots,
    _transfer_arrays,
)

from conftest import (
    dense_affine_oracle,
    dense_ddpm_moments,
    random_monotone_alpha_bar,
    step_loop,
    wiener_denoise,
)


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
    (a,), (b,), _ = _step_coefficients(np.array([0.6, 0.6]), "ddim")
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_gains_known_pair():
    (a,), (b,), _ = _step_coefficients(np.array([0.75, 0.25]), "ddim")
    assert a == pytest.approx(0.5773502691896258, abs=1e-12)
    assert b == pytest.approx(0.5773502691896258, abs=1e-12)


def test_gains_agree_with_time_domain_step():
    # One reverse step applied to a scalar state must equal
    # a_s x + b_s wiener(x).
    lam, mu = 1.7, 0.3
    model = SpectralModel(dim=1, eigenvalues=[lam], mean_spectral=[mu])
    ab = np.array([0.75, 0.25])
    a, b, _ = _step_coefficients(ab, "ddim")
    x = 0.9
    stepped = a[0] * x + b[0] * wiener_denoise(model, ab[1], np.array([x]))[0]
    (G,) = np.multiply(*_step_dots(np.array([lam]), ab, a))
    # the mean gain is not formed: a step keeps the clean-mean path
    M = np.sqrt(ab[0]) - np.sqrt(ab[1]) * G[0]
    assert stepped == pytest.approx(G[0] * x + M * mu, abs=1e-14)


def test_gains_noise_floor_limit():
    (a,), (b,), _ = _step_coefficients(np.array([0.5, 1e-14]), "ddim")
    assert a == pytest.approx(np.sqrt(0.5), rel=1e-7)
    assert b == pytest.approx(np.sqrt(0.5), rel=1e-6)


def _textbook_ddpm_abc(alpha_bar):
    """The stochastic sampler's coefficients in forward-posterior form, with
    ``alpha_t = alpha_bar[s] / alpha_bar[s-1]`` (Ho, Jain & Abbeel 2020)."""
    ab_cur = alpha_bar[1:]
    ab_prev = alpha_bar[:-1]
    step_alpha = ab_cur / ab_prev
    a = (step_alpha - ab_cur) / (np.sqrt(step_alpha) * (1.0 - ab_cur))
    b = np.sqrt(ab_prev) * (1.0 - step_alpha) / (1.0 - ab_cur)
    c2 = np.clip((1.0 - ab_prev) / (1.0 - ab_cur) * (1.0 - step_alpha), 0.0, None)
    return a, b, c2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans(), st.booleans())
def test_step_coefficients_match_textbook_samplers(seed, S, crossed, tie):
    rng = np.random.default_rng(seed)
    ab = random_monotone_alpha_bar(rng, S)
    if crossed:
        ab[1:-1] = rng.uniform(4e-5, 1.0 - 1e-4, S - 1)
    if tie and S > 2:
        ab[2] = ab[1]
    p, x = ab[:-1], ab[1:]

    # deterministic sampler: r = 1, the expressions of Song, Meng & Ermon bit for bit
    a, b, c2 = _step_coefficients(ab, "ddim")
    a_ref = np.sqrt(1.0 - p) / np.sqrt(1.0 - x)
    assert a.tobytes() == a_ref.tobytes()
    assert b.tobytes() == (np.sqrt(p) - np.sqrt(x) * a_ref).tobytes()
    assert c2 is None

    # stochastic sampler, each coefficient at its own scale
    a, b, c2 = _step_coefficients(ab, "ddpm")
    a_ref, b_ref, c2_ref = _textbook_ddpm_abc(ab)
    assert np.all(np.abs(a - a_ref) <= 1e-11 * np.abs(a_ref))
    assert np.all(np.abs(b - b_ref) <= 1e-11 * (np.sqrt(p) + np.sqrt(x) * np.abs(a_ref)))
    assert np.all(np.abs(c2 - c2_ref) <= 1e-11 * (1.0 - p))
    assert np.all(c2 >= 0.0)
    # one family: the kept and the fresh noise add up to the noise of level p
    unclipped = c2 > 0.0
    np.testing.assert_allclose(
        (a**2 * (1.0 - x) + c2)[unclipped], (1.0 - p)[unclipped], rtol=1e-14, atol=0.0
    )


# ---------------------------------------------------------------- transfer


def test_single_step_transfer_by_hand():
    eps0, epsS = 1e-4, 4e-5
    lam = np.array([2.0, 0.1])
    model = SpectralModel(dim=2, eigenvalues=lam, mean_spectral=[1.0, 1.0])
    schedule = make_schedule([1 - eps0, epsS])
    (a,), (b,), _ = _step_coefficients(schedule.alpha_bar, "ddim")
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
    a, b, _ = _step_coefficients(ab, "ddim")
    assert np.all(b >= -1e-15)
    lam = rng.uniform(0.0, 5.0, size=4)
    G = np.multiply(*_step_dots(lam, ab, a))
    assert np.all(G > 0.0)


def test_transfer_accepts_crossed_schedule():
    # crossed levels, as free-mode optimization may return, have a transfer:
    # the moments of the dense steps, a crossed ddpm step adding no variance
    model = SpectralModel(dim=1, eigenvalues=[1.5], mean_spectral=[0.4])
    target = DenseGaussian(mean=np.array([0.4]), covariance=np.array([[1.5]]))
    crossed = make_schedule([1 - 1e-4, 0.2, 0.5, 4e-5])
    for process, transfer in (("ddim", ddim_transfer), ("ddpm", ddpm_transfer)):
        t = transfer(model, crossed)
        mean, cov = dense_ddpm_moments(target, crossed.alpha_bar, process)
        np.testing.assert_allclose(t.output_variance, np.diag(cov), rtol=1e-12, atol=0)
        np.testing.assert_allclose(t.mean_gain * 0.4, mean, rtol=1e-12, atol=0)


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
    assert t.output_variance[0] == pytest.approx((G1 * G2) ** 2 + c21 + G1**2 * c22, rel=1e-14)


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
    transfers = [ddim_transfer(model, schedule), ddpm_transfer(model, schedule)]
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
    np.testing.assert_array_equal(top.mean_spectral, np.zeros(model.dim))
    np.testing.assert_array_equal(top.eigenvalues, np.ones(model.dim))

    bottom = intermediate_distribution(model, schedule, 0)
    t = ddim_transfer(model, schedule)
    np.testing.assert_allclose(bottom.eigenvalues, t.noise_gain**2, atol=1e-14)
    np.testing.assert_allclose(bottom.mean_spectral, t.mean_gain * model.mean_spectral, atol=1e-14)


def test_intermediate_single_step(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(16)
    ab = schedule.alpha_bar
    (a,), (b,), _ = _step_coefficients(ab[15:], "ddim")
    lam = model.eigenvalues
    G = a + b * np.sqrt(ab[16]) * lam / (ab[16] * lam + 1 - ab[16])
    M = b * (1 - ab[16]) / (ab[16] * lam + 1 - ab[16])
    got = intermediate_distribution(model, schedule, 15)
    np.testing.assert_allclose(got.eigenvalues, G**2, rtol=1e-12)
    np.testing.assert_allclose(got.mean_spectral, M * model.mean_spectral, rtol=1e-12)


def test_intermediate_rejects_out_of_range(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(16)
    with pytest.raises(ValueError, match=r"^step index l=17 out of range \[0, 16\]$"):
        intermediate_distribution(model, schedule, 17)
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match=r"^l must be an integer >= 0, got "):
            intermediate_distribution(model, schedule, bad)
    got = intermediate_distribution(model, schedule, np.int64(15)).eigenvalues
    assert got.tobytes() == intermediate_distribution(model, schedule, 15).eigenvalues.tobytes()


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
    with pytest.raises(ValueError):
        ve_to_vp(VeSchedule(steps=1, sigma=np.array([0.0, np.inf])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ve_rejects_non_finite_sigma(bad):
    with pytest.raises(ValueError, match="^sigma must be finite"):
        VeSchedule(steps=2, sigma=np.array([0.01, bad, 80.0]))
    ve = VeSchedule(steps=2, sigma=np.array([0.01, 0.5, 80.0]))
    ve.sigma[1] = bad
    with pytest.raises(ValueError, match="^sigma must be finite"):
        ve.validate()


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


def test_vp_ve_gain_relation_full_schedule(benchmark_model):
    # Per-step relation across a whole schedule, checked through the
    # composed transfers of matching sub-schedules.
    _, model = benchmark_model
    schedule = cosine_schedule(24)
    ab = schedule.alpha_bar
    sigma = np.sqrt((1 - ab) / ab)
    lam = model.eigenvalues
    a_steps, b_steps, _ = _step_coefficients(ab, "ddim")
    for s in range(1, 25):
        a, b = a_steps[s - 1], b_steps[s - 1]
        Gvp = a + b * np.sqrt(ab[s]) * lam / (ab[s] * lam + 1 - ab[s])
        Mvp = b * (1 - ab[s]) / (ab[s] * lam + 1 - ab[s])
        av = sigma[s - 1] / sigma[s]
        bv = 1 - av
        Gve = av + bv * lam / (lam + sigma[s] ** 2)
        Mve = bv * sigma[s] ** 2 / (lam + sigma[s] ** 2)
        np.testing.assert_allclose(Gvp, np.sqrt(ab[s - 1] / ab[s]) * Gve, atol=1e-10)
        np.testing.assert_allclose(Mvp, np.sqrt(ab[s - 1]) * Mve, atol=1e-10)


# ---------------------------------------------------------------- types


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel(dim=2, eigenvalues=[1.0], mean_spectral=[0.0, 0.0])
    with pytest.raises(ValueError):
        SpectralModel(dim=1, eigenvalues=[-1.0], mean_spectral=[0.0])


@pytest.mark.parametrize(
    "field, vectors",
    [
        ("mean_gain", ([1.0, 1.0, 1.0], [0.5], [0.0, 0.0, 0.0])),
        ("var_extra", ([1.0, 1.0], [0.5, 0.5], [0.0, 0.0, 0.0])),
    ],
)
def test_transfer_rejects_vectors_of_unequal_length(field, vectors):
    # a shorter gain would broadcast over every coordinate in the losses
    with pytest.raises(ValueError, match=rf"^{field} must have length {len(vectors[0])}, "):
        Transfer(*vectors)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: SpectralModel(dim=2, eigenvalues=v, mean_spectral=[0.0, 0.0]), "eigenvalues"),
        (lambda v: SpectralModel(dim=2, eigenvalues=[1.0, 1.0], mean_spectral=v), "mean_spectral"),
        (lambda v: Schedule(kind="custom", steps=1, alpha_bar=v), "alpha_bar"),
        (lambda v: VeSchedule(steps=1, sigma=v), "sigma"),
        (lambda v: Transfer(v, [1.0, 1.0], [0.0, 0.0]), "noise_gain"),
    ],
    ids=["eigenvalues", "mean_spectral", "alpha_bar", "sigma", "noise_gain"],
)
def test_vector_fields_refuse_a_matrix(make, field):
    # a (1, 2) field would broadcast where a length-2 vector is meant
    with pytest.raises(ValueError, match=rf"^{field} must be a 1-D vector, got shape \(1, 2\)$"):
        make([[1.0, 0.5]])


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule([0.9, 4e-5])  # endpoint mismatch
    with pytest.raises(ValueError):
        make_schedule([1 - 1e-4, 1.5, 4e-5])  # out of (0,1)
    # interior levels may cross, as free-mode optimization may leave them
    crossed = make_schedule([1 - 1e-4, 0.2, 0.8, 4e-5])
    assert crossed.validate() is crossed


def test_schedule_noisiest_level_is_checked_relative_to_eps_s():
    # An absolute 1e-12 would pass a stored epsS 900 times too small, which
    # warm_start_interpolate would then re-pin the level to.
    with pytest.raises(ValueError, match=r"^alpha_bar\[S\]=9e-13 != epsS=1e-15$"):
        make_schedule([1 - 1e-4, 0.5, 9e-13], epsS=1e-15)
    tiny = make_schedule([1 - 1e-4, 0.5, 1e-15 * (1 + 1e-13)], epsS=1e-15)
    assert tiny.validate() is tiny
    # the clean end stays absolute: a level near 1 holds ~1e-16 of precision
    near_one = make_schedule([1 - 1e-4 + 5e-13, 0.5, 4e-5])
    assert near_one.validate() is near_one


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha_bar", "eps0", "epsS"])
def test_schedule_rejects_non_finite(field, bad):
    fields = {"alpha_bar": [1 - 1e-4, 0.5, 4e-5], "eps0": 1e-4, "epsS": 4e-5}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make_schedule(**{**fields, field: [1 - 1e-4, bad, 4e-5] if field == "alpha_bar" else bad})
    # a field changed after construction is caught by validate()
    schedule = make_schedule(**fields)
    if field == "alpha_bar":
        schedule.alpha_bar[1] = bad
    else:
        setattr(schedule, field, bad)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        schedule.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["eigenvalues", "mean_spectral"])
def test_model_rejects_non_finite(field, bad):
    values = {"eigenvalues": [1.0, 2.0], "mean_spectral": [0.0, 0.5]}
    values[field][1] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SpectralModel(dim=2, **values)


def test_refinement_narrows_distance(benchmark_model):
    # finer discretization of the same curve gets closer to the target
    from diffsched import w2_loss

    _, model = benchmark_model
    coarse = w2_loss(model, ddim_transfer(model, cosine_schedule(10)))
    fine = w2_loss(model, ddim_transfer(model, cosine_schedule(334)))
    assert fine < coarse


@pytest.mark.parametrize("shape", ["monotone", "zigzag"], ids=["gains", "underflowing-gains"])
@pytest.mark.parametrize("S", [1, 2, 3, 10, 112, 250])
def test_suffix_fold_matches_step_loop(S, shape):
    # The reversed cumulative product that the trajectory reads, against
    # the step loop, over all S + 1 rows.  G >= 0, so the loop is its own
    # fold of |G|, the size rounding is relative to; zigzag levels make the
    # products near lam = 1 underflow, which a form dividing by products of
    # G would not survive.
    rng = np.random.default_rng(S)
    ab = _levels(rng, S, shape)
    lam = np.concatenate([[0.0, 1.0, 1e4, 1e10], 10.0 ** rng.uniform(-8.0, 8.0, 3)])
    a, _, _ = _step_coefficients(ab, "ddim")
    G = np.multiply(*_step_dots(lam, ab, a))
    A_ref, _ = step_loop(G, np.zeros_like(G))
    A, _ = _ddim_trajectory(lam, ab)
    assert A.shape == (S + 1, 7)
    # products that leave the normal range only owe an absolute error there
    assert np.all(np.abs(A - A_ref) <= 1e-14 * A_ref + np.finfo(float).tiny)
    np.testing.assert_array_equal(A[-1], 1.0)
    if shape == "zigzag" and S >= 200:
        assert A[0, 1] == 0.0  # the products underflowed


def _levels(rng, S, shape):
    """Levels of ``S`` steps: ``monotone``; ``tied``, with runs of equal
    neighbours; ``crossed``, unsorted interior levels; or ``zigzag``, interior
    levels alternating between 1e-6 and 1 - 1e-6, where the deterministic
    sampler's gains near ``lam = 1`` are about 1e-3 a step and their products
    underflow past about 110 steps."""
    ab = random_monotone_alpha_bar(rng, S)
    if shape == "tied" and S > 1:
        for i in np.sort(rng.integers(1, S, size=S // 3 + 1)):
            ab[i] = ab[i - 1]
    elif shape == "crossed":
        ab[1:-1] = rng.uniform(4e-5, 1.0 - 1e-4, S - 1)
    elif shape == "zigzag":
        ab[1:-1] = np.where(np.arange(1, S) % 2 == 1, 1e-6, 1.0 - 1e-6)
    return ab


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.sampled_from(["monotone", "tied", "crossed", "zigzag"]),
    st.sampled_from(["ddim", "ddpm"]),
)
@example(seed=0, S=300, shape="zigzag", process="ddim")
@example(seed=1, S=300, shape="crossed", process="ddpm")
def test_mean_gain_is_read_off_the_noise_gain(seed, S, shape, process):
    # Each step keeps the clean-mean path, G sqrt(x) + M = sqrt(p), so the
    # mean coefficient is B[l] = sqrt(ab_l) - sqrt(ab_S) A[l] and the mean
    # gain is row 0.  The oracle folds the per-step mean gains M = b (1 - x)
    # / den one step at a time and never uses the identity.  Errors are
    # measured against the fold of |G| and |M| run from the clean-mean path,
    # B_abs + sqrt(ab_S) A_abs: it bounds both terms the identity subtracts,
    # sqrt(ab_l) and sqrt(ab_S) |A[l]|, and the oracle's rounding is
    # relative to it.  Worst case measured over 3,200 draws (400 seeds, each
    # shape, both samplers, S up to 300): 2.6e-14, on zigzag levels; with
    # the sqrt(ab_S) term dropped the smallest error read 3.8e-11.  Only
    # ddim has a trajectory; its whole-run noise gain, the transfer's
    # product of gains, read at most 3.5e-15 of A_abs[0] over 600 draws
    # (each shape, S up to 300).
    rng = np.random.default_rng(seed)
    ab = _levels(rng, S, shape)
    lam = np.concatenate([[0.0, 1.0, 1e4, 1e10], 10.0 ** rng.uniform(-8.0, 8.0, 4)])
    a, b, _ = _step_coefficients(ab, process)
    G = np.multiply(*_step_dots(lam, ab, a))
    x = ab[1:, None]
    M = b[:, None] * (1.0 - x) / (x * lam + (1.0 - x))
    A_ref, B_ref = step_loop(G, M)
    A_abs, B_abs = step_loop(np.abs(G), np.abs(M))
    scale = B_abs + np.sqrt(ab[-1]) * A_abs

    noise_gain, mean_gain, _, _ = _transfer_arrays(lam, ab, process)
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(mean_gain - B_ref[0]) <= 1e-13 * scale[0])
    if process == "ddim":
        A, B = _ddim_trajectory(lam, ab)
        assert A.shape == B.shape == (S + 1, 8)
        assert np.all(np.abs(A - A_ref) <= 1e-14 * A_abs + tiny)
        assert np.all(np.abs(noise_gain - A_ref[0]) <= 1e-14 * A_abs[0] + tiny)
        assert np.all(np.abs(B - B_ref) <= 1e-13 * scale)
        if shape == "zigzag" and S >= 200:
            assert A[0, 1] == 0.0  # the products underflowed


@pytest.mark.parametrize("shape", ["monotone", "tied", "crossed", "zigzag"])
@pytest.mark.parametrize("S", [1, 2, 3, 10, 112, 250])
def test_ddpm_closed_form_matches_step_loop(S, shape):
    # ddpm's noise gain, read off the endpoints, and its extra variance, one
    # weighted sum over levels, against the step loop on (G, 0) and (G**2,
    # c**2).  G and c**2 are nonnegative, so each fold is its own fold of
    # absolute values, the size rounding is relative to.  The loop rounds S
    # gains of a few operations each, so its own error grows with S: in
    # probes against a 40-digit fold at S=250 the closed forms were off by
    # at most 2.3e-15 and the loop by up to 3.3e-14.
    rng = np.random.default_rng(S)
    ab = _levels(rng, S, shape)
    lam = np.concatenate([[0.0, 1.0, 1e4, 1e10], 10.0 ** rng.uniform(-8.0, 8.0, 4)])
    a, _, c2 = _step_coefficients(ab, "ddpm")
    G = np.multiply(*_step_dots(lam, ab, a))
    A_ref, _ = step_loop(G, np.zeros_like(G))
    _, V_ref = step_loop(G * G, np.broadcast_to(c2[:, None], G.shape))
    noise_gain, _, var_extra, _ = _transfer_arrays(lam, ab, "ddpm")
    gate = (4 * S + 4) * np.finfo(float).eps
    assert np.all(np.abs(noise_gain - A_ref[0]) <= gate * A_ref[0])
    assert np.all(np.abs(var_extra - V_ref[0]) <= gate * V_ref[0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.sampled_from(["monotone", "tied", "crossed"]),
)
def test_ddpm_noise_gain_is_fixed_by_the_endpoints(seed, S, shape):
    # ddpm's step gains telescope, so its noise and mean gains are the same
    # floats for any interior levels between the same endpoints
    rng = np.random.default_rng(seed)
    lam = np.concatenate([[0.0, 1.0, 1e4, 1e10], 10.0 ** rng.uniform(-8.0, 8.0, 4)])
    model = SpectralModel(dim=8, eigenvalues=lam, mean_spectral=rng.normal(size=8))
    first, second = (ddpm_transfer(model, make_schedule(_levels(rng, S, shape))) for _ in range(2))
    np.testing.assert_array_equal(first.noise_gain, second.noise_gain)
    np.testing.assert_array_equal(first.mean_gain, second.mean_gain)
