import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffsched.spectral as spectral_module
from diffsched import (
    LossKind,
    Schedule,
    SpectralModel,
    Transfer,
    cosine_schedule,
    ddim_transfer,
    ddpm_transfer,
    kl_loss,
    linear_schedule,
    loss_gradient,
    synthetic_circulant_model,
    w2_loss,
    weighted_l1_loss,
)
from diffsched.losses import loss_from_alpha_bar, transfer_loss
from diffsched.optimize import finite_difference_gradient
from diffsched.simulate import DenseGaussian

from conftest import dense_ddpm_moments, generic_loss


def diag_transfer(noise_gain, mean_gain, var_extra=None):
    noise_gain = np.asarray(noise_gain, dtype=float)
    if var_extra is None:
        var_extra = np.zeros_like(noise_gain)
    return Transfer(noise_gain, np.asarray(mean_gain, dtype=float), var_extra)


def make_model(lam, mu):
    lam = np.asarray(lam, dtype=float)
    return SpectralModel(dim=len(lam), eigenvalues=lam, mean_spectral=np.asarray(mu, dtype=float))


# ------------------------------------------------------------- oracles


def w2_oracle(mu1, var1, mu2, var2):
    """Squared quadratic-transport distance between diagonal Gaussians
    (commuting covariances: mean term plus squared root-variance gaps)."""
    return float(np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(var1) - np.sqrt(var2)) ** 2))


def kl_oracle(mu1, var1, mu2, var2):
    """Standard KL(N1 || N2) for diagonal Gaussians."""
    return float(
        0.5
        * np.sum(np.log(var2 / var1) - 1.0 + var1 / var2 + (mu2 - mu1) ** 2 / var2)
    )


# ------------------------------------------------------------------ w2


def test_w2_zero_at_match():
    model = make_model([4.0, 0.25], [1.0, 2.0])
    t = diag_transfer(np.sqrt(model.eigenvalues), np.ones(2))
    assert w2_loss(model, t) == 0.0


def test_w2_scalar_example():
    model = make_model([4.0], [0.0])
    assert w2_loss(model, diag_transfer([1.0], [1.0])) == pytest.approx(1.0, abs=1e-15)


def test_w2_matches_generic_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = rng.integers(1, 12)
        lam = rng.uniform(1e-6, 5.0, d)
        mu = rng.normal(size=d)
        gain = rng.uniform(0.05, 2.0, d)
        mean_gain = rng.uniform(-0.5, 1.5, d)
        model = make_model(lam, mu)
        t = diag_transfer(gain, mean_gain)
        expected = w2_oracle(mu, lam, mean_gain * mu, gain**2)
        assert abs(w2_loss(model, t) - expected) <= 1e-12


def test_loss_rejects_a_transfer_of_another_dimension():
    model = make_model([4.0, 0.25], [1.0, 2.0])
    with pytest.raises(ValueError, match="^transfer dimension 3 != model dim 2$"):
        w2_loss(model, diag_transfer(np.ones(3), np.ones(3)))


def test_w2_uses_total_variance_for_stochastic_sampler():
    model = make_model([4.0], [0.0])
    t = diag_transfer([1.0], [1.0], var_extra=np.array([3.0]))
    # total std = sqrt(1 + 3) = 2 matches sqrt(lam): variance term vanishes
    assert w2_loss(model, t) == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------------ kl


def test_kl_zero_at_match():
    model = make_model([4.0, 0.25], [1.0, 2.0])
    t = diag_transfer(np.sqrt(model.eigenvalues), np.ones(2))
    assert kl_loss(model, t) == pytest.approx(0.0, abs=1e-15)


def test_kl_scalar_value_against_standard_oracle():
    # d=1, lam=1, mu=0, output std 2: KL = 0.5 (log 4 - 1 + 1/4)
    model = make_model([1.0], [0.0])
    value = kl_loss(model, diag_transfer([2.0], [1.0]))
    assert value == pytest.approx(kl_oracle(np.zeros(1), np.ones(1), np.zeros(1), np.full(1, 4.0)), abs=1e-15)
    assert value == pytest.approx(np.log(2.0) - 0.5 + 0.125, abs=1e-14)


def test_kl_matches_generic_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = rng.integers(1, 12)
        lam = rng.uniform(1e-6, 5.0, d)
        mu = rng.normal(size=d)
        gain = rng.uniform(0.05, 2.0, d)
        mean_gain = rng.uniform(-0.5, 1.5, d)
        model = make_model(lam, mu)
        t = diag_transfer(gain, mean_gain)
        expected = kl_oracle(mu, lam, mean_gain * mu, gain**2)
        assert abs(kl_loss(model, t) - expected) <= 1e-12


def test_kl_excludes_floored_coordinates():
    model = make_model([1.0, 1e-15], [0.0, 0.0])
    t = diag_transfer([1.0, 0.5], [1.0, 1.0])
    # the second coordinate sits below the floor and must not contribute
    assert kl_loss(model, t) == pytest.approx(0.0, abs=1e-15)


def test_kl_rejects_all_floored():
    model = make_model([1e-15, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        kl_loss(model, diag_transfer([1.0, 1.0], [1.0, 1.0]))


def test_zero_output_variance_gives_finite_or_infinite_losses_without_warnings():
    # a collapsed output coordinate above the floor: KL is infinite, W2 and
    # weighted-L1 stay finite, and the losses' slopes there (inf or NaN, read
    # only by a gradient pass) raise no RuntimeWarning
    model = make_model([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    t = diag_transfer([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert kl_loss(model, t) == float("inf")
        assert w2_loss(model, t) == pytest.approx(1.17157287525381, rel=1e-14)
        assert weighted_l1_loss(model, t) == 1.0


# ------------------------------------------------------------------ wl1


def test_weighted_l1_zero_at_match():
    model = make_model([4.0, 1.0], [1.0, -2.0])
    t = diag_transfer([2.0, 1.0], np.ones(2))
    assert weighted_l1_loss(model, t) == 0.0
    irrational = make_model([3.0, 1.0], [1.0, -2.0])
    t = diag_transfer(np.sqrt(irrational.eigenvalues), np.ones(2))
    assert weighted_l1_loss(irrational, t) == pytest.approx(0.0, abs=1e-14)


def test_weighted_l1_centered_mean_guard():
    model = make_model([3.0, 1.0], [0.0, 0.0])
    t = diag_transfer([1.0, 1.0], [5.0, 5.0])
    value = weighted_l1_loss(model, t)
    assert np.isfinite(value)  # no division by the zero mean mass


def test_weighted_l1_hand_example():
    model = make_model([3.0, 1.0], [0.0, 0.0])
    t = diag_transfer(np.sqrt([3.0, 2.0]), [1.0, 1.0])
    assert weighted_l1_loss(model, t) == pytest.approx(0.25, abs=1e-14)


def test_weighted_l1_rejects_zero_eigenvalue_mass():
    model = make_model([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        weighted_l1_loss(model, diag_transfer([1.0, 1.0], [1.0, 1.0]))


# ----------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_losses_invariant_under_joint_permutation(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 10))
    lam = rng.uniform(1e-3, 4.0, d)
    mu = rng.normal(size=d)
    gain = rng.uniform(0.1, 2.0, d)
    mean_gain = rng.uniform(0.0, 1.5, d)
    perm = rng.permutation(d)
    base = (
        w2_loss(make_model(lam, mu), diag_transfer(gain, mean_gain)),
        kl_loss(make_model(lam, mu), diag_transfer(gain, mean_gain)),
        weighted_l1_loss(make_model(lam, mu), diag_transfer(gain, mean_gain)),
    )
    permuted = (
        w2_loss(make_model(lam[perm], mu[perm]), diag_transfer(gain[perm], mean_gain[perm])),
        kl_loss(make_model(lam[perm], mu[perm]), diag_transfer(gain[perm], mean_gain[perm])),
        weighted_l1_loss(make_model(lam[perm], mu[perm]), diag_transfer(gain[perm], mean_gain[perm])),
    )
    np.testing.assert_allclose(base, permuted, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    model = make_model(rng.uniform(1e-3, 4.0, d), rng.normal(size=d))
    t = diag_transfer(rng.uniform(0.05, 3.0, d), rng.uniform(-1.0, 2.0, d))
    assert w2_loss(model, t) >= 0
    assert kl_loss(model, t) >= 0
    assert weighted_l1_loss(model, t) >= 0


# ------------------------------------------------------------- gradient


def test_gradient_of_constant_objective_is_zero():
    x = np.array([0.7, 0.5, 0.3])
    g = finite_difference_gradient(lambda _: 1.25, x, np.zeros(3), np.ones(3))
    np.testing.assert_array_equal(g, np.zeros(3))


def test_gradient_shape_and_endpoints_fixed(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(12)
    g = loss_gradient(model, schedule, LossKind.WASSERSTEIN2, "ddim")
    assert g.shape == (11,)
    assert np.all(np.isfinite(g))


def _interior_objective(model, schedule, kind):
    ab = schedule.alpha_bar

    def f(interior):
        full = np.concatenate([ab[:1], interior, ab[-1:]])
        return loss_from_alpha_bar(model, full, kind, "ddim")

    return f, ab[1:-1].copy()


def test_gradient_richardson_step_halving(benchmark_model):
    # Central differences have O(h^2) error, so halving the step shrinks
    # successive differences by a factor near 4.
    _, model = benchmark_model
    schedule = cosine_schedule(12)
    f, x = _interior_objective(model, schedule, LossKind.WASSERSTEIN2)
    rng = np.random.default_rng(3)
    checked = 0
    for i in rng.permutation(len(x))[:5]:
        h = 1e-4 * max(1.0, abs(x[i]))

        def deriv(step):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            return (f(xp) - f(xm)) / (2 * step)

        d1, d2, d4 = deriv(h), deriv(h / 2), deriv(h / 4)
        if abs(d2 - d4) < 1e-14:  # too flat for a meaningful ratio
            continue
        ratio = (d1 - d2) / (d2 - d4)
        assert 3.5 <= ratio <= 4.5
        checked += 1
    assert checked >= 3


def test_gradient_matches_secant_directional_derivative(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(12)
    f, x = _interior_objective(model, schedule, LossKind.WASSERSTEIN2)
    g = loss_gradient(model, schedule, LossKind.WASSERSTEIN2, "ddim")
    rng = np.random.default_rng(11)
    u = rng.normal(size=len(x))
    u /= np.linalg.norm(u)
    t = 1e-6
    secant = (f(x + t * u) - f(x - t * u)) / (2 * t)
    assert secant == pytest.approx(float(g @ u), rel=1e-5)


def test_gradient_one_sided_fallback_near_degenerate_spacing():
    # Middle value pinned within a sliver of both neighbours: the stencil
    # cannot be centered, the fallback must still return a finite value.
    model = make_model([1.0], [0.0])
    ab = np.array([1 - 1e-4, 0.5 + 1e-13, 0.5, 0.5 - 1e-13, 4e-5])
    schedule = Schedule(kind="custom", steps=4, alpha_bar=ab, eps0=1e-4, epsS=4e-5)
    g = loss_gradient(model, schedule, LossKind.WASSERSTEIN2, "ddim")
    assert np.all(np.isfinite(g))


def test_loss_kind_cli_names():
    assert LossKind.from_cli_name("w2") is LossKind.WASSERSTEIN2
    assert LossKind.from_cli_name("kl") is LossKind.KL
    assert LossKind.from_cli_name("wl1") is LossKind.WEIGHTED_L1
    with pytest.raises(ValueError):
        LossKind.from_cli_name("js")


# ------------------------------------------------------- exact gradient


def _fd_oracle(model, ab, kind, process):
    def f(interior):
        full = np.concatenate([ab[:1], interior, ab[-1:]])
        return loss_from_alpha_bar(model, full, kind, process)

    return finite_difference_gradient(f, ab[1:-1], ab[2:], ab[:-2])


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("S", [10, 28, 112])
def test_exact_gradient_matches_finite_differences(benchmark_model, S, kind, process):
    _, model = benchmark_model
    schedule = cosine_schedule(S)
    g = loss_gradient(model, schedule, kind, process)
    fd = _fd_oracle(model, schedule.alpha_bar, kind, process)
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def _spaced_alpha_bar(rng, S, eps0=1e-4, epsS=4e-5, min_gap=1e-3):
    """Random schedule whose adjacent levels are at least ``min_gap`` apart."""
    span = 1.0 - eps0 - epsS
    gaps = min_gap + rng.dirichlet(np.ones(S)) * (span - S * min_gap)
    ab = (1.0 - eps0) - np.concatenate([[0.0], np.cumsum(gaps)])
    ab[-1] = epsS
    return ab


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
@pytest.mark.parametrize("kind", list(LossKind))
def test_gradient_pass_returns_the_loss_only_value(benchmark_model, kind, process):
    # asking for the gradient must not change the loss by a single bit; a
    # one-step schedule has no interior level and so an empty gradient
    _, model = benchmark_model
    for schedule in (cosine_schedule(2), cosine_schedule(28), cosine_schedule(112), linear_schedule(1)):
        ab, S = schedule.alpha_bar, schedule.steps
        loss, grad = loss_from_alpha_bar(model, ab, kind, process, gradient=True)
        assert loss == loss_from_alpha_bar(model, ab, kind, process)
        assert grad.shape == (S - 1,)
        assert np.array_equal(loss_gradient(model, schedule, kind, process), grad)


@pytest.mark.parametrize(
    ("process", "kind", "bound"),
    [("ddim", LossKind.WASSERSTEIN2, 4.0), ("ddpm", LossKind.KL, 3.0)],
)
def test_loss_and_gradient_memory_in_step_coordinate_arrays(process, kind, bound):
    # One loss-and-gradient evaluation holds, for ddim, the per-step gains
    # (freed once multiplied out), 1 / dot and 1 / den; for ddpm, the ratios
    # r = var_0 / var_i and one power of them at a time.  Peaks measured in
    # S * d doubles at d=400, S=448: 3.01 (ddim) and 2.04 (ddpm); with the
    # reverse sweep's prefix products and ddpm's fold they were 4.09 and 9.05.
    import tracemalloc

    _, model = synthetic_circulant_model(400, 0.1, 0.05)
    ab = cosine_schedule(448).alpha_bar
    tracemalloc.start()
    try:
        loss_from_alpha_bar(model, ab, kind, process, gradient=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 448 * 400 * 8, peak / (448 * 400 * 8)


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_step_partials_are_formed_only_for_a_gradient(benchmark_model, monkeypatch, process):
    # each process's pullback forms the per-level partials, only when called
    calls = []
    name = f"_{process}_pullback"
    real = getattr(spectral_module, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(spectral_module, name, counted)
    _, model = benchmark_model
    schedule = cosine_schedule(28)
    transfer = {"ddim": ddim_transfer, "ddpm": ddpm_transfer}[process](model, schedule)
    for kind in LossKind:
        loss_from_alpha_bar(model, schedule.alpha_bar, kind, process)
        transfer_loss(model, transfer, kind)
    assert calls == []
    for kind in LossKind:
        loss_from_alpha_bar(model, schedule.alpha_bar, kind, process, gradient=True)
    assert len(calls) == len(LossKind)


@pytest.mark.parametrize("kind", [LossKind.WASSERSTEIN2, LossKind.KL])
@pytest.mark.parametrize("seed", range(4))
def test_exact_ddpm_gradient_matches_dense_moment_oracle(seed, kind):
    # The loss recomputed from the eigenbasis-free dense moment recursion and
    # the generic Gaussian formulas, differentiated by central differences.
    rng = np.random.default_rng(seed)
    d, S = int(rng.integers(2, 9)), int(rng.integers(2, 13))
    raw = rng.normal(size=(d, d))
    target = DenseGaussian(mean=rng.normal(size=d), covariance=raw @ raw.T / d)
    eigvals, eigvecs = np.linalg.eigh(target.covariance)
    model = SpectralModel(dim=d, eigenvalues=eigvals, mean_spectral=eigvecs.T @ target.mean)
    ab = _spaced_alpha_bar(rng, S)

    def dense_loss(interior):
        mean, cov = dense_ddpm_moments(target, np.concatenate([ab[:1], interior, ab[-1:]]), "ddpm")
        out_mean, out_var = eigvecs.T @ mean, np.einsum("ik,ij,jk->k", eigvecs, cov, eigvecs)
        if kind is LossKind.KL:
            return kl_oracle(model.mean_spectral, model.eigenvalues, out_mean, out_var)
        return w2_oracle(out_mean, out_var, model.mean_spectral, model.eigenvalues)

    fd = finite_difference_gradient(dense_loss, ab[1:-1], ab[2:], ab[:-2])
    g = loss_from_alpha_bar(model, ab, kind, "ddpm", gradient=True)[1]
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


COMPLEX_STEP = 1e-30


@pytest.mark.parametrize("schedule", ["cosine", "spaced", "crossed"])
@pytest.mark.parametrize("rank", ["full", "deficient"])
@pytest.mark.parametrize("kind", [LossKind.WASSERSTEIN2, LossKind.KL])
@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_exact_gradient_matches_complex_step_oracle(process, kind, rank, schedule):
    # The loss recomputed from the eigenbasis-free dense moment recursion and
    # the generic Gaussian formulas, differentiated by a complex step: with
    # no subtraction of nearby values it is exact to rounding (Squire &
    # Trapp, SIAM Review 40(1), 1998; Martins, Sturdza & Alonso, ACM TOMS
    # 29(3), 2003), so the gate is 1e-10 relative where central differences
    # allow 1e-6.  Weighted-L1 (an |.|) and exact ties (the c2 clamp) have no
    # complex extension and stay on finite differences.  "crossed" draws the
    # interior levels unsorted, as free-mode iterates may leave them.
    rng = np.random.default_rng(11)
    for _ in range(3):
        d, S = int(rng.integers(2, 9)), int(rng.integers(3, 40))
        lam = rng.uniform(0.05, 5.0, d)
        if rank == "deficient":
            lam[rng.permutation(d)[: int(rng.integers(1, d))]] = 0.0
        basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        covariance = (basis * lam) @ basis.T
        covariance = 0.5 * (covariance + covariance.T)
        target = DenseGaussian(mean=rng.normal(size=d), covariance=covariance)
        model = SpectralModel(dim=d, eigenvalues=lam, mean_spectral=basis.T @ target.mean)
        ab = cosine_schedule(S).alpha_bar if schedule == "cosine" else _spaced_alpha_bar(rng, S)
        if schedule == "crossed":
            ab[1:-1] = rng.uniform(ab[-1], ab[0], S - 1)

        oracle = np.empty(S - 1)
        for i in range(S - 1):
            stepped = ab.astype(complex)
            stepped[i + 1] += COMPLEX_STEP * 1j
            loss = generic_loss(target, basis, lam, stepped, kind, process)
            oracle[i] = loss.imag / COMPLEX_STEP
        g = loss_from_alpha_bar(model, ab, kind, process, gradient=True)[1]
        assert np.linalg.norm(g - oracle) <= 1e-10 * np.linalg.norm(oracle), (d, S)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_gradient_matches_secant_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    lam = rng.uniform(0.0, 10.0, d)
    lam[rng.permutation(d)[: int(rng.integers(1, d))]] = 0.0
    mu = rng.choice([-1.0, 1.0], d) * rng.uniform(0.1, 2.0, d)
    model = make_model(lam, mu)
    ab = _spaced_alpha_bar(rng, int(rng.integers(2, 16)))
    x = ab[1:-1]
    r = rng.normal(size=len(x))
    r /= np.linalg.norm(r)
    t = 1e-6
    for kind in (LossKind.WASSERSTEIN2, LossKind.KL):
        for process in ("ddim", "ddpm"):
            g = loss_gradient(
                model, Schedule(kind="custom", steps=len(ab) - 1, alpha_bar=ab), kind, process
            )
            assert np.all(np.isfinite(g))
            # A direction nearly orthogonal to g leaves g.u so small that
            # the secant's rounding error swamps it; tilting the random
            # direction toward g keeps |g.u| >= |g| / 3.
            u = g / np.linalg.norm(g) + 0.5 * r
            u /= np.linalg.norm(u)

            def f(interior):
                full = np.concatenate([ab[:1], interior, ab[-1:]])
                return loss_from_alpha_bar(model, full, kind, process)

            secant = (f(x + t * u) - f(x - t * u)) / (2 * t)
            assert float(g @ u) == pytest.approx(secant, rel=1e-5)


def test_finite_difference_one_sided_fallback_near_degenerate_spacing():
    # The oracle itself at a sliver-spaced schedule and at exact ties, where
    # the centered stencil has no room and a one-sided difference is taken.
    model = make_model([1.0], [0.0])
    for ab in (
        np.array([1 - 1e-4, 0.5 + 1e-13, 0.5, 0.5 - 1e-13, 4e-5]),
        np.array([1 - 1e-4, 0.5, 0.5, 0.3, 4e-5]),
    ):
        g = _fd_oracle(model, ab, LossKind.WASSERSTEIN2, "ddim")
        assert g.shape == (3,)
        assert np.all(np.isfinite(g))
    pinned = finite_difference_gradient(lambda v: float(v @ v), np.array([0.5]), [0.5], [0.5])
    np.testing.assert_array_equal(pinned, [0.0])
    forward = finite_difference_gradient(lambda v: float(v @ v), np.array([0.5]), [0.5], [0.9])
    backward = finite_difference_gradient(lambda v: float(v @ v), np.array([0.5]), [0.1], [0.5])
    np.testing.assert_allclose([forward[0], backward[0]], [1.0, 1.0], rtol=1e-6)
