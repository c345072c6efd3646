"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; several
criteria share the session-scoped optimization runs below.
"""

import numpy as np
import pytest

from diffsched import (
    DenseGaussian,
    LossKind,
    OptimizeConfig,
    Schedule,
    SimConfig,
    SpectralModel,
    circulant_projection,
    cosine_schedule,
    ddim_transfer,
    ddpm_transfer,
    edm_schedule,
    kl_loss,
    linear_schedule,
    mean_bias,
    optimize_schedule,
    relative_error_dynamics,
    sigmoid_schedule,
    simulate_reverse,
    synthetic_circulant_model,
    w2_dynamics,
    w2_loss,
    warm_start_interpolate,
)
from diffsched.estimate import covariance_from_windows
from diffsched.losses import loss_from_alpha_bar, transfer_loss
from diffsched.spectral import _step_coefficients

from conftest import dense_affine_oracle, dense_ddpm_moments, random_monotone_alpha_bar

STEP_COUNTS = (10, 28, 60, 112)

BASELINES = {
    "linear": lambda S: linear_schedule(S),
    "cosine(0,1,1)": lambda S: cosine_schedule(S, 0, 1, 1),
    "cosine(0,0.5,1)": lambda S: cosine_schedule(S, 0, 0.5, 1),
    "sigmoid(-3,3,1)": lambda S: sigmoid_schedule(S, -3, 3, 1),
    "sigmoid(0,3,0.7)": lambda S: sigmoid_schedule(S, 0, 3, 0.7),
    "edm(7)": lambda S: edm_schedule(S, 7),
}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{suffix}")


@pytest.fixture(scope="session")
def w2_optimized(benchmark_model):
    """Optimized-for-W2 schedules per step count, shared across criteria."""
    _, model = benchmark_model
    runs = {}
    for S in STEP_COUNTS:
        runs[S] = optimize_schedule(
            model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=S)
        )
    return runs


def test_criterion_01_monte_carlo_matches_closed_form(benchmark_model):
    dense, model = benchmark_model
    schedule = linear_schedule(112)
    cfg = SimConfig(process="ddim", samples=20_000, seed=7, schedule=schedule)
    samples = simulate_reverse(dense, cfg)
    est = covariance_from_windows(samples, 0.0)  # a threshold of 0 keeps every row
    empirical = np.sort(np.linalg.eigvalsh(est.covariance))
    predicted = np.sort(ddim_transfer(model, schedule).noise_gain ** 2)
    rel = np.abs(empirical - predicted) / predicted
    ok = bool(np.max(rel) <= 0.10)
    report(1, "Monte Carlo covariance eigenvalues vs closed form", ok,
           f"max rel err {np.max(rel):.3f} <= 0.10")
    assert ok


def test_criterion_02_dense_time_equivalence():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        raw = rng.normal(size=(d, d))
        covariance = raw @ raw.T / d
        mean = rng.normal(size=d)
        ab = random_monotone_alpha_bar(rng, int(rng.integers(2, 16)))

        eigvals, eigvecs = np.linalg.eigh(covariance)
        model = SpectralModel(
            dim=d, eigenvalues=np.clip(eigvals, 0, None), mean_spectral=eigvecs.T @ mean
        )
        schedule = Schedule(kind="custom", steps=len(ab) - 1, alpha_bar=ab)
        transfer = ddim_transfer(model, schedule)

        T, offset = dense_affine_oracle(covariance, mean, ab)
        conjugated = eigvecs.T @ T @ eigvecs
        worst = max(worst, float(np.max(np.abs(np.diag(conjugated) - transfer.noise_gain))))
        worst = max(worst, float(np.max(np.abs(conjugated - np.diag(np.diag(conjugated))))))
        worst = max(
            worst,
            float(np.max(np.abs(eigvecs.T @ offset - transfer.mean_gain * model.mean_spectral))),
        )

        # ddpm: exact dense moments against the stochastic transfer
        target = DenseGaussian(mean=mean, covariance=covariance)
        ddpm = ddpm_transfer(model, schedule)
        out_mean, out_cov = dense_ddpm_moments(target, ab, "ddpm")
        conjugated = eigvecs.T @ out_cov @ eigvecs
        worst = max(worst, float(np.max(np.abs(np.diag(conjugated) - ddpm.output_variance))))
        worst = max(worst, float(np.max(np.abs(conjugated - np.diag(np.diag(conjugated))))))
        worst = max(
            worst,
            float(np.max(np.abs(eigvecs.T @ out_mean - ddpm.mean_gain * model.mean_spectral))),
        )
    ok = worst <= 1e-10
    report(2, "dense time-domain ddim map and ddpm moments equal spectral transfer", ok,
           f"max deviation {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_03_optimized_schedule_beats_baselines(benchmark_model, w2_optimized):
    _, model = benchmark_model
    ok = True
    margins = []
    for S in STEP_COUNTS:
        _, rep = w2_optimized[S]
        for name, gen in BASELINES.items():
            baseline = w2_loss(model, ddim_transfer(model, gen(S)))
            margins.append(baseline - rep.final_loss)
            if rep.final_loss > baseline + 1e-9:
                ok = False
    report(3, "optimized W2 beats all baselines at S in {10,28,60,112}", ok,
           f"min margin {min(margins):.2e}")
    assert ok


def test_criterion_04_isotropic_kl_recovers_cosine():
    model = SpectralModel(dim=50, eigenvalues=np.ones(50), mean_spectral=np.zeros(50))
    schedule, rep = optimize_schedule(model, OptimizeConfig(loss=LossKind.KL, steps=28))
    kl_cosine = kl_loss(model, ddim_transfer(model, cosine_schedule(28)))
    kl_linear = kl_loss(model, ddim_transfer(model, linear_schedule(28)))
    ordering = rep.final_loss <= kl_cosine <= kl_linear
    near_optimal = (kl_cosine - rep.final_loss) <= 0.10 * rep.final_loss
    deviation = float(np.max(np.abs(schedule.alpha_bar - cosine_schedule(28).alpha_bar)))
    ok = bool(ordering and near_optimal)
    report(4, "isotropic KL: optimum <= cosine(0,1,1) <= linear", ok,
           f"KL opt {rep.final_loss:.5f}, cosine {kl_cosine:.5f}, linear {kl_linear:.5f}; "
           f"pointwise deviation from cosine {deviation:.4f} (reported, not asserted)")
    assert ok


def test_criterion_05_constraints_are_passive(benchmark_model):
    _, model = benchmark_model
    base = dict(loss=LossKind.WASSERSTEIN2, steps=28)
    constrained, _ = optimize_schedule(model, OptimizeConfig(mode="constrained", **base))
    free, _ = optimize_schedule(model, OptimizeConfig(mode="free", **base))
    gap = float(np.max(np.abs(constrained.alpha_bar - free.alpha_bar)))
    ok = gap <= 1e-3
    report(5, "constrained vs unconstrained optimum", ok, f"max |diff| {gap:.2e} <= 1e-3")
    assert ok


def test_criterion_06_deterministic_beats_stochastic(benchmark_model, w2_optimized):
    _, model = benchmark_model
    ok = True
    details = []
    for S in (10, 112):
        for name, schedule in (
            ("cosine(0,1,1)", cosine_schedule(S)),
            ("optimized", w2_optimized[S][0]),
        ):
            ddim = w2_loss(model, ddim_transfer(model, schedule))
            ddpm = w2_loss(model, ddpm_transfer(model, schedule))
            details.append(f"S={S} {name}: {ddim:.2e} vs {ddpm:.2e}")
            if ddim > ddpm:
                ok = False
    report(6, "W2(ddim) <= W2(ddpm) for cosine and optimized at S in {10,112}", ok,
           "; ".join(details))
    assert ok


def test_criterion_07_losses_match_generic_oracles():
    def w2_oracle(mu1, var1, mu2, var2):
        return float(np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(var1) - np.sqrt(var2)) ** 2))

    def kl_oracle(mu1, var1, mu2, var2):
        return float(
            0.5 * np.sum(np.log(var2 / var1) - 1 + var1 / var2 + (mu2 - mu1) ** 2 / var2)
        )

    from diffsched import Transfer

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 12))
        lam = rng.uniform(1e-6, 5.0, d)
        mu = rng.normal(size=d)
        gain = rng.uniform(0.05, 2.0, d)
        mean_gain = rng.uniform(-0.5, 1.5, d)
        model = SpectralModel(dim=d, eigenvalues=lam, mean_spectral=mu)
        t = Transfer(gain, mean_gain, np.zeros(d))
        worst = max(worst, abs(w2_loss(model, t) - w2_oracle(mu, lam, mean_gain * mu, gain**2)))
        worst = max(worst, abs(kl_loss(model, t) - kl_oracle(mu, lam, mean_gain * mu, gain**2)))
    # weighted-L1 hand arithmetic on a fixed instance
    model = SpectralModel(dim=2, eigenvalues=[3.0, 1.0], mean_spectral=[0.0, 0.0])
    t = Transfer(np.sqrt([3.0, 2.0]), np.ones(2), np.zeros(2))
    wl1_err = abs(transfer_loss(model, t, LossKind.WEIGHTED_L1) - 0.25)
    ok = worst <= 1e-12 and wl1_err <= 1e-12
    report(7, "loss formulas equal generic Gaussian oracles", ok,
           f"worst |diff| {worst:.2e} <= 1e-12; weighted-L1 fixed case err {wl1_err:.2e}")
    assert ok


def test_criterion_08_circulant_projection_is_optimal():
    worst = 0.0
    for n in range(2, 9):
        rng = np.random.default_rng(100 + n)
        row = rng.normal(size=n)
        got = circulant_projection(row)
        # Oracle: each lag solves an independent 1-d quadratic; recover the
        # vertex from three black-box samples of the objective.
        for k in range(1, n):
            def objective(x):
                return (x - row[k]) ** 2 * (n - k) + (x - row[n - k]) ** 2 * k

            alpha = (objective(1.0) + objective(-1.0)) / 2 - objective(0.0)
            beta = (objective(1.0) - objective(-1.0)) / 2
            vertex = -beta / (2 * alpha)
            worst = max(worst, abs(got[k] - vertex))
        worst = max(worst, abs(got[0] - row[0]))
    fixed = np.array([5.0, 1.0, 2.0, 1.0])
    exact_cases = np.array_equal(circulant_projection(fixed), fixed)
    ok = worst <= 1e-12 and exact_cases
    report(8, "circulant projection matches brute-force minimizer (n <= 8)", ok,
           f"worst |diff| {worst:.2e} <= 1e-12; fixed points exact {exact_cases}")
    assert ok


def test_criterion_09_vp_ve_consistency(benchmark_model):
    from diffsched import vp_to_ve, ve_to_vp

    _, model = benchmark_model
    lam = model.eigenvalues
    worst_rt = 0.0
    worst_gain = 0.0
    for schedule in (cosine_schedule(28), linear_schedule(64), edm_schedule(40, 7)):
        back = ve_to_vp(vp_to_ve(schedule))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.alpha_bar - schedule.alpha_bar))))
        ab = schedule.alpha_bar
        sigma = np.sqrt((1 - ab) / ab)
        a_steps, b_steps, _ = _step_coefficients(ab, "ddim")
        for s in range(1, schedule.steps + 1):
            a, b = a_steps[s - 1], b_steps[s - 1]
            Gvp = a + b * np.sqrt(ab[s]) * lam / (ab[s] * lam + 1 - ab[s])
            Mvp = b * (1 - ab[s]) / (ab[s] * lam + 1 - ab[s])
            av = sigma[s - 1] / sigma[s]
            Gve = av + (1 - av) * lam / (lam + sigma[s] ** 2)
            Mve = (1 - av) * sigma[s] ** 2 / (lam + sigma[s] ** 2)
            worst_gain = max(worst_gain, float(np.max(np.abs(Gvp - np.sqrt(ab[s - 1] / ab[s]) * Gve))))
            worst_gain = max(worst_gain, float(np.max(np.abs(Mvp - np.sqrt(ab[s - 1]) * Mve))))
    ok = worst_rt <= 1e-12 and worst_gain <= 1e-10
    report(9, "retention/sigma round trip and per-step gain relations", ok,
           f"round trip {worst_rt:.2e} <= 1e-12; gain relation {worst_gain:.2e} <= 1e-10")
    assert ok


def test_criterion_10_mean_bias_grows_with_depth(benchmark_model):
    _, model = benchmark_model
    centered = SpectralModel(
        dim=model.dim, eigenvalues=model.eigenvalues, mean_spectral=np.zeros(model.dim)
    )
    bias0, _ = mean_bias(ddim_transfer(centered, cosine_schedule(16)), centered)
    zero_ok = bool(np.all(bias0 == 0))
    peaks = []
    for S in (10, 50, 100, 500, 1000):
        _, deviation = mean_bias(ddim_transfer(model, cosine_schedule(S, 0, 0.5, 1)), model)
        peaks.append(float(deviation.max()))
    nondecreasing = bool(np.all(np.diff(peaks) >= 0))
    ok = zero_ok and nondecreasing
    report(10, "mean bias: zero for centered targets, grows with depth", ok,
           f"peaks {['%.4e' % p for p in peaks]}")
    assert ok


def test_criterion_11_dynamics(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(60)
    final = relative_error_dynamics(model, schedule)[0]
    lam = model.eigenvalues
    nonzero = lam >= 1e-12
    i_max = int(np.argmax(lam))
    i_min = int(np.arange(model.dim)[nonzero][np.argmin(lam[nonzero])])
    ordered = final[i_max] < final[i_min]
    curve = w2_dynamics(model, schedule)
    terminal = abs(curve[0] - w2_loss(model, ddim_transfer(model, schedule)))
    ok = bool(ordered and terminal <= 1e-12)
    report(11, "largest eigenvalue ends more accurate; dynamics consistent", ok,
           f"err(max lam) {final[i_max]:.3e} < err(min lam) {final[i_min]:.3e}; "
           f"terminal gap {terminal:.2e}")
    assert ok


def test_criterion_12_warm_start_saves_evaluations(benchmark_model, w2_optimized):
    _, model = benchmark_model
    coarse_schedule, _ = w2_optimized[10]
    warm_schedule, warm = optimize_schedule(
        model,
        OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=50, init=coarse_schedule),
    )
    _, cold = optimize_schedule(model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=50))
    within = abs(warm.final_loss - cold.final_loss) <= 0.01 * abs(cold.final_loss)
    fewer = warm.objective_evals < cold.objective_evals
    ok = bool(within and fewer)
    report(12, "warm start reaches the cold-start loss with fewer evaluations", ok,
           f"loss {warm.final_loss:.6e} vs {cold.final_loss:.6e}; "
           f"evals {warm.objective_evals} < {cold.objective_evals}")
    assert ok


def test_criterion_13_gradient_self_consistency(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(16)
    ab = schedule.alpha_bar

    def f(interior):
        full = np.concatenate([ab[:1], interior, ab[-1:]])
        return loss_from_alpha_bar(model, full, LossKind.WASSERSTEIN2, "ddim")

    x = ab[1:-1].copy()
    rng = np.random.default_rng(17)
    ratios = []
    for i in rng.permutation(len(x))[:6]:
        h = 1e-4 * max(1.0, abs(x[i]))

        def deriv(step):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            return (f(xp) - f(xm)) / (2 * step)

        d1, d2, d4 = deriv(h), deriv(h / 2), deriv(h / 4)
        if abs(d2 - d4) > 1e-14:
            ratios.append((d1 - d2) / (d2 - d4))
    richardson_ok = len(ratios) >= 3 and all(3.5 <= r <= 4.5 for r in ratios)

    g = loss_from_alpha_bar(
        model, schedule.alpha_bar, LossKind.WASSERSTEIN2, "ddim", gradient=True
    )[1]
    u = rng.normal(size=len(x))
    u /= np.linalg.norm(u)
    t = 1e-6
    secant = (f(x + t * u) - f(x - t * u)) / (2 * t)
    secant_ok = abs(secant - float(g @ u)) <= 1e-5 * max(1e-30, abs(secant))
    ok = bool(richardson_ok and secant_ok)
    report(13, "finite-difference gradient passes Richardson and secant checks", ok,
           f"ratios {['%.2f' % r for r in ratios]}; secant rel err "
           f"{abs(secant - float(g @ u)) / abs(secant):.2e}")
    assert ok


def test_reported_single_eigenvalue_schedule_shapes():
    # Informational (soft criterion): schedules optimized for a single small
    # eigenvalue tend to sit above those for a single large one mid-process.
    shapes = {}
    for lam_value in (10.0, 0.01):
        model = SpectralModel(
            dim=1, eigenvalues=[lam_value], mean_spectral=[0.0], source="single"
        )
        schedule, _ = optimize_schedule(
            model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=50)
        )
        shapes[lam_value] = schedule.alpha_bar
    interior = slice(5, 45)
    frac_above = float(
        np.mean(shapes[0.01][interior] >= shapes[10.0][interior])
    )
    print(
        "REPORT single-eigenvalue shapes: fraction of interior steps with "
        f"alpha_bar(lam=0.01) >= alpha_bar(lam=10) = {frac_above:.2f} (soft, not asserted)"
    )


def test_reported_pca_truncation_quality(benchmark_model):
    # Informational (soft criterion): optimizing on the top-25 subspace and
    # evaluating on the full model stays near the full-model optimum.
    from diffsched import pca_truncate

    _, model = benchmark_model
    truncated = pca_truncate(model, 25)
    schedule_small, _ = optimize_schedule(
        truncated, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=28)
    )
    full_schedule, full_rep = optimize_schedule(
        model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=28)
    )
    crossed = w2_loss(model, ddim_transfer(model, schedule_small))
    rel = (crossed - full_rep.final_loss) / full_rep.final_loss
    print(
        f"REPORT pca truncation: full-model W2 of top-25 solution {crossed:.6e} vs "
        f"optimum {full_rep.final_loss:.6e} (+{rel:.1%}; soft, not asserted)"
    )
