import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffsched import (
    LossKind,
    OptimizeConfig,
    SpectralModel,
    cosine_schedule,
    isotonic_project,
    kl_loss,
    linear_schedule,
    optimize_schedule,
    single_eigenvalue_problem,
    w2_loss,
    ddim_transfer,
)


# ----------------------------------------------------------- isotonic


def isotonic_oracle(values, lower, upper):
    """Exhaustive projection onto {nonincreasing} intersected with the box.

    The optimum pools consecutive entries into blocks whose value is the
    clipped block mean; enumerating every block composition and keeping the
    best feasible candidate is exact for small n.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    best, best_cost = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        candidate = np.empty(n)
        start = 0
        for end in list(np.nonzero(cuts)[0] + 1) + [n]:
            candidate[start:end] = np.clip(v[start:end].mean(), lower, upper)
            start = end
        if np.any(np.diff(candidate) > 1e-15):
            continue
        cost = np.sum((candidate - v) ** 2)
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best


def test_isotonic_identity_on_monotone_input():
    v = np.array([0.9, 0.5, 0.2])
    np.testing.assert_array_equal(isotonic_project(v, 0.0, 1.0), v)


def test_isotonic_two_point_pooling():
    np.testing.assert_allclose(isotonic_project(np.array([0.2, 0.8]), 0.0, 1.0), [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 6))
def test_isotonic_matches_bruteforce_oracle(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-0.5, 1.5, n)
    got = isotonic_project(v, 0.0, 1.0)
    expected = isotonic_oracle(v, 0.0, 1.0)
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_isotonic_rejects_bad_bounds():
    with pytest.raises(ValueError):
        isotonic_project(np.array([0.5]), 1.0, 0.0)


def test_tie_breaking_keeps_valid_schedule():
    from diffsched.optimize import _enforce_spacing

    ab = np.array([1 - 1e-4, 0.5, 0.5, 0.5, 4e-5])
    out = _enforce_spacing(ab)
    assert out[0] == ab[0] and out[-1] == ab[-1]
    assert np.all(np.diff(out) < 0)
    assert np.max(np.abs(out - ab)) < 1e-8  # nudges stay tiny


# ------------------------------------------- single-eigenvalue problems


def test_single_eigenvalue_zeroes_the_rest():
    model = SpectralModel(dim=3, eigenvalues=[2.0, 1.0, 0.5], mean_spectral=[1.0, 1.0, 1.0])
    sub = single_eigenvalue_problem(model, 0)
    np.testing.assert_array_equal(sub.eigenvalues, [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(sub.mean_spectral, np.zeros(3))
    with pytest.raises(ValueError):
        single_eigenvalue_problem(model, 3)


def test_single_eigenvalue_kl_uses_floor_rule():
    model = SpectralModel(dim=3, eigenvalues=[2.0, 1.0, 0.5], mean_spectral=[1.0, 1.0, 1.0])
    sub = single_eigenvalue_problem(model, 1)
    value = kl_loss(sub, ddim_transfer(sub, cosine_schedule(12)))
    assert np.isfinite(value)  # zeroed coordinates are excluded, not logged


# ------------------------------------------------------------ optimizer


@pytest.fixture(scope="module")
def small_run(benchmark_model):
    _, model = benchmark_model
    config = OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=16)
    return model, config, optimize_schedule(model, config)


def test_optimizer_endpoints_exact(small_run):
    model, config, (schedule, report) = small_run
    assert schedule.alpha_bar[0] == 1 - config.eps0
    assert schedule.alpha_bar[-1] == config.epsS
    schedule.validate()


def test_optimizer_improves_on_init(small_run):
    model, config, (schedule, report) = small_run
    init_loss = w2_loss(model, ddim_transfer(model, linear_schedule(16)))
    assert report.final_loss <= init_loss + config.ftol
    assert report.converged


def test_optimizer_trace_nonincreasing(small_run):
    _, _, (_, report) = small_run
    assert np.all(np.diff(report.loss_trace) <= 0)
    assert report.loss_trace[-1] <= report.loss_trace[0]
    assert report.objective_evals > 0
    assert report.wall_time_seconds >= 0


def test_optimizer_deterministic(benchmark_model):
    _, model = benchmark_model
    config = OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=12)
    first, _ = optimize_schedule(model, config)
    second, _ = optimize_schedule(model, config)
    assert np.array_equal(first.alpha_bar, second.alpha_bar)


def test_optimizer_random_inits_agree_with_linear(benchmark_model):
    _, model = benchmark_model
    tight = dict(loss=LossKind.WASSERSTEIN2, steps=28, ftol=1e-10)
    _, base = optimize_schedule(model, OptimizeConfig(**tight))
    for seed in (0, 1, 2):
        _, rep = optimize_schedule(
            model, OptimizeConfig(init="random", init_seed=seed, **tight)
        )
        assert abs(rep.final_loss - base.final_loss) <= 1e-6 * base.final_loss


def test_optimizer_beats_every_offered_init(benchmark_model):
    _, model = benchmark_model
    results = []
    for init in ("linear", "cosine"):
        _, rep = optimize_schedule(
            model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=16, init=init)
        )
        results.append(rep.final_loss)
    best = min(results)
    for final in results:
        assert final <= best + 1e-6 + 1e-6 * best


def test_warm_init_requires_schedule():
    with pytest.raises(ValueError):
        OptimizeConfig(steps=8, init="warm")


def test_optimizer_free_mode_matches_constrained_small(benchmark_model):
    _, model = benchmark_model
    base = dict(loss=LossKind.WASSERSTEIN2, steps=12, ftol=1e-10)
    constrained, _ = optimize_schedule(model, OptimizeConfig(mode="constrained", **base))
    free, _ = optimize_schedule(model, OptimizeConfig(mode="free", **base))
    assert np.max(np.abs(constrained.alpha_bar - free.alpha_bar)) <= 1e-3


def test_optimizer_ddpm_process_runs(benchmark_model):
    _, model = benchmark_model
    schedule, report = optimize_schedule(
        model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, process="ddpm", steps=10)
    )
    schedule.validate()
    assert np.isfinite(report.final_loss)


def test_optimizer_weighted_l1_runs(benchmark_model):
    _, model = benchmark_model
    schedule, report = optimize_schedule(
        model, OptimizeConfig(loss=LossKind.WEIGHTED_L1, steps=10)
    )
    schedule.validate()
    assert np.isfinite(report.final_loss)


def test_optimizer_rejects_degenerate_inputs():
    degenerate = SpectralModel(dim=2, eigenvalues=[0.0, 0.0], mean_spectral=[0.0, 0.0])
    with pytest.raises(ValueError):
        optimize_schedule(degenerate, OptimizeConfig(steps=8))
    with pytest.raises(ValueError):
        OptimizeConfig(steps=1)
    with pytest.raises(ValueError):
        OptimizeConfig(steps=8, ftol=0.0)
    with pytest.raises(ValueError):
        OptimizeConfig(steps=8, mode="loose")


def test_default_config_reports_convergence(benchmark_model):
    _, model = benchmark_model
    schedule, report = optimize_schedule(
        model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=10)
    )
    assert report.converged
    schedule.validate()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("ftol", {"ftol": np.nan}),
        ("eps0", {"eps0": np.nan}),
        ("eps0", {"eps0": np.inf}),
        ("epsS", {"epsS": np.nan}),
        ("epsS", {"epsS": -np.inf}),
        ("eps0", {"eps0": 0.0}),
        ("eps0", {"eps0": -1e-4}),
        ("epsS", {"epsS": 0.0}),
        ("epsS", {"epsS": -4e-5}),
        ("eps0 + epsS", {"eps0": 0.6, "epsS": 0.5}),
        ("eps0 + epsS", {"eps0": 0.5, "epsS": 0.5}),
    ],
)
def test_config_rejects_bad_endpoints_and_tolerance(field, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be"):
        OptimizeConfig(steps=8, **bad)


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_report_counts_match_traced_calls(benchmark_model, monkeypatch, process):
    # the report's counts are read off the solver result; every real call
    # must still be counted: the objective once more for the final loss
    import diffsched.optimize as optimize_module

    calls = {"objective": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        optimize_module,
        "loss_from_alpha_bar",
        counted("objective", optimize_module.loss_from_alpha_bar),
    )
    monkeypatch.setattr(
        optimize_module,
        "loss_gradient_from_alpha_bar",
        counted("gradient", optimize_module.loss_gradient_from_alpha_bar),
    )
    _, model = benchmark_model
    _, report = optimize_schedule(model, OptimizeConfig(process=process, steps=28))
    assert calls["objective"] == report.objective_evals + 1
    assert calls["gradient"] == report.gradient_evals
    assert len(report.loss_trace) == report.iterations + 1
