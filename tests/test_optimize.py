import dataclasses
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diffsched import (
    DenseGaussian,
    EstimationConfig,
    LossKind,
    OptimizeConfig,
    Schedule,
    SimConfig,
    SpectralModel,
    cosine_schedule,
    kl_loss,
    linear_schedule,
    optimize_schedule,
    single_eigenvalue_problem,
    w2_loss,
    ddim_transfer,
)
from diffsched import optimize as optimize_module
from diffsched.losses import loss_from_alpha_bar
from diffsched.optimize import GTOL, MODES
from diffsched.spectral import LAMBDA_FLOOR

from conftest import generic_loss

BENCH = Path(__file__).resolve().parents[1] / "bench"


# ------------------------------------------- single-eigenvalue problems


def test_single_eigenvalue_zeroes_the_rest():
    model = SpectralModel(dim=3, eigenvalues=[2.0, 1.0, 0.5], mean_spectral=[1.0, 1.0, 1.0])
    sub = single_eigenvalue_problem(model, 0)
    np.testing.assert_array_equal(sub.eigenvalues, [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(sub.mean_spectral, np.zeros(3))
    with pytest.raises(ValueError):
        single_eigenvalue_problem(model, 3)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"^index must be an integer, got {bad}$"):
            single_eigenvalue_problem(model, bad)
    assert single_eigenvalue_problem(model, np.int64(2)).source.endswith("#eigenvalue2")


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


def _run_fields(schedule, report):
    """The bytes of a run: schedule and every report field but the wall time."""
    fields = dataclasses.asdict(report)
    del fields["wall_time_seconds"]
    fields["loss_trace"] = report.loss_trace.tobytes()
    return schedule.alpha_bar.tobytes(), fields


def test_concurrent_optimizer_runs_match_sequential_ones(benchmark_model):
    # Each run owns its schedule and cotangent buffers: two threads running
    # the same and different configs at once give the sequential bytes.
    _, model = benchmark_model
    configs = [OptimizeConfig(steps=28, mode=mode) for mode in ("constrained", "free")]
    sequential = [_run_fields(*optimize_schedule(model, config)) for config in configs]
    start = threading.Barrier(2)

    def run(config):
        start.wait(timeout=60.0)
        return _run_fields(*optimize_schedule(model, config))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose shared state
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            same = [list(pool.map(run, [config] * 2)) for config in configs]
            mixed = list(pool.map(run, configs))
    finally:
        sys.setswitchinterval(interval)
    for expected, pair in zip(sequential, same):
        assert pair == [expected, expected]
    assert mixed == sequential


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
    # a warm start is given as the Schedule itself; "warm" names no init
    with pytest.raises(ValueError, match="^unknown init 'warm'$"):
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


@pytest.mark.parametrize(
    "field, bad",
    [
        ("init_seed", {"init_seed": -1}),
        ("init_seed", {"init_seed": 1.5}),
        ("init_seed", {"init_seed": "3"}),
        ("init_seed", {"init_seed": True}),
        ("max_iter", {"max_iter": 0}),
        ("max_iter", {"max_iter": -1}),
        ("max_iter", {"max_iter": 2.5}),
        ("steps", {"steps": 10.5}),
        ("steps", {"steps": 1}),
    ],
)
def test_config_rejects_bad_integer_fields(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        OptimizeConfig(**{"steps": 8, "init": "random", **bad})


def test_config_rejects_an_unknown_process():
    with pytest.raises(ValueError, match="^process must be 'ddim' or 'ddpm', got 'x'$"):
        OptimizeConfig(steps=8, process="x")


_VALID_CONFIGS = {
    OptimizeConfig: {"steps": 8, "init": "random", "init_seed": 3, "max_iter": 5},
    SimConfig: {"process": "ddim", "samples": 4, "seed": 7, "schedule": cosine_schedule(4)},
    EstimationConfig: {"window": 4, "stride": 2},
    SpectralModel: {"dim": 2, "eigenvalues": [1.0, 0.5], "mean_spectral": [0.0, 0.0]},
}


@pytest.mark.parametrize(
    "config, field",
    [
        (OptimizeConfig, "steps"),
        (OptimizeConfig, "init_seed"),
        (OptimizeConfig, "max_iter"),
        (SimConfig, "samples"),
        (SimConfig, "seed"),
        (EstimationConfig, "window"),
        (EstimationConfig, "stride"),
        (SpectralModel, "dim"),
    ],
)
def test_library_configs_share_one_integer_rule(config, field):
    valid = _VALID_CONFIGS[config]
    for bad in (True, 2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            config(**{**valid, field: bad})
    assert getattr(config(**{**valid, field: np.int64(valid[field])}), field) == valid[field]


@pytest.mark.parametrize(
    "process, mode",
    [
        pytest.param("ddim", "constrained", id="ddim"),
        pytest.param("ddpm", "constrained", id="ddpm"),
        pytest.param("ddim", "free", id="ddim-free"),
        pytest.param("ddpm", "free", id="ddpm-free"),
    ],
)
def test_report_counts_match_traced_calls(benchmark_model, monkeypatch, process, mode):
    # the report's counts are read off the solver result; every real call
    # must still be counted: the objective once more for the final loss, and
    # each gradient by a call that asks for one
    import diffsched.optimize as optimize_module

    calls = {"objective": 0, "gradient": 0}
    real = optimize_module.loss_from_alpha_bar

    def counted(*args, gradient=False, **kwargs):
        calls["objective"] += 1
        calls["gradient"] += gradient
        return real(*args, gradient=gradient, **kwargs)

    monkeypatch.setattr(optimize_module, "loss_from_alpha_bar", counted)
    _, model = benchmark_model
    _, report = optimize_schedule(model, OptimizeConfig(process=process, mode=mode, steps=28))
    assert calls["objective"] == report.objective_evals + 1
    assert calls["gradient"] == report.gradient_evals
    assert len(report.loss_trace) == report.iterations + 1


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_each_evaluation_runs_one_forward_pass(benchmark_model, monkeypatch, process):
    # the loss and its gradient come from one pass through the per-step
    # gains; only the final loss adds a pass
    import diffsched.losses as losses_module

    passes = 0
    real = losses_module._transfer_arrays

    def counted(*args, **kwargs):
        nonlocal passes
        passes += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(losses_module, "_transfer_arrays", counted)
    _, model = benchmark_model
    _, report = optimize_schedule(model, OptimizeConfig(process=process, steps=28))
    assert passes == report.objective_evals + 1


@pytest.mark.parametrize("init", ["linear", "warm"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_each_run_evaluates_its_start_once(benchmark_model, monkeypatch, process, mode, init):
    # the solver's first evaluation, at the start, also sets the loss's
    # scale: no separate loss-only call precedes it
    schedules = []
    real = optimize_module.loss_from_alpha_bar

    def recorded(model, alpha_bar, *args, **kwargs):
        schedules.append(alpha_bar.tobytes())
        return real(model, alpha_bar, *args, **kwargs)

    monkeypatch.setattr(optimize_module, "loss_from_alpha_bar", recorded)
    _, model = benchmark_model
    start = cosine_schedule(10) if init == "warm" else "linear"
    config = OptimizeConfig(process=process, mode=mode, steps=28, init=start)
    optimize_schedule(model, config)
    first = np.frombuffer(schedules[0])
    np.testing.assert_allclose(first, optimize_module._initial_schedule(config), rtol=1e-12)
    assert sum(ab == schedules[0] for ab in schedules) == 1


@pytest.mark.parametrize("mode", MODES)
def test_no_schedule_a_loss_call_receives_is_rewritten(benchmark_model, monkeypatch, mode):
    # each evaluation builds its own schedule: no later evaluation, and not
    # the final loss, writes into an array an earlier loss call was handed
    kept = []
    real = optimize_module.loss_from_alpha_bar

    def keeping(model, alpha_bar, *args, **kwargs):
        kept.append((alpha_bar, alpha_bar.copy()))
        return real(model, alpha_bar, *args, **kwargs)

    monkeypatch.setattr(optimize_module, "loss_from_alpha_bar", keeping)
    _, model = benchmark_model
    schedule, report = optimize_schedule(model, OptimizeConfig(mode=mode, steps=28))
    assert len(kept) == report.objective_evals + 1
    for index, (alpha_bar, copy) in enumerate(kept):
        np.testing.assert_array_equal(alpha_bar, copy, err_msg=f"loss call {index}")
    np.testing.assert_array_equal(schedule.alpha_bar, kept[-1][1])


# (objective evaluations, iterations, final loss) of the run before the loss
# and gradient shared one forward pass; only the gradient's rounding changed.
# The evaluations exclude the loss-only start check that run also made.
PARENT_RUNS = {
    "w2-ddim-S10": (23, 19, 0.17051774202746478),
    "w2-ddim-S28": (22, 20, 0.023671603261191686),
    "w2-ddim-S60": (23, 20, 0.005309007495607418),
    "w2-ddim-S112": (24, 22, 0.0015795976078100671),
    "kl-ddpm-S60": (34, 31, 0.07564910988765328),
    "w2-ddim-S28-d400": (22, 19, 0.04903674830009625),
    "w2-ddim-S250": (27, 25, 0.00038329303975931145),
}


def test_design_points_agree_with_the_two_pass_gradient(benchmark_model, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from design import POINTS
    from inputs import signal_model

    _, d50 = benchmark_model
    models = {"d50": d50, "d400": signal_model(1)}
    points = [*POINTS, ("w2-ddim-S250", LossKind.WASSERSTEIN2, "ddim", 250, "d50")]
    assert sorted(name for name, *_ in points) == sorted(PARENT_RUNS)
    for name, loss, process, steps, model in points:
        config = OptimizeConfig(loss=loss, process=process, steps=steps)
        _, report = optimize_schedule(models[model], config)
        evals, iterations, final_loss = PARENT_RUNS[name]
        assert (report.objective_evals, report.iterations) == (evals, iterations), name
        assert report.final_loss == pytest.approx(final_loss, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("mode", ["constrained", "free"])
def test_report_projected_gradient_norm(benchmark_model, mode):
    _, model = benchmark_model
    # a negligible ftol leaves the gradient stop to end the run
    config = OptimizeConfig(steps=10, mode=mode, ftol=1e-300)
    schedule, report = optimize_schedule(model, config)
    assert report.status_message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    assert 0.0 <= report.projected_gradient_norm <= GTOL
    if mode == "free":
        # no bound is active, so the norm is the plain gradient's in log-SNR
        ab = schedule.alpha_bar
        interior = ab[1:-1]
        assert np.all((interior < ab[0]) & (interior > ab[-1]))
        f0 = loss_from_alpha_bar(model, np.linspace(ab[0], ab[-1], 11), config.loss)
        g = loss_from_alpha_bar(model, ab, config.loss, gradient=True)[1] * interior * (1 - interior)
        assert report.projected_gradient_norm == pytest.approx(np.max(np.abs(g)) / f0, rel=1e-6)


COMPLEX_STEP = 1e-30


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", [LossKind.WASSERSTEIN2, LossKind.KL])
@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_objective_gradient_matches_complex_step_through_the_parameterisation(
    monkeypatch, process, kind, mode
):
    # The gradient the solver is handed (the loss's gradient pulled back
    # through the schedule's parameterisation, over f0) against a complex
    # step through a test-side copy of each parameterisation: softmax gaps
    # between the endpoints' log-SNR levels, or free levels.  The copy feeds
    # the eigenbasis-free dense moments and the generic W2/KL formulas, so
    # the gate is the loss oracle's 1e-10 relative.
    rng = np.random.default_rng(7)

    def displaced(x):
        # any theta, or levels moved by less than a quarter of their
        # smallest gap, so none cross
        if mode == "constrained":
            return x + rng.normal(scale=0.5, size=x.shape)
        return x + 0.25 * np.min(-np.diff(x)) * rng.uniform(-1.0, 1.0, x.shape)

    captured = []

    def capture(fun, x, lower, upper, ftol, max_iter):
        # the objective writes into buffers of the run, so it is evaluated
        # here, at the start and at a point off it
        captured.extend((p, fun(p)[1]) for p in (x.copy(), displaced(x)))
        return x, 0.0, [], 0, "CONVERGENCE: captured"

    monkeypatch.setattr(optimize_module, "_lbfgs", capture)
    for _ in range(2):
        d, S = int(rng.integers(2, 7)), int(rng.integers(3, 16))
        lam = rng.uniform(0.05, 5.0, d)
        basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        covariance = (basis * lam) @ basis.T
        target = DenseGaussian(mean=rng.normal(size=d), covariance=0.5 * (covariance + covariance.T))
        model = SpectralModel(dim=d, eigenvalues=lam, mean_spectral=basis.T @ target.mean)
        config = OptimizeConfig(loss=kind, process=process, steps=S, mode=mode, init="cosine")
        optimize_schedule(model, config)
        head, tail = 1.0 - config.eps0, config.epsS
        top, bottom = np.log(head / (1.0 - head)), np.log(tail / (1.0 - tail))

        def loss_of(x):
            if mode == "constrained":
                w = np.exp(x - x.real.max())
                levels = top - (top - bottom) * np.cumsum(w[:-1] / w.sum())
            else:
                levels = x
            ab = np.concatenate([[head], 1.0 / (1.0 + np.exp(-levels)), [tail]])
            return generic_loss(target, basis, lam, ab, kind, process)

        f0 = loss_of(captured[0][0])
        for x, g in captured:
            oracle = np.empty(len(x))
            for i in range(len(x)):
                stepped = x.astype(complex)
                stepped[i] += COMPLEX_STEP * 1j
                oracle[i] = loss_of(stepped).imag / COMPLEX_STEP / f0
            assert np.linalg.norm(g - oracle) <= 1e-10 * np.linalg.norm(oracle), (d, S)
        captured.clear()


# ------------------------------------------ the solver against scipy's L-BFGS-B


@pytest.mark.parametrize("seed", range(3))
def test_lbfgs_reaches_a_box_minimum_with_active_bounds(seed):
    # A coupled convex quadratic whose unconstrained minimizer lies outside
    # the box: the minimum sits on bounds, where only the projected gradient
    # vanishes.  Checked by its optimality conditions and against scipy.
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    n = 12
    root = rng.normal(size=(n, n))
    hessian = root @ root.T + 0.1 * np.eye(n)
    centre = rng.uniform(-2.0, 3.0, n)

    def fun(x):
        r = x - centre
        return r @ hessian @ r, 2.0 * hessian @ r

    x0 = np.full(n, 0.5)
    x, pg_norm, _, _, message = optimize_module._lbfgs(fun, x0, 0.0, 1.0, 1e-12, 2000)
    assert message.startswith("CONVERGENCE")
    g = fun(x)[1]
    assert pg_norm == pytest.approx(np.max(np.abs(x - np.clip(x - g, 0.0, 1.0))), rel=1e-6)
    at_lower, at_upper = x == 0.0, x == 1.0
    assert np.any(at_lower | at_upper)
    assert np.all(g[at_lower] >= 0.0) and np.all(g[at_upper] <= 0.0)
    oracle = minimize(fun, x0, method="L-BFGS-B", jac=True, bounds=[(0.0, 1.0)] * n)
    assert fun(x)[0] <= oracle.fun * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), ftol=st.sampled_from([0.0, 1e-9]))
def test_lbfgs_without_bounds_matches_bounds_that_never_bind(n, seed, ftol):
    # Infinite bounds skip the bound bookkeeping; bounds far outside every
    # iterate must give the same run, byte for byte.
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(n, n))
    hessian = root @ root.T + rng.uniform(1e-3, 1.0) * np.eye(n)
    centre = rng.normal(scale=10.0, size=n)

    def fun(x):
        r = x - centre
        return r @ hessian @ r, 2.0 * hessian @ r

    x0 = rng.normal(size=n)
    runs = []
    for lower, upper in ((-np.inf, np.inf), (np.full(n, -1e300), np.full(n, 1e300))):
        x, pg_norm, history, evaluations, message = optimize_module._lbfgs(
            fun, x0.copy(), lower, upper, ftol, 200
        )
        runs.append((x.tobytes(), repr(pg_norm), history, evaluations, message))
    assert runs[0] == runs[1]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 12),
    rosenbrock=st.booleans(),
)
def test_each_lbfgs_iteration_starts_downhill(n, seed, k, rosenbrock):
    # Stored pairs with s.y > 0 make the two-loop direction a descent
    # direction, so no restart is needed: the first point that iteration
    # k + 1 tries lies downhill of the iterate x_k that iteration k accepted.
    rng = np.random.default_rng(seed)
    if rosenbrock:
        a = rng.uniform(1.0, 100.0)

        def fun(x):
            bend = x[1:] - x[:-1] ** 2
            g = np.zeros_like(x)
            g[:-1] = -4.0 * a * x[:-1] * bend - 2.0 * (1.0 - x[:-1])
            g[1:] += 2.0 * a * bend
            return float(np.sum(a * bend**2 + (1.0 - x[:-1]) ** 2)), g

    else:
        root = rng.normal(size=(n, n))
        hessian = root @ root.T + rng.uniform(1e-3, 1.0) * np.eye(n)
        centre = rng.normal(scale=10.0, size=n)

        def fun(x):
            r = x - centre
            return r @ hessian @ r, 2.0 * hessian @ r

    x0 = rng.uniform(-1.0, 1.0, n)
    x_k, _, _, n_k, message = optimize_module._lbfgs(fun, x0, -np.inf, np.inf, 0.0, k)
    assume(message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return fun(x)

    optimize_module._lbfgs(recorded, x0, -np.inf, np.inf, 0.0, k + 1)
    assert seen[n_k - 1].tobytes() == x_k.tobytes()
    assert fun(x_k)[1] @ (seen[n_k] - x_k) < 0.0


def _scipy_lbfgsb(fun, x, lower, upper, ftol, max_iter):
    """scipy's L-BFGS-B in the place of ``_lbfgs``: the same scaled
    objective, start, bounds and stopping constants."""
    from scipy.optimize import minimize

    history = []

    def callback(intermediate_result):
        history.append(intermediate_result.fun)

    result = minimize(
        fun,
        x,
        method="L-BFGS-B",
        jac=True,
        bounds=None if np.isinf(lower) else [(lower, upper)] * len(x),
        callback=callback,
        options={"maxiter": max_iter, "ftol": ftol, "gtol": GTOL},
    )
    return result.x, np.nan, history, result.nfev, str(result.message)


def test_solver_matches_scipy_lbfgsb_at_the_design_points(benchmark_model, monkeypatch):
    # The benchmark's design points plus S=250, constrained, and free where
    # S <= 28: the in-package loop must reach scipy's loss.
    monkeypatch.syspath_prepend(str(BENCH))
    from design import POINTS
    from inputs import signal_model

    _, d50 = benchmark_model
    models = {"d50": d50, "d400": signal_model(1)}
    cases = [
        (name, mode, OptimizeConfig(loss=loss, process=process, steps=steps, mode=mode), model)
        for name, loss, process, steps, model in [
            *POINTS,
            ("w2-ddim-S250", LossKind.WASSERSTEIN2, "ddim", 250, "d50"),
        ]
        for mode in ("constrained", "free")
        if mode == "constrained" or steps <= 28
    ]
    assert len(cases) == 10
    worse = []
    for name, mode, config, model in cases:
        _, ours = optimize_schedule(models[model], config)
        with monkeypatch.context() as patch:
            patch.setattr(optimize_module, "_lbfgs", _scipy_lbfgsb)
            _, oracle = optimize_schedule(models[model], config)
        assert ours.converged and oracle.converged, (name, mode)
        if ours.final_loss > (1 + 1e-6) * oracle.final_loss:
            worse.append((name, mode, ours.final_loss, oracle.final_loss))
    assert worse == []


# ------------------------------- optima the relative stopping rule reaches
# An absolute stop on the loss ends early wherever the loss is small; these
# optima sit well below what such a stop reports as converged.


def test_default_config_reaches_w2_optimum_at_250_steps(benchmark_model):
    _, model = benchmark_model
    _, report = optimize_schedule(model, OptimizeConfig(steps=250))
    assert report.converged
    assert report.final_loss <= 3.84e-4


def test_default_config_reaches_small_single_eigenvalue_optimum():
    model = SpectralModel(dim=1, eigenvalues=[0.01], mean_spectral=[0.0])
    _, report = optimize_schedule(model, OptimizeConfig(steps=50))
    assert report.converged
    assert report.final_loss <= 2.8e-6


# Relative gap between the default stop's loss and a run stopped only by the
# projected gradient, on a power-law spectrum; measured 2.5e-10 (W2/ddim) and
# 1.0e-8 (KL/ddpm), gated at about four times that.
POWER_LAW_GAPS = {(LossKind.WASSERSTEIN2, "ddim"): 1e-9, (LossKind.KL, "ddpm"): 4e-8}


@pytest.mark.parametrize("loss, process", list(POWER_LAW_GAPS))
def test_default_stop_lies_near_the_projected_gradient_reference(loss, process):
    d = 50
    k = np.arange(d)
    mean = np.zeros(d)
    mean[0] = 0.5
    model = SpectralModel(dim=d, eigenvalues=1.0 / (1.0 + np.minimum(k, d - k)) ** 2,
                          mean_spectral=mean)
    config = OptimizeConfig(loss=loss, process=process, steps=28)
    _, reference = optimize_schedule(model, dataclasses.replace(config, ftol=1e-300))
    assert reference.status_message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    _, report = optimize_schedule(model, config)
    assert report.converged
    gap = abs(report.final_loss - reference.final_loss)
    assert gap <= POWER_LAW_GAPS[loss, process] * reference.final_loss


def test_default_config_random_inits_reach_one_optimum(benchmark_model):
    _, model = benchmark_model
    finals = [
        optimize_schedule(model, OptimizeConfig(steps=60, init="random", init_seed=seed))[1]
        .final_loss
        for seed in (0, 1, 2)
    ]
    assert max(finals) - min(finals) <= 1e-8 * min(finals)


# -------------------------------------------- properties of every output


def _spectral_models():
    def build(pairs):
        lam, mu = (np.array(v) for v in zip(*pairs))
        return SpectralModel(dim=len(pairs), eigenvalues=lam, mean_spectral=mu)

    eigenvalue = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    mean = st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 0.01)
    return st.lists(st.tuples(eigenvalue, mean), min_size=1, max_size=6).map(build)


@st.composite
def _tied_schedules(draw):
    """Coarse warm-start schedules whose interior levels come from a small
    grid, so neighbouring levels are often exactly tied."""
    steps = draw(st.integers(2, 12))
    grid = st.sampled_from([0.9, 0.6, 0.6, 0.3, 0.1])
    interior = sorted(draw(st.lists(grid, min_size=steps - 1, max_size=steps - 1)), reverse=True)
    ab = np.array([1.0 - 1e-4, *interior, 4e-5])
    return Schedule(kind="custom", steps=steps, alpha_bar=ab)


@settings(max_examples=60, deadline=None)
@given(
    model=_spectral_models(),
    steps=st.integers(2, 40),
    loss=st.sampled_from(list(LossKind)),
    process=st.sampled_from(["ddim", "ddpm"]),
    mode=st.sampled_from(["constrained", "free"]),
    init=st.sampled_from(["linear", "cosine", "random", "warm"]),
    seed=st.integers(0, 2**32),
    coarse=_tied_schedules(),
)
# a tied ddpm level is a kink of c**2; its partials, taken from the monotone
# side, let this run stop on the projected gradient at iteration 0
@example(
    model=SpectralModel(dim=1, eigenvalues=[0.0], mean_spectral=[1.0]),
    steps=3,
    loss=LossKind.WASSERSTEIN2,
    process="ddpm",
    mode="free",
    init="warm",
    seed=0,
    coarse=Schedule(kind="custom", steps=3, alpha_bar=np.array([1.0 - 1e-4, 0.9, 0.9, 4e-5])),
)
def test_optimizer_output_properties(model, steps, loss, process, mode, init, seed, coarse):
    # KL and weighted-L1 are undefined (a documented ValueError) when no
    # eigenvalue reaches the floor, resp. all are zero
    assume(loss == LossKind.WASSERSTEIN2 or np.any(model.eigenvalues >= LAMBDA_FLOOR))
    config = OptimizeConfig(
        loss=loss,
        process=process,
        steps=steps,
        mode=mode,
        init=coarse if init == "warm" else init,
        init_seed=seed,
    )
    schedule, report = optimize_schedule(model, config)
    if mode == "constrained":  # monotone by construction
        assert np.all(np.diff(schedule.alpha_bar) <= 0)
    assert schedule.alpha_bar[0] == 1.0 - config.eps0
    assert schedule.alpha_bar[-1] == config.epsS
    assert report.final_loss <= report.loss_trace[0]
    assert np.all(np.diff(report.loss_trace) <= 0.0)
    assert len(report.loss_trace) == report.iterations + 1
    assert np.isfinite(report.projected_gradient_norm)
    assert report.projected_gradient_norm >= 0.0
    if report.status_message.startswith("CONVERGENCE: NORM OF PROJECTED GRADIENT"):
        assert report.projected_gradient_norm <= GTOL
    if report.status_message.startswith("ABNORMAL"):
        # the solver returns its last accepted point, whose loss the trace
        # holds as f0 * (f / f0), which may round one ulp away
        assert report.final_loss == pytest.approx(report.loss_trace[-1], rel=1e-15, abs=0.0)
    again, _ = optimize_schedule(model, config)
    assert again.alpha_bar.tobytes() == schedule.alpha_bar.tobytes()


def test_tied_ddpm_levels_stop_on_the_projected_gradient():
    # A tie p = x is the kink of the clamped c**2.  With its partials taken
    # from the crossed side, where they are zero, no step along the projected
    # gradient lowers the loss and the run stops ABNORMAL; from the monotone
    # side the warm start is a stationary point.
    model = SpectralModel(dim=1, eigenvalues=[0.0], mean_spectral=[1.0])
    coarse = Schedule(kind="custom", steps=3, alpha_bar=np.array([1.0 - 1e-4, 0.9, 0.9, 4e-5]))
    config = OptimizeConfig(process="ddpm", steps=3, mode="free", init=coarse)
    schedule, report = optimize_schedule(model, config)
    assert report.status_message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    assert report.iterations == 0
    assert report.projected_gradient_norm <= 1e-15
    assert report.final_loss == 1.0000250052507478e-4
    assert schedule.alpha_bar[1] == schedule.alpha_bar[2]
