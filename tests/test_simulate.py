import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from diffsched import (
    DenseGaussian,
    LossKind,
    OptimizeConfig,
    Schedule,
    SimConfig,
    SpectralModel,
    cosine_schedule,
    ddim_transfer,
    ddpm_transfer,
    intermediate_distribution,
    linear_schedule,
    optimize_schedule,
    relative_error_dynamics,
    simulate_reverse,
    synthetic_circulant_model,
    w2_dynamics,
    w2_loss,
)
from diffsched import simulate
from diffsched.estimate import covariance_from_windows
from diffsched.simulate import (
    _chunk_stream_normals,
    _dense_steps,
    _sample_stream_normals,
    compose_affine,
)
from diffsched.spectral import LAMBDA_FLOOR, _step_coefficients

from conftest import dense_ddpm_moments, random_monotone_alpha_bar, wiener_denoise


def scalar_target(lam=1.5, mu=0.4):
    return DenseGaussian(mean=np.array([mu]), covariance=np.array([[lam]]))


def make_schedule(alpha_bar, eps0=1e-4, epsS=4e-5):
    ab = np.asarray(alpha_bar, dtype=float)
    return Schedule(kind="custom", steps=len(ab) - 1, alpha_bar=ab, eps0=eps0, epsS=epsS)


# ---------------------------------------------------------- one-step


def test_single_step_matches_scalar_oracle():
    lam, mu = 1.5, 0.4
    target = scalar_target(lam, mu)
    eps0, epsS = 1e-4, 4e-5
    schedule = make_schedule([1 - eps0, epsS])
    cfg = SimConfig(process="ddim", samples=8, seed=123, schedule=schedule)
    samples = simulate_reverse(target, cfg)

    model = SpectralModel(dim=1, eigenvalues=[lam], mean_spectral=[mu])
    a = np.sqrt(1 - (1 - eps0)) / np.sqrt(1 - epsS)
    b = np.sqrt(1 - eps0) - np.sqrt(epsS) * a
    for i in range(8):
        x_s = _sample_stream_normals(123, i, 1)
        expected = a * x_s + b * wiener_denoise(model, epsS, x_s)
        assert samples[i, 0] == pytest.approx(expected[0], rel=1e-12)


# ------------------------------------------------------- reproducibility


def test_fixed_seed_bit_identical():
    target = scalar_target()
    cfg = SimConfig(process="ddpm", samples=64, seed=9, schedule=cosine_schedule(6))
    a = simulate_reverse(target, cfg)
    b = simulate_reverse(target, cfg)
    assert np.array_equal(a, b)


def test_sample_depends_only_on_seed_and_index():
    # Drawing more samples must not change the earlier ones.
    target = scalar_target()
    few = simulate_reverse(target, SimConfig("ddim", 3, 5, cosine_schedule(6)))
    many = simulate_reverse(target, SimConfig("ddim", 10, 5, cosine_schedule(6)))
    np.testing.assert_array_equal(many[:3], few)


def _reference_normals(seed, start, rows, count):
    # The stream definition written out as the reference: every block of 64
    # samples drawn whole from a fresh Philox at counter ``b << 128``, and
    # samples ``start .. start+rows-1`` cut from them.
    first, last = start // 64, (start + rows - 1) // 64
    blocks = [
        Generator(Philox(key=seed, counter=b << 128)).standard_normal((64, count))
        for b in range(first, last + 1)
    ]
    offset = start - 64 * first
    return np.concatenate(blocks)[offset : offset + rows]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    start=st.integers(0, 2**72),
    rows=st.integers(1, 140),
    count=st.integers(1, 100),
)
@example(seed=2**128 - 1, start=64 * 2**64 - 3, rows=70, count=5)  # block 2**64 - 1 to 2**64
@example(seed=2**128 - 1, start=64 * 2**70 + 63, rows=2, count=1)
@example(seed=0, start=0, rows=65, count=51)
def test_chunk_stream_matches_per_sample_streams(seed, start, rows, count):
    chunk = _chunk_stream_normals(seed, start, rows, count)
    per_sample = np.stack([_sample_stream_normals(seed, start + r, count) for r in range(rows)])
    reference = _reference_normals(seed, start, rows, count)
    assert chunk.shape == (rows, count)
    assert chunk.tobytes() == per_sample.tobytes()
    assert per_sample.tobytes() == reference.tobytes()


@pytest.mark.parametrize("count", [1, 51, 5650])
def test_chunk_stream_split_matches_one_chunk(count):
    whole = _chunk_stream_normals(3, 7, 10, count)
    split = np.concatenate(
        [_chunk_stream_normals(3, 7, 4, count), _chunk_stream_normals(3, 11, 6, count)]
    )
    assert split.tobytes() == whole.tobytes()


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_dense_sample_depends_only_on_index(benchmark_model, process):
    # At d > 1 the dense products must see the same shapes whatever the
    # sample count, or rounding makes earlier samples depend on it.
    dense, _ = benchmark_model
    schedule = cosine_schedule(12)
    rows = simulate._chunk_rows(dense.dim)
    cases = [(3, 10), (63, 65), (4100, 5000), (rows - 1, rows + 1), (rows + 1, 2 * rows + 3)]
    for few, many in cases:
        a = simulate_reverse(dense, SimConfig(process, few, 17, schedule))
        b = simulate_reverse(dense, SimConfig(process, many, 17, schedule))
        assert a.tobytes() == b[:few].tobytes(), (few, many)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**40),
    rows=st.integers(1, 140),
    count=st.integers(1, 120),
)
def test_chunk_stream_into_buffers_matches_returning_form(seed, start, rows, count):
    out = np.full((rows, count), np.nan)
    written = _chunk_stream_normals(seed, start, rows, count, out=out)
    assert written is out
    assert out.tobytes() == _chunk_stream_normals(seed, start, rows, count).tobytes()


def _reference_simulate(target, cfg):
    # ddim as one serial loop over the dense steps, one at a time, that draws
    # each sample from its own stream: the reference for the folded sampler.
    ab = cfg.schedule.alpha_bar
    a, b, c2 = _step_coefficients(ab, cfg.process)
    assert c2 is None  # ddpm's samples follow its law, not its noise path
    x = _reference_normals(cfg.seed, 0, cfg.samples, target.dim)
    for gain, off in _dense_steps(target, ab, a, b, reversed(range(len(a)))):
        x = x @ gain.T + off
    return x


def assert_within_rounding(got, reference):
    # The gate on a fold that sums in another order than its per-step
    # reference.
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


def odd_dense_target(d=7):
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(d, d))
    return DenseGaussian(mean=rng.normal(size=d), covariance=raw @ raw.T / d)


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
@pytest.mark.parametrize("even", [True, False], ids=["d50", "d7"])
def test_chunk_count_does_not_change_bytes(benchmark_model, monkeypatch, process, even):
    # d=50 runs at the real chunk size; d=7 at a small one, so that it also
    # spans several chunks quickly.
    target = benchmark_model[0] if even else odd_dense_target()
    if not even:
        monkeypatch.setattr(simulate, "_CHUNK_NORMALS", 2**10)
    d, schedule = target.dim, cosine_schedule(12)
    rows = simulate._chunk_rows(d)
    cfg = SimConfig(process, 3 * rows + rows // 3 + 1, 29, schedule)  # 4 chunks, last partial
    starts = []
    chunk_stream = simulate._chunk_stream_normals

    def traced(seed, start, *args, **kwargs):
        starts.append(start)
        return chunk_stream(seed, start, *args, **kwargs)

    monkeypatch.setattr(simulate, "_chunk_stream_normals", traced)
    several = simulate_reverse(target, cfg)
    assert sorted(starts) == [0, rows, 2 * rows, 3 * rows]  # each chunk once, by either thread
    monkeypatch.setattr(simulate, "_CHUNK_NORMALS", (cfg.samples + simulate._STREAM_ROWS) * d)
    starts.clear()
    one = simulate_reverse(target, cfg)
    assert starts == [0]
    assert one.tobytes() == several.tobytes()

    # The bytes are those of the factor applied to each sample's d normals,
    # cut from whole blocks of the stream.  The reference maps them in one
    # product: a one-row product goes through a matrix-vector kernel that
    # sums in another order.
    F, offset = compose_affine(target, schedule, process)
    draws = _reference_normals(cfg.seed, 0, cfg.samples, d)
    assert several.tobytes() == (draws @ F.T + offset).tobytes()
    if process == "ddim":
        assert_within_rounding(several, _reference_simulate(target, cfg))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    rank=st.integers(1, 8),
    S=st.integers(1, 40),
    process=st.sampled_from(["ddim", "ddpm"]),
    tie=st.integers(0, 40),
)
def test_folded_ddpm_matches_per_step_loop(seed, d, rank, S, process, tie):
    # Both samplers run the one fold.  ddim is checked against the steps;
    # ddpm, which draws no per-step noise, by the law of its output.
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, min(rank, d)))
    target = DenseGaussian(mean=rng.normal(size=d), covariance=raw @ raw.T / d)
    ab = random_monotone_alpha_bar(rng, S)
    if tie < S - 1:
        ab[tie + 1] = ab[tie]  # a tied step; tie = 0 ties the first one
    cfg = SimConfig(process, 5, seed, make_schedule(ab))
    if process == "ddim":
        assert_within_rounding(simulate_reverse(target, cfg), _reference_simulate(target, cfg))
    else:
        F, offset = compose_affine(target, cfg.schedule, process)
        mean, cov = dense_ddpm_moments(target, ab, process)
        assert_within_rounding(F @ F.T, cov)
        assert_within_rounding(offset, mean)


@pytest.mark.parametrize("even", [True, False], ids=["d50", "d7"])
def test_folded_ddpm_map_has_the_per_step_moments(benchmark_model, even):
    # The draws are independent standard normals, so the folded map's output
    # has mean ``offset`` and covariance ``T T^T``: no samples needed.
    target = benchmark_model[0] if even else odd_dense_target()
    schedule = cosine_schedule(112)
    for process in ("ddim", "ddpm"):
        T, offset = compose_affine(target, schedule, process)
        mean, cov = dense_ddpm_moments(target, schedule.alpha_bar, process)
        np.testing.assert_allclose(offset, mean, rtol=0, atol=1e-12, err_msg=process)
        np.testing.assert_allclose(T @ T.T, cov, rtol=0, atol=1e-12, err_msg=process)


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
from diffsched import DenseGaussian, SimConfig, cosine_schedule, simulate_reverse
target = DenseGaussian(mean=np.load(sys.argv[1]), covariance=np.load(sys.argv[2]))
process, steps = sys.argv[3], int(sys.argv[4])
out = simulate_reverse(target, SimConfig(process, 3000, 7, cosine_schedule(steps)))
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


@pytest.mark.parametrize(
    "d, process, steps", [(50, "ddpm", 112), (7, "ddpm", 112), (200, "ddim", 28)],
    ids=["ddpm-d50", "ddpm-d7", "ddim-d200"],
)
def test_sampler_bytes_do_not_depend_on_blas_threads(tmp_path, d, process, steps):
    # At d <= 50, ddpm's fold and its chunk product (inner dimension d) sum
    # in the same order under one and two BLAS threads.  At d = 200 ddim's
    # do not, and only the one-thread pin makes the bytes agree.
    if d == 200 and not simulate.blas_pinned():
        pytest.skip(
            "numpy's OpenBLAS exports none of "
            + ", ".join(name for pair in simulate._BLAS_THREAD_SYMBOLS for name in pair)
        )
    target = odd_dense_target() if d == 7 else synthetic_circulant_model(d, 0.1, 0.05)[0]
    np.save(tmp_path / "mean.npy", target.mean)
    np.save(tmp_path / "cov.npy", target.covariance)
    src = str(Path(simulate.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, tmp_path / "mean.npy", tmp_path / "cov.npy",
             process, str(steps)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


@pytest.fixture
def no_thread_left():
    """Asserts that the test leaves no thread alive and the BLAS count as found.

    The count is set to 2 first, so a restore to a fixed 1 would show.
    """
    api = simulate._blas_thread_api()
    if api is not None:
        before = api[0]()
        api[1](2)
        expected = api[0]()
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads
    if api is not None:
        try:
            assert api[0]() == expected
        finally:
            api[1](before)


def test_fold_error_stops_the_draws(monkeypatch, no_thread_left):
    bad = DenseGaussian(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    cfg = SimConfig("ddim", 2_000_000, 0, cosine_schedule(4))
    chunks = -(-cfg.samples // simulate._chunk_rows(2))
    calls = []
    chunk_stream = simulate._chunk_stream_normals

    def counted(*args, **kwargs):
        calls.append(1)
        return chunk_stream(*args, **kwargs)

    monkeypatch.setattr(simulate, "_chunk_stream_normals", counted)
    with pytest.raises(ValueError, match="not PSD"):
        simulate_reverse(bad, cfg)
    assert len(calls) < chunks / 2, (len(calls), chunks)


def test_draw_error_reaches_the_caller(benchmark_model, monkeypatch, no_thread_left):
    target = benchmark_model[0]
    rows = simulate._chunk_rows(target.dim)
    chunk_stream = simulate._chunk_stream_normals

    def second_fails(seed, start, *args, **kwargs):
        if start == rows:
            raise RuntimeError("draw failed at the second chunk")
        return chunk_stream(seed, start, *args, **kwargs)

    monkeypatch.setattr(simulate, "_chunk_stream_normals", second_fails)
    with pytest.raises(RuntimeError, match="second chunk"):
        simulate_reverse(target, SimConfig("ddim", 3 * rows, 0, cosine_schedule(12)))


def _slow_helper(monkeypatch, seconds, drawn_by, fail_in_caller=False):
    # Delays only the helper's draws, so the calling thread claims the rest.
    chunk_stream = simulate._chunk_stream_normals

    def draw(seed, start, *args, **kwargs):
        name = threading.current_thread().name
        if name == "diffsched-draws":
            time.sleep(seconds)
        elif fail_in_caller:
            raise RuntimeError(f"draw failed at {start} in the calling thread")
        drawn_by.append((start, name))
        return chunk_stream(seed, start, *args, **kwargs)

    monkeypatch.setattr(simulate, "_chunk_stream_normals", draw)


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
@pytest.mark.parametrize("even", [True, False], ids=["d50", "d7"])
def test_calling_thread_shares_the_draws(
    benchmark_model, monkeypatch, no_thread_left, process, even
):
    target = benchmark_model[0] if even else odd_dense_target()
    if not even:
        monkeypatch.setattr(simulate, "_CHUNK_NORMALS", 2**10)
    d, schedule = target.dim, cosine_schedule(12)
    rows = simulate._chunk_rows(d)
    cfg = SimConfig(process, 3 * rows + rows // 3 + 1, 29, schedule)  # 4 chunks, last partial
    drawn_by = []
    _slow_helper(monkeypatch, 0.2, drawn_by)
    shared = simulate_reverse(target, cfg)
    assert sorted(start for start, _ in drawn_by) == [0, rows, 2 * rows, 3 * rows]
    assert any(name != "diffsched-draws" for _, name in drawn_by), drawn_by

    monkeypatch.setattr(simulate, "_CHUNK_NORMALS", (cfg.samples + simulate._STREAM_ROWS) * d)
    assert simulate_reverse(target, cfg).tobytes() == shared.tobytes()
    F, offset = compose_affine(target, schedule, process)
    draws = _reference_normals(cfg.seed, 0, cfg.samples, d)
    assert shared.tobytes() == (draws @ F.T + offset).tobytes()


def test_draw_error_in_the_calling_thread_reaches_the_caller(
    benchmark_model, monkeypatch, no_thread_left
):
    target = benchmark_model[0]
    rows = simulate._chunk_rows(target.dim)
    drawn_by = []
    _slow_helper(monkeypatch, 0.2, drawn_by, fail_in_caller=True)
    with pytest.raises(RuntimeError, match="in the calling thread"):
        simulate_reverse(target, SimConfig("ddim", 3 * rows, 0, cosine_schedule(12)))


def _five_chunks(monkeypatch, process):
    # Five chunks of the d=7 target, the last partial, and their reference bytes.
    target = odd_dense_target()
    monkeypatch.setattr(simulate, "_CHUNK_NORMALS", 2**10)
    rows = simulate._chunk_rows(target.dim)
    cfg = SimConfig(process, 4 * rows + rows // 3 + 1, 31, cosine_schedule(12))
    F, offset = compose_affine(target, cfg.schedule, process)
    reference = _reference_normals(cfg.seed, 0, cfg.samples, target.dim) @ F.T + offset
    return target, cfg, rows, reference


def _fold_waits_for(monkeypatch, event):
    fold = simulate.compose_affine

    def slow_fold(*args):
        assert event.wait(timeout=30)
        return fold(*args)

    monkeypatch.setattr(simulate, "compose_affine", slow_fold)


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_later_chunks_are_drawn_while_an_earlier_one_is_slow(
    monkeypatch, no_thread_left, process
):
    # The fold waits until the helper has claimed chunk 1, and the helper's
    # draw of chunk 1 waits until the calling thread has drawn the last
    # chunk: every later chunk is drawn, and may be mapped, before chunk 1,
    # and the bytes do not depend on that order.
    target, cfg, rows, reference = _five_chunks(monkeypatch, process)
    helper_at_1, last_drawn = threading.Event(), threading.Event()
    drawn_by = []
    chunk_stream = simulate._chunk_stream_normals

    def draw(seed, start, *args, **kwargs):
        name = threading.current_thread().name
        if (start, name) == (rows, "diffsched-draws"):
            helper_at_1.set()
            assert last_drawn.wait(timeout=30)
        out = chunk_stream(seed, start, *args, **kwargs)
        drawn_by.append((start, name))
        if start == 4 * rows:
            last_drawn.set()
        return out

    monkeypatch.setattr(simulate, "_chunk_stream_normals", draw)
    _fold_waits_for(monkeypatch, helper_at_1)
    got = simulate_reverse(target, cfg)
    caller = threading.current_thread().name
    assert drawn_by == [(0, "diffsched-draws"), (2 * rows, caller), (3 * rows, caller),
                        (4 * rows, caller), (rows, "diffsched-draws")]
    assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("process", ["ddim", "ddpm"])
def test_a_slow_fold_maps_every_chunk_the_helper_drew(monkeypatch, no_thread_left, process):
    # The fold ends only once the helper has drawn every chunk, so the
    # calling thread draws none and maps them all from the queue.
    target, cfg, rows, reference = _five_chunks(monkeypatch, process)
    all_drawn = threading.Event()
    drawn_by = []
    chunk_stream = simulate._chunk_stream_normals

    def draw(seed, start, *args, **kwargs):
        out = chunk_stream(seed, start, *args, **kwargs)
        drawn_by.append((start, threading.current_thread().name))
        if len(drawn_by) == 5:
            all_drawn.set()
        return out

    monkeypatch.setattr(simulate, "_chunk_stream_normals", draw)
    _fold_waits_for(monkeypatch, all_drawn)
    got = simulate_reverse(target, cfg)
    assert drawn_by == [(start, "diffsched-draws") for start in range(0, cfg.samples, rows)]
    assert got.tobytes() == reference.tobytes()


def test_concurrent_calls_give_the_serial_bytes(benchmark_model, no_thread_left):
    # More callers than two cores, switching often: each call
    # keeps its bytes, and the fixture checks the BLAS count they restore.
    target = benchmark_model[0]
    cfgs = [SimConfig(p, 3000, seed, cosine_schedule(28))
            for p, seed in (("ddim", 11), ("ddpm", 11), ("ddim", 12))]
    serial = [simulate_reverse(target, cfg).tobytes() for cfg in cfgs]
    start, got = threading.Barrier(len(cfgs)), [None] * len(cfgs)

    def call(k):
        start.wait(timeout=30)
        got[k] = simulate_reverse(target, cfgs[k]).tobytes()

    callers = [threading.Thread(target=call, args=(k,)) for k in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == serial


def test_stream_moments():
    z = np.concatenate([_sample_stream_normals(0, i, 100) for i in range(200)])
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    rank=st.integers(1, 8),
    S=st.integers(2, 29),
    cross=st.integers(0, 29),
)
@example(seed=0, d=8, rank=8, S=8, cross=2)
def test_dense_ddpm_moments_match_closed_form(seed, d, rank, S, cross):
    # Random non-circulant PSD targets, rank-deficient ones included; a
    # crossed step, as free-mode optimization may leave, adds no variance.
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, min(rank, d)))
    target = DenseGaussian(mean=rng.normal(size=d), covariance=raw @ raw.T / d)
    ab = random_monotone_alpha_bar(rng, S)
    if cross < S - 2:  # swap two interior levels; cross = 0 swaps the first two
        ab[cross + 1], ab[cross + 2] = ab[cross + 2], ab[cross + 1]
    mean, cov = dense_ddpm_moments(target, ab, "ddpm")

    eigvals, eigvecs = np.linalg.eigh(target.covariance)
    model = SpectralModel(
        dim=d, eigenvalues=np.clip(eigvals, 0, None), mean_spectral=eigvecs.T @ target.mean
    )
    transfer = ddpm_transfer(model, make_schedule(ab))
    conjugated = eigvecs.T @ cov @ eigvecs
    np.testing.assert_allclose(np.diag(conjugated), transfer.output_variance, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        conjugated - np.diag(np.diag(conjugated)), 0.0, rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(
        eigvecs.T @ mean, transfer.mean_gain * model.mean_spectral, rtol=0, atol=1e-10
    )


# ------------------------------------------------------------- sampling


def test_centered_target_gives_centered_samples(benchmark_model):
    dense, _ = benchmark_model
    centered = DenseGaussian(mean=np.zeros(dense.dim), covariance=dense.covariance)
    n = 4000
    cfg = SimConfig(process="ddim", samples=n, seed=21, schedule=cosine_schedule(12))
    samples = simulate_reverse(centered, cfg)
    diag_std = np.sqrt(np.diag(np.cov(samples.T)))
    assert np.all(np.abs(samples.mean(axis=0)) <= 4.0 * diag_std / np.sqrt(n))


def test_rejects_non_psd_covariance():
    bad = DenseGaussian(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        simulate_reverse(bad, SimConfig("ddim", 4, 0, cosine_schedule(4)))


@pytest.mark.parametrize("field", ["mean", "covariance"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dense_gaussian_rejects_non_finite(field, value):
    parts = {"mean": np.zeros(2), "covariance": np.eye(2)}
    parts[field][(0,) * parts[field].ndim] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DenseGaussian(**parts)


@pytest.mark.parametrize("samples", [2.5, 3.0, "3"])
def test_sim_config_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="^samples must be an integer"):
        SimConfig("ddim", samples, 0, cosine_schedule(4))


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5])
def test_sim_config_rejects_seed_outside_philox_key(seed):
    with pytest.raises(ValueError, match="^seed must be an integer in"):
        SimConfig("ddim", 4, seed, cosine_schedule(4))


def test_sim_config_accepts_largest_seed():
    target = scalar_target()
    out = simulate_reverse(target, SimConfig("ddim", 2, 2**128 - 1, cosine_schedule(4)))
    assert np.all(np.isfinite(out))


def test_rejects_asymmetric_covariance():
    with pytest.raises(ValueError):
        DenseGaussian(mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.2, 1.0]]))



def _windows_estimate(scale):
    # 30 windows of d = 50: a rank-29 sample covariance, PSD by construction
    windows = scale * np.random.default_rng(0).normal(size=(30, 50))
    return covariance_from_windows(windows, 0.0)


@pytest.mark.parametrize(
    "target",
    [
        lambda: synthetic_circulant_model(50, 1000.0, 0.05)[0],
        lambda: _windows_estimate(1.0),
        lambda: _windows_estimate(1e3),
    ],
    ids=["synthetic-l1000", "windows-scale1", "windows-scale1e3"],
)
def test_psd_by_construction_covariances_are_sampled_at_any_scale(target):
    # rounding is judged relative to the spectrum: a negative eigenvalue of
    # 1e-9 beside 1e7 is rounding, at any scale of the same shape
    samples = simulate_reverse(target(), SimConfig("ddim", 4, 0, cosine_schedule(4)))
    assert np.all(np.isfinite(samples))


def test_rejects_small_scale_non_psd_covariance():
    bad = DenseGaussian(mean=np.zeros(2), covariance=1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="not PSD"):
        simulate_reverse(bad, SimConfig("ddim", 4, 0, cosine_schedule(4)))


def test_rejects_small_scale_asymmetric_covariance():
    with pytest.raises(ValueError, match="not symmetric"):
        DenseGaussian(mean=np.zeros(2), covariance=np.array([[1e-14, 0.0], [1e-13, 1e-14]]))


# -------------------------------------------------------------- moments


def test_moments_of_identical_rows():
    rows = np.tile(np.array([1.0, -2.0]), (5, 1))
    mean, covariance = simulate._sample_moments(rows)
    np.testing.assert_array_equal(mean, [1.0, -2.0])
    np.testing.assert_array_equal(covariance, np.zeros((2, 2)))


def test_moments_two_samples():
    mean, covariance = simulate._sample_moments(np.array([[0.0], [2.0]]))
    assert mean[0] == 1.0
    assert covariance[0, 0] == 2.0  # unbiased divisor n-1


def test_moments_rejects_single_sample():
    with pytest.raises(ValueError):
        simulate._sample_moments(np.array([[1.0, 2.0]]))


def test_moments_standard_normal_monte_carlo():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal((100_000, 4))
    _, covariance = simulate._sample_moments(draws)
    off_diag = covariance - np.diag(np.diag(covariance))
    assert np.max(np.abs(off_diag)) <= 0.02
    np.testing.assert_allclose(np.diag(covariance), 1.0, atol=0.03)


# --------------------------------------------- spectral/time equivalence


def test_folded_map_diagonalizes_in_fourier_basis(benchmark_model):
    dense, model = benchmark_model
    schedule = linear_schedule(24)
    T, offset = compose_affine(dense, schedule, "ddim")
    d = dense.dim
    F = np.fft.fft(np.eye(d)) / np.sqrt(d)
    conjugated = F @ T @ F.conj().T
    transfer = ddim_transfer(model, schedule)
    np.testing.assert_allclose(np.diag(conjugated).real, transfer.noise_gain, atol=1e-10)
    np.testing.assert_allclose(
        conjugated - np.diag(np.diag(conjugated)), 0.0, atol=1e-10
    )


def test_compose_affine_holds_one_step_map_at_a_time():
    # The fold takes the S dense steps one at a time: its peak memory is its
    # map plus a few d x d matrices, not the S gains (200 of them here).
    import tracemalloc

    d = 64
    target = odd_dense_target(d)
    schedule = cosine_schedule(200)
    for process in ("ddim", "ddpm"):
        tracemalloc.start()
        try:
            T, _ = compose_affine(target, schedule, process)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T.nbytes + 15 * d * d * 8, process  # ddim's T is one d x d


@pytest.mark.parametrize("S", [20, 400])
def test_ddpm_sampler_memory_does_not_grow_with_steps(S):
    # ddpm draws d normals per sample through one d x d factor: its peak is
    # the output, the chunk's two buffers and a few d x d matrices, under one
    # bound at 20 steps and at 400.
    import tracemalloc

    d = 64
    target = odd_dense_target(d)
    rows = simulate._chunk_rows(d)
    tracemalloc.start()
    try:
        out = simulate_reverse(target, SimConfig("ddpm", 1000, 3, cosine_schedule(S)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * rows * d * 8 + 16 * d * d * 8


@pytest.mark.parametrize("l", [0, 1, 9, 23, 24])
def test_dense_steps_match_intermediate_distribution(benchmark_model, l):
    # steps S .. l+1 composed densely in the original coordinates; conjugated
    # into the Fourier basis, the state at level l must have variance A[l]**2
    # and mean B[l] * mean_spectral
    dense, model = benchmark_model
    schedule = linear_schedule(24)
    a, b, _ = _step_coefficients(schedule.alpha_bar, "ddim")
    steps = reversed(range(l, schedule.steps))
    T, offset = np.eye(dense.dim), np.zeros(dense.dim)
    for gain, off in _dense_steps(dense, schedule.alpha_bar, a, b, steps):
        T = gain @ T
        offset = gain @ offset + off
    F = np.fft.fft(np.eye(dense.dim)) / np.sqrt(dense.dim)
    covariance = F @ (T @ T.T) @ F.conj().T
    expected = intermediate_distribution(model, schedule, l)
    np.testing.assert_allclose(np.diag(covariance).real, expected.eigenvalues, atol=1e-10)
    np.testing.assert_allclose(covariance - np.diag(np.diag(covariance)), 0.0, atol=1e-10)
    np.testing.assert_allclose(F @ offset, expected.mean_spectral, atol=1e-10)


# -------------------------------------------------------------- dynamics


def test_relative_error_final_row_definition(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(20)
    rel = relative_error_dynamics(model, schedule)
    transfer = ddim_transfer(model, schedule)
    lam = model.eigenvalues
    mismatch = np.abs(lam - transfer.noise_gain**2)
    # relative above the eigenvalue floor, absolute below it (the DC coordinate)
    expected = np.divide(mismatch, lam, out=mismatch.copy(), where=lam >= LAMBDA_FLOOR)
    np.testing.assert_allclose(rel[0], expected, atol=1e-14)
    assert rel.shape == (21, model.dim)


def test_refinement_shrinks_all_final_errors(benchmark_model):
    _, model = benchmark_model
    coarse = relative_error_dynamics(model, cosine_schedule(10))[0]
    fine = relative_error_dynamics(model, cosine_schedule(1000))[0]
    assert np.all(fine <= coarse)


def test_w2_dynamics_endpoints(benchmark_model):
    _, model = benchmark_model
    schedule = cosine_schedule(20)
    curve = w2_dynamics(model, schedule)
    lam, mu = model.eigenvalues, model.mean_spectral
    start = np.sum((np.sqrt(lam) - 1.0) ** 2) + np.sum(mu**2)
    assert curve[-1] == pytest.approx(start, rel=1e-12)
    final = w2_loss(model, ddim_transfer(model, schedule))
    assert abs(curve[0] - final) <= 1e-12


def test_optimized_schedule_ends_below_cosine(benchmark_model):
    _, model = benchmark_model
    optimized, _ = optimize_schedule(
        model, OptimizeConfig(loss=LossKind.WASSERSTEIN2, steps=60)
    )
    ours = w2_dynamics(model, optimized)[0]
    cosine = w2_dynamics(model, cosine_schedule(60))[0]
    assert ours <= cosine
