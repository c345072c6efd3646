import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffsched
from diffsched.cli import main
from diffsched.io import (
    load_matrix_csv,
    load_model,
    load_raw_f64,
    load_schedule,
    save_raw_f64,
    save_schedule,
)
from diffsched import (
    OptimizeConfig,
    OptimizeReport,
    SpectralModel,
    cosine_schedule,
    edm_schedule,
    optimize_schedule,
    single_eigenvalue_problem,
    synthetic_circulant_model,
)
from diffsched.io import save_model, save_ve_schedule
from diffsched.spectral import LAMBDA_FLOOR, _step_coefficients, vp_to_ve

from conftest import step_loop


@pytest.fixture()
def model_file(tmp_path):
    _, model = synthetic_circulant_model(16, 0.1, 0.05)
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


def run(argv):
    return main([str(a) for a in argv])


def write_tone_wav(path):
    """A 4000-sample 16-bit mono WAV: a tone plus a little noise."""
    rng = np.random.default_rng(0)
    signal = 0.4 * np.sin(2 * np.pi * np.arange(4000) / 25) + 0.05 * rng.normal(size=4000)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(16000)
        wav.writeframes(np.clip(signal * 32768, -32768, 32767).astype("<i2").tobytes())


# ------------------------------------------------------------------ gen


def test_gen_writes_schedule_and_manifest(tmp_path):
    out = tmp_path / "cosine.json"
    rc = run(["gen", "--family", "cosine", "--params", "0,1,1", "--steps", "112", "--out", out])
    assert rc == 0
    schedule = load_schedule(out)
    schedule.validate()
    assert schedule.steps == 112
    manifest = json.loads((tmp_path / "cosine.json.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert str(out) in manifest["outputs"]


def test_gen_edm_defaults(tmp_path):
    out = tmp_path / "edm.json"
    assert run(["gen", "--family", "edm", "--params", "7,0.002,80", "--steps", "112", "--out", out]) == 0
    load_schedule(out).validate()


def test_gen_partial_params_use_library_defaults(tmp_path):
    out = tmp_path / "edm.json"
    assert run(["gen", "--family", "edm", "--params", "7", "--steps", "10", "--out", out]) == 0
    expected = edm_schedule(10, 7.0)
    got = load_schedule(out)
    assert got.kind == expected.kind
    assert np.array_equal(got.alpha_bar, expected.alpha_bar)


def test_gen_calls_the_generator_through_the_cli_namespace(tmp_path, monkeypatch):
    # the benchmark traces each family's generator by wrapping this name
    calls = []
    generator = diffsched.cli.cosine_schedule

    def counting(*args, **kwargs):
        calls.append(args)
        return generator(*args, **kwargs)

    monkeypatch.setattr(diffsched.cli, "cosine_schedule", counting)
    assert run(["gen", "--family", "cosine", "--steps", "16", "--out", tmp_path / "c.json"]) == 0
    assert len(calls) == 1


def test_gen_too_many_params_exits_2(tmp_path, capsys):
    out = tmp_path / "edm.json"
    rc = run(["gen", "--family", "edm", "--params", "7,0.002,80,1", "--steps", "10", "--out", out])
    assert rc == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("edm takes at most 3 parameters")


def test_gen_invalid_params_exits_2(tmp_path, capsys):
    out = tmp_path / "bad.json"
    rc = run(["gen", "--family", "cosine", "--params", "0,1,0", "--steps", "16", "--out", out])
    assert rc == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


# ------------------------------------------------------------- optimize


def test_optimize_writes_schedule_and_report(tmp_path, model_file):
    out = tmp_path / "opt.json"
    rc = run([
        "optimize", "--model", model_file, "--loss", "w2", "--steps", "12", "--out", out,
    ])
    assert rc == 0
    load_schedule(out).validate()
    report = json.loads((tmp_path / "opt.json.report.json").read_text())
    assert report["converged"] is True
    assert report["final_loss"] >= 0
    assert report["status_message"].startswith("CONVERGENCE")
    assert report["min_log_snr_gap"] > 0


def test_optimize_report_counts_objective_and_gradient_evals(tmp_path, model_file):
    out = tmp_path / "opt.json"
    assert run(["optimize", "--model", model_file, "--steps", "12", "--out", out]) == 0
    report = json.loads((tmp_path / "opt.json.report.json").read_text())
    assert report["objective_evals"] > 0
    assert report["gradient_evals"] > 0
    assert report["objective_evals"] != report["gradient_evals"]


def test_optimize_iteration_limit_reports_its_stop(tmp_path, model_file):
    out = tmp_path / "opt.json"
    assert run(["optimize", "--model", model_file, "--steps", "12", "--max-iter", "1",
                "--out", out]) == 0
    load_schedule(out).validate()
    report = json.loads((tmp_path / "opt.json.report.json").read_text())
    assert report["status_message"] == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    assert report["converged"] is False
    assert report["iterations"] == 1


def test_optimize_single_step_exits_2(tmp_path, model_file):
    rc = run(["optimize", "--model", model_file, "--steps", "1", "--out", tmp_path / "x.json"])
    assert rc == 2


def test_optimize_bad_endpoints_exit_2(tmp_path, capsys, model_file):
    out = tmp_path / "x.json"
    rc = run([
        "optimize", "--model", model_file, "--steps", "8",
        "--eps0", "0.6", "--epsS", "0.5", "--out", out,
    ])
    assert rc == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("eps0 + epsS must be < 1")


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--init", "random", "--seed", "-1"], "init_seed"),
        (["--seed", "-1"], "init_seed"),  # checked whatever the init
        (["--init", "random:5"], "unknown init"),  # --seed is the only seed
        (["--max-iter", "0"], "max_iter"),
    ],
)
def test_optimize_bad_seed_or_iteration_limit_exits_2(tmp_path, capsys, model_file, flags, field):
    out = tmp_path / "x.json"
    rc = run(["optimize", "--model", model_file, "--steps", "8", "--out", out, *flags])
    assert rc == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert field in message


def test_optimize_random_init_seed_has_one_source(tmp_path, model_file):
    base = ["optimize", "--model", model_file, "--steps", "8", "--init", "random"]
    runs = {
        "after": ([], ["--seed", "5"], 5),
        "before": (["--seed", "5"], [], 5),
        "default": ([], [], 0),
    }
    model = load_model(model_file)
    for name, (before, after, seed) in runs.items():
        out = tmp_path / f"{name}.json"
        assert run([*before, *base, "--out", out, *after]) == 0
        manifest = json.loads((tmp_path / f"{name}.json.manifest.json").read_text())
        assert manifest["seed"] == seed, name
        config = OptimizeConfig(steps=8, init="random", init_seed=seed)
        save_schedule(optimize_schedule(model, config)[0], tmp_path / "lib.json")
        assert out.read_bytes() == (tmp_path / "lib.json").read_bytes(), name
    assert (tmp_path / "default.json").read_bytes() != (tmp_path / "after.json").read_bytes()


def test_optimize_report_holds_every_report_field(tmp_path, model_file):
    out = tmp_path / "opt.json"
    assert run(["optimize", "--model", model_file, "--steps", "8", "--out", out]) == 0
    report = json.loads((tmp_path / "opt.json.report.json").read_text())
    assert list(report) == [f.name for f in dataclasses.fields(OptimizeReport)]
    _, expected = optimize_schedule(load_model(model_file), OptimizeConfig(steps=8))
    assert report["loss_trace"] == expected.loss_trace.tolist()
    assert report["objective_evals"] == expected.objective_evals


@pytest.mark.parametrize("index", [0, 3])
def test_optimize_eigenvalue_index_matches_library(tmp_path, model_file, index):
    out = tmp_path / "cli.json"
    argv = ["optimize", "--model", model_file, "--steps", "12", "--eigenvalue-index", index]
    assert run([*argv, "--out", out]) == 0
    model = single_eigenvalue_problem(load_model(model_file), index)
    schedule, _ = optimize_schedule(model, OptimizeConfig(steps=12))
    save_schedule(schedule, tmp_path / "lib.json")
    assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()


def test_optimize_warm_start(tmp_path, model_file):
    coarse = tmp_path / "coarse.json"
    assert run(["optimize", "--model", model_file, "--steps", "8", "--out", coarse]) == 0
    warm = tmp_path / "warm.json"
    rc = run([
        "optimize", "--model", model_file, "--steps", "16",
        "--init", f"warm:{coarse}", "--out", warm,
    ])
    assert rc == 0
    load_schedule(warm).validate()


# ----------------------------------------------------------- eval/compare


def test_eval_rows(tmp_path, model_file):
    s1 = tmp_path / "a.json"
    s2 = tmp_path / "b.json"
    save_schedule(cosine_schedule(10), s1)
    save_schedule(cosine_schedule(10), s2)
    out = tmp_path / "eval.csv"
    rc = run([
        "eval", "--model", model_file, "--schedules", s1, s2,
        "--losses", "w2,kl", "--process", "both", "--out", out,
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "steps,schedule,process,loss_kind,value"
    assert len(lines) == 1 + 2 * 2 * 2
    # identical schedules give identical values
    values = {}
    for line in lines[1:]:
        steps, label, process, kind, value = line.split(",")
        values.setdefault((process, kind), set()).add(value)
    assert all(len(v) == 1 for v in values.values())


def test_eval_forms_no_step_partials(tmp_path, model_file, monkeypatch):
    # eval reports losses only, so no reverse sweep runs
    import diffsched.spectral as spectral_module

    def refuse(*args):
        raise AssertionError("step partials formed without a gradient")

    monkeypatch.setattr(spectral_module, "_step_partials", refuse)
    schedule = tmp_path / "s.json"
    save_schedule(cosine_schedule(10), schedule)
    out = tmp_path / "eval.csv"
    rc = run([
        "eval", "--model", model_file, "--schedules", schedule,
        "--losses", "w2,kl,wl1", "--process", "both", "--out", out,
    ])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 2 * 3


def test_compare_shape(tmp_path, model_file):
    out = tmp_path / "compare.csv"
    rc = run([
        "compare", "--model", model_file,
        "--schedules", "linear", "cosine:0,1,1", "cosine:0,0.5,1",
        "sigmoid:-3,3,1", "sigmoid:0,3,0.7", "edm:7,0.002,80",
        "--steps-list", "10,28,60,112", "--losses", "w2", "--out", out,
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) - 1 == 4 * 6
    assert len(lines) - 1 >= 24


def test_compare_ddim_vs_ddpm_columns(tmp_path, model_file):
    out = tmp_path / "k.csv"
    rc = run([
        "compare", "--model", model_file, "--schedules", "cosine:0,1,1",
        "--steps-list", "10", "--losses", "w2", "--process", "both", "--out", out,
    ])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    by_process = {row[2]: float(row[4]) for row in rows}
    assert by_process["ddim"] <= by_process["ddpm"]


# -------------------------------------------------------------- simulate


def test_simulate_deterministic_bytes(tmp_path):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    a = tmp_path / "a.f64"
    b = tmp_path / "b.f64"
    for out in (a, b):
        rc = run([
            "simulate", "--synthetic", "8,0.1,0.05", "--schedule", sched,
            "--samples", "200", "--seed", "7", "--out", out,
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads((tmp_path / "a.f64.json").read_text()) == {"dim": 8, "count": 200}


def test_simulate_default_seed_is_zero_and_recorded(tmp_path):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    base = ["simulate", "--synthetic", "8,0.1,0.05", "--schedule", sched, "--samples", "20"]
    for name, flags in {"default": [], "zero": ["--seed", "0"]}.items():
        assert run([*base, "--out", tmp_path / f"{name}.f64", *flags]) == 0
        manifest = json.loads((tmp_path / f"{name}.f64.manifest.json").read_text())
        assert manifest["seed"] == 0 and manifest["info"]["seed"] == 0, name
    assert (tmp_path / "default.f64").read_bytes() == (tmp_path / "zero.f64").read_bytes()


def test_simulate_requires_target(tmp_path):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    rc = run(["simulate", "--schedule", sched, "--samples", "10", "--out", tmp_path / "x.f64"])
    assert rc == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("50", "--synthetic takes three finite values"),
        ("50.5,0.1,0.05", "--synthetic d must be an integer"),
        ("nan,0.1,0.05", "--synthetic takes three finite values"),
    ],
)
def test_simulate_bad_synthetic_exits_2(tmp_path, capsys, spec, message):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    out = tmp_path / "x.f64"
    rc = run([
        "simulate", "--synthetic", spec, "--schedule", sched,
        "--samples", "4", "--out", out,
    ])
    assert rc == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"]["message"].startswith(message)


@pytest.mark.parametrize("field", ["mean", "covariance"])
def test_simulate_non_finite_target_exits_2(tmp_path, capsys, field):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    cov = tmp_path / "cov.csv"
    mean = tmp_path / "mean.csv"
    cov.write_text("1.0,0.0\n0.0,nan\n" if field == "covariance" else "1.0,0.0\n0.0,1.0\n")
    mean.write_text("nan\n0.0\n" if field == "mean" else "0.0\n0.0\n")
    out = tmp_path / "x.f64"
    rc = run([
        "simulate", "--cov", cov, "--mean", mean, "--schedule", sched,
        "--samples", "4", "--out", out,
    ])
    assert rc == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"]["message"].startswith(
        f"{field} must be finite"
    )


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_seed_outside_philox_key_exits_2(tmp_path, capsys, seed):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    out = tmp_path / "x.f64"
    rc = run([
        "--seed", seed, "simulate", "--synthetic", "8,0.1,0.05", "--schedule", sched,
        "--samples", "4", "--out", out,
    ])
    assert rc == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"]["message"].startswith("seed must be")


@pytest.mark.parametrize("before", [True, False])
def test_global_flags_before_or_after_subcommand(tmp_path, before):
    out = tmp_path / "s.json"
    manifest = tmp_path / "m.json"
    flags = ["--seed", "5", "--manifest-out", manifest]
    cmd = ["gen", "--family", "linear", "--steps", "4", "--out", out]
    assert run(flags + cmd if before else cmd + flags) == 0
    assert json.loads(manifest.read_text())["seed"] == 5


# ---------------------------------------------- dynamics / bias / estimate


def test_dynamics_outputs(tmp_path, model_file):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(10), sched)
    rel = tmp_path / "rel.csv"
    w2 = tmp_path / "w2.csv"
    rc = run([
        "dynamics", "--model", model_file, "--schedule", sched,
        "--out-relative-error", rel, "--out-w2", w2,
    ])
    assert rc == 0
    assert load_matrix_csv(rel).shape == (11, 16)
    assert load_matrix_csv(w2).shape == (11, 1)


def test_bias_output(tmp_path, model_file):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(10), sched)
    out = tmp_path / "bias.csv"
    assert run(["bias", "--model", model_file, "--schedule", sched, "--out", out]) == 0
    assert load_matrix_csv(out).shape == (16, 2)


def test_estimate_from_wav(tmp_path):
    wav_path = tmp_path / "tone.wav"
    write_tone_wav(wav_path)
    cov = tmp_path / "cov.csv"
    model_out = tmp_path / "model.json"
    rc = run([
        "estimate", "--input", wav_path, "--window", "50", "--th", "0.05",
        "--out-cov", cov, "--out-model", model_out,
    ])
    assert rc == 0
    assert load_matrix_csv(cov).shape == (50, 50)
    meta = json.loads((tmp_path / "cov.csv.meta.json").read_text())
    assert meta["windows_used"] + meta["windows_rejected"] == 80
    from diffsched.io import load_model

    assert load_model(model_out).dim == 50


@pytest.mark.parametrize("th", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("matrix", [False, True], ids=["wav", "csv"])
def test_estimate_non_finite_threshold_exits_2(tmp_path, capsys, th, matrix):
    # A 2-D input goes straight to covariance_from_windows, a stream through
    # EstimationConfig.
    rng = np.random.default_rng(0)
    if matrix:
        source = tmp_path / "windows.csv"
        np.savetxt(source, rng.normal(size=(20, 8)), delimiter=",")
    else:
        source = tmp_path / "noise.wav"
        with wave.open(str(source), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(16000)
            wav.writeframes((rng.normal(size=800) * 8000).astype("<i2").tobytes())
    cov = tmp_path / "cov.csv"
    rc = run([
        "estimate", "--input", source, "--window", "8", f"--th={th}",
        "--out-cov", cov, "--out-model", tmp_path / "model.json",
    ])
    assert rc == 2
    assert not cov.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("silence_threshold must be finite")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("raw", [False, True], ids=["csv", "f64"])
def test_estimate_non_finite_window_exits_2_naming_its_row(tmp_path, capsys, raw, value):
    # The loudness test would read a NaN row as silence, so the row is refused first.
    rows = [["0.2", "1", "0.3"], ["1", value, "0.5"], [value, "0", "0"]]
    if raw:
        source = tmp_path / "w.f64"
        np.array(rows, dtype=float).tofile(source)
        (tmp_path / "w.f64.json").write_text(json.dumps({"dim": 3, "count": 3}))
    else:
        source = tmp_path / "w.csv"
        source.write_text("".join(",".join(row) + "\n" for row in rows))
    cov = tmp_path / "cov.csv"
    rc = run([
        "estimate", "--input", source, "--window", "3", "--th", "0",
        "--out-cov", cov, "--out-model", tmp_path / "model.json",
    ])
    assert rc == 2
    assert not cov.exists()
    [line] = capsys.readouterr().err.splitlines()
    message = json.loads(line)["error"]["message"]
    assert message == "window row 1 holds NaN or inf (rows count from 0)"


# ---------------------------------------------------------------- convert


def test_convert_round_trip_identity(tmp_path):
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(12), sched)
    ve = tmp_path / "ve.json"
    back = tmp_path / "back.json"
    assert run(["convert", "--schedule", sched, "--direction", "to-ve", "--out", ve]) == 0
    assert run(["convert", "--schedule", ve, "--direction", "to-vp", "--out", back]) == 0
    original = load_schedule(sched)
    returned = load_schedule(back)
    assert np.max(np.abs(returned.alpha_bar - original.alpha_bar)) <= 1e-12


# ----------------------------------------------------------- global flags


def test_convert_nan_sigma_exits_2(tmp_path, capsys):
    # JSON accepts the NaN literal; the sigma loader must reject it
    ve = tmp_path / "ve.json"
    ve.write_text('{"steps": 2, "sigma": [0.01, NaN, 80.0]}')
    out = tmp_path / "vp.json"
    assert run(["convert", "--schedule", ve, "--direction", "to-vp", "--out", out]) == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("sigma must be finite")


@pytest.mark.parametrize(
    "sigma, level",
    [([0.0, 1, 80], 0), ([0.1, 1, 1e200], 2)],
    ids=["zero-sigma", "overflowing-sigma"],
)
def test_convert_to_vp_outside_the_retention_range_exits_2(tmp_path, capsys, sigma, level):
    # each converted with exit 0 to alpha_bar = 1 or 0, a file every later
    # command rejected; the overflow must not print a warning either
    ve = tmp_path / "ve.json"
    ve.write_text(json.dumps({"steps": 2, "sigma": sigma}))
    out = tmp_path / "vp.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["convert", "--schedule", ve, "--direction", "to-vp", "--out", out]) == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith(f"sigma[{level}]=")


@pytest.mark.parametrize(
    "content",
    [b"", b"RIF", b"not a wav file", b"RIFF\x04\x00\x00\x00WAVE"],
    ids=["empty", "truncated", "not-riff", "header-only"],
)
def test_estimate_unreadable_wav_exits_2(tmp_path, capsys, content):
    source = tmp_path / "bad.wav"
    source.write_bytes(content)
    cov = tmp_path / "cov.csv"
    rc = run([
        "estimate", "--input", source, "--window", "8", "--th", "0.05",
        "--out-cov", cov, "--out-model", tmp_path / "model.json",
    ])
    assert rc == 2
    assert not cov.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{source}: not a readable WAV file (")


@pytest.mark.parametrize("value", [2.5, True, "16", None], ids=["fraction", "bool", "string", "null"])
@pytest.mark.parametrize("file, field", [("model", "dim"), ("schedule", "steps"), ("sigma", "steps")])
def test_non_integer_count_field_exits_2(tmp_path, capsys, model_file, file, field, value):
    schedule_file = tmp_path / "s.json"
    save_schedule(cosine_schedule(4), schedule_file)
    sigma_file = tmp_path / "ve.json"
    save_ve_schedule(vp_to_ve(cosine_schedule(4)), sigma_file)
    path = {"model": model_file, "schedule": schedule_file, "sigma": sigma_file}[file]
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    if file == "sigma":
        argv = ["convert", "--schedule", sigma_file, "--direction", "to-vp", "--out", out]
    else:
        argv = ["eval", "--model", model_file, "--schedules", schedule_file, "--out", out]
    assert run(argv) == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    what = {"model": "spectral model", "schedule": "schedule", "sigma": "sigma schedule"}[file]
    assert message == f"{what} field {field!r} must be an integer, got {value!r}"


def _estimate_or_simulate(command, raw, tmp_path):
    if command == "estimate":
        return ["estimate", "--input", raw, "--window", "4",
                "--out-cov", tmp_path / "c.csv", "--out-model", tmp_path / "m.json"]
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(4), sched)
    return ["simulate", "--cov", raw, "--schedule", sched, "--samples", "4",
            "--out", tmp_path / "o.f64"]


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize(
    "meta, doubles, field",
    [
        ({"dim": -1, "count": -3}, 3, "dim"),  # reshape's error named neither
        ({"dim": 0, "count": 5}, 0, "dim"),  # estimate warned twice on stderr
        ({"dim": 2, "count": -1}, 0, "count"),
    ],
    ids=["negative-dim", "zero-dim", "negative-count"],
)
def test_raw_sidecar_with_bad_counts_exits_2_naming_the_field(
    tmp_path, capsys, command, meta, doubles, field
):
    raw = tmp_path / "x.f64"
    np.zeros(doubles).tofile(raw)
    (tmp_path / "x.f64.json").write_text(json.dumps(meta))
    assert run(_estimate_or_simulate(command, raw, tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1  # no numpy warning before the JSON error
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"raw sidecar field {field!r} must be >= ")
    assert message.endswith(f"({raw}.json)")


@pytest.mark.parametrize(
    "file, field, value, message",
    [
        ("model", "eigenvalues", ["1", 2], "must be a list of numbers, item 0 is '1'"),
        ("model", "mean_spectral", [0.0, True], "must be a list of numbers, item 1 is True"),
        ("model", "source", 5, "must be a string, got 5"),
        ("schedule", "kind", None, "must be a string, got None"),
        ("schedule", "alpha_bar", [[0.9999], 0.5], "must be a list of numbers, item 0 is [0.9999]"),
        ("sigma", "sigma", "0.01,80", "must be a list of numbers, got '0.01,80'"),
        ("model", "eigenvalues", [10**400, 1], "holds an integer beyond the float range"),
        ("schedule", "eps0", "0.0001", "must be a finite number, got '0.0001'"),
        ("schedule", "epsS", True, "must be a finite number, got True"),
        ("schedule", "eps0", None, "must be a finite number, got None"),
        ("schedule", "epsS", [4e-5], "must be a finite number, got [4e-05]"),
    ],
    ids=[
        "numeric-string",
        "bool",
        "number-for-string",
        "null",
        "nested-list",
        "string-for-list",
        "huge-integer",
        "numeric-string-eps0",
        "bool-epsS",
        "null-eps0",
        "list-epsS",
    ],
)
def test_mistyped_file_field_exits_2(tmp_path, capsys, model_file, file, field, value, message):
    schedule_file = tmp_path / "s.json"
    save_schedule(cosine_schedule(4), schedule_file)
    sigma_file = tmp_path / "ve.json"
    save_ve_schedule(vp_to_ve(cosine_schedule(4)), sigma_file)
    path = {"model": model_file, "schedule": schedule_file, "sigma": sigma_file}[file]
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    if file == "sigma":
        argv = ["convert", "--schedule", sigma_file, "--direction", "to-vp", "--out", out]
    else:
        argv = ["eval", "--model", model_file, "--schedules", schedule_file, "--out", out]
    assert run(argv) == 2
    assert not out.exists()
    what = {"model": "spectral model", "schedule": "schedule", "sigma": "sigma schedule"}[file]
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"{what} field {field!r} {message}"


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize(
    "sidecar, message",
    [
        ('{"count": 4}', "missing fields in raw sidecar: ['dim']"),
        ('{"dim": 4, "count": 4, "order": "C"}', "unknown fields in raw sidecar: ['order']"),
        ("[4, 4]", "{sidecar}: a raw sidecar must be a JSON object, got [4, 4]"),
    ],
    ids=["no-dim", "extra-field", "list"],
)
def test_malformed_raw_sidecar_exits_2(tmp_path, capsys, command, sidecar, message):
    raw = tmp_path / "x.f64"
    save_raw_f64(np.eye(4), raw)
    (tmp_path / "x.f64.json").write_text(sidecar)
    assert run(_estimate_or_simulate(command, raw, tmp_path)) == 2
    assert not (tmp_path / "o.f64").exists() and not (tmp_path / "c.csv").exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == message.format(sidecar=f"{raw}.json")


@pytest.mark.parametrize(
    "content, message",
    [
        ("5", "a spectral model must be a JSON object, got 5"),
        ("null", "a spectral model must be a JSON object, got null"),
        ('[{"a": 1}]', 'a spectral model must be a JSON object, got [{"a": 1}]'),
        ('{"dim": 4, "eigenvalues": [1.0, 0.', "not a readable JSON document (Expecting"),
        (b"\xff\xfe{}", "not a readable JSON document ('utf-8' codec can't decode"),
        ("[" * 100_000 + "]" * 100_000, "not a readable JSON document (maximum recursion depth"),
    ],
    ids=["number", "null", "list", "truncated", "not-utf-8", "nested-too-deep"],
)
def test_unreadable_model_document_exits_2_naming_the_file(tmp_path, capsys, content, message):
    model = tmp_path / "model.json"
    if isinstance(content, bytes):
        model.write_bytes(content)
    else:
        model.write_text(content)
    out = tmp_path / "o.json"
    assert run(["optimize", "--model", model, "--steps", "4", "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{model}: {message}")


@pytest.mark.parametrize(
    "content, message",
    [
        ("1,2\n3\n", "line 2 has 1 values, not 2"),
        ("1,2\n\n3,x\n", "line 3: could not convert string to float: 'x'"),
    ],
    ids=["ragged", "not-a-number"],
)
def test_estimate_malformed_csv_exits_2(tmp_path, capsys, content, message):
    source = tmp_path / "windows.csv"
    source.write_text(content)
    cov = tmp_path / "cov.csv"
    rc = run([
        "estimate", "--input", source, "--window", "2", "--th", "0.05",
        "--out-cov", cov, "--out-model", tmp_path / "model.json",
    ])
    assert rc == 2
    assert not cov.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"{source}: {message}"


def test_manifest_out_override(tmp_path):
    out = tmp_path / "s.json"
    manifest = tmp_path / "custom-manifest.json"
    rc = run([
        "gen", "--family", "linear", "--steps", "8", "--out", out,
        "--manifest-out", manifest,
    ])
    assert rc == 0
    assert manifest.exists()
    payload = json.loads(manifest.read_text())
    assert payload["config"]["family"] == "linear"


# one command per output flag, each with its other outputs named
_OUTPUT_FLAG_RUNS = {
    "--out": ["gen", "--family", "linear", "--steps", "10"],
    "--out-cov": ["estimate", "--input", "tone.wav", "--window", "16", "--out-model", "m.json"],
    "--out-model": ["estimate", "--input", "tone.wav", "--window", "16", "--out-cov", "c.csv"],
    "--out-relative-error": [
        "dynamics", "--model", "model.json", "--schedule", "cosine.json", "--out-w2", "w2.csv",
    ],
    "--out-w2": [
        "dynamics", "--model", "model.json", "--schedule", "cosine.json",
        "--out-relative-error", "rel.csv",
    ],
    "--manifest-out": ["gen", "--family", "linear", "--steps", "10", "--out", "s.json"],
}


@pytest.mark.parametrize(
    "flag, path",
    [
        pytest.param(flag, path, id=path if flag == "--manifest-out" else f"{flag}={path}")
        for flag in _OUTPUT_FLAG_RUNS
        for path in ("", ".", "missing-dir/m.json")
    ],
)
def test_unusable_manifest_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch, flag, path):
    # every output flag, --manifest-out included, is checked before the run
    monkeypatch.chdir(tmp_path)
    write_tone_wav(tmp_path / "tone.wav")
    save_model(synthetic_circulant_model(4, 0.1, 0.05)[1], tmp_path / "model.json")
    save_schedule(cosine_schedule(5), tmp_path / "cosine.json")
    inputs = sorted(tmp_path.iterdir())
    rc = run([*_OUTPUT_FLAG_RUNS[flag], flag, path])
    assert rc == 2
    assert sorted(tmp_path.iterdir()) == inputs
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"{flag} must name a file in an existing directory, got {path!r}"


# The README's command-line workflow on small inputs: steps <= 28 and at
# most 500 samples per process, on the model estimated from tone.wav.
SMALL_WORKFLOW = [
    "gen --family cosine --params 0,1,1 --steps 28 --out cosine.json",
    "gen --family edm --params 7,0.002,80 --steps 28 --out edm.json",
    "estimate --input tone.wav --window 16 --th 0.05 --out-cov cov.csv --out-model model.json",
    "optimize --model model.json --loss w2 --steps 28 --out spectral.json",
    "optimize --model model.json --steps 10 --out s10.json",
    "optimize --model model.json --steps 28 --init warm:s10.json --out s28.json",
    "optimize --model model.json --steps 20 --init random --seed 3 --out r20.json",
    "optimize --model model.json --steps 20 --eigenvalue-index 3 --out profile3.json",
    "eval --model model.json --schedules cosine.json spectral.json --losses w2,kl,wl1"
    " --process both --out eval.csv",
    "compare --model model.json --schedules linear cosine:0,1,1 sigmoid:-3,3,1 edm:7,0.002,80"
    " spectral --steps-list 10,28 --losses w2 --out compare.csv",
    "simulate --synthetic 8,0.1,0.05 --schedule cosine.json --process ddim --samples 500"
    " --seed 7 --out samples.f64",
    "simulate --synthetic 8,0.1,0.05 --schedule cosine.json --process ddpm --samples 500"
    " --seed 7 --out samples_ddpm.f64",
    "dynamics --model model.json --schedule cosine.json --out-relative-error rel.csv"
    " --out-w2 w2.csv",
    "bias --model model.json --schedule cosine.json --out bias.csv",
    "convert --schedule cosine.json --direction to-ve --out cosine_ve.json",
    "convert --schedule cosine_ve.json --direction to-vp --out back.json",
]


def argv_from_manifest(manifest):
    """The command line a manifest's ``config`` describes: the subcommand,
    then ``--key value`` per field, a list's values as separate tokens."""
    config = dict(manifest["config"])
    argv = [config.pop("command")]
    for key, value in config.items():
        argv.append("--" + key.replace("_", "-"))
        argv.extend(map(str, value) if isinstance(value, list) else [str(value)])
    return argv


def test_manifests_reproduce_their_runs(tmp_path, monkeypatch, capsys):
    # The README's claim: a deterministic command is reproduced bit-exactly
    # from its manifest.  Every command is re-run, in order, from the argv
    # its manifest rebuilds, in a directory that holds only the WAV; every
    # output but the optimizer report (wall times) must keep its bytes.
    first, second = tmp_path / "first", tmp_path / "second"
    manifests = []
    for directory in (first, second):
        directory.mkdir()
        write_tone_wav(directory / "tone.wav")
    monkeypatch.chdir(first)
    for command in SMALL_WORKFLOW:
        assert run(command.split()) == 0, command
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        manifests.append(json.loads(Path(outputs[0] + ".manifest.json").read_text()))
    monkeypatch.chdir(second)
    for manifest in manifests:
        assert run(argv_from_manifest(manifest)) == 0, manifest["config"]
    compared = [
        path
        for manifest in manifests
        for path in manifest["outputs"]
        if not path.endswith(".report.json")
    ]
    assert len(compared) == 21
    for path in compared:
        assert (first / path).read_bytes() == (second / path).read_bytes(), path


def test_missing_model_file_exits_2(tmp_path, capsys):
    rc = run(["optimize", "--model", tmp_path / "nope.json", "--steps", "4", "--out", tmp_path / "o.json"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["eigenvalues", "alpha_bar"])
def test_eval_non_finite_input_exits_2(tmp_path, capsys, model_file, field):
    # JSON accepts the NaN literal; the loaders must not pass it on to a CSV
    schedule_file = tmp_path / "s.json"
    save_schedule(cosine_schedule(10), schedule_file)
    path = model_file if field == "eigenvalues" else schedule_file
    data = json.loads(path.read_text())
    data[field][1] = float("nan")
    path.write_text(json.dumps(data))
    out = tmp_path / "eval.csv"
    rc = run(["eval", "--model", model_file, "--schedules", schedule_file, "--out", out])
    assert rc == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert err["error"]["message"].startswith(f"{field} must be finite")


@pytest.mark.parametrize(
    "eigenvalues, mean, mass",
    [
        ([1.0, 2.0], [1e200, 0.0], "sum(mean_spectral**2)"),
        ([1e308, 1e308], [0.0, 0.0], "sum(eigenvalues)"),
    ],
    ids=["mean-mass", "eigenvalue-mass"],
)
def test_eval_weighted_l1_of_an_overflowing_mass_exits_2(
    tmp_path, capsys, eigenvalues, mean, mass
):
    # Finite values whose total mass overflows would make every weight nan
    # (or 0, and the loss 0.0); the loss refuses them instead.
    model_path, schedule_path, out = tmp_path / "m.json", tmp_path / "s.json", tmp_path / "e.csv"
    save_model(SpectralModel(dim=2, eigenvalues=eigenvalues, mean_spectral=mean), model_path)
    save_schedule(cosine_schedule(10), schedule_path)
    rc = run(["eval", "--model", model_path, "--schedules", schedule_path, "--losses", "wl1",
              "--out", out])
    assert rc == 2
    assert not out.exists()
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "weighted-L1" in message and mass in message


# finite inputs whose W2 sums overflow: eval and compare get an infinite
# loss, dynamics an infinite distance, optimize an infinite start
_OVERFLOW_RUNS = {
    "eval": ["eval", "--model", "m.json", "--schedules", "s.json", "--losses", "w2,kl",
             "--process", "both", "--out", "out.csv"],
    "compare": ["compare", "--model", "m.json", "--schedules", "cosine", "linear",
                "--steps-list", "5,10", "--losses", "w2,kl", "--process", "both",
                "--out", "out.csv"],
    "dynamics": ["dynamics", "--model", "m.json", "--schedule", "s.json",
                 "--out-relative-error", "rel.csv", "--out-w2", "w2.csv"],
    "optimize": ["optimize", "--model", "m.json", "--steps", "5", "--out", "out.json"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", list(_OVERFLOW_RUNS))
def test_non_finite_result_exits_2_writing_nothing(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    huge = SpectralModel(dim=2, eigenvalues=[1e308, 1e308], mean_spectral=[0.0, 0.0])
    save_model(huge, "m.json")
    save_schedule(cosine_schedule(10), "s.json")
    rc = run(_OVERFLOW_RUNS[command])
    assert rc == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "s.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError"
    if command == "optimize":
        assert error["message"].startswith("objective is not finite")
    else:
        assert error["message"].endswith(": refusing to write a NaN or infinite value")


def test_loss_csv_refuses_an_infinite_kl(tmp_path):
    # a degenerate generated coordinate gives KL inf, which no CSV holds
    out = tmp_path / "e.csv"
    rows = [(10, "s.json", "ddim", "wasserstein2", 0.5), (10, "s.json", "ddim", "kl", float("inf"))]
    with pytest.raises(ValueError, match="refusing to write a NaN or infinite value"):
        diffsched.cli._write_loss_csv(rows, out)
    assert not out.exists()


def _write_input_files():
    """Input files each holding one fault that only an operation rejects."""
    save_model(synthetic_circulant_model(4, 0.1, 0.05)[1], "m.json")
    good = cosine_schedule(5)
    save_schedule(good, "s.json")
    schedule = json.loads(Path("s.json").read_text())
    for name, edit in [
        ("short.json", {"alpha_bar": schedule["alpha_bar"][:-1]}),
        ("end.json", {"alpha_bar": schedule["alpha_bar"][:-1] + [5e-6]}),
        ("zero.json", {"steps": 0, "alpha_bar": schedule["alpha_bar"][:1]}),
    ]:
        Path(name).write_text(json.dumps({**schedule, **edit}))
    Path("sigma.json").write_text(json.dumps({"steps": 2, "sigma": [-1.0, 0.5, 1.0]}))
    Path("dim0.json").write_text(
        json.dumps({"dim": 0, "eigenvalues": [], "mean_spectral": [], "source": ""})
    )
    Path("stream.csv").write_text("1.0\n2.0\n3.0\n")
    Path("cov.csv").write_text("1.0,0.0\n0.0,1.0\n")
    Path("mean3.csv").write_text("0.0\n0.0\n0.0\n")
    Path("empty.csv").write_text("")
    with wave.open("u8.wav", "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(1)
        wav.setframerate(8000)
        wav.writeframes(bytes(range(256)))


_EVAL = ["eval", "--model", "m.json", "--out", "o.csv", "--schedules"]
_SIMULATE = ["simulate", "--schedule", "s.json", "--samples", "4", "--out", "o.f64"]
_ESTIMATE = ["estimate", "--out-cov", "o.csv", "--out-model", "o.json", "--input"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(_EVAL + ["short.json"], "alpha_bar must have length steps+1=6, got 5", id="short"),
        pytest.param(_EVAL + ["end.json"], "alpha_bar[S]=5e-06 != epsS=4e-05", id="endpoint"),
        pytest.param(_EVAL + ["zero.json"], "steps must be >= 1, got 0", id="zero-steps"),
        pytest.param(
            ["convert", "--schedule", "sigma.json", "--direction", "to-vp", "--out", "o.json"],
            "sigma must be nonnegative",
            id="negative-sigma",
        ),
        pytest.param(
            ["eval", "--model", "dim0.json", "--schedules", "s.json", "--out", "o.csv"],
            "dim must be positive, got 0",
            id="dim-0",
        ),
        pytest.param(_SIMULATE + ["--cov", "stream.csv"], "--cov must hold a matrix", id="stream-cov"),
        pytest.param(
            _SIMULATE + ["--cov", "cov.csv", "--mean", "mean3.csv"],
            "covariance shape (2, 2) does not match mean length 3",
            id="mean-length",
        ),
        pytest.param(_ESTIMATE + ["empty.csv"], "empty CSV file: empty.csv", id="empty-csv"),
        pytest.param(
            _ESTIMATE + ["u8.wav"],
            "u8.wav: only 16-bit PCM WAV supported, got sample width 1",
            id="8-bit-wav",
        ),
        pytest.param(
            ["gen", "--family", "cosine", "--steps", "0", "--out", "o.json"],
            "S must be >= 1, got 0",
            id="cosine-0-steps",
        ),
        pytest.param(
            ["gen", "--family", "edm", "--steps", "0", "--out", "o.json"],
            "S must be >= 1, got 0",
            id="edm-0-steps",
        ),
        pytest.param(
            ["compare", "--model", "m.json", "--schedules", "foo", "--steps-list", "5",
             "--out", "o.csv"],
            "unknown family 'foo'",
            id="unknown-family",
        ),
        pytest.param(
            ["optimize", "--model", "m.json", "--steps", "5", "--init", "warm:zero.json",
             "--out", "o.json"],
            "steps must be >= 1, got 0",
            id="warm-0-steps",
        ),
    ],
)
def test_invalid_input_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    _write_input_files()
    inputs = sorted(tmp_path.iterdir())
    assert run(argv) == 2
    assert sorted(tmp_path.iterdir()) == inputs
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


# ---------------------------------------------------------- usage errors


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["optimize", "--model", "m.json", "--out", "o.json"], "--steps"),
        (["gen", "--family", "cosine", "--steps", "x", "--out", "o.json"], "--steps"),
        (["gen", "--family", "square", "--steps", "4", "--out", "o.json"], "--family"),
        # argparse reads a negative non-number given as its own word as a flag
        (["estimate", "--input", "s.wav", "--th", "-inf", "--out-cov", "c.csv",
          "--out-model", "m.json"], "--th"),
        (["optimize", "--model", "m.json", "--steps", "8", "--out", "o.json",
          "--report", "r.json"], "--report"),
        (["--seed", "x", "gen", "--family", "linear", "--steps", "4", "--out", "o.json"], "--seed"),
    ],
)
def test_usage_error_is_one_json_object(capsys, argv, flag):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError"
    assert flag in error["message"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["compare", "--model", "model.json", "--schedules", "linear", "--steps-list", "1.5"],
         "--steps-list"),
        (["compare", "--model", "model.json", "--schedules", "linear", "--steps-list", ",,"],
         "--steps-list"),
        (["compare", "--model", "model.json", "--schedules", "cosine:0,x", "--steps-list", "4"],
         "--schedules token 'cosine:0,x'"),
        (["gen", "--family", "cosine", "--steps", "4", "--params", "0,x"], "--params"),
        (["simulate", "--synthetic", "4,x,0.05", "--schedule", "s.json", "--samples", "5"],
         "--synthetic"),
    ],
    ids=["fraction", "empty-items", "schedules-token", "params", "synthetic"],
)
def test_malformed_comma_list_exits_2_naming_its_flag(
    tmp_path, capsys, monkeypatch, model_file, argv, name
):
    monkeypatch.chdir(tmp_path)
    save_schedule(cosine_schedule(4), "s.json")
    assert run([*argv, "--out", "out"]) == 2
    assert not Path("out").exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValueError"
    assert name in error["message"]


def test_help_exits_0(capsys):
    assert run(["optimize", "--help"]) == 0
    captured = capsys.readouterr()
    assert "--eigenvalue-index" in captured.out
    assert captured.err == ""


# Every subcommand's flags and some of the values they take, plus values no
# flag accepts; a drawn argv starts from a valid command and adds flags.
_BASE_ARGV = {
    "gen": ["--family", "cosine", "--steps", "5", "--out", "out.json"],
    "optimize": ["--model", "model.json", "--steps", "5", "--out", "out.json"],
    "eval": ["--model", "model.json", "--schedules", "sched.json", "--out", "out.csv"],
    "compare": ["--model", "model.json", "--schedules", "linear", "spectral",
                "--steps-list", "4", "--out", "out.csv"],
    "simulate": ["--synthetic", "4,0.1,0.05", "--schedule", "sched.json", "--samples", "5",
                 "--out", "out.f64"],
    "dynamics": ["--model", "model.json", "--schedule", "sched.json",
                 "--out-relative-error", "rel.csv", "--out-w2", "w2.csv"],
    "bias": ["--model", "model.json", "--schedule", "sched.json", "--out", "out.csv"],
    "estimate": ["--input", "signal.csv", "--window", "4", "--out-cov", "cov.csv",
                 "--out-model", "out.json"],
    "convert": ["--schedule", "sched.json", "--direction", "to-ve", "--out", "out.json"],
}
_FLAGS = [
    "--seed", "--manifest-out", "--family", "--steps", "--params", "--eps0", "--epsS", "--out",
    "--model", "--loss", "--process", "--mode", "--init", "--max-iter", "--ftol",
    "--eigenvalue-index", "--schedules", "--steps-list", "--losses", "--synthetic", "--cov",
    "--mean", "--schedule", "--samples", "--window", "--stride", "--th", "--structure",
    "--input", "--direction", "--help", "--report",
]
_VALUES = [
    "nan", "-inf", "inf", "", "1e400", "-1", "0", "2", "5", "0.5", "x", "0,1,1",
    "4,0.1,0.05", "model.json", "sched.json", "ve.json", "signal.csv", "out.json",
    "random", "warm:sched.json", "cosine", "ddpm", "both", "kl", "free", "symmetric", "to-vp",
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(_BASE_ARGV)),
    keep_base=st.booleans(),
    extra=st.lists(
        st.tuples(st.sampled_from(_FLAGS), st.none() | st.sampled_from(_VALUES)), max_size=3
    ),
)
def test_cli_exits_0_2_or_3_with_a_json_error(command, keep_base, extra):
    argv = [command, *(_BASE_ARGV[command] if keep_base else [])]
    for flag, value in extra:
        argv += [flag] if value is None else [flag, value]  # None: the value is missing
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _, model = synthetic_circulant_model(4, 0.1, 0.05)
        save_model(model, "model.json")
        save_schedule(cosine_schedule(4), "sched.json")
        save_ve_schedule(vp_to_ve(cosine_schedule(4)), "ve.json")
        np.savetxt("signal.csv", np.random.default_rng(0).normal(size=32))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        error = json.loads(err.getvalue().splitlines()[-1])["error"]
        assert set(error) == {"type", "message"}, argv


# ------------------------------------------------------- degenerate spectra

# an eigenvalue of exactly 0, below the floor, or anywhere above it
_EIGENVALUES = st.one_of(
    st.just(0.0),
    st.floats(1e-20, LAMBDA_FLOOR, exclude_max=True),
    st.floats(LAMBDA_FLOOR, 1e10),
)
_SPECTRUM_RUNS = [
    ["dynamics", "--model", "model.json", "--schedule", "sched.json",
     "--out-relative-error", "rel.csv", "--out-w2", "w2.csv"],
    ["eval", "--model", "model.json", "--schedules", "sched.json",
     "--losses", "w2,kl,wl1", "--process", "both", "--out", "eval.csv"],
    ["bias", "--model", "model.json", "--schedule", "sched.json", "--out", "bias.csv"],
    ["optimize", "--model", "model.json", "--steps", "6", "--out", "o.json"],
    ["optimize", "--model", "model.json", "--steps", "6", "--loss", "kl",
     "--process", "ddpm", "--out", "kl.json"],
]


def _non_finite_values(name: str) -> list:
    """Every NaN or infinity written in the CSV or JSON file ``name``."""
    text = Path(name).read_text()
    if name.endswith(".json"):
        bad = []
        json.loads(text, parse_constant=bad.append)
        return bad
    values = []
    for field in text.replace("\n", ",").split(","):
        try:
            values.append(float(field))
        except ValueError:  # a header or a name
            pass
    return [v for v in values if not np.isfinite(v)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 6))
def test_degenerate_spectra_exit_0_or_2_and_write_finite_values(data, dim):
    lam = np.array(data.draw(st.lists(_EIGENVALUES, min_size=dim, max_size=dim)))
    mean = data.draw(st.none() | st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
    mean = np.zeros(dim) if mean is None else np.array(mean)
    model = SpectralModel(dim=dim, eigenvalues=lam, mean_spectral=mean)
    schedule = cosine_schedule(12)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        save_model(model, "model.json")
        save_schedule(schedule, "sched.json")
        for argv in _SPECTRUM_RUNS:
            inputs = set(os.listdir())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 2), (argv, err.getvalue())
            if rc == 2:
                [line] = err.getvalue().splitlines()
                assert set(json.loads(line)["error"]) == {"type", "message"}
                continue
            for name in sorted(set(os.listdir()) - inputs):
                assert _non_finite_values(name) == [], (argv, name)
        rel = load_matrix_csv("rel.csv")
    # relative above the floor, absolute below it, against the step loop of
    # the deterministic sampler's per-step gains
    a, b, _ = _step_coefficients(schedule.alpha_bar, "ddim")
    x = schedule.alpha_bar[1:, None]
    G = a[:, None] + (b[:, None] * np.sqrt(x) * lam) / (x * lam + 1.0 - x)
    A, _ = step_loop(G, np.zeros_like(G))
    var = A**2
    assert rel.shape == (13, dim)
    mismatch = np.where(lam >= LAMBDA_FLOOR, rel * lam, rel)
    # numerators, not quotients: where lam ~ var the quotient is all cancellation
    assert np.all(np.abs(mismatch - np.abs(lam - var)) <= 1e-12 * np.maximum(lam, var))


# --------------------------------------------------------- file contents

# each input file, and the commands that read it
_FILE_READERS = {
    "model.json": [
        ["optimize", "--model", "model.json", "--steps", "4", "--out", "opt.json"],
        ["dynamics", "--model", "model.json", "--schedule", "sched.json",
         "--out-relative-error", "rel.csv", "--out-w2", "w2.csv"],
    ],
    "sched.json": [
        ["eval", "--model", "model.json", "--schedules", "sched.json", "--out", "eval.csv"],
        ["dynamics", "--model", "model.json", "--schedule", "sched.json",
         "--out-relative-error", "rel.csv", "--out-w2", "w2.csv"],
    ],
    "ve.json": [["convert", "--schedule", "ve.json", "--direction", "to-vp", "--out", "vp.json"]],
    "cov.f64.json": [
        ["simulate", "--cov", "cov.f64", "--schedule", "sched.json", "--samples", "5",
         "--out", "x.f64"],
        ["estimate", "--input", "cov.f64", "--window", "4", "--th", "0",
         "--out-cov", "c.csv", "--out-model", "m.json"],
    ],
}
_BIG = object()  # written as the literal 1e400, which JSON reads as inf
_FIELD_VALUES = [True, 2.5, None, "1", "x", 7, {}, [], [[1.0]], float("nan"), _BIG]
_TOP_LEVELS = [5, None, "x", [], [{"a": 1}]]


def _write_inputs():
    """Valid inputs in the current directory: a d=4 model, a 4-step schedule
    and its sigma form, and the model's 4 x 4 covariance as raw float64."""
    dense, model = synthetic_circulant_model(4, 0.1, 0.05)
    save_model(model, "model.json")
    save_schedule(cosine_schedule(4), "sched.json")
    save_ve_schedule(vp_to_ve(cosine_schedule(4)), "ve.json")
    save_raw_f64(dense.covariance, "cov.f64")


def _load_output(name: str) -> None:
    """Read a file a command wrote through the reader of its format."""
    if name == "eval.csv":
        with open(name, newline="") as fh:
            [float(row["value"]) for row in csv.DictReader(fh)]
    elif name.endswith(".csv"):
        load_matrix_csv(name)
    elif name.endswith((".manifest.json", ".report.json", ".meta.json")):
        json.loads(Path(name).read_text())
    elif name.endswith(".f64.json"):
        load_raw_f64(name[: -len(".json")])
    elif name.endswith(".f64"):
        load_raw_f64(name)
    elif name == "m.json":
        load_model(name)
    else:
        load_schedule(name)


@st.composite
def _edits(draw, data: dict):
    """One change to the JSON document ``data``, in place: the edited text."""
    field = draw(st.sampled_from(sorted(data)))
    kind = draw(st.sampled_from(["value", "item", "drop", "extra", "top", "truncate"]))
    if kind == "item" and isinstance(data[field], list):
        data[field][0] = draw(st.sampled_from(_FIELD_VALUES))
    elif kind in ("value", "item"):
        data[field] = draw(st.sampled_from(_FIELD_VALUES))
    elif kind == "drop":
        del data[field]
    elif kind == "extra":
        data["extra"] = 1
    elif kind == "top":
        data = draw(st.sampled_from(_TOP_LEVELS + [[data]]))
    text = json.dumps(data, default=lambda _: "BIG").replace('"BIG"', "1e400")
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def test_file_content_property_starts_from_files_every_command_reads(tmp_path):
    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()):
        _write_inputs()
        for argv in [argv for readers in _FILE_READERS.values() for argv in readers]:
            assert main(argv) == 0, argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), file=st.sampled_from(sorted(_FILE_READERS)))
def test_changed_input_file_exits_0_or_2_and_leaves_loadable_outputs(data, file):
    argv = data.draw(st.sampled_from(_FILE_READERS[file]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _write_inputs()
        inputs = set(os.listdir())
        Path(file).write_text(data.draw(_edits(json.loads(Path(file).read_text()))))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            # a warning would be a second line on a terminal's stderr
            assert not caught, [str(w.message) for w in caught]
            [line] = err.getvalue().splitlines()
            assert set(json.loads(line)["error"]) == {"type", "message"}
        else:
            for name in sorted(set(os.listdir()) - inputs):
                _load_output(name)


# ------------------------------------------------------------- start-up


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path, model_file):
    # optimize runs an in-package solver: neither importing the CLI nor
    # running the commands that optimize loads scipy
    src = str(Path(diffsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        ["optimize", "--model", model_file, "--steps", "10", "--out", tmp_path / "c.json"],
        ["optimize", "--model", model_file, "--steps", "10", "--mode", "free",
         "--out", tmp_path / "f.json"],
        ["compare", "--model", model_file, "--schedules", "spectral", "cosine",
         "--steps-list", "10", "--out", tmp_path / "k.csv"],
    ]
    for argv in runs:
        code = (
            "import sys, diffsched.cli\n"
            "loaded = 'scipy' in sys.modules\n"
            f"rc = diffsched.cli.main({[str(a) for a in argv]!r})\n"
            "print(loaded, rc, 'scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "False 0 False", argv


_BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
"""


def test_readme_workflow_runs_with_scipy_blocked(tmp_path):
    # Every subcommand of the README workflow, on small inputs, in a process
    # where importing scipy fails: scipy is a test dependency only.
    write_tone_wav(tmp_path / "tone.wav")
    runs = [
        ["gen", "--family", "cosine", "--params", "0,1,1", "--steps", "20", "--out", "cosine.json"],
        ["estimate", "--input", "tone.wav", "--window", "16", "--th", "0.05",
         "--out-cov", "cov.csv", "--out-model", "model.json"],
        ["optimize", "--model", "model.json", "--steps", "10", "--out", "s10.json"],
        ["optimize", "--model", "model.json", "--steps", "10", "--mode", "free",
         "--out", "f10.json"],
        ["optimize", "--model", "model.json", "--steps", "20", "--init", "warm:s10.json",
         "--out", "s20.json"],
        ["eval", "--model", "model.json", "--schedules", "cosine.json", "s20.json",
         "--losses", "w2,kl", "--process", "both", "--out", "eval.csv"],
        ["compare", "--model", "model.json", "--schedules", "linear", "sigmoid:-3,3,1",
         "spectral", "--steps-list", "10", "--out", "compare.csv"],
        ["simulate", "--synthetic", "8,0.1,0.05", "--schedule", "cosine.json",
         "--samples", "100", "--out", "samples.f64"],
        ["dynamics", "--model", "model.json", "--schedule", "cosine.json",
         "--out-relative-error", "rel.csv", "--out-w2", "w2.csv"],
        ["bias", "--model", "model.json", "--schedule", "cosine.json", "--out", "bias.csv"],
        ["convert", "--schedule", "cosine.json", "--direction", "to-ve", "--out", "ve.json"],
        ["convert", "--schedule", "ve.json", "--direction", "to-vp", "--out", "back.json"],
    ]
    code = _BLOCK_SCIPY + (
        "import diffsched.cli\n"
        f"print([diffsched.cli.main(argv) for argv in {runs!r}])\n"
    )
    src = str(Path(diffsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str([0] * len(runs)), out.stderr


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy 2 imports numpy.random on first use, and only a command that
    # draws uses it; numpy 1.26 imports it with numpy, and then so does the CLI
    src = str(Path(diffsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, numpy\n"
        "with_numpy = 'numpy.random' in sys.modules\n"
        "import diffsched.cli\n"
        "print(with_numpy, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    with_numpy, with_cli = out.stdout.split()
    assert with_cli == with_numpy


def test_one_chunk_simulate_leaves_concurrent_futures_unloaded(tmp_path):
    # Only a multi-chunk simulation imports the thread pool.
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(10), sched)
    src = str(Path(diffsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [
        "simulate", "--synthetic", "8,0.1,0.05", "--schedule", str(sched),
        "--process", "ddpm", "--samples", "100", "--out", str(tmp_path / "x.f64"),
    ]
    code = (
        "import sys, diffsched.cli\n"
        "loaded = 'concurrent.futures' in sys.modules\n"
        f"rc = diffsched.cli.main({argv!r})\n"
        "print(loaded, rc, 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "False 0 False"
    assert (tmp_path / "x.f64").exists()
