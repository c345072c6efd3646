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
    DenseGaussian,
    OptimizeConfig,
    OptimizeReport,
    SimConfig,
    SpectralModel,
    cosine_schedule,
    edm_schedule,
    optimize_schedule,
    sigmoid_schedule,
    simulate_reverse,
    single_eigenvalue_problem,
    synthetic_circulant_model,
)
from diffsched.io import save_model, save_ve_schedule
from diffsched.simulate import _chunk_rows
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


def test_gen_params_may_start_with_a_minus_sign(tmp_path, monkeypatch, capsys):
    # a value such as -3,3,1 is not a flag, so the run replays from its manifest
    monkeypatch.chdir(tmp_path)
    expected = tmp_path / "expected.json"
    save_schedule(sigmoid_schedule(8, -3.0, 3.0, 1.0), expected)
    assert run(["gen", "--family", "sigmoid", "--params", "-3,3,1", "--steps", "8",
                "--out", "s.json"]) == 0
    assert Path("s.json").read_bytes() == expected.read_bytes()
    argv = argv_from_manifest(json.loads(Path("s.json.manifest.json").read_text()))
    Path("s.json").unlink()
    assert run(argv) == 0
    assert Path("s.json").read_bytes() == expected.read_bytes()


def test_gen_saturating_sigmoid_exits_0_warning_nothing(tmp_path, capsys):
    out, expected = tmp_path / "s.json", tmp_path / "expected.json"
    save_schedule(sigmoid_schedule(8, -3.0, 3.0, 1e-3), expected)
    assert run(["gen", "--family", "sigmoid", "--params=-3,3,1e-3", "--steps", "8",
                "--out", out]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().err == ""


def test_gen_flat_cosine_exits_2_with_one_json_line(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["gen", "--family", "cosine", "--params", "0,1,1e-300", "--steps", "8",
                "--out", out]) == 2
    assert sorted(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == {
        "type": "ValueError",
        "message": "--params: cosine curve is flat or not finite at (s, e, tau) = (0.0, 1.0, 1e-300)",
    }


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
    # every evaluation returns the loss and its gradient from one pass
    assert report["objective_evals"] == report["gradient_evals"]


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


def test_free_mode_crossed_schedule_is_read_by_every_command(tmp_path, capsys, monkeypatch):
    # Free mode may leave the levels crossed.  Every command that reads a
    # schedule takes the file it wrote, and eval reproduces the reported
    # loss, bar the conversion to sigma form, which needs ordered levels.
    monkeypatch.chdir(tmp_path)
    model = SpectralModel(dim=2, eigenvalues=[1.194710282207005, 2.681497210709634],
                          mean_spectral=[0.0, 0.3589016726101455])
    save_model(model, "m.json")
    Path("c.csv").write_text("1.0,0.5\n0.5,2.0\n")
    assert run(["--seed", "36", "optimize", "--model", "m.json", "--steps", "8", "--process",
                "ddpm", "--mode", "free", "--init", "random", "--out", "o.json"]) == 0
    assert np.any(np.diff(load_schedule("o.json").alpha_bar) > 0.0)
    for argv in (
        ["eval", "--model", "m.json", "--schedules", "o.json", "--process", "ddpm",
         "--out", "e.csv"],
        ["bias", "--model", "m.json", "--schedule", "o.json", "--process", "ddpm",
         "--out", "b.csv"],
        ["dynamics", "--model", "m.json", "--schedule", "o.json",
         "--out-relative-error", "r.csv", "--out-w2", "w.csv"],
        ["simulate", "--schedule", "o.json", "--process", "ddpm", "--cov", "c.csv",
         "--samples", "4", "--out", "s.f64"],
        ["optimize", "--model", "m.json", "--steps", "8", "--process", "ddpm", "--mode", "free",
         "--init", "warm:o.json", "--out", "warm.json"],
    ):
        assert run(argv) == 0, argv[0]
    report = json.loads(Path("o.json.report.json").read_text())
    row = Path("e.csv").read_text().splitlines()[1]
    assert row == f"8,o.json,ddpm,wasserstein2,{report['final_loss']!r}"
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    assert run(["convert", "--schedule", "o.json", "--direction", "to-ve", "--out", "v.json"]) == 2
    assert sorted(tmp_path.iterdir()) == files
    assert json.loads(capsys.readouterr().err)["error"]["message"].startswith("alpha_bar ")


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


def test_loss_csv_labels_keep_one_row_each(tmp_path, model_file):
    # a comma, CR, LF or double quote in a file name or a compare token is
    # written as "|", so each row is one line of five fields
    import csv

    names = ["a\nb.json", '"q.json', "c,d.json", "e\rf.json"]
    for name in names:
        save_schedule(cosine_schedule(10), tmp_path / name)
    evaluated, compared = tmp_path / "eval.csv", tmp_path / "compare.csv"
    assert run(["eval", "--model", model_file, "--schedules", *(tmp_path / n for n in names),
                "--losses", "w2", "--out", evaluated]) == 0
    assert run(["compare", "--model", model_file, "--schedules", "cosine:0,1,1\n",
                "--steps-list", "10", "--losses", "w2", "--out", compared]) == 0
    for out, labels in ((evaluated, ["a|b.json", "|q.json", "c|d.json", "e|f.json"]),
                        (compared, ["cosine:0|1|1|"])):
        text = out.read_text()
        assert len(text.splitlines()) == 1 + len(labels)
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["schedule"] for row in rows] == labels
        assert all(None not in row and float(row["value"]) > 0 for row in rows)


def test_eval_forms_no_step_partials(tmp_path, model_file, monkeypatch):
    # eval reports losses only, so no pullback forms the per-level partials
    import diffsched.spectral as spectral_module

    def refuse(*args):
        raise AssertionError("step partials formed without a gradient")

    for process in ("ddim", "ddpm"):
        monkeypatch.setattr(spectral_module, f"_{process}_pullback", refuse)
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


def test_compare_spectral_rows_are_each_rows_optimum(tmp_path, model_file):
    # Each spectral row holds, to the bit, eval's value of the schedule that
    # optimize finds for that row's loss and sampler; a heuristic's rows do
    # not depend on whether spectral is asked for.
    base = ["compare", "--model", model_file, "--steps-list", "6", "--losses", "w2,kl",
            "--process", "both"]
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    assert run([*base, "--schedules", "cosine", "spectral", "--out", both]) == 0
    assert run([*base, "--schedules", "cosine", "--out", alone]) == 0
    lines = both.read_text().splitlines()
    assert [line for line in lines if ",spectral," not in line] == alone.read_text().splitlines()
    spectral = [line.split(",") for line in lines if ",spectral," in line]
    assert [(row[2], row[3]) for row in spectral] == [
        (process, kind) for process in ("ddim", "ddpm") for kind in ("wasserstein2", "kl")
    ]
    for _, _, process, kind, value in spectral:
        loss = {"wasserstein2": "w2", "kl": "kl"}[kind]
        schedule, out = tmp_path / f"{loss}-{process}.json", tmp_path / f"{loss}-{process}.csv"
        assert run(["optimize", "--model", model_file, "--loss", loss, "--process", process,
                    "--steps", "6", "--out", schedule]) == 0
        assert run(["eval", "--model", model_file, "--schedules", schedule, "--losses", loss,
                    "--process", process, "--out", out]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == value, (process, kind)


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


def test_simulate_records_whether_blas_was_pinned(tmp_path, monkeypatch, capsys):
    # Without numpy's OpenBLAS thread symbols the run goes unpinned, says so,
    # and at this d its bytes are those of a pinned run.
    from diffsched import simulate

    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    base = ["simulate", "--synthetic", "8,0.1,0.05", "--schedule", sched, "--samples", "200"]
    for name, pinned in (("found", simulate.blas_pinned()), ("absent", False)):
        if name == "absent":
            monkeypatch.setattr(simulate, "_blas_thread_api", lambda: None)
        capsys.readouterr()
        assert run([*base, "--out", tmp_path / f"{name}.f64"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        manifest = json.loads((tmp_path / f"{name}.f64.manifest.json").read_text())
        assert summary["blas_pinned"] is manifest["info"]["blas_pinned"] is pinned, name
    assert (tmp_path / "found.f64").read_bytes() == (tmp_path / "absent.f64").read_bytes()


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
        ("1,0.1,0.05", "--synthetic: d must be an integer >= 2, got 1"),
        ("8,0,0.05", "--synthetic: l must be finite and positive, got 0.0"),
        ("8,-0.1,0.05", "--synthetic: l must be finite and positive, got -0.1"),
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


def test_simulate_reads_a_one_value_cov_as_a_1x1_matrix(tmp_path):
    # a one-column file reads as a stream; one value is still a covariance
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    (tmp_path / "cov.csv").write_text("2.0\n")
    save_raw_f64(np.array([2.0]), tmp_path / "cov.f64")
    cfg = SimConfig(process="ddpm", samples=5, seed=3, schedule=cosine_schedule(6))
    expected = simulate_reverse(DenseGaussian([0.0], [[2.0]]), cfg).astype("<f8").tobytes()
    for cov in ("cov.csv", "cov.f64"):
        out = tmp_path / f"{cov}.out.f64"
        rc = run([
            "--seed", "3", "simulate", "--cov", tmp_path / cov, "--schedule", sched,
            "--process", "ddpm", "--samples", "5", "--out", out,
        ])
        assert rc == 0
        assert out.read_bytes() == expected


@pytest.mark.parametrize("suffix", ["csv", "f64"])
def test_simulate_mean_that_is_a_matrix_exits_2(tmp_path, capsys, suffix):
    # a 2x2 mean was flattened into the four values a 4x4 --cov asks for
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(6), sched)
    save_raw_f64(np.eye(4), tmp_path / "cov.f64")
    mean = tmp_path / f"mean.{suffix}"
    if suffix == "csv":
        mean.write_text("0.5,0.0\n0.0,0.5\n")
    else:
        save_raw_f64(np.full((2, 2), 0.5), mean)
    out = tmp_path / "x.f64"
    argv = ["simulate", "--cov", tmp_path / "cov.f64", "--schedule", sched, "--samples", "4",
            "--out", out]
    assert run([*argv, "--mean", mean]) == 2
    assert not out.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {
        "type": "ValueError",
        "message": "--mean must hold one row or one column, got a 2x2 matrix",
    }
    # one row, like one column, is a vector
    (tmp_path / "row.csv").write_text("0.5,0.0,0.0,0.5\n")
    (tmp_path / "column.csv").write_text("0.5\n0.0\n0.0\n0.5\n")
    for name in ("row", "column"):
        assert run([*argv[:-1], tmp_path / f"{name}.f64", "--mean", tmp_path / f"{name}.csv"]) == 0
    assert (tmp_path / "row.f64").read_bytes() == (tmp_path / "column.f64").read_bytes()


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


@pytest.mark.parametrize(
    "target, flags",
    [
        (["--synthetic", "2,0.1,0.05", "--cov", "cov.csv"], ["--synthetic", "--cov"]),
        (["--synthetic", "2,0.1,0.05", "--mean", "mean.csv"], ["--mean", "--cov"]),
        (["--mean", "mean.csv"], ["--synthetic", "--cov"]),
        ([], ["--synthetic", "--cov"]),
    ],
    ids=["synthetic-and-cov", "synthetic-and-mean", "mean-alone", "none"],
)
def test_simulate_takes_one_target(tmp_path, capsys, monkeypatch, target, flags):
    # the synthetic target has its own covariance and mean, so a file that
    # would go unread is refused rather than listed as an input
    monkeypatch.chdir(tmp_path)
    save_schedule(cosine_schedule(6), "s.json")
    Path("cov.csv").write_text("1.0,0.0\n0.0,1.0\n")
    Path("mean.csv").write_text("0.5\n0.0\n")
    inputs = sorted(tmp_path.iterdir())
    argv = ["simulate", *target, "--schedule", "s.json", "--samples", "4", "--out", "o.f64"]
    assert run(argv) == 2
    assert sorted(tmp_path.iterdir()) == inputs
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    message = json.loads(captured.err)["error"]["message"]
    assert all(flag in message for flag in flags), message

    argv = ["simulate", "--cov", "cov.csv", "--mean", "mean.csv", "--schedule", "s.json",
            "--samples", "4", "--out", "o.f64"]
    assert run(argv) == 0
    manifest = json.loads(Path("o.f64.manifest.json").read_text())
    assert manifest["inputs"] == ["s.json", "cov.csv", "mean.csv"]


@pytest.mark.parametrize("before", [True, False])
def test_global_flags_before_or_after_subcommand(tmp_path, before):
    out = tmp_path / "s.json"
    manifest = tmp_path / "m.json"
    flags = ["--seed", "5", "--manifest-out", manifest]
    cmd = ["gen", "--family", "linear", "--steps", "4", "--out", out]
    assert run(flags + cmd if before else cmd + flags) == 0
    assert json.loads(manifest.read_text())["seed"] == 5


# ---------------------------------------------- dynamics / bias / estimate


def test_dynamics_outputs(tmp_path, model_file, capsys):
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
    # the trajectory is DDIM's, and the run says so
    manifest = json.loads(Path(f"{rel}.manifest.json").read_text())
    assert manifest["info"] == {"process": "ddim"}
    assert json.loads(capsys.readouterr().out)["process"] == "ddim"


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


def test_estimate_one_loud_window_exits_2(tmp_path, capsys):
    # one window's moments would be an all-zero covariance and model
    source = tmp_path / "one.csv"
    source.write_text("1,2,3\n")
    rc = run([
        "estimate", "--input", source, "--window", "3", "--th", "0",
        "--out-cov", tmp_path / "cov.csv", "--out-model", tmp_path / "model.json",
    ])
    assert rc == 2
    assert list(tmp_path.iterdir()) == [source]
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "ValueError",
        "message": "need at least 2 windows at or above the silence threshold 0.0, got 1 of 1",
    }


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


def _stereo_wav_bytes(cut: int) -> bytes:
    """A 500-frame 16-bit stereo WAV with its last ``cut`` bytes removed."""
    buffer = io.BytesIO()
    with wave.open(buffer, "wb") as wav:
        wav.setnchannels(2)
        wav.setsampwidth(2)
        wav.setframerate(16000)
        wav.writeframes(np.arange(1000, dtype="<i2").tobytes())
    return buffer.getvalue()[:-cut]


@pytest.mark.parametrize(
    "content",
    [b"", b"RIF", b"not a wav file", b"RIFF\x04\x00\x00\x00WAVE"]
    + [_stereo_wav_bytes(cut) for cut in (1, 2, 3, 4, 400)],
    ids=["empty", "truncated", "not-riff", "header-only"]
    + [f"cut-{cut}" for cut in (1, 2, 3, 4, 400)],
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


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize("extra", [3, 8, -8], ids=["plus-3", "plus-8", "minus-8"])
def test_raw_file_size_off_its_sidecar_exits_2_naming_the_file(tmp_path, capsys, command, extra):
    # reading whole doubles dropped a partial one unseen, and a count
    # mismatch named neither the file nor the flag
    raw = tmp_path / "x.f64"
    save_raw_f64(np.eye(4), raw)
    data = raw.read_bytes()
    raw.write_bytes(data + b"\0" * extra if extra > 0 else data[:extra])
    assert run(_estimate_or_simulate(command, raw, tmp_path)) == 2
    assert not (tmp_path / "o.f64").exists() and not (tmp_path / "c.csv").exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {
        "type": "ValueError",
        "message": f"{raw}: holds {128 + extra} bytes, sidecar promises 4x4 doubles (128 bytes)",
    }


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


# one command per file a run names after an output flag's file: the command
# without that flag, the flag, its value, and the file named after it
_DERIVED_OUTPUT_RUNS = [
    (_OUTPUT_FLAG_RUNS["--out"], "--out", "s.json", "s.json.manifest.json"),
    (["optimize", "--model", "model.json", "--steps", "4"], "--out", "o.json", "o.json.report.json"),
    (
        ["simulate", "--synthetic", "4,0.1,0.05", "--schedule", "cosine.json", "--samples", "10"],
        "--out", "x.f64", "x.f64.json",
    ),
    (_OUTPUT_FLAG_RUNS["--out-cov"], "--out-cov", "c2.csv", "c2.csv.meta.json"),
]

# one command per pair of output flags that lead a run to write one file: the
# command with the first flag, the second flag and its value, and the message
_SHARED_OUTPUT_RUNS = [
    (
        _OUTPUT_FLAG_RUNS["--manifest-out"], "--manifest-out", "s.json",
        "--out 's.json' and --manifest-out 's.json' both lead the run to write 's.json'",
    ),
    (
        _OUTPUT_FLAG_RUNS["--manifest-out"], "--manifest-out", "./s.json",
        "--out 's.json' and --manifest-out './s.json' both lead the run to write './s.json'",
    ),
    (
        _DERIVED_OUTPUT_RUNS[1][0] + ["--out", "o.json"], "--manifest-out", "o.json.report.json",
        "--out 'o.json' and --manifest-out 'o.json.report.json' "
        "both lead the run to write 'o.json.report.json'",
    ),
    (
        _DERIVED_OUTPUT_RUNS[2][0] + ["--out", "x.f64"], "--manifest-out", "x.f64.json",
        "--out 'x.f64' and --manifest-out 'x.f64.json' both lead the run to write 'x.f64.json'",
    ),
    (
        _OUTPUT_FLAG_RUNS["--out-model"], "--out-model", "c.csv",
        "--out-cov 'c.csv' and --out-model 'c.csv' both lead the run to write 'c.csv'",
    ),
    (
        _OUTPUT_FLAG_RUNS["--out-w2"], "--out-w2", "rel.csv",
        "--out-relative-error 'rel.csv' and --out-w2 'rel.csv' "
        "both lead the run to write 'rel.csv'",
    ),
]


def _write_output_run_inputs(directory):
    """The files the runs of ``_OUTPUT_FLAG_RUNS`` and the lists after it read."""
    write_tone_wav(directory / "tone.wav")
    save_model(synthetic_circulant_model(4, 0.1, 0.05)[1], directory / "model.json")
    save_schedule(cosine_schedule(5), directory / "cosine.json")


@pytest.mark.parametrize(
    "argv, flag, path, derived",
    [
        pytest.param(
            _OUTPUT_FLAG_RUNS[flag], flag, path, None,
            id=path if flag == "--manifest-out" else f"{flag}={path}",
        )
        for flag in _OUTPUT_FLAG_RUNS
        for path in ("", ".", "missing-dir/m.json")
    ]
    + [pytest.param(*case, id=case[-1]) for case in _DERIVED_OUTPUT_RUNS],
)
def test_unusable_manifest_out_exits_2_before_the_run(
    tmp_path, capsys, monkeypatch, argv, flag, path, derived
):
    # every output flag, --manifest-out included, and every file named after
    # one (here a directory in its way) is checked before the run
    monkeypatch.chdir(tmp_path)
    _write_output_run_inputs(tmp_path)
    if derived:
        (tmp_path / derived).mkdir()
    inputs = sorted(tmp_path.iterdir())
    rc = run([*argv, flag, path])
    assert rc == 2
    assert sorted(tmp_path.iterdir()) == inputs
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValueError"
    if derived:
        assert error["message"] == (
            f"{flag} {path!r} leads the run to write {derived!r}, "
            "which must be a file in an existing directory"
        )
    else:
        assert error["message"] == f"{flag} must name a file in an existing directory, got {path!r}"


@pytest.mark.parametrize(
    "argv, flag, path, message", [pytest.param(*case, id=case[2]) for case in _SHARED_OUTPUT_RUNS]
)
def test_outputs_naming_one_file_exit_2_before_the_run(
    tmp_path, capsys, monkeypatch, argv, flag, path, message
):
    # a file written twice would keep only the last of its two outputs
    monkeypatch.chdir(tmp_path)
    _write_output_run_inputs(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    assert run([*argv, flag, path]) == 2
    assert sorted(tmp_path.iterdir()) == inputs
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


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
    # output but the optimizer report (wall times) must keep its bytes.  A
    # manifest lists exactly the files its run created, beside itself.
    first, second = tmp_path / "first", tmp_path / "second"
    manifests = []
    for directory in (first, second):
        directory.mkdir()
        write_tone_wav(directory / "tone.wav")
    monkeypatch.chdir(first)
    for command in SMALL_WORKFLOW:
        before = set(os.listdir())
        assert run(command.split()) == 0, command
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        manifest_path = outputs[0] + ".manifest.json"
        assert set(os.listdir()) - before == {*outputs, manifest_path}, command
        manifests.append(json.loads(Path(manifest_path).read_text()))
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["optimize", "compare"])
@pytest.mark.parametrize("loss, largest", [("kl", 1e200), ("w2", 1e300)])
def test_non_finite_start_gradient_exits_2(tmp_path, capsys, monkeypatch, command, loss, largest):
    # the loss is finite at the start but its gradient overflows: refused
    # before the solver runs, with no warning, which here would be an error
    monkeypatch.chdir(tmp_path)
    save_model(SpectralModel(dim=2, eigenvalues=[largest, 1.0], mean_spectral=[0.0, 0.0]), "m.json")
    argv = {
        "optimize": ["optimize", "--model", "m.json", "--loss", loss, "--steps", "10",
                     "--out", "out.json"],
        "compare": ["compare", "--model", "m.json", "--schedules", "spectral",
                    "--steps-list", "10", "--losses", loss, "--out", "out.csv"],
    }[command]
    assert run(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error == {"type": "ValueError",
                     "message": "objective gradient is not finite at the initial schedule"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("process", ["ddim", "ddpm"])
@pytest.mark.parametrize("command", ["optimize", "eval", "compare"])
@pytest.mark.parametrize("loss", ["kl", "w2"])
def test_overflowing_mean_drift_runs_without_warnings(tmp_path, capsys, monkeypatch, command,
                                                      process, loss):
    # the mean drift of the coordinate below the eigenvalue floor overflows:
    # KL drops that coordinate and runs, W2 keeps it and is refused, and
    # neither prints a warning, which here would be an error
    monkeypatch.chdir(tmp_path)
    model = SpectralModel(dim=2, eigenvalues=[1e-300, 1.0], mean_spectral=[1e160, 0.0])
    save_model(model, "m.json")
    save_schedule(cosine_schedule(6), "s.json")
    argv = {
        "optimize": ["optimize", "--model", "m.json", "--loss", loss, "--process", process,
                     "--steps", "6", "--out", "out.json"],
        "eval": ["eval", "--model", "m.json", "--schedules", "s.json", "--losses", loss,
                 "--process", process, "--out", "out.csv"],
        "compare": ["compare", "--model", "m.json", "--schedules", "cosine", "--steps-list", "6",
                    "--losses", loss, "--process", process, "--out", "out.csv"],
    }[command]
    code = run(argv)
    captured = capsys.readouterr()
    if loss == "kl":
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["command"] == command
        return
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "s.json"]
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    message = json.loads(captured.err)["error"]["message"]
    assert message == {
        "optimize": "objective is not finite and positive at the initial schedule (inf)",
        "eval": f"out.csv: wasserstein2 of s.json under {process} at 6 steps is inf: "
                "refusing to write a NaN or infinite value",
        "compare": f"out.csv: wasserstein2 of cosine under {process} at 6 steps is inf: "
                   "refusing to write a NaN or infinite value",
    }[command]


_ALTERNATING = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command", ["estimate", "estimate-loudness", "circulant", "symmetric", "simulate"]
)
def test_overflowing_dense_target_exits_2_without_warnings(tmp_path, capsys, monkeypatch, command):
    # the sample moments, the loudness of a window, the eigenvalues of a
    # finite estimate or the synthetic covariance overflow: refused as not
    # finite, and numpy, silenced where they are computed, prints nothing
    monkeypatch.chdir(tmp_path)
    rows = {
        "estimate-loudness": np.full((3, 4), 1e308),
        "circulant": 5.5e153 * _ALTERNATING,
        "symmetric": 5.5e153 * _ALTERNATING,
    }.get(command, 1e160 * np.random.default_rng(0).normal(size=(20, 4)))
    np.savetxt("x.csv", rows, delimiter=",")
    save_schedule(cosine_schedule(4), "s.json")
    estimate = ["estimate", "--input", "x.csv", "--window", "4", "--th", "0",
                "--out-cov", "c.csv", "--out-model", "m.json"]
    too_large = "eigenvalues are not finite: the estimate is too large to diagonalize"
    argv, message = {
        "estimate": (estimate, "covariance must be finite (no NaN or inf)"),
        "estimate-loudness": (estimate, "mean must be finite (no NaN or inf)"),
        "circulant": (estimate + ["--structure", "circulant"], f"circulant {too_large}"),
        "symmetric": (estimate + ["--structure", "symmetric"], f"symmetric {too_large}"),
        "simulate": (["simulate", "--synthetic", "2,1e200,0", "--schedule", "s.json",
                      "--process", "ddim", "--samples", "4", "--out", "o.f64"],
                     "--synthetic: l=1e+200 is too large: the target's covariance overflows"),
    }[command]
    assert run(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "x.csv"]
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


def test_runtime_failure_exits_3_writing_nothing(tmp_path, capsys, monkeypatch):
    # a step that fails outside the usage errors' classes is a runtime error;
    # so is a LinAlgError, though numpy makes it a ValueError
    monkeypatch.chdir(tmp_path)
    save_schedule(cosine_schedule(4), "s.json")
    for error in (MemoryError, np.linalg.LinAlgError):
        def fail(*args):
            raise error("fold failed")

        monkeypatch.setattr(diffsched.simulate, "compose_affine", fail)
        rc = run(["simulate", "--synthetic", "4,0.1,0.05", "--schedule", "s.json",
                  "--process", "ddim", "--samples", "4", "--out", "o.f64"])
        assert rc == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"] == {"type": error.__name__, "message": "fold failed"}


def test_loss_csv_refuses_an_infinite_kl(tmp_path):
    # a degenerate generated coordinate gives KL inf, which no CSV holds
    out = tmp_path / "e.csv"
    rows = [(10, "s.json", "ddim", "wasserstein2", 0.5), (10, "s.json", "ddim", "kl", float("inf"))]
    with pytest.raises(ValueError, match="refusing to write a NaN or infinite value"):
        diffsched.cli._write_loss_csv(rows, out)
    assert not out.exists()


def _write_input_files():
    """Input files each holding one fault, and the inputs they go with."""
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
    Path("sigma-steps.json").write_text(json.dumps({"steps": -1, "sigma": []}))
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
        pytest.param(
            _EVAL + ["zero.json"], "steps must be an integer >= 1, got 0", id="zero-steps"
        ),
        pytest.param(
            ["convert", "--schedule", "sigma.json", "--direction", "to-vp", "--out", "o.json"],
            "sigma must be nonnegative",
            id="negative-sigma",
        ),
        pytest.param(
            ["convert", "--schedule", "sigma-steps.json", "--direction", "to-vp", "--out", "o.json"],
            "steps must be an integer >= 1, got -1",
            id="negative-sigma-steps",
        ),
        pytest.param(
            ["eval", "--model", "dim0.json", "--schedules", "s.json", "--out", "o.csv"],
            "dim must be an integer >= 1, got 0",
            id="dim-0",
        ),
        pytest.param(_SIMULATE + ["--cov", "stream.csv"], "--cov must hold a matrix", id="stream-cov"),
        pytest.param(
            _SIMULATE + ["--cov", "cov.csv", "--mean", "mean3.csv"],
            "--mean must hold 2 values to match --cov, got 3",
            id="mean-length",
        ),
        pytest.param(_ESTIMATE + ["empty.csv"], "empty CSV file: empty.csv", id="empty-csv"),
        pytest.param(
            _SIMULATE + ["--cov", "cov.csv", "--mean", ""], "--mean must name a file, got ''",
            id="empty-mean",
        ),
        pytest.param(_SIMULATE + ["--cov", ""], "--cov must name a file, got ''", id="empty-cov"),
        pytest.param(
            _ESTIMATE + ["cov.csv", "--window", "-5"], "window must be an integer >= 2, got -5",
            id="rows-negative-window",
        ),
        pytest.param(
            _ESTIMATE + ["cov.csv", "--stride", "0"], "stride must be an integer >= 1, got 0",
            id="rows-zero-stride",
        ),
        *[
            pytest.param(
                ["compare", "--model", "m.json", "--schedules", "spectral", "--steps-list", "5",
                 "--out", "o.csv", flag, value],
                f"diffsched: unrecognized arguments: {flag} {value}",
                id=f"deleted-{flag[2:]}",
            )
            for flag, value in (("--opt-loss", "kl"), ("--opt-process", "ddpm"))
        ],
        pytest.param(
            _ESTIMATE + ["u8.wav"],
            "u8.wav: only 16-bit PCM WAV supported, got sample width 1",
            id="8-bit-wav",
        ),
        *[
            pytest.param(
                ["gen", "--family", family, "--steps", "0", "--out", "o.json"],
                "steps must be an integer >= 1, got 0",
                id=f"{family}-0-steps",
            )
            for family in ("linear", "cosine", "sigmoid", "edm")
        ],
        pytest.param(
            ["compare", "--model", "m.json", "--schedules", "foo", "--steps-list", "5",
             "--out", "o.csv"],
            "unknown family 'foo'",
            id="unknown-family",
        ),
        pytest.param(
            ["optimize", "--model", "m.json", "--steps", "5", "--init", "warm:zero.json",
             "--out", "o.json"],
            "steps must be an integer >= 1, got 0",
            id="warm-0-steps",
        ),
        pytest.param(
            ["gen", "--family", "cosine", "--params", "0,1,1e-300", "--steps", "8",
             "--out", "o.json"],
            "--params: cosine curve is flat or not finite at (s, e, tau) = (0.0, 1.0, 1e-300)",
            id="flat-cosine",
        ),
        pytest.param(
            ["gen", "--family", "sigmoid", "--params", "0,1,1e300", "--steps", "8",
             "--out", "o.json"],
            "--params: sigmoid curve is flat or not finite at (s, e, tau) = (0.0, 1.0, 1e+300)",
            id="flat-sigmoid",
        ),
        pytest.param(
            ["compare", "--model", "m.json", "--schedules", "cosine:0,1,1e-300",
             "--steps-list", "8", "--out", "o.csv"],
            "--schedules token 'cosine:0,1,1e-300': cosine curve is flat or not finite at "
            "(s, e, tau) = (0.0, 1.0, 1e-300)",
            id="flat-cosine-token",
        ),
        pytest.param(
            ["gen", "--family", "edm", "--params", "7,0.002,inf", "--steps", "8",
             "--out", "o.json"],
            "--params: sigma_max must be finite (no NaN or inf)",
            id="edm-inf-sigma",
        ),
        pytest.param(
            ["gen", "--family", "edm", "--params", "inf,0.002,80", "--steps", "8",
             "--out", "o.json"],
            "--params: rho must be finite (no NaN or inf)",
            id="edm-inf-rho",
        ),
        pytest.param(
            ["gen", "--family", "edm", "--params", "nan,0.002,80", "--steps", "8",
             "--out", "o.json"],
            "--params: rho must be finite (no NaN or inf)",
            id="edm-nan-rho",
        ),
        *[
            pytest.param(
                ["gen", "--family", "linear", "--steps", "5", *flags, "--out", "o.json"],
                message,
                id=f"gen-{name}",
            )
            for name, flags, message in (
                ("nan-eps0", ["--eps0", "nan"], "eps0 must be finite and positive, got nan"),
                ("zero-eps0", ["--eps0", "0"], "eps0 must be finite and positive, got 0.0"),
                ("epsS-1.5", ["--epsS", "1.5"],
                 "eps0 + epsS must be < 1, got eps0=0.0001, epsS=1.5"),
                ("endpoints-cross", ["--eps0", "0.5", "--epsS", "0.6"],
                 "eps0 + epsS must be < 1, got eps0=0.5, epsS=0.6"),
                ("eps0-rounds-away", ["--eps0", "1e-20"],
                 "eps0 must be large enough that 1 - eps0 < 1 in floats, got 1e-20"),
            )
        ],
        pytest.param(
            ["optimize", "--model", "m.json", "--steps", "5", "--eps0", "1e-20", "--out", "o.json"],
            "eps0 must be large enough that 1 - eps0 < 1 in floats, got 1e-20",
            id="optimize-eps0-rounds-away",
        ),
        pytest.param(
            ["compare", "--model", "m.json", "--schedules", "linear", "--steps-list", "5",
             "--eps0", "0.5", "--epsS", "0.6", "--out", "o.csv"],
            "eps0 + epsS must be < 1, got eps0=0.5, epsS=0.6",
            id="compare-endpoints-cross",
        ),
        pytest.param(
            ["optimize", "--model", "m.json", "--steps", "5", "--init", "warm:", "--out", "o.json"],
            "--init must name a file after 'warm:', got 'warm:'",
            id="warm-empty-path",
        ),
        *[
            pytest.param(
                ["compare", "--model", "m.json", "--schedules", *tokens, "--steps-list", counts,
                 "--out", "o.csv"],
                f"--steps-list counts must be >= {least}, got {got}",
                id=f"steps-list-{counts}-{tokens[-1]}",
            )
            for tokens, counts, least, got in (
                (["spectral"], "1", 2, 1),
                (["linear", "spectral"], "28,1", 2, 1),
                (["linear"], "4,0", 1, 0),
            )
        ],
        *[
            pytest.param(
                ["optimize", "--model", "m.json", "--steps", "5", f"--eigenvalue-index={index}",
                 "--out", "o.json"],
                f"--eigenvalue-index: index {index} out of range for dim 4",
                id=f"eigenvalue-index-{index}",
            )
            for index in (99, -1)
        ],
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


@pytest.mark.parametrize("path", ["adir", "m.json/x"], ids=["directory", "under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--schedules", "s.json", "--out", "o.csv", "--model"],
        ["bias", "--model", "m.json", "--out", "o.csv", "--schedule"],
        _ESTIMATE,
        _SIMULATE + ["--cov"],
    ],
    ids=["model", "schedule", "input", "cov"],
)
def test_input_that_is_no_file_exits_2(tmp_path, capsys, monkeypatch, argv, path):
    # a missing input is a usage error, and so is one that is not a readable file
    monkeypatch.chdir(tmp_path)
    _write_input_files()
    Path("adir").mkdir()
    inputs = sorted(tmp_path.iterdir())
    assert run(argv + [path]) == 2
    assert sorted(tmp_path.iterdir()) == inputs
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"]["type"] in ("IsADirectoryError", "NotADirectoryError")


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


# The flags each subcommand takes from the parsers it shares them with
_SHARED_FLAGS = {
    "gen": ["--steps", "--eps0", "--epsS", "--out"],
    "optimize": ["--model", "--process", "--eps0", "--epsS", "--steps", "--out"],
    "eval": ["--model", "--losses", "--process", "--out"],
    "compare": ["--model", "--losses", "--process", "--eps0", "--epsS", "--out"],
    "simulate": ["--schedule", "--process", "--out"],
    "dynamics": ["--model", "--schedule"],
    "bias": ["--model", "--schedule", "--process", "--out"],
    "estimate": [],
    "convert": ["--schedule", "--out"],
}


@pytest.mark.parametrize("command", list(_SHARED_FLAGS))
def test_help_exits_0(capsys, command):
    assert run([command, "--help"]) == 0
    captured = capsys.readouterr()
    flags = _SHARED_FLAGS[command]
    for flag in ["--seed", "--manifest-out", *flags]:
        assert flag in captured.out.split(), flag
    if "--process" in flags:
        both = ",both" if command in ("eval", "compare") else ""
        assert f"--process {{ddim,ddpm{both}}}" in captured.out
    if command == "optimize":
        assert "--eigenvalue-index" in captured.out
    assert captured.err == ""


def test_compare_checks_steps_list_before_any_optimization(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_input_files()
    runs = []
    monkeypatch.setattr("diffsched.cli.optimize_schedule", lambda *args: runs.append(args))
    argv = ["compare", "--model", "m.json", "--schedules", "spectral", "--steps-list", "28,1",
            "--out", "o.csv"]
    assert run(argv) == 2
    assert runs == []
    assert "--steps-list" in json.loads(capsys.readouterr().err)["error"]["message"]


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


def test_simulate_leaves_concurrent_futures_unloaded(tmp_path):
    # The sampler draws its normals on one plain helper thread, so neither a
    # one-chunk run nor one of more chunks (past _chunk_rows(8) samples)
    # imports the thread pool of concurrent.futures.
    sched = tmp_path / "s.json"
    save_schedule(cosine_schedule(10), sched)
    src = str(Path(diffsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    samples = (100, _chunk_rows(8) + 100)
    runs = [
        ["simulate", "--synthetic", "8,0.1,0.05", "--schedule", str(sched), "--process", "ddpm",
         "--samples", str(n), "--out", str(tmp_path / f"x{n}.f64")]
        for n in samples
    ]
    code = (
        "import sys, diffsched.cli\n"
        "loaded = 'concurrent.futures' in sys.modules\n"
        f"rcs = [diffsched.cli.main(argv) for argv in {runs!r}]\n"
        "print(loaded, rcs, 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "False [0, 0] False"
    for n in samples:
        assert (tmp_path / f"x{n}.f64").stat().st_size == n * 8 * 8
