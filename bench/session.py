"""cli-session: the README workflow, one fresh ``python -m diffsched.cli``
process per command.

The session estimates a d=400 model from the seed's WAV twice (circulant
and symmetric), generates two heuristics, optimizes 10 then 28 steps warm
started, evaluates, compares heuristics, writes dynamics and bias, converts
to sigma form and back, and runs a small Monte Carlo.  The same layers work
differently here than in process: ``spectral`` makes a few calls at d=400
instead of thousands at d=50, ``io`` writes beside its reads, and process
start-up and imports dominate.  The traced run replays the same commands
in process through ``diffsched.cli.main`` to split them by layer.
"""

from __future__ import annotations

import contextlib
import csv
import io as text_io
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from diffsched import cli
from diffsched.io import (
    load_matrix_csv,
    load_model,
    load_raw_f64,
    load_schedule,
    load_ve_schedule,
)

from harness import Workload, pass_seconds
from inputs import SYNTHETIC, WINDOW, signal_pcm, window_count, write_wav
from layers import BOUNDARIES
from procs import child_env, run_child
from stats import median, tail
from tracer import NULL

STEPS = 112
MC_SAMPLES = 2_000
ROUND_TRIP_TOL = 1e-12
PROBES = 3



def session_plan(d: Path, wav: Path, seed: int):
    """(command, argv, outputs) for one session writing into ``d``.

    Each output is (loader kind, path, expected shape, count or reference).
    """
    f = {
        name: str(d / name)
        for name in (
            "cov.csv", "model.json", "cov_sym.csv", "model_sym.json", "cosine.json", "edm.json",
            "s10.json", "s28.json", "eval.csv", "compare.csv", "rel.csv", "w2.csv", "bias.csv",
            "cosine_ve.json", "back.json", "samples.f64",
        )
    }
    model, cosine = f["model.json"], f["cosine.json"]
    square = (WINDOW, WINDOW)
    estimate = ["estimate", "--input", str(wav), "--window", str(WINDOW), "--th", "0.05"]
    gen = ["gen", "--steps", str(STEPS), "--family"]
    synthetic = ",".join(map(str, SYNTHETIC))
    return [
        ("estimate-circulant",
         estimate + ["--structure", "circulant", "--out-cov", f["cov.csv"], "--out-model", model],
         [("matrix", f["cov.csv"], square), ("windows", f["cov.csv"] + ".meta.json", None),
          ("model", model, WINDOW)]),
        ("estimate-symmetric",
         estimate + ["--structure", "symmetric", "--out-cov", f["cov_sym.csv"],
                     "--out-model", f["model_sym.json"]],
         [("matrix", f["cov_sym.csv"], square), ("windows", f["cov_sym.csv"] + ".meta.json", None),
          ("model", f["model_sym.json"], WINDOW)]),
        ("gen-cosine",
         gen + ["cosine", "--params", "0,1,1", "--out", cosine],
         [("schedule", cosine, STEPS)]),
        ("gen-edm",
         gen + ["edm", "--params", "7,0.002,80", "--out", f["edm.json"]],
         [("schedule", f["edm.json"], STEPS)]),
        ("optimize-S10",
         ["optimize", "--model", model, "--steps", "10", "--out", f["s10.json"]],
         [("schedule", f["s10.json"], 10), ("json", f["s10.json"] + ".report.json", None)]),
        ("optimize-S28-warm",
         ["optimize", "--model", model, "--steps", "28", "--init", "warm:" + f["s10.json"],
          "--out", f["s28.json"]],
         [("schedule", f["s28.json"], 28), ("json", f["s28.json"] + ".report.json", None)]),
        ("eval",
         ["eval", "--model", model, "--schedules", cosine, f["edm.json"], f["s28.json"],
          "--losses", "w2,kl,wl1", "--process", "both", "--out", f["eval.csv"]],
         [("losses", f["eval.csv"], 3 * 3 * 2)]),
        ("compare",
         ["compare", "--model", model, "--schedules", "linear", "cosine:0,1,1", "sigmoid:-3,3,1",
          "edm:7,0.002,80", "--steps-list", "10,28,60,112", "--losses", "w2",
          "--out", f["compare.csv"]],
         [("losses", f["compare.csv"], 4 * 4)]),
        ("dynamics",
         ["dynamics", "--model", model, "--schedule", cosine,
          "--out-relative-error", f["rel.csv"], "--out-w2", f["w2.csv"]],
         [("matrix", f["rel.csv"], (STEPS + 1, WINDOW)), ("matrix", f["w2.csv"], (STEPS + 1, 1))]),
        ("bias",
         ["bias", "--model", model, "--schedule", cosine, "--out", f["bias.csv"]],
         [("matrix", f["bias.csv"], (WINDOW, 2))]),
        ("convert-to-ve",
         ["convert", "--schedule", cosine, "--direction", "to-ve", "--out", f["cosine_ve.json"]],
         [("ve", f["cosine_ve.json"], STEPS)]),
        ("convert-to-vp",
         ["convert", "--schedule", f["cosine_ve.json"], "--direction", "to-vp",
          "--out", f["back.json"]],
         [("schedule", f["back.json"], STEPS), ("round-trip", f["back.json"], cosine)]),
        ("simulate-ddim",
         ["simulate", "--synthetic", synthetic, "--schedule", cosine, "--process", "ddim",
          "--samples", str(MC_SAMPLES), "--seed", str(seed), "--out", f["samples.f64"]],
         [("raw", f["samples.f64"], (MC_SAMPLES, SYNTHETIC[0]))]),
    ]


COMMANDS = [command for command, _, _ in session_plan(Path("."), Path("signal.wav"), 0)]


def check_output(kind: str, path: str, expected, windows: int) -> str | None:
    """Load one output through the package's loaders; a reason if it fails."""
    try:
        if kind == "matrix":
            got = load_matrix_csv(path)
            ok = got.shape == expected and np.all(np.isfinite(got))
        elif kind == "model":
            got = load_model(path)
            ok = got.dim == expected
        elif kind == "schedule":
            got = load_schedule(path).validate()
            ok = got.steps == expected
        elif kind == "ve":
            ok = load_ve_schedule(path).validate().steps == expected
        elif kind == "raw":
            got = load_raw_f64(path)
            ok = got.shape == expected and np.all(np.isfinite(got))
        elif kind == "losses":
            # Long-format loss tables have a header row, so csv reads them.
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            ok = len(rows) == expected and all(np.isfinite(float(r["value"])) for r in rows)
        elif kind == "json":
            with open(path) as fh:
                ok = bool(json.load(fh))
        elif kind == "windows":
            with open(path) as fh:
                meta = json.load(fh)
            ok = meta["windows_used"] + meta["windows_rejected"] == windows
        elif kind == "round-trip":
            back, original = load_schedule(path), load_schedule(expected)
            err = float(np.max(np.abs(back.alpha_bar - original.alpha_bar)))
            ok = err <= ROUND_TRIP_TOL
        else:
            raise ValueError(f"unknown output kind {kind!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path}: {exc!r}"
    return None if ok else f"{path}: {kind} check failed"


class Session(Workload):
    name = "cli-session"

    def setup(self) -> None:
        self.wav = self.work / "signal.wav"
        pcm = signal_pcm(self.seed)
        write_wav(self.wav, pcm)
        self.windows = window_count(pcm)
        self.env = child_env(self.root, self.work)
        self.peak_child_mb = 0.0
        self.sessions = 0
        # A warm-up command: the first run in a checkout compiles bytecode.
        warm = self.work / "warmup"
        warm.mkdir()
        result = run_child(self._argv(["gen", "--family", "linear", "--steps", "10",
                                       "--out", str(warm / "s.json")]), self.env, self.work, warm)
        if result.returncode != 0:
            raise RuntimeError(f"warm-up command failed: {result.stderr}")
        shutil.rmtree(warm)

    def _argv(self, args):
        return [sys.executable, "-m", "diffsched.cli", *args]

    def _session_dir(self) -> Path:
        self.sessions += 1
        d = self.work / f"session{self.sessions}"
        d.mkdir()
        return d

    def run_pass(self, tally, tr):
        """One session, one fresh process per command."""
        d = self._session_dir()
        ops = []
        for command, args, outputs in session_plan(d, self.wav, self.seed):
            op = tally.attempt()
            result = run_child(self._argv(args), self.env, d, d)
            ops.append((command, result.wall_s))
            self.peak_child_mb = max(self.peak_child_mb, result.maxrss_mb)
            if result.returncode != 0:
                tally.fail(op, f"{command}: exit code {result.returncode}: {result.stderr[-500:]}")
            self._check_outputs(tally, op, command, outputs)
        shutil.rmtree(d)
        return ops

    def _check_outputs(self, tally, op, command, outputs) -> None:
        manifest = ("json", outputs[0][1] + ".manifest.json", None)
        for kind, path, expected in outputs + [manifest]:
            reason = check_output(kind, path, expected, self.windows)
            if reason is not None:
                tally.fail(op, f"{command}: {reason}")

    def replay(self, tally, tr) -> list[tuple[str, float]]:
        """The same session through ``cli.main`` in this process."""
        d = self._session_dir()
        ops = []
        for command, args, outputs in session_plan(d, self.wav, self.seed):
            op = tally.attempt()
            start = perf_counter()
            with contextlib.redirect_stdout(text_io.StringIO()):
                with tr.span("cli.main", command=command):
                    code = cli.main(args)
            ops.append((command, perf_counter() - start))
            tally.check(op, code == 0, f"{command}: in-process exit code {code}")
            self._check_outputs(tally, op, command, outputs)
        shutil.rmtree(d)
        return ops

    def traced_cycle(self, tally, tracer) -> dict:
        commands = self.run_pass(tally, NULL)
        session = pass_seconds(commands)
        inproc = self.replay(tally, NULL)
        untraced = pass_seconds(inproc)
        with tracer.installed(BOUNDARIES), tracer.span("bench.pass"):
            traced = pass_seconds(self.replay(tally, tracer))
        return {
            "untraced_s": untraced,
            "traced_s": traced,
            "session_s": session,
            "commands": commands,
            "inproc": inproc,
        }

    def peak_rss_mb(self) -> float:
        return self.peak_child_mb

    def report(self, walls, ops) -> dict:
        times = [t for _, t in ops]
        t = tail(times)
        return {
            "cli_session_s": (median(walls), "s"),
            "cli_cmd_p50_s": (median(times), "s"),
            "cli_cmd_tail_s": (t.value, "s"),
            "cli_cmd_tail_percentile": (t.percentile, "%"),
            "cli_cmd_samples": (t.samples, "count"),
        }

    def layer_metrics(self, tracer, cycles, tally) -> dict:
        env = self.env
        interp = [run_child([sys.executable, "-c", "pass"], env, self.work, self.work).wall_s
                  for _ in range(PROBES)]
        imports = []
        for _ in range(PROBES):
            result = run_child([sys.executable, "-c", _IMPORT_PROBE], env, self.work, self.work)
            if result.returncode != 0:
                raise RuntimeError(f"import probe failed: {result.stderr}")
            imports.append(float(result.stdout.strip()))
        commands = [t for c in cycles for _, t in c["commands"]]
        session = median(c["session_s"] for c in cycles)
        inproc = median(c["untraced_s"] for c in cycles)
        out = {
            "cli.interp_s": median(interp),
            "cli.import_s": median(imports),
            "cli.startup_s": session - inproc,
            "cli.startup_share": (session - inproc) / session,
            "cli.cmd_p50_s": median(commands),
        }
        t = tail(commands)  # a session has more commands than TAIL_BEYOND
        out.update({"cli.cmd_tail_s": t.value, "cli.cmd_tail_percentile": t.percentile,
                    "cli.cmd_samples": t.samples})
        for command in COMMANDS:
            out[f"cli.cmd_inproc_s.{command}"] = median(
                t for c in cycles for name, t in c["inproc"] if name == command
            )
        return out


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diffsched.cli; "
    "print(time.perf_counter() - t)"
)
