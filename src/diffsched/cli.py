"""Command-line front end.

Subcommands: gen, optimize, eval, compare, simulate, dynamics, bias,
estimate, convert.  Every run writes a manifest JSON next to its primary
output (or to --manifest-out) holding the resolved configuration, so
deterministic commands can be reproduced bit-exactly from it.  The global
--seed (default 0) is the one seed of a run: simulate's stream key and
optimize's random init; the manifest records it.  optimize writes its run
report, every field of ``OptimizeReport``, to <out>.report.json.

Exit codes: 0 success, 2 usage or validation error, 3 runtime or numerical
error.  Every error, argument-parsing ones included, is emitted as one JSON
object ``{"error": {"type", "message"}}`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import (
    EstimationConfig,
    covariance_from_windows,
    sliding_window_covariance,
    spectral_model_from_covariance,
    synthetic_circulant_model,
)
from .io import (
    _refuse_non_finite,
    atomic_write_text,
    format_float,
    load_model,
    load_schedule,
    load_ve_schedule,
    read_signal,
    save_matrix_csv,
    save_model,
    save_raw_f64,
    save_schedule,
    save_ve_schedule,
)
from .losses import LossKind, transfer_loss
from .optimize import OptimizeConfig, optimize_schedule, single_eigenvalue_problem
from .schedules import cosine_schedule, edm_schedule, linear_schedule, sigmoid_schedule
from .simulate import DenseGaussian, SimConfig, simulate_reverse
from .spectral import (
    DEFAULT_EPS0,
    DEFAULT_EPSS,
    Schedule,
    SpectralModel,
    ddim_transfer,
    ddpm_transfer,
    mean_bias,
    relative_error_dynamics,
    ve_to_vp,
    vp_to_ve,
    w2_dynamics,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 3

def _parse_list(text: str, convert, name: str) -> list:
    """The comma-separated values of ``text``, each read by ``convert``; an
    error names ``name``, the flag or token the text came from."""
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


# family -> number of shape parameters its generator ``<family>_schedule``
# takes; parameters left out fall back to the generator's own defaults
_FAMILIES = {"linear": 0, "cosine": 3, "sigmoid": 3, "edm": 3}


def _generate(family: str, steps: int, params: list[float], eps0: float, epsS: float) -> Schedule:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    max_params = _FAMILIES[family]
    if len(params) > max_params:
        raise ValueError(f"{family} takes at most {max_params} parameters, got {len(params)}")
    # looked up in this module's namespace at call time, so that a wrapper
    # on ``diffsched.cli.<family>_schedule`` sees the call
    generator = globals()[f"{family}_schedule"]
    return generator(steps, *params, eps0=eps0, epsS=epsS)


def _transfer(model: SpectralModel, schedule: Schedule, process: str):
    # ``ddim_transfer`` or ``ddpm_transfer``: argparse's choices admit no
    # other process
    return globals()[f"{process}_transfer"](model, schedule)


def _loss_rows(model, schedule, label, losses, processes):
    rows = []
    for process in processes:
        transfer = _transfer(model, schedule, process)
        for loss in losses:
            value = transfer_loss(model, transfer, loss)
            rows.append((schedule.steps, label, process, loss.value, value))
    return rows


def _write_loss_csv(rows, path):
    _refuse_non_finite(path, [row[-1] for row in rows])
    lines = ["steps,schedule,process,loss_kind,value"]
    for steps, label, process, kind, value in rows:
        label = str(label).replace(",", "|")  # keep the CSV split-safe
        lines.append(f"{steps},{label},{process},{kind},{format_float(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- subcommand implementations; each returns (inputs, outputs, info) ---


def cmd_gen(args):
    params = _parse_list(args.params, float, "--params") if args.params else []
    schedule = _generate(args.family, args.steps, params, args.eps0, args.epsS)
    save_schedule(schedule, args.out)
    return [], [args.out], {"kind": schedule.kind}


def cmd_optimize(args):
    model = load_model(args.model)
    inputs, init, init_schedule = [args.model], args.init, None
    if init.startswith("warm:"):
        init, path = init.split(":", 1)
        init_schedule = load_schedule(path)
        inputs.append(path)
    config = OptimizeConfig(
        loss=LossKind.from_cli_name(args.loss),
        process=args.process,
        steps=args.steps,
        eps0=args.eps0,
        epsS=args.epsS,
        mode=args.mode,
        init=init,
        init_seed=args.seed,
        init_schedule=init_schedule,
        max_iter=args.max_iter,
        ftol=args.ftol,
    )
    if args.eigenvalue_index is not None:
        model = single_eigenvalue_problem(model, args.eigenvalue_index)
    schedule, report = optimize_schedule(model, config)
    save_schedule(schedule, args.out)
    report_path = str(args.out) + ".report.json"
    payload = dataclasses.asdict(report)
    payload["loss_trace"] = report.loss_trace.tolist()
    atomic_write_text(report_path, json.dumps(payload, indent=2) + "\n")
    return inputs, [args.out, report_path], {
        "final_loss": report.final_loss,
        "converged": report.converged,
    }


def cmd_eval(args):
    model = load_model(args.model)
    losses = _parse_list(args.losses, LossKind.from_cli_name, "--losses")
    processes = ["ddim", "ddpm"] if args.process == "both" else [args.process]
    rows = []
    for path in args.schedules:
        schedule = load_schedule(path)
        rows.extend(_loss_rows(model, schedule, Path(path).name, losses, processes))
    _write_loss_csv(rows, args.out)
    return [args.model] + list(args.schedules), [args.out], {"rows": len(rows)}


def cmd_compare(args):
    model = load_model(args.model)
    losses = _parse_list(args.losses, LossKind.from_cli_name, "--losses")
    processes = ["ddim", "ddpm"] if args.process == "both" else [args.process]
    steps_list = _parse_list(args.steps_list, int, "--steps-list")
    rows = []
    for steps in steps_list:
        for token in args.schedules:
            if token == "spectral":
                config = OptimizeConfig(
                    loss=LossKind.from_cli_name(args.opt_loss),
                    process=args.opt_process,
                    steps=steps,
                    eps0=args.eps0,
                    epsS=args.epsS,
                )
                schedule, _ = optimize_schedule(model, config)
                label = "spectral"
            else:
                family, _, text = token.partition(":")
                params = _parse_list(text, float, f"--schedules token {token!r}") if text else []
                schedule = _generate(family, steps, params, args.eps0, args.epsS)
                label = token
            rows.extend(_loss_rows(model, schedule, label, losses, processes))
    _write_loss_csv(rows, args.out)
    return [args.model], [args.out], {"rows": len(rows)}


def _load_target(args) -> DenseGaussian:
    if args.synthetic:
        values = _parse_list(args.synthetic, float, "--synthetic")
        if len(values) != 3 or not np.all(np.isfinite(values)):
            raise ValueError(
                f"--synthetic takes three finite values d,l,mu, got {args.synthetic!r}"
            )
        d, l, mu = values
        if not d.is_integer():
            raise ValueError(f"--synthetic d must be an integer, got {d}")
        dense, _ = synthetic_circulant_model(int(d), l, mu)
        return dense
    if not args.cov:
        raise ValueError("either --synthetic or --cov is required")
    cov = np.asarray(read_signal(args.cov), dtype=float)
    if cov.ndim != 2:
        raise ValueError("--cov must hold a matrix")
    mean = np.zeros(cov.shape[0])
    if args.mean:
        mean = np.asarray(read_signal(args.mean), dtype=float).ravel()
    return DenseGaussian(mean=mean, covariance=cov)


def cmd_simulate(args):
    target = _load_target(args)
    schedule = load_schedule(args.schedule)
    cfg = SimConfig(process=args.process, samples=args.samples, seed=args.seed, schedule=schedule)
    samples = simulate_reverse(target, cfg)
    save_raw_f64(samples, args.out)
    inputs = [args.schedule] + [p for p in (args.cov, args.mean) if p]
    return inputs, [args.out, str(args.out) + ".json"], {"samples": args.samples, "seed": args.seed}


def cmd_dynamics(args):
    model = load_model(args.model)
    schedule = load_schedule(args.schedule)
    rel = relative_error_dynamics(model, schedule)
    w2d = w2_dynamics(model, schedule)
    # both outputs or neither
    _refuse_non_finite(args.out_relative_error, rel)
    _refuse_non_finite(args.out_w2, w2d)
    save_matrix_csv(rel, args.out_relative_error)
    save_matrix_csv(w2d.reshape(-1, 1), args.out_w2)
    return [args.model, args.schedule], [args.out_relative_error, args.out_w2], {}


def cmd_bias(args):
    model = load_model(args.model)
    schedule = load_schedule(args.schedule)
    transfer = _transfer(model, schedule, args.process)
    bias, deviation = mean_bias(transfer, model)
    save_matrix_csv(np.column_stack([bias, deviation]), args.out)
    return [args.model, args.schedule], [args.out], {"max_gain_deviation": float(deviation.max())}


def cmd_estimate(args):
    signal = read_signal(args.input)
    if signal.ndim == 2:
        est = covariance_from_windows(signal, args.th)
    else:
        cfg = EstimationConfig(window=args.window, stride=args.stride, silence_threshold=args.th)
        est = sliding_window_covariance(signal, cfg)
    model = spectral_model_from_covariance(est, args.structure)
    save_matrix_csv(est.covariance, args.out_cov)
    atomic_write_text(
        str(args.out_cov) + ".meta.json",
        json.dumps(
            {
                "windows_used": est.windows_used,
                "windows_rejected": est.windows_rejected,
                "mean": [float(x) for x in est.mean],
            }
        )
        + "\n",
    )
    save_model(model, args.out_model)
    return (
        [args.input],
        [args.out_cov, str(args.out_cov) + ".meta.json", args.out_model],
        {"windows_used": est.windows_used, "windows_rejected": est.windows_rejected},
    )


def cmd_convert(args):
    if args.direction == "to-ve":
        schedule = load_schedule(args.schedule)
        save_ve_schedule(vp_to_ve(schedule), args.out)
    else:
        ve = load_ve_schedule(args.schedule)
        save_schedule(ve_to_vp(ve), args.out)
    return [args.schedule], [args.out], {}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors into ``main``'s JSON error path instead of exiting."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _global_flags() -> argparse.ArgumentParser:
    # As a parent with SUPPRESS defaults these flags may appear either before
    # or after the subcommand without the subparser clobbering parsed values.
    # The parsers share these action objects, so their defaults come from
    # the namespace ``main`` passes in, never from ``set_defaults``.
    common = _Parser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="the run's RNG seed: simulate's stream key, optimize's random init (default 0)",
    )
    common.add_argument(
        "--manifest-out", default=argparse.SUPPRESS, help="explicit manifest path"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = _Parser(
        prog="diffsched",
        description="Spectral transfer analysis and noise-schedule optimization "
        "for discrete diffusion samplers.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("gen", help="generate a heuristic schedule")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--params",
        default=None,
        help="comma-separated family parameters; omitted trailing ones take their defaults",
    )
    p.add_argument("--eps0", type=float, default=DEFAULT_EPS0)
    p.add_argument("--epsS", type=float, default=DEFAULT_EPSS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = add_parser("optimize", help="optimize a schedule for a spectral model")
    p.add_argument("--model", required=True)
    p.add_argument("--loss", default="w2", choices=["w2", "kl", "wl1"])
    p.add_argument("--process", default="ddim", choices=["ddim", "ddpm"])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", default="constrained", choices=["constrained", "free"])
    p.add_argument(
        "--init",
        default="linear",
        help="linear | cosine | random (seeded by --seed) | warm:SCHEDULE.json",
    )
    p.add_argument("--max-iter", type=int, default=OptimizeConfig.max_iter)
    p.add_argument("--ftol", type=float, default=OptimizeConfig.ftol)
    p.add_argument("--eigenvalue-index", type=int, default=None)
    p.add_argument("--eps0", type=float, default=DEFAULT_EPS0)
    p.add_argument("--epsS", type=float, default=DEFAULT_EPSS)
    p.add_argument("--out", required=True, help="schedule JSON; the report is <out>.report.json")
    p.set_defaults(func=cmd_optimize)

    p = add_parser("eval", help="evaluate schedule files against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--schedules", nargs="+", required=True)
    p.add_argument("--losses", default="w2")
    p.add_argument("--process", default="ddim", choices=["ddim", "ddpm", "both"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = add_parser("compare", help="compare schedule families over step counts")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--schedules",
        nargs="+",
        required=True,
        help="family[:params] tokens or 'spectral' (optimized per step count)",
    )
    p.add_argument("--steps-list", required=True)
    p.add_argument("--losses", default="w2")
    p.add_argument("--process", default="ddim", choices=["ddim", "ddpm", "both"])
    p.add_argument("--opt-loss", default="w2", choices=["w2", "kl", "wl1"])
    p.add_argument("--opt-process", default="ddim", choices=["ddim", "ddpm"])
    p.add_argument("--eps0", type=float, default=DEFAULT_EPS0)
    p.add_argument("--epsS", type=float, default=DEFAULT_EPSS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = add_parser("simulate", help="time-domain Monte Carlo of the reverse process")
    p.add_argument("--synthetic", default=None, help="d,l,mu synthetic circulant target")
    p.add_argument("--cov", default=None, help="covariance file (CSV or raw f64)")
    p.add_argument("--mean", default=None, help="mean vector file")
    p.add_argument("--schedule", required=True)
    p.add_argument("--process", default="ddim", choices=["ddim", "ddpm"])
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True, help="raw f64 output (sidecar added)")
    p.set_defaults(func=cmd_simulate)

    p = add_parser("dynamics", help="per-step error and distance trajectories")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out-relative-error", required=True)
    p.add_argument("--out-w2", required=True)
    p.set_defaults(func=cmd_dynamics)

    p = add_parser("bias", help="mean drift of the generated distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--process", default="ddim", choices=["ddim", "ddpm"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bias)

    p = add_parser("estimate", help="covariance + spectral model from a signal")
    p.add_argument("--input", required=True, help="WAV, CSV, or raw f64 input")
    p.add_argument("--window", type=int, default=400)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--th", type=float, default=0.05, help="silence threshold")
    p.add_argument("--structure", default="circulant", choices=["circulant", "symmetric"])
    p.add_argument("--out-cov", required=True)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_estimate)

    p = add_parser("convert", help="convert between retention and sigma forms")
    p.add_argument("--schedule", required=True)
    p.add_argument("--direction", required=True, choices=["to-ve", "to-vp"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def _write_manifest(args, inputs, outputs, info, wall):
    manifest_path = args.manifest_out or str(outputs[0]) + ".manifest.json"
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "manifest_out") and v is not None
    }
    payload = {
        "command": args.command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": args.seed,
        "tool_version": __version__,
        "wall_time_seconds": wall,
        "info": info,
    }
    atomic_write_text(manifest_path, json.dumps(payload, indent=2, default=str) + "\n")


# the destinations of every flag that names an output file
_OUTPUT_FLAGS = ("out", "out_cov", "out_model", "out_relative_error", "out_w2", "manifest_out")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(seed=0, manifest_out=None))
        # checked before the run, so an unusable path leaves no output at all
        for dest in _OUTPUT_FLAGS:
            path = getattr(args, dest, None)
            if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} must name a file in an existing directory, got {path!r}")
        start = time.perf_counter()
        inputs, outputs, info = args.func(args)
        _write_manifest(args, inputs, outputs, info, time.perf_counter() - start)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except (ValueError, FileNotFoundError, json.JSONDecodeError, TypeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return USAGE_ERROR
    except Exception as exc:  # numerical/runtime failures
        _emit_error(type(exc).__name__, str(exc))
        return RUNTIME_ERROR
    summary = {"command": args.command, "outputs": [str(p) for p in outputs], **info}
    print(json.dumps(summary, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
