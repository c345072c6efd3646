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
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import (
    STRUCTURES,
    EstimationConfig,
    covariance_from_windows,
    sliding_window_covariance,
    spectral_model_from_covariance,
    synthetic_circulant_model,
)
from .io import (
    _SIDECAR,
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
from .losses import _CLI_NAMES, LossKind, transfer_loss
from .optimize import INITS, MODES, OptimizeConfig, optimize_schedule, single_eigenvalue_problem
from .schedules import cosine_schedule, edm_schedule, linear_schedule, sigmoid_schedule
from .simulate import DenseGaussian, SimConfig, blas_pinned, simulate_reverse
from .spectral import (
    DEFAULT_EPS0,
    DEFAULT_EPSS,
    PROCESSES,
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


def _generate(
    family: str, steps: int, params: list[float], eps0: float, epsS: float, source: str
) -> Schedule:
    """The ``family`` schedule; an error that ``params`` cause names ``source``,
    the flag or token they came from."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    max_params = _FAMILIES[family]
    if len(params) > max_params:
        raise ValueError(f"{family} takes at most {max_params} parameters, got {len(params)}")
    # looked up in this module's namespace at call time, so that a wrapper
    # on ``diffsched.cli.<family>_schedule`` sees the call
    generator = globals()[f"{family}_schedule"]
    try:
        return generator(steps, *params, eps0=eps0, epsS=epsS)
    except ValueError as exc:
        if not params:
            raise
        generator(steps, eps0=eps0, epsS=epsS)  # raises if the fault is not in params
        raise ValueError(f"{source}: {exc}") from None


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
    lines = ["steps,schedule,process,loss_kind,value"]
    for steps, label, process, kind, value in rows:
        # refused before anything is written, naming the file, then the first bad row
        _refuse_non_finite(f"{path}: {kind} of {label} under {process} at {steps} steps is {value}",
                           value)
        label = re.sub(r'[,\r\n"]', "|", str(label))  # a comma, CR, LF or quote splits a row
        lines.append(f"{steps},{label},{process},{kind},{format_float(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- subcommand implementations; each returns (inputs, info) ---


def cmd_gen(args):
    params = _parse_list(args.params, float, "--params") if args.params else []
    schedule = _generate(args.family, args.steps, params, args.eps0, args.epsS, "--params")
    save_schedule(schedule, args.out)
    return [], {"kind": schedule.kind}


def cmd_optimize(args):
    model = load_model(args.model)
    inputs, init = [args.model], args.init
    if init.startswith("warm:"):
        path = init.removeprefix("warm:")
        if not path:
            raise ValueError(f"--init must name a file after 'warm:', got {args.init!r}")
        init = load_schedule(path)
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
        max_iter=args.max_iter,
        ftol=args.ftol,
    )
    if args.eigenvalue_index is not None:
        try:
            model = single_eigenvalue_problem(model, args.eigenvalue_index)
        except ValueError as exc:
            raise ValueError(f"--eigenvalue-index: {exc}") from None
    schedule, report = optimize_schedule(model, config)
    save_schedule(schedule, args.out)
    payload = dataclasses.asdict(report)
    payload["loss_trace"] = report.loss_trace.tolist()
    atomic_write_text(str(args.out) + _REPORT, json.dumps(payload, indent=2) + "\n")
    return inputs, {
        "final_loss": report.final_loss,
        "converged": report.converged,
    }


def cmd_eval(args):
    model = load_model(args.model)
    losses = _parse_list(args.losses, LossKind.from_cli_name, "--losses")
    processes = PROCESSES if args.process == "both" else (args.process,)
    rows = []
    for path in args.schedules:
        schedule = load_schedule(path)
        rows.extend(_loss_rows(model, schedule, Path(path).name, losses, processes))
    _write_loss_csv(rows, args.out)
    return [args.model] + list(args.schedules), {"rows": len(rows)}


def cmd_compare(args):
    model = load_model(args.model)
    losses = _parse_list(args.losses, LossKind.from_cli_name, "--losses")
    processes = PROCESSES if args.process == "both" else (args.process,)
    steps_list = _parse_list(args.steps_list, int, "--steps-list")
    least = 2 if "spectral" in args.schedules else 1  # the optimizer takes two steps or more
    if min(steps_list) < least:
        raise ValueError(f"--steps-list counts must be >= {least}, got {min(steps_list)}")
    rows = []
    for steps in steps_list:
        for token in args.schedules:
            if token != "spectral":
                family, _, text = token.partition(":")
                source = f"--schedules token {token!r}"
                params = _parse_list(text, float, source) if text else []
                schedule = _generate(family, steps, params, args.eps0, args.epsS, source)
                rows.extend(_loss_rows(model, schedule, token, losses, processes))
                continue
            # each spectral row reports the optimum of its own loss and sampler
            for process in processes:
                for loss in losses:
                    config = OptimizeConfig(loss=loss, process=process, steps=steps,
                                            eps0=args.eps0, epsS=args.epsS)
                    schedule, _ = optimize_schedule(model, config)
                    rows.extend(_loss_rows(model, schedule, token, [loss], [process]))
    _write_loss_csv(rows, args.out)
    return [args.model], {"rows": len(rows)}


def _load_target(args) -> DenseGaussian:
    if args.mean is not None and args.cov is None:
        raise ValueError("--mean needs --cov: the --synthetic target has its own mean")
    for flag, path in (("--cov", args.cov), ("--mean", args.mean)):
        if path == "":
            raise ValueError(f"{flag} must name a file, got ''")
    if args.synthetic is not None:
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
    cov = np.asarray(read_signal(args.cov), dtype=float)
    if cov.size == 1:  # read_signal gives a one-column file as a 1-D stream
        cov = cov.reshape(1, 1)
    if cov.ndim != 2:
        raise ValueError("--cov must hold a matrix")
    mean = np.zeros(cov.shape[0])
    if args.mean is not None:
        mean = np.asarray(read_signal(args.mean), dtype=float).ravel()
        if len(mean) != len(cov):
            raise ValueError(f"--mean must hold {len(cov)} values to match --cov, got {len(mean)}")
    return DenseGaussian(mean=mean, covariance=cov)


def cmd_simulate(args):
    target = _load_target(args)
    schedule = load_schedule(args.schedule)
    cfg = SimConfig(process=args.process, samples=args.samples, seed=args.seed, schedule=schedule)
    samples = simulate_reverse(target, cfg)
    save_raw_f64(samples, args.out)
    inputs = [args.schedule] + [p for p in (args.cov, args.mean) if p is not None]
    return inputs, {"samples": args.samples, "seed": args.seed, "blas_pinned": blas_pinned()}


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
    # the trajectory is DDIM's whatever sampler the schedule was made for
    return [args.model, args.schedule], {"process": "ddim"}


def cmd_bias(args):
    model = load_model(args.model)
    schedule = load_schedule(args.schedule)
    transfer = _transfer(model, schedule, args.process)
    bias, deviation = mean_bias(transfer, model)
    save_matrix_csv(np.column_stack([bias, deviation]), args.out)
    return [args.model, args.schedule], {"max_gain_deviation": float(deviation.max())}


def cmd_estimate(args):
    # checked for every input shape, though sample rows are windows already
    cfg = EstimationConfig(window=args.window, stride=args.stride, silence_threshold=args.th)
    signal = read_signal(args.input)
    if signal.ndim == 2:
        est = covariance_from_windows(signal, cfg.silence_threshold)
    else:
        est = sliding_window_covariance(signal, cfg)
    model = spectral_model_from_covariance(est, args.structure)
    save_matrix_csv(est.covariance, args.out_cov)
    info = {"windows_used": est.windows_used, "windows_rejected": est.windows_rejected}
    meta = json.dumps({**info, "mean": [float(x) for x in est.mean]})
    atomic_write_text(str(args.out_cov) + _META, meta + "\n")
    save_model(model, args.out_model)
    return [args.input], info


def cmd_convert(args):
    if args.direction == "to-ve":
        save_ve_schedule(vp_to_ve(load_schedule(args.schedule)), args.out)
    else:
        save_schedule(ve_to_vp(load_ve_schedule(args.schedule)), args.out)
    return [args.schedule], {}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors into ``main``'s JSON error path instead of exiting.

    Any value that starts with a minus sign and a digit is a value, not a
    flag, so ``--params -3,3,1`` parses; no flag of this CLI looks like that.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # Each flag that several parsers take is declared once, in a parent parser
    # whose action objects they share, so its default is set here and never by
    # ``set_defaults``.  The global flags' SUPPRESS defaults let them come before
    # or after the subcommand; ``main`` passes their defaults in.
    common = _Parser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="the run's RNG seed: simulate's stream key, optimize's random init (default 0)",
    )
    common.add_argument("--manifest-out", default=argparse.SUPPRESS, help="explicit manifest path")
    model = _Parser(add_help=False)
    model.add_argument("--model", required=True)
    schedule = _Parser(add_help=False)
    schedule.add_argument("--schedule", required=True)
    process = _Parser(add_help=False)
    process.add_argument("--process", default="ddim", choices=list(PROCESSES))
    losses = _Parser(add_help=False)  # a loss table over one or both samplers
    losses.add_argument("--losses", default="w2")
    losses.add_argument("--process", default="ddim", choices=[*PROCESSES, "both"])
    endpoints = _Parser(add_help=False)
    endpoints.add_argument("--eps0", type=float, default=DEFAULT_EPS0)
    endpoints.add_argument("--epsS", type=float, default=DEFAULT_EPSS)
    steps = _Parser(add_help=False)
    steps.add_argument("--steps", type=int, required=True)
    out = _Parser(add_help=False)
    out.add_argument("--out", required=True)

    parser = _Parser(
        prog="diffsched",
        description="Spectral transfer analysis and noise-schedule optimization "
        "for discrete diffusion samplers.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, *parents, **kwargs):
        p = sub.add_parser(name, parents=[common, *parents], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add_parser("gen", cmd_gen, steps, endpoints, out, help="generate a heuristic schedule")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument(
        "--params",
        default=None,
        help="comma-separated family parameters; omitted trailing ones take their defaults",
    )

    p = add_parser("optimize", cmd_optimize, model, process, endpoints, steps, out,
                   help="optimize a schedule for a spectral model",
                   description="The schedule goes to --out, its run report to <out>.report.json.")
    p.add_argument("--loss", default="w2", choices=list(_CLI_NAMES))
    p.add_argument("--mode", default=OptimizeConfig.mode, choices=list(MODES))
    p.add_argument(
        "--init",
        default=OptimizeConfig.init,
        help=" | ".join(INITS) + " | warm:SCHEDULE.json; random is seeded by --seed",
    )
    p.add_argument("--max-iter", type=int, default=OptimizeConfig.max_iter)
    p.add_argument("--ftol", type=float, default=OptimizeConfig.ftol)
    p.add_argument("--eigenvalue-index", type=int, default=None)

    p = add_parser("eval", cmd_eval, model, losses, out,
                   help="evaluate schedule files against a model")
    p.add_argument("--schedules", nargs="+", required=True)

    p = add_parser("compare", cmd_compare, model, losses, endpoints, out,
                   help="compare schedule families over step counts")
    p.add_argument(
        "--schedules",
        nargs="+",
        required=True,
        help="family[:params] tokens or 'spectral', the optimum of each row's loss and "
        "sampler at each step count",
    )
    p.add_argument("--steps-list", required=True)

    p = add_parser("simulate", cmd_simulate, schedule, process, out,
                   help="time-domain Monte Carlo of the reverse process",
                   description="The samples go to --out as raw f64, their sidecar to <out>.json.")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--synthetic", default=None, help="d,l,mu synthetic circulant target")
    target.add_argument("--cov", default=None, help="covariance file (CSV or raw f64)")
    p.add_argument("--mean", default=None, help="mean vector file (with --cov)")
    p.add_argument("--samples", type=int, required=True)

    p = add_parser("dynamics", cmd_dynamics, model, schedule,
                   help="per-step error and distance trajectories")
    p.add_argument("--out-relative-error", required=True)
    p.add_argument("--out-w2", required=True)

    add_parser("bias", cmd_bias, model, schedule, process, out,
               help="mean drift of the generated distribution")

    p = add_parser("estimate", cmd_estimate, help="covariance + spectral model from a signal")
    p.add_argument("--input", required=True, help="WAV, CSV, or raw f64 input")
    p.add_argument("--window", type=int, default=400)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--th", type=float, default=EstimationConfig.silence_threshold,
                   help="silence threshold")
    p.add_argument("--structure", default="circulant", choices=list(STRUCTURES))
    p.add_argument("--out-cov", required=True)
    p.add_argument("--out-model", required=True)

    p = add_parser("convert", cmd_convert, schedule, out,
                   help="convert between retention and sigma forms")
    p.add_argument("--direction", required=True, choices=["to-ve", "to-vp"])

    return parser


def _write_manifest(path, args, inputs, outputs, info, wall):
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "manifest_out") and v is not None
    }
    payload = {
        "command": args.command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": outputs,
        "seed": args.seed,
        "tool_version": __version__,
        "wall_time_seconds": wall,
        "info": info,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, default=str) + "\n")


# The destinations of every flag that names an output file, a command's
# primary output first; and per command and flag, the suffixes of the files
# a run writes from that flag's value ("" for the file it names).  The
# commands write the files named after their outputs by these same suffixes.
_REPORT, _META = ".report.json", ".meta.json"
_OUTPUT_FLAGS = ("out", "out_cov", "out_model", "out_relative_error", "out_w2", "manifest_out")
_SUFFIXES = {("optimize", "out"): ("", _REPORT), ("simulate", "out"): ("", _SIDECAR),
             ("estimate", "out_cov"): ("", _META)}


def _planned_writes(args) -> list[tuple[str, str, str]]:
    """``(flag, its value, path)`` for every file the run writes, in order,
    the manifest last; by default it is named after the primary output."""
    writes = []
    for dest in _OUTPUT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            flag = "--" + dest.replace("_", "-")
            writes += [(flag, value, value + s) for s in _SUFFIXES.get((args.command, dest), ("",))]
    if args.manifest_out is None:
        flag, value, _ = writes[0]
        writes.append((flag, value, value + ".manifest.json"))
    return writes


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(seed=0, manifest_out=None))
        writes = _planned_writes(args)
        # checked before the run, so an unusable path leaves no output at all
        written = {}
        for flag, value, path in writes:
            if Path(path).is_dir() or not Path(path).parent.is_dir():
                if path != value:
                    raise ValueError(f"{flag} {value!r} leads the run to write {path!r}, "
                                     "which must be a file in an existing directory")
                raise ValueError(f"{flag} must name a file in an existing directory, got {path!r}")
            resolved = Path(path).resolve()
            if resolved in written:
                raise ValueError(f"{written[resolved]} and {flag} {value!r} "
                                 f"both lead the run to write {path!r}")
            written[resolved] = f"{flag} {value!r}"
        outputs = [path for _, _, path in writes[:-1]]
        start = time.perf_counter()
        inputs, info = args.func(args)
        _write_manifest(writes[-1][2], args, inputs, outputs, info, time.perf_counter() - start)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError, TypeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return USAGE_ERROR
    except Exception as exc:  # numerical/runtime failures
        _emit_error(type(exc).__name__, str(exc))
        return RUNTIME_ERROR
    summary = {"command": args.command, "outputs": outputs, **info}
    print(json.dumps(summary, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
