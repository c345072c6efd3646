"""The traced boundaries between the package's layers, and the per-layer
figures one traced pass yields.

Each boundary wraps a name that a caller module looks up in another
module's namespace, so the span covers exactly the call across layers:
``diffsched.optimize`` calling into ``losses`` and ``schedules``, ``losses``
calling into ``spectral``, ``simulate`` calling its own RNG and affine
composition, and ``diffsched.cli`` calling every other layer.
"""

from __future__ import annotations

import os

from stats import median
from tracer import has_ancestor, layer_of, self_times

LAYERS = ("optimize", "losses", "spectral", "schedules", "simulate", "estimate", "io", "cli")

OBJECTIVE = "losses.loss_from_alpha_bar"
GRADIENT = "losses.finite_difference_gradient"
SIMULATE = "simulate.simulate_reverse"
RNG = "simulate.rng"
COMPOSE = "simulate.compose_affine"
WINDOWS = "estimate.sliding_window_covariance"
MODEL = "estimate.spectral_model_from_covariance"
BENCH = "bench"  # the benchmark's own time between layer calls

IO_WRITES = (
    "atomic_write_text",
    "save_matrix_csv",
    "save_model",
    "save_raw_f64",
    "save_schedule",
    "save_ve_schedule",
)
IO_READS = ("load_model", "load_schedule", "load_ve_schedule", "read_signal")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _note_normals(tr, idx, args, kwargs, result):
    tr.note(idx, normals=len(result))


def _note_simulation(tr, idx, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    tr.note(idx, process=cfg.process, samples=cfg.samples)


def _note_windows(tr, idx, args, kwargs, result):
    tr.note(idx, used=result.windows_used, rejected=result.windows_rejected)


def _note_structure(tr, idx, args, kwargs, result):
    structure = args[1] if len(args) > 1 else kwargs.get("structure", "symmetric")
    tr.note(idx, structure=structure)


def _note_bytes(tr, idx, args, kwargs, result, sidecar=False):
    path = str(_arg(args, kwargs, 1, "path"))
    size = os.path.getsize(path)
    if sidecar:
        size += os.path.getsize(path + ".json")
    tr.note(idx, bytes=size)


def _note_raw_bytes(tr, idx, args, kwargs, result):
    _note_bytes(tr, idx, args, kwargs, result, sidecar=True)


_CLI_NAMES = {
    "io": [(name, None) for name in IO_READS + ("atomic_write_text",)]
    + [
        (name, _note_raw_bytes if name == "save_raw_f64" else _note_bytes)
        for name in IO_WRITES
        if name.startswith("save_")
    ],
    "estimate": [
        ("covariance_from_windows", _note_windows),
        ("sliding_window_covariance", _note_windows),
        ("spectral_model_from_covariance", _note_structure),
        ("synthetic_circulant_model", None),
    ],
    "optimize": [("optimize_schedule", None)],
    "schedules": [
        ("cosine_schedule", None),
        ("edm_schedule", None),
        ("linear_schedule", None),
        ("sigmoid_schedule", None),
    ],
    "simulate": [
        ("simulate_reverse", _note_simulation),
        ("relative_error_dynamics", None),
        ("w2_dynamics", None),
    ],
    "spectral": [
        ("ddim_transfer", None),
        ("ddpm_transfer", None),
        ("mean_bias", None),
        ("ve_to_vp", None),
        ("vp_to_ve", None),
    ],
}

# (module whose namespace holds the name, name, span name, hook)
BOUNDARIES = [
    ("diffsched.optimize", "loss_from_alpha_bar", OBJECTIVE, None),
    ("diffsched.optimize", "finite_difference_gradient", GRADIENT, None),
    ("diffsched.optimize", "cosine_schedule", "schedules.cosine_schedule", None),
    ("diffsched.optimize", "warm_start_interpolate", "schedules.warm_start_interpolate", None),
    ("diffsched.losses", "_transfer_arrays", "spectral._transfer_arrays", None),
    ("diffsched.simulate", "_sample_stream_normals", RNG, _note_normals),
    ("diffsched.simulate", "compose_affine", COMPOSE, None),
] + [
    ("diffsched.cli", name, f"{layer}.{name}", hook)
    for layer, names in _CLI_NAMES.items()
    for name, hook in names
]

IO_WRITE_SPANS = {f"io.{name}" for name in IO_WRITES}
IO_READ_SPANS = {f"io.{name}" for name in IO_READS}

# Figures that are counts of work and must repeat exactly for a seed.
GENERIC_COUNTS = {
    "losses.objective_calls",
    "losses.gradient_calls",
    "spectral.calls",
    "schedules.calls",
    "simulate.normals_drawn",
    "simulate.bytes_drawn_computed",
    "io.bytes_written",
    "io.write_calls",
    "estimate.windows_used",
    "estimate.windows_rejected",
}


def summarize_pass(spans, attrs, selfs, indices) -> dict:
    """Per-layer figures of the spans at ``indices`` (one traced pass)."""
    layer_self = dict.fromkeys(LAYERS + (BENCH,), 0.0)
    objective, gradient, fd_evals = [], [], 0
    losses_inclusive = 0.0
    spectral_calls = schedules_calls = 0
    sim_time = {"ddim": 0.0, "ddpm": 0.0}
    sim_samples = {"ddim": 0, "ddpm": 0}
    sim_total = rng_s = 0.0
    normals = 0
    compose = []
    write_s = read_s = 0.0
    write_calls = bytes_written = 0
    used = rejected = None
    window_times = []
    model_ms = {"circulant": [], "symmetric": []}

    for i in indices:
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        dur = end - start
        layer = layer_of(name)
        layer_self[layer if layer in layer_self else BENCH] += selfs[i]
        if layer == "losses" and not _under_layer(spans, i, "losses"):
            losses_inclusive += dur
        if layer == "spectral":
            spectral_calls += 1
        elif layer == "schedules":
            schedules_calls += 1
        if name == OBJECTIVE:
            objective.append(dur)
            fd_evals += has_ancestor(spans, i, GRADIENT)
        elif name == GRADIENT:
            gradient.append(dur)
        elif name == SIMULATE:
            info = attrs[i]
            sim_time[info["process"]] += dur
            sim_samples[info["process"]] += info["samples"]
            sim_total += dur
        elif name == RNG:
            rng_s += dur
            normals += attrs[i]["normals"]
        elif name == COMPOSE:
            compose.append(dur)
        elif name in IO_WRITE_SPANS:
            write_s += dur
            write_calls += 1
            bytes_written += attrs.get(i, {}).get("bytes", 0)
        elif name in IO_READ_SPANS:
            read_s += dur
        elif name == WINDOWS:
            used, rejected = attrs[i]["used"], attrs[i]["rejected"]
            window_times.append(dur)
        elif name == MODEL:
            model_ms[attrs[i]["structure"]].append(dur)

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out["trace.bench_self_s"] = layer_self[BENCH]
    out.update(
        {
            "losses.objective_calls": len(objective),
            "losses.objective_us_p50": _median(objective, 1e6),
            "losses.gradient_calls": len(gradient),
            "losses.gradient_ms_p50": _median(gradient, 1e3),
            "losses.fd_eval_frac": fd_evals / len(objective) if objective else 0.0,
            "losses.inclusive_s": losses_inclusive,
            "spectral.calls": spectral_calls,
            "schedules.calls": schedules_calls,
            "simulate.ddim_us_per_sample": _per_sample_us(sim_time, sim_samples, "ddim"),
            "simulate.ddpm_us_per_sample": _per_sample_us(sim_time, sim_samples, "ddpm"),
            "simulate.rng_s": rng_s,
            "simulate.dense_s": sim_total - rng_s if sim_total else 0.0,
            "simulate.compose_affine_ms": _median(compose, 1e3),
            "simulate.normals_drawn": normals,
            "simulate.bytes_drawn_computed": 8 * normals,
            "io.write_s": write_s,
            "io.read_s": read_s,
            "io.bytes_written": bytes_written,
            "io.write_calls": write_calls,
            "estimate.windows_used": used or 0,
            "estimate.windows_rejected": rejected or 0,
            "estimate.windows_per_s": (
                (used + rejected) / _median(window_times) if window_times else 0.0
            ),
        }
    )
    for structure, times in model_ms.items():
        out[f"estimate.model_ms.{structure}"] = _median(times, 1e3)
    return out


def _median(values, scale: float = 1.0) -> float:
    """Median in the given unit; 0 for a layer the pass did not call."""
    return median(values) * scale if values else 0.0


def _under_layer(spans, idx: int, layer: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if layer_of(spans[parent][0]) == layer:
            return True
        parent = spans[parent][3]
    return False


def _per_sample_us(times, samples, process) -> float:
    return times[process] / samples[process] * 1e6 if samples[process] else 0.0


def summarize_passes(tracer, run_ids) -> list[dict]:
    """Per-layer figures of each traced pass in ``run_ids``."""
    selfs = self_times(tracer.spans)
    by_run: dict[int, list[int]] = {run: [] for run in run_ids}
    for i, span in enumerate(tracer.spans):
        if span[4] in by_run:
            by_run[span[4]].append(i)
    return [summarize_pass(tracer.spans, tracer.attrs, selfs, by_run[run]) for run in run_ids]
