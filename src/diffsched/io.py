"""File formats: model/schedule JSON, CSV, raw float64 arrays, WAV input.

JSON numbers are emitted with Python's shortest round-trip float repr, so
serialization round-trips bit-exactly.  All writes go through a temp file
and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
import wave
from pathlib import Path

import numpy as np

from .spectral import Schedule, SpectralModel, VeSchedule

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "save_model",
    "load_model",
    "save_schedule",
    "load_schedule",
    "save_ve_schedule",
    "load_ve_schedule",
    "save_raw_f64",
    "load_raw_f64",
    "save_matrix_csv",
    "load_matrix_csv",
    "read_signal",
    "read_wav_mono",
    "format_float",
]

_MODEL_FIELDS = {"dim", "eigenvalues", "mean_spectral", "source"}
_SCHEDULE_FIELDS = {"kind", "steps", "eps0", "epsS", "alpha_bar"}
_VE_FIELDS = {"steps", "sigma"}


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_fields(data: dict, allowed: set, what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = allowed - set(data)
    if missing:
        raise ValueError(f"missing fields in {what}: {sorted(missing)}")


def _integer_field(data: dict, name: str, what: str) -> int:
    """``data[name]`` as an int: a JSON integer, or a float with an integral
    value; bools, other numbers and other types are rejected."""
    value = data[name]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} field {name!r} must be an integer, got {value!r}")
    return value


def save_model(model: SpectralModel, path) -> None:
    payload = {
        "dim": model.dim,
        "eigenvalues": [float(x) for x in model.eigenvalues],
        "mean_spectral": [float(x) for x in model.mean_spectral],
        "source": model.source,
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path) -> SpectralModel:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _check_fields(data, _MODEL_FIELDS, "spectral model")
    return SpectralModel(
        dim=_integer_field(data, "dim", "spectral model"),
        eigenvalues=np.asarray(data["eigenvalues"], dtype=float),
        mean_spectral=np.asarray(data["mean_spectral"], dtype=float),
        source=str(data["source"]),
    )


def save_schedule(schedule: Schedule, path) -> None:
    """Write a schedule JSON; what :meth:`Schedule.validate` rejects (apart
    from non-monotone levels, which free-mode optimization may return) is
    never written."""
    schedule.validate(require_monotone=False)
    payload = {
        "kind": schedule.kind,
        "steps": schedule.steps,
        "eps0": float(schedule.eps0),
        "epsS": float(schedule.epsS),
        "alpha_bar": [float(x) for x in schedule.alpha_bar],
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_schedule(path) -> Schedule:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _check_fields(data, _SCHEDULE_FIELDS, "schedule")
    return Schedule(
        kind=str(data["kind"]),
        steps=_integer_field(data, "steps", "schedule"),
        alpha_bar=np.asarray(data["alpha_bar"], dtype=float),
        eps0=float(data["eps0"]),
        epsS=float(data["epsS"]),
    )


def save_ve_schedule(ve: VeSchedule, path) -> None:
    payload = {"steps": ve.steps, "sigma": [float(x) for x in ve.sigma]}
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_ve_schedule(path) -> VeSchedule:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _check_fields(data, _VE_FIELDS, "sigma schedule")
    return VeSchedule(
        steps=_integer_field(data, "steps", "sigma schedule"),
        sigma=np.asarray(data["sigma"], dtype=float),
    )


def save_raw_f64(array: np.ndarray, path) -> None:
    """Raw little-endian float64 dump plus a {dim, count} JSON sidecar.

    1-D input is stored as a single-column stream (dim 1).
    """
    arr = np.asarray(array, dtype="<f8")
    if arr.ndim == 1:
        dim, count = 1, len(arr)
    elif arr.ndim == 2:
        count, dim = arr.shape
    else:
        raise ValueError(f"only 1-D or 2-D arrays supported, got shape {arr.shape}")
    atomic_write_bytes(path, arr.tobytes(order="C"))
    atomic_write_text(
        str(path) + ".json", json.dumps({"dim": dim, "count": count}) + "\n"
    )


def load_raw_f64(path) -> np.ndarray:
    with open(str(path) + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    dim = _integer_field(meta, "dim", "raw sidecar")
    count = _integer_field(meta, "count", "raw sidecar")
    data = np.fromfile(path, dtype="<f8")
    if len(data) != dim * count:
        raise ValueError(
            f"raw file holds {len(data)} doubles, sidecar promises {count}x{dim}"
        )
    return data if dim == 1 else data.reshape(count, dim)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(format_float(x) for x in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"empty CSV file: {path}")
    return np.asarray(rows, dtype=float)


def read_wav_mono(path) -> np.ndarray:
    """16-bit PCM RIFF samples scaled by 1/32768; channels averaged to mono.

    A file that is not such a WAV raises ``ValueError`` naming it.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            width, channels = wav.getsampwidth(), wav.getnchannels()
            frames = wav.readframes(wav.getnframes())
    except (EOFError, wave.Error) as exc:
        reason = str(exc) or "file ends early"
        raise ValueError(f"{path}: not a readable WAV file ({reason})") from exc
    if width != 2:
        raise ValueError(f"{path}: only 16-bit PCM WAV supported, got sample width {width}")
    data = np.frombuffer(frames, dtype="<i2").astype(float) / 32768.0
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    return data


def read_signal(path) -> np.ndarray:
    """Signal input dispatch: .wav, raw .f64 (with sidecar), or CSV.

    Returns a 1-D stream for scalar inputs, or a 2-D array (row per vector)
    when the source stores vectors.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".wav":
        return read_wav_mono(path)
    if suffix in (".f64", ".raw", ".bin"):
        return load_raw_f64(path)
    data = load_matrix_csv(path)
    if data.shape[1] == 1:
        return data.ravel()
    return data
