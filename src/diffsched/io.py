"""File formats: model/schedule JSON, CSV, raw float64 arrays, WAV input.

JSON numbers are emitted with Python's shortest round-trip float repr, so
serialization round-trips bit-exactly.  All writes go through a temp file
and an atomic rename.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

from .spectral import Schedule, SpectralModel, VeSchedule

__all__ = [
    "atomic_write_text",
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

def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _refuse_non_finite(path, *arrays) -> None:
    """Refuse, naming ``path``, to write a NaN or an infinity there: the
    readers reject them or, in a CSV file, read ``nan`` back as a number."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{path}: refusing to write a NaN or infinite value")


def _integer_field(data: dict, name: str, what: str) -> int:
    """``data[name]`` as an int: a JSON integer, or a float with an integral
    value; bools, other numbers and other types are rejected."""
    value = data[name]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} field {name!r} must be an integer, got {value!r}")
    return value


def _number_field(data: dict, name: str, what: str) -> float:
    """``data[name]`` as a float: a finite JSON number, not a bool."""
    value = data[name]
    # NaN, the infinities and integers beyond the float range fail the bound
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ValueError(f"{what} field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _string_field(data: dict, name: str, what: str) -> str:
    value = data[name]
    if not isinstance(value, str):
        raise ValueError(f"{what} field {name!r} must be a string, got {value!r}")
    return value


def _number_list_field(data: dict, name: str, what: str) -> np.ndarray:
    """``data[name]`` as a float vector: a flat JSON list of numbers, no bools."""
    value = data[name]
    if not isinstance(value, list):
        raise ValueError(f"{what} field {name!r} must be a list of numbers, got {value!r}")
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(
                f"{what} field {name!r} must be a list of numbers, item {i} is {item!r}"
            )
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{what} field {name!r} holds an integer beyond the float range") from None


# Each JSON format the package reads: its name in messages, and the reader
# of each of its fields.  A document holds exactly these fields.
_MODEL = "spectral model", {
    "dim": _integer_field, "eigenvalues": _number_list_field,
    "mean_spectral": _number_list_field, "source": _string_field,
}
_SCHEDULE = "schedule", {
    "kind": _string_field, "steps": _integer_field, "eps0": _number_field,
    "epsS": _number_field, "alpha_bar": _number_list_field,
}
_SIGMA_SCHEDULE = "sigma schedule", {"steps": _integer_field, "sigma": _number_list_field}
_RAW_SIDECAR = "raw sidecar", {"dim": _integer_field, "count": _integer_field}


def _read_fields(path, form: tuple) -> dict:
    """The fields of the JSON object in ``path``, each read by its reader in
    ``form``; a document that is not such an object raises ``ValueError``."""
    what, readers = form
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{path}: not a readable JSON document ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a {what} must be a JSON object, got {json.dumps(data):.40}")
    unknown = set(data) - set(readers)
    if unknown:
        raise ValueError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = set(readers) - set(data)
    if missing:
        raise ValueError(f"missing fields in {what}: {sorted(missing)}")
    return {name: read(data, name, what) for name, read in readers.items()}


def save_model(model: SpectralModel, path) -> None:
    _refuse_non_finite(path, model.eigenvalues, model.mean_spectral)
    payload = {
        "dim": model.dim,
        "eigenvalues": [float(x) for x in model.eigenvalues],
        "mean_spectral": [float(x) for x in model.mean_spectral],
        "source": model.source,
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path) -> SpectralModel:
    return SpectralModel(**_read_fields(path, _MODEL))


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
    return Schedule(**_read_fields(path, _SCHEDULE))


def save_ve_schedule(ve: VeSchedule, path) -> None:
    """Write a sigma schedule JSON; what :meth:`VeSchedule.validate` rejects
    is never written."""
    ve.validate()
    payload = {"steps": ve.steps, "sigma": [float(x) for x in ve.sigma]}
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_ve_schedule(path) -> VeSchedule:
    return VeSchedule(**_read_fields(path, _SIGMA_SCHEDULE))


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
    _refuse_non_finite(path, arr)
    atomic_write_bytes(path, arr.tobytes(order="C"))
    atomic_write_text(
        str(path) + ".json", json.dumps({"dim": dim, "count": count}) + "\n"
    )


def load_raw_f64(path) -> np.ndarray:
    sidecar = str(path) + ".json"
    meta = _read_fields(sidecar, _RAW_SIDECAR)
    dim, count = meta["dim"], meta["count"]
    for name, value, least in (("dim", dim, 1), ("count", count, 0)):
        if value < least:
            raise ValueError(
                f"raw sidecar field {name!r} must be >= {least}, got {value} ({sidecar})"
            )
    data = np.fromfile(path, dtype="<f8")
    if len(data) != dim * count:
        raise ValueError(
            f"raw file holds {len(data)} doubles, sidecar promises {count}x{dim}"
        )
    return data if dim == 1 else data.reshape(count, dim)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _refuse_non_finite(path, matrix)
    # repr of a Python float is format_float's string, without a call per value.
    lines = [",".join(map(repr, row)) for row in matrix.tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Comma-separated rows of numbers, all of one length; blank lines are skipped."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}: line {number} has {len(row)} values, not {len(rows[0])}")
            rows.append(row)
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
