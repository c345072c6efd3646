import dataclasses
import json
import os
import re
import stat
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffsched import Schedule, SpectralModel, cosine_schedule, synthetic_circulant_model
from diffsched.cli import main
from diffsched.io import (
    _read_wav_mono,
    format_float,
    load_matrix_csv,
    load_model,
    load_raw_f64,
    load_schedule,
    load_ve_schedule,
    read_signal,
    save_matrix_csv,
    save_model,
    save_raw_f64,
    save_schedule,
    save_ve_schedule,
)
from diffsched.spectral import VeSchedule


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    model = SpectralModel(
        dim=5,
        eigenvalues=rng.uniform(0, 2, 5),
        mean_spectral=rng.normal(size=5),
        source="unit test",
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.eigenvalues, model.eigenvalues)
    assert np.array_equal(back.mean_spectral, model.mean_spectral)
    assert back.source == model.source and back.dim == model.dim


def test_schedule_round_trip_bit_exact(tmp_path):
    schedule = cosine_schedule(37)
    path = tmp_path / "schedule.json"
    save_schedule(schedule, path)
    back = load_schedule(path)
    assert np.array_equal(back.alpha_bar, schedule.alpha_bar)
    assert back.kind == schedule.kind
    assert back.eps0 == schedule.eps0 and back.epsS == schedule.epsS


def test_ve_round_trip(tmp_path):
    ve = VeSchedule(steps=3, sigma=np.array([0.01, 0.5, 1.7, 80.0]))
    path = tmp_path / "ve.json"
    save_ve_schedule(ve, path)
    back = load_ve_schedule(path)
    assert np.array_equal(back.sigma, ve.sigma)


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "model.json"
    payload = {
        "dim": 1,
        "eigenvalues": [1.0],
        "mean_spectral": [0.0],
        "source": "",
        "extra": 1,
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown fields"):
        load_model(path)

    sched_path = tmp_path / "schedule.json"
    sched_path.write_text(json.dumps({"kind": "x", "steps": 1}))
    with pytest.raises(ValueError, match="missing fields"):
        load_schedule(sched_path)

    # the raw sidecar holds exactly dim and count
    raw_path = tmp_path / "x.f64"
    save_raw_f64(np.ones(2), raw_path)
    sidecar = tmp_path / "x.f64.json"
    sidecar.write_text(json.dumps({"count": 2}))
    with pytest.raises(ValueError, match=r"^missing fields in raw sidecar: \['dim'\]$"):
        load_raw_f64(raw_path)
    sidecar.write_text(json.dumps({"dim": 1, "count": 2, "dtype": "<f8"}))
    with pytest.raises(ValueError, match=r"^unknown fields in raw sidecar: \['dtype'\]$"):
        load_raw_f64(raw_path)


def test_integral_float_counts_load(tmp_path):
    # a writer that emits every number as a float (16.0) still loads
    model = SpectralModel(dim=2, eigenvalues=[1.0, 0.5], mean_spectral=[0.0, 0.1])
    path = tmp_path / "m.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    data["dim"] = 2.0
    path.write_text(json.dumps(data))
    loaded = load_model(path)
    assert loaded.dim == 2 and type(loaded.dim) is int


@pytest.mark.parametrize("value", [2.5, True, float("inf")])
def test_raw_f64_sidecar_rejects_non_integer_counts(tmp_path, value):
    path = tmp_path / "x.f64"
    save_raw_f64(np.ones((2, 3)), path)
    meta = json.loads((tmp_path / "x.f64.json").read_text())
    meta["count"] = value
    (tmp_path / "x.f64.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="^raw sidecar field 'count' must be an integer"):
        load_raw_f64(path)


@pytest.mark.parametrize(
    "load, what",
    [
        (load_model, "spectral model"),
        (load_schedule, "schedule"),
        (load_ve_schedule, "sigma schedule"),
        (load_raw_f64, "raw sidecar"),
    ],
)
def test_every_json_document_must_be_an_object(tmp_path, load, what):
    path = tmp_path / "x"
    save_raw_f64(np.ones(2), path)
    document = tmp_path / "x.json" if load is load_raw_f64 else path
    name = re.escape(str(document))
    document.write_text("[1, 2]")
    with pytest.raises(ValueError, match=rf"^{name}: a {what} must be a JSON object, got \[1, 2"):
        load(path)
    document.write_text('{"dim": 1,')
    with pytest.raises(ValueError, match=f"^{name}: not a readable JSON document "):
        load(path)


def _model_with(value):
    model = SpectralModel(dim=2, eigenvalues=[1.0, 0.5], mean_spectral=[0.0, 0.1])
    model.mean_spectral[1] = value  # past the constructor's finiteness check
    return model


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, write",
    [
        ("m.csv", lambda value, path: save_matrix_csv([[1.0, value]], path)),
        ("x.f64", lambda value, path: save_raw_f64(np.array([[1.0], [value]]), path)),
        ("model.json", lambda value, path: save_model(_model_with(value), path)),
    ],
    ids=["matrix-csv", "raw-f64", "model"],
)
def test_writers_refuse_non_finite_values(tmp_path, name, write, value):
    path = tmp_path / name
    message = f"^{re.escape(str(path))}: refusing to write a NaN or infinite value$"
    with pytest.raises(ValueError, match=message):
        write(value, path)
    assert list(tmp_path.iterdir()) == []  # neither the file, a sidecar nor a temp file


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    # each writer's file gets the permissions a fresh ``open`` would give it
    model = synthetic_circulant_model(4, 0.1, 0.05)[1]
    for umask in (0o022, 0o077):
        folder = tmp_path / f"{umask:o}"
        folder.mkdir()
        previous = os.umask(umask)
        try:
            (folder / "reference").open("x").close()
            save_model(model, folder / "model.json")
            save_schedule(cosine_schedule(4), folder / "schedule.json")
            save_ve_schedule(VeSchedule(steps=1, sigma=np.array([0.5, 2.0])), folder / "ve.json")
            save_raw_f64(np.ones((2, 3)), folder / "x.f64")
            save_matrix_csv(np.eye(2), folder / "m.csv")
            argv = ["optimize", "--model", str(folder / "model.json"), "--steps", "4",
                    "--out", str(folder / "opt.json")]
            assert main(argv) == 0
        finally:
            os.umask(previous)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in folder.iterdir()}
        assert sorted(modes) == [
            "m.csv", "model.json", "opt.json", "opt.json.manifest.json", "opt.json.report.json",
            "reference", "schedule.json", "ve.json", "x.f64", "x.f64.json",
        ]
        assert modes == dict.fromkeys(modes, modes["reference"])


def test_save_schedule_writes_only_valid_schedules(tmp_path):
    path = tmp_path / "s.json"
    with pytest.raises(ValueError, match="strictly inside"):
        Schedule(kind="custom", steps=2, alpha_bar=np.array([1.0, 0.5, 4e-5]), eps0=0.0)
    # a schedule changed after it was made is checked again on writing
    bad = Schedule(kind="custom", steps=2, alpha_bar=np.array([1 - 1e-4, 0.5, 4e-5]))
    bad.alpha_bar[0], bad.eps0 = 1.0, 0.0
    with pytest.raises(ValueError, match="strictly inside"):
        save_schedule(bad, path)
    assert not path.exists()
    # a non-monotone schedule, as free-mode optimization may return, is written
    crossed = Schedule(kind="custom", steps=3, alpha_bar=np.array([1 - 1e-4, 0.4, 0.6, 4e-5]))
    save_schedule(crossed, path)
    np.testing.assert_array_equal(load_schedule(path).alpha_bar, crossed.alpha_bar)


def test_save_ve_schedule_writes_only_valid_schedules(tmp_path):
    # a decreasing sigma, which load_ve_schedule's callers reject
    path = tmp_path / "ve.json"
    with pytest.raises(ValueError, match="^sigma must be nondecreasing"):
        save_ve_schedule(VeSchedule(steps=1, sigma=np.array([2.0, 1.0])), path)
    assert not path.exists()


def test_raw_f64_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.normal(size=(7, 3))
    path = tmp_path / "samples.f64"
    save_raw_f64(data, path)
    sidecar = json.loads((tmp_path / "samples.f64.json").read_text())
    assert sidecar == {"dim": 3, "count": 7}
    np.testing.assert_array_equal(load_raw_f64(path), data)


def test_raw_f64_scalar_stream(tmp_path):
    data = np.arange(5, dtype=float)
    path = tmp_path / "stream.f64"
    save_raw_f64(data, path)
    loaded = load_raw_f64(path)
    assert loaded.ndim == 1
    np.testing.assert_array_equal(loaded, data)


def test_raw_f64_refuses_more_than_two_dims(tmp_path):
    with pytest.raises(ValueError, match=r"^only 1-D or 2-D arrays supported, got shape \(2, 2, 2\)$"):
        save_raw_f64(np.ones((2, 2, 2)), tmp_path / "x.f64")
    assert list(tmp_path.iterdir()) == []


def test_raw_f64_sidecar_mismatch(tmp_path):
    path = tmp_path / "bad.f64"
    save_raw_f64(np.ones(4), path)
    (tmp_path / "bad.f64.json").write_text(json.dumps({"dim": 1, "count": 9}))
    named = re.escape(str(path))
    with pytest.raises(ValueError, match=rf"^{named}: holds 32 bytes, sidecar promises 9x1 doubles \(72 bytes\)$"):
        load_raw_f64(path)
    # a partial double at the end is refused too, not dropped
    (tmp_path / "bad.f64.json").write_text(json.dumps({"dim": 1, "count": 4}))
    path.write_bytes(path.read_bytes() + b"\0" * 3)
    with pytest.raises(ValueError, match=rf"^{named}: holds 35 bytes, sidecar promises 4x1 doubles \(32 bytes\)$"):
        load_raw_f64(path)


def test_matrix_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-12, 12, size=(4, 4))
    path = tmp_path / "matrix.csv"
    save_matrix_csv(matrix, path)
    np.testing.assert_array_equal(load_matrix_csv(path), matrix)


def test_matrix_csv_bytes_are_format_float_per_element(tmp_path):
    matrix = np.array([[-0.0, 5e-324, 1e-300], [0.1, 1e16, 1e20]])
    path = tmp_path / "matrix.csv"
    save_matrix_csv(matrix, path)
    expected = "".join(",".join(format_float(x) for x in row) + "\n" for row in matrix)
    assert path.read_bytes() == expected.encode("utf-8")


def _csv_matrices():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(40, 40))
    distinct = rng.normal(size=(30, 40))
    return {
        "circulant": synthetic_circulant_model(60, 0.1, 0.05)[0].covariance,
        "symmetric": raw + raw.T,
        "all-distinct": distinct,
        "transposed": distinct.T,
        "signed-zero": np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]]),
        "1x1": np.array([[-2.5]]),
        "single-column": rng.normal(size=(17, 1)).round(1),
    }


@pytest.mark.parametrize("name", list(_csv_matrices()))
def test_matrix_csv_bytes_are_repr_per_element(tmp_path, name):
    # save_matrix_csv formats each distinct double once; the bytes are those
    # of formatting every element.
    matrix = _csv_matrices()[name]
    path = tmp_path / "matrix.csv"
    save_matrix_csv(matrix, path)
    expected = "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())
    assert path.read_bytes() == expected.encode("utf-8")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# the types a count or a scalar field may have: Python's or numpy's
_INT_TYPES = st.sampled_from([int, np.int64, np.int32, np.uint8])
_FLOAT_TYPES = st.sampled_from([float, np.float64])


@st.composite
def _models(draw):
    dim = draw(st.integers(1, 6))
    eigenvalues = draw(st.lists(st.floats(0.0, allow_infinity=False), min_size=dim, max_size=dim))
    mean = draw(st.lists(_FINITE, min_size=dim, max_size=dim))
    return SpectralModel(draw(_INT_TYPES)(dim), eigenvalues, mean, draw(st.text(max_size=8)))


@st.composite
def _schedules(draw):
    # interior levels in any order: save_schedule writes non-monotone ones too
    steps = draw(st.integers(1, 8))
    eps0, epsS = draw(st.floats(1e-12, 0.5)), draw(_UNIT)
    interior = draw(st.lists(_UNIT, min_size=steps - 1, max_size=steps - 1))
    alpha_bar = [1.0 - eps0, *interior, epsS]
    eps0, epsS = draw(_FLOAT_TYPES)(eps0), draw(_FLOAT_TYPES)(epsS)
    return Schedule(draw(st.text(max_size=8)), draw(_INT_TYPES)(steps), alpha_bar, eps0, epsS)


@st.composite
def _sigma_schedules(draw):
    steps = draw(st.integers(1, 8))
    sigma = sorted(draw(st.lists(st.floats(0.0, allow_infinity=False),
                                 min_size=steps + 1, max_size=steps + 1)))
    return VeSchedule(draw(_INT_TYPES)(steps), sigma)


# format -> (valid values, writer, reader)
_FORMATS = {
    "model": (_models(), save_model, load_model),
    "schedule": (_schedules(), save_schedule, load_schedule),
    "sigma schedule": (_sigma_schedules(), save_ve_schedule, load_ve_schedule),
    # a 2-D array of one column is written as, and reads back as, a stream
    "raw": (
        arrays(
            float,
            st.tuples(st.integers(0, 12)) | st.tuples(st.integers(0, 6), st.integers(2, 5)),
            elements=_FINITE,
        ),
        save_raw_f64,
        load_raw_f64,
    ),
    "matrix": (
        arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=_FINITE),
        save_matrix_csv,
        load_matrix_csv,
    ),
}


def _as_written(value):
    """``value`` with each numpy scalar field as the Python value a writer
    writes for it."""
    if not dataclasses.is_dataclass(value):
        return value
    scalars = {k: v.item() for k, v in vars(value).items() if isinstance(v, np.generic)}
    return dataclasses.replace(value, **scalars)


def _exact(value):
    """``value``'s contents, arrays as their shape and bytes, numbers as their repr."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype, value.tobytes()
    if dataclasses.is_dataclass(value):
        return {name: _exact(field) for name, field in vars(value).items()}
    return type(value), repr(value)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), form=st.sampled_from(sorted(_FORMATS)))
def test_every_writer_round_trips_through_its_reader(data, form):
    values, write, read = _FORMATS[form]
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "a", Path(tmp) / "b"
        write(value, path)
        back = read(path)
        assert _exact(back) == _exact(_as_written(value))
        write(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_format_float_shortest_round_trip():
    for x in (0.1, 1 / 3, 4e-5, 1e300, -7.25):
        assert float(format_float(x)) == x


def write_wav(path, samples, channels=1, rate=16000):
    pcm = np.clip(np.asarray(samples) * 32768, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(pcm.tobytes())


def test_wav_mono_read(tmp_path):
    path = tmp_path / "tone.wav"
    t = np.arange(400)
    signal = 0.5 * np.sin(2 * np.pi * t / 50)
    write_wav(path, signal)
    loaded = _read_wav_mono(path)
    assert len(loaded) == 400
    np.testing.assert_allclose(loaded, signal, atol=1.0 / 32768)


def test_wav_stereo_averaged(tmp_path):
    path = tmp_path / "stereo.wav"
    left = np.full(64, 0.5)
    right = np.full(64, -0.25)
    interleaved = np.empty(128)
    interleaved[0::2] = left
    interleaved[1::2] = right
    write_wav(path, interleaved, channels=2)
    loaded = _read_wav_mono(path)
    assert len(loaded) == 64
    np.testing.assert_allclose(loaded, 0.125, atol=1.0 / 32768)


def test_read_signal_dispatch(tmp_path):
    scalar_csv = tmp_path / "scalar.csv"
    scalar_csv.write_text("1.0\n2.0\n3.0\n")
    assert read_signal(scalar_csv).shape == (3,)

    vector_csv = tmp_path / "vector.csv"
    vector_csv.write_text("1.0,2.0\n3.0,4.0\n")
    assert read_signal(vector_csv).shape == (2, 2)

    raw = tmp_path / "raw.f64"
    save_raw_f64(np.ones((2, 3)), raw)
    assert read_signal(raw).shape == (2, 3)
