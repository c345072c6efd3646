import json
import wave

import numpy as np
import pytest

from diffsched import Schedule, SpectralModel, VeSchedule, cosine_schedule
from diffsched.io import (
    format_float,
    load_matrix_csv,
    load_model,
    load_raw_f64,
    load_schedule,
    load_ve_schedule,
    read_signal,
    read_wav_mono,
    save_matrix_csv,
    save_model,
    save_raw_f64,
    save_schedule,
    save_ve_schedule,
)


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


def test_save_schedule_writes_only_valid_schedules(tmp_path):
    path = tmp_path / "s.json"
    bad = Schedule(kind="custom", steps=2, alpha_bar=np.array([1.0, 0.5, 4e-5]), eps0=0.0)
    with pytest.raises(ValueError, match="strictly inside"):
        save_schedule(bad, path)
    assert not path.exists()
    # a non-monotone schedule, as free-mode optimization may return, is written
    crossed = Schedule(kind="custom", steps=3, alpha_bar=np.array([1 - 1e-4, 0.4, 0.6, 4e-5]))
    save_schedule(crossed, path)
    np.testing.assert_array_equal(load_schedule(path).alpha_bar, crossed.alpha_bar)


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


def test_raw_f64_sidecar_mismatch(tmp_path):
    path = tmp_path / "bad.f64"
    save_raw_f64(np.ones(4), path)
    (tmp_path / "bad.f64.json").write_text(json.dumps({"dim": 1, "count": 9}))
    with pytest.raises(ValueError):
        load_raw_f64(path)


def test_matrix_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-12, 12, size=(4, 4))
    path = tmp_path / "matrix.csv"
    save_matrix_csv(matrix, path)
    np.testing.assert_array_equal(load_matrix_csv(path), matrix)


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
    loaded = read_wav_mono(path)
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
    loaded = read_wav_mono(path)
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
