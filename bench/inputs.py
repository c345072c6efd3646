"""Inputs the workloads generate from their seed.

The signal is the one the command-line session estimates its model from:
60 s of 16 kHz 16-bit mono audio, two tones plus noise, with about 40% of
the 400-sample windows gated down to near silence so that estimation rejects
them.  The schedule-design workload estimates its d=400 target from the same
signal, so both workloads see the same model for a seed.
"""

from __future__ import annotations

import wave

import numpy as np

from diffsched import synthetic_circulant_model
from diffsched.estimate import (
    EstimationConfig,
    sliding_window_covariance,
    spectral_model_from_covariance,
)

RATE = 16_000
SIGNAL_SECONDS = 60
WINDOW = 400
SILENCE_THRESHOLD = 0.05
GATED_SHARE = 0.4

# The README's synthetic circulant target: d, l, mu_const.
SYNTHETIC = (50, 0.1, 0.05)


def signal_pcm(seed: int) -> np.ndarray:
    """Little-endian int16 samples of the session signal for ``seed``."""
    rng = np.random.default_rng(seed)
    n = RATE * SIGNAL_SECONDS
    t = np.arange(n) / RATE
    f1, f2 = rng.uniform(180.0, 520.0), rng.uniform(900.0, 2400.0)
    x = 0.25 * np.sin(2 * np.pi * f1 * t + rng.uniform(0, 2 * np.pi))
    x += 0.15 * np.sin(2 * np.pi * f2 * t + rng.uniform(0, 2 * np.pi))
    x += 0.03 * rng.standard_normal(n)
    # Window-aligned gating keeps every window either loud or near silent,
    # well away from the threshold, so the rejected count is exact.
    gated = rng.random(n // WINDOW) < GATED_SHARE
    x[np.repeat(gated, WINDOW)] *= 0.02
    return np.round(np.clip(x, -1.0, 1.0 - 1.0 / 32768) * 32768).astype("<i2")


def window_count(pcm: np.ndarray) -> int:
    return (len(pcm) - WINDOW) // WINDOW + 1


def write_wav(path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(RATE)
        wav.writeframes(pcm.tobytes())


def signal_model(seed: int):
    """The d=400 circulant spectral model estimated from the seed's signal."""
    signal = signal_pcm(seed).astype(float) / 32768.0
    cfg = EstimationConfig(window=WINDOW, silence_threshold=SILENCE_THRESHOLD)
    return spectral_model_from_covariance(sliding_window_covariance(signal, cfg), "circulant")


def synthetic_target():
    d, l, mu = SYNTHETIC
    return synthetic_circulant_model(d, l, mu)
