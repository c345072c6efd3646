"""mc-oracle: the dense time-domain Monte Carlo oracle.

``simulate_reverse`` on the d=50 target with ``cosine_schedule(112)``: ddim
with 20,000 samples and ddpm with 5,000.  It loads ``simulate`` (per-sample
Philox streams plus dense affine steps) and bypasses ``losses`` and
``optimize``.  The ddpm draw buffer (4096 x 5,650 doubles) makes this the
workload where a faster sampler that costs memory shows in ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np
from diffsched import SimConfig, cosine_schedule, ddim_transfer, ddpm_transfer, simulate_reverse

from harness import Workload, self_peak_rss_mb
from inputs import synthetic_target
from layers import SIMULATE
from stats import median

STEPS = 112
RUNS = [("ddim", 20_000), ("ddpm", 5_000)]
WARMUP_SAMPLES = 16
# Closed-form gate of the acceptance suite's Monte Carlo criterion.
VARIANCE_RTOL = 0.10


class MonteCarlo(Workload):
    name = "mc-oracle"

    def setup(self) -> None:
        self.dense, self.model = synthetic_target()
        self.schedule = cosine_schedule(STEPS)
        self.digests: dict[str, str] = {}
        # The output covariance is diagonal in the target's eigenbasis.  The
        # check measures the sample variance along each eigenvector and pairs
        # it with the closed form for the same eigenvalue.
        lam, self.basis = np.linalg.eigh(self.dense.covariance)
        order = np.argsort(self.model.eigenvalues, kind="stable")
        if not np.allclose(lam, self.model.eigenvalues[order], rtol=1e-9, atol=1e-12):
            raise RuntimeError("dense target and spectral model disagree on the eigenvalues")
        self.predicted = {}
        for process, transfer_fn in (("ddim", ddim_transfer), ("ddpm", ddpm_transfer)):
            transfer = transfer_fn(self.model, self.schedule)
            self.predicted[process] = (transfer.noise_gain**2 + transfer.var_extra)[order]
            simulate_reverse(self.dense, self._config(process, WARMUP_SAMPLES))

    def _config(self, process: str, samples: int) -> SimConfig:
        return SimConfig(process=process, samples=samples, seed=self.seed, schedule=self.schedule)

    def run_pass(self, tally, tr):
        ops = []
        for process, samples in RUNS:
            op = tally.attempt()
            start = perf_counter()
            try:
                with tr.span(SIMULATE, process=process, samples=samples):
                    out = simulate_reverse(self.dense, self._config(process, samples))
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.fail(op, f"{process}: {exc!r}")
                continue
            ops.append((process, perf_counter() - start))
            self._check(tally, op, process, out)
        return ops

    def _check(self, tally, op, process, out) -> None:
        centered = (out - out.mean(axis=0)) @ self.basis
        variance = np.sum(centered**2, axis=0) / (len(out) - 1)
        rel = np.max(np.abs(variance - self.predicted[process]) / self.predicted[process])
        tally.check(
            op,
            bool(rel <= VARIANCE_RTOL),
            f"{process}: sample variance off the closed form by {rel:.3f} > {VARIANCE_RTOL}",
        )
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        first = self.digests.setdefault(process, digest)
        tally.check(op, digest == first, f"{process}: same seed gave different bytes")

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def report(self, walls, ops) -> dict:
        out = {}
        for process, samples in RUNS:
            times = [t for name, t in ops if name == process]
            if times:  # a process that failed every pass has no rate
                out[f"mc_{process}_samples_per_s"] = (samples / median(times), "samples/s")
        return out

    def layer_metrics(self, tracer, cycles, tally) -> dict:
        return {}
