"""The machine and software a run measured, recorded with its figures."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

from procs import BLAS_ENV


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _git(root, *args) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _openblas() -> str | None:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("openblas configuration") or deps["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        return None


def environment(root, workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    import scipy

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "executable": sys.executable,
    }
