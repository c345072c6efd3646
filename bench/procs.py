"""Child processes: their environment, and a run that reports the child's
own peak memory and is killed if it overruns."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Every workload is a single caller, so one BLAS thread keeps the load within
# two cores and makes timings steadier than OpenBLAS's default.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

CHILD_TIMEOUT_S = 120.0


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv, env: dict, cwd: Path, log_dir: Path) -> ChildResult:
    """Run ``argv`` to completion; stdout and stderr go to files in ``log_dir``.

    ``os.wait4`` reaps the child, so its resource usage is the child's own
    and not the running maximum over every child this process has had.
    """
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
