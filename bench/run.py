"""diffsched benchmark.

    python3 bench/run.py --workload schedule-design --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one command

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
figures with no tracing; ``--trace 1`` is a separate run that traces the
calls between layers and reports the per-layer figures.  Every run checks
the program's outputs and counts a failed check as a failed operation.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``; see ``bench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("schedule-design", "mc-oracle", "cli-session")
SETUP_PROBES = 3
MIN_PASSES = 2
SHOWN_FAILURES = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up, then exit (times setup_s)")
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def make_workload(name: str, seed: int, work: Path):
    # Imported here: the package must be on the path first, and BLAS
    # threads must be pinned before numpy loads.
    if name == "schedule-design":
        from design import Design as cls
    elif name == "mc-oracle":
        from mc import MonteCarlo as cls
    else:
        from session import Session as cls
    return cls(seed, ROOT, work)


def setup_seconds(args, work: Path) -> list[float]:
    """Wall time of fresh processes that only set the workload up."""
    from procs import child_env, run_child

    walls = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe"]
        result = run_child(argv, child_env(ROOT, work), ROOT, work)
        if result.returncode != 0:
            raise RuntimeError(f"setup probe failed: {result.stderr[-2000:]}")
        walls.append(result.wall_s)
    return walls


def fill(spec_metrics, values: dict, default=None) -> dict:
    """Every metric the spec names, in its order, with its unit."""
    unknown = set(values) - {m["name"] for m in spec_metrics}
    if unknown:
        raise RuntimeError(f"figures missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for m in spec_metrics:
        value = values.get(m["name"], default)
        if value is None:
            raise RuntimeError(f"no value for metric {m['name']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_one(args, spec: dict) -> int:
    from envinfo import environment
    from harness import run_traced, run_untraced
    from stats import Tally, median

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.setup_probe:
            make_workload(args.workload, args.seed, work).setup()
            return 0
        env = environment(ROOT, args.workload, args.seed, seconds, args.trace)
        setup = [] if args.trace else setup_seconds(args, work)
        wl = make_workload(args.workload, args.seed, work)
        wl.setup()
        tally = Tally()
        details = {}
        if args.trace:
            values, tracer = run_traced(wl, seconds, tally)
            metrics = fill(spec["per_layer"], values, default=0)
            details["spans"] = {"fields": ["name", "start", "end", "parent", "run"],
                                "rows": tracer.spans, "attrs": tracer.attrs}
        else:
            walls, ops = run_untraced(wl, seconds, tally, MIN_PASSES)
            values = {"setup_s": median(setup), "pass_s": median(walls),
                      "peak_rss_mb": wl.peak_rss_mb()}
            metrics = fill(spec["end_to_end"], values)
            figures = wl.report(walls, ops)
            details.update(setup_samples_s=setup, pass_samples_s=walls, ops=ops,
                           figures={k: {"value": v, "unit": u} for k, (v, u) in figures.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    reports = work_root / "reports"
    reports.mkdir(exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
    with gzip.open(report_path, "wt") as fh:
        json.dump({"env": env, "result": result, "failures": tally.failures, **details}, fh)

    print("env " + json.dumps(env))
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    for name, entry in details.get("figures", {}).items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}  ({args.workload})")
    for op, reason in list(tally.failures.items())[:SHOWN_FAILURES]:
        print(f"FAILED operation {op}: {reason}", file=sys.stderr)
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; fails if any check fails."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {proc.returncode})", file=sys.stderr)
            totals["correct"] = False
            continue
        totals["correct"] &= result["correct"] and proc.returncode == 0
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            totals["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "diffsched" / "__init__.py").is_file():
        print(f"bench: no diffsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from procs import BLAS_ENV

    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
