"""Benchmark of the imbtrader trading loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live_cvar --seed 1 --seconds 5 --trace 0

Workloads: retrain, live_cvar, live_evar_short, sweep (see README.md here).
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are the per-layer metrics of a traced run.  Human-readable lines above it
give every metric with its unit, the outcome values and the environment; the
full result, spans included when traced, is written to perfbench/out/.
The exit code is 0 only if every correctness check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set before numpy loads: one BLAS thread keeps each run on one core, which
# is steadier on the 2-CPU machine the bounds were measured on.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("retrain", "live_cvar", "live_evar_short", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "imbtrader" / "__init__.py").is_file():
        print(f"perfbench: no imbtrader package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = workloads.run_traced(args.workload, args.seed, workdir)
        else:
            result = workloads.run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    bad_values = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    correct = failed == 0 and not result["problems"] and not bad_values
    env = environment(args)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    kind = "per-layer" if args.trace else "end-to-end"
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {fmt(value):>14} {unit:<6} [{kind}]")
    for name, (value, unit) in result["info"].items():
        print(f"{name:<40} {fmt(value):>14} {unit:<6} [info]")
    print(f"{'fail_ratio':<40} {fmt(failed / attempted):>14} {'-':<6} [{failed}/{attempted}]")
    for name, value in result["outcomes"].items():
        print(f"outcome {name}: {json.dumps(value)}")
    if result.get("probed"):
        print("probed on this workload's data: " + ", ".join(result["probed"]))
    for key, value in env.items():
        print(f"env {key}: {value}")
    for problem in result["problems"][:20]:
        print(f"FAILED CHECK: {problem}")
    for name in bad_values:
        print(f"FAILED CHECK: metric {name} is not finite")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in result["info"].items()},
        "outcomes": result["outcomes"],
        "problems": result["problems"],
        "samples": result.get("samples"),
        "span_summary": result.get("summary"),
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [[s.id, s.name, s.start, s.end, s.parent, s.key] for s in result["spans"]]
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps({"columns": ["id", "name", "start", "end", "parent", "key"], "spans": spans})
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
