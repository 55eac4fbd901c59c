"""cylseg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload toy-train|full-infer|occupancy-stats
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It generates the
workload's inputs from the seed, times the program's set-up five times in
fresh processes, runs the workload in a process of its own with the BLAS
thread count pinned, checks the outputs, prints a readable report and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced pass (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402

WORKLOADS = ("toy-train", "full-infer", "occupancy-stats")
REQUIRED = ("src/cylseg/__init__.py", "configs/toy_train.cfg", "configs/semantic_kitti.cfg")
# One BLAS thread on every machine: outputs then do not depend on the core
# count, and no process oversubscribes the cores (see ROADMAP item 3).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # four set-up-only processes plus the measured one
DEADLINE_S = 170.0
WORK_ROOT = ".bench_work"
TRACE_ROOT = ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "quality": "ratio", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def child(phase, args, work, deadline, extra=()):
    """Run one workload phase in its own process and return its result."""
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), phase,
           "--workload", args.workload, "--seed", str(args.seed), "--work", work,
           "--scale", args.scale, "--seconds", str(args.seconds), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {phase} phase")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase did not finish within the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with code {proc.returncode}")
    with open(os.path.join(work, f"{phase}.json")) as fh:
        return json.load(fh)


def end_to_end(run, setups):
    return {
        "setup_s": statistics.median(setups),
        "op_s.p50": run["op_s.p50"],
        "quality": run["quality"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def report(args, run, metrics, units, setups):
    """Readable lines before the result line."""
    print(f"cylseg benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, scale {args.scale}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    if not args.trace:
        print(f"  {'setup_s':<24s} {metrics['setup_s']:.6g} s  (median of "
              + ", ".join(f"{s:.4f}" for s in setups) + ")")
        for name, (value, unit) in run.get("named", {}).items():
            print(f"  {name:<24s} {value:.6g} {unit}")
        print(f"  {'peak_rss_mb':<24s} {metrics['peak_rss_mb']:.6g} MiB")
    else:
        for name, value in metrics.items():
            print(f"  {name:<40s} {value:.6g} {units[name]}")
        print("counts " + json.dumps(run["exact_counts"], sort_keys=True))
        print(f"spans written to {run['spans']}")
    rate = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"  {'error_rate':<24s} {rate:.6g} ratio  ({run['failed']} of {run['attempted']})")
    for err in run["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: not the root of a cylseg checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        child("prepare", args, work, deadline)
        setups = []
        if not args.trace:
            setups = [child("setup", args, work, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        run = child("run", args, work, deadline, ["--trace"] if args.trace else [])
        if args.trace:
            os.makedirs(os.path.join(root, TRACE_ROOT), exist_ok=True)
            spans = os.path.join(root, TRACE_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            shutil.move(run["spans"], spans)
            run["spans"] = os.path.relpath(spans, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "op_s.p50" not in run:
        print("error: no operation completed", file=sys.stderr)
        for err in run["errors"]:
            print(f"  error: {err}", file=sys.stderr)
        return 1
    if args.trace:
        units = tracing.per_layer_units()
        metrics = run["per_layer"]
    else:
        units = END_TO_END_UNITS
        metrics = end_to_end(run, setups + [run["setup_s"]])
    report(args, run, metrics, units, setups + [run["setup_s"]])
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
