"""Benchmark runner: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

It starts the workload in fresh interpreters with BLAS pinned to one
thread: SETUP_RUNS - 1 processes that only set up, then one that also
runs the timed operations.  ``setup_s`` is the median set-up time of
all of them.  With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy is first imported here or in a
# workload process: the gf2 products then measure a plain single-threaded
# run, not how busy the other core happens to be.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench import per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
RUN_BUDGET_S = 170  # all workload processes of one run together
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _child(argv: list[str], env: dict, deadline: float) -> dict:
    started = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), *argv, "--started", repr(started)],
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cachealign", "__init__.py")):
        print("error: no src/cachealign here; run from a checkout's root", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--outdir", outdir,
    ]

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [
        _child([*argv, "--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)
    ]
    run = _child(argv, env, deadline)
    setups.append(run["setup_s"])

    if args.trace:
        values, units = run["layers"], per_layer_names()
    else:
        values, units = dict(run["metrics"], setup_s=statistics.median(setups)), UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for error, count in run["errors"].items():
        print(f"{args.workload:12s} failed x{count}: {error}")
    for problem in run["problems"]:
        print(f"{args.workload:12s} WRONG: {problem}")
    print(f"{args.workload:12s} ops_per_s {run['metrics']['ops_per_s']:.6g} (trace {args.trace})")

    result = {key: run[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
