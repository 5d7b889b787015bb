"""One workload process: set up, run the timed operations, check, report.

Started by ``run.py`` in a fresh interpreter whose environment pins BLAS
to one thread.  Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from importlib import import_module

import numpy as np

from oracles import CheckFailed
from spans import OP, Tracer, calls_under, install, self_times
from workloads import WORKLOADS

PACKAGE_MODULES = ("gf2", "netchannel", "schemes", "verifier", "tradeoff", "phy", "cli")


def _mat_mul_counts(args, kwargs, result):
    (ar, ac), (_, bc) = args[0].shape, args[1].shape
    return {"gf2.mat_mul.ops": ar * ac * bc, "gf2.mat_mul.bytes": 8 * (ar * ac + ac * bc + ar * bc)}


# Traced public functions, each with the counts it adds per call.
TARGETS = {
    "gf2.mat_mul": _mat_mul_counts,
    "gf2.solve_left": lambda args, kwargs, result: {"gf2.solve_left.rows": args[0].rows},
    "gf2.vstack": None,
    "netchannel.user_channel_matrix": None,
    "schemes.scheme_for_memory": None,
    "schemes.memory_share": None,
    "schemes.read_scheme": lambda args, kwargs, result: {"schemes.text_bytes": len(args[0])},
    "schemes.write_scheme": lambda args, kwargs, result: {"schemes.text_bytes": len(result)},
    "verifier.observation_matrix": None,
    "verifier.decodable": None,
    "verifier.verify_all": None,
    "verifier.message_bits": None,
    "tradeoff.sweep": lambda args, kwargs, result: {"tradeoff.sweep.rows": len(result)},
    "tradeoff.sweep_csv": None,
    "phy.e2e_run": lambda args, kwargs, result: {"phy.frames": args[0].message_rows},
    "phy.send_frame": None,
    "phy.demodulate": None,
    "phy.uniqueness_certificate": None,
    "phy.monte_carlo": None,
    "cli.main": None,
}

COUNTS = {
    "gf2.mat_mul.ops": "count",
    "gf2.mat_mul.bytes": "B",
    "gf2.solve_left.rows": "count",
    "schemes.text_bytes": "B",
    "tradeoff.sweep.rows": "count",
    "phy.frames": "count",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for target in TARGETS:
        names[f"{target}.calls"] = "count"
        names[f"{target}.self_s"] = "s"
    names.update(COUNTS)
    names["phy.uniqueness_certificate.per_frame"] = "1/frame"
    names["trace.op_s"] = "s"
    names["trace.untraced_s"] = "s"
    return names


def layer_metrics(tracer, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the recorded spans and counts."""
    per_name = self_times(tracer.spans)
    out = {}
    for target in TARGETS:
        calls, self_s = per_name.get(target, (0, 0.0))
        out[f"{target}.calls"] = calls / ops
        out[f"{target}.self_s"] = self_s / ops
    for name in COUNTS:
        out[name] = tracer.counts[name] / ops
    frames = tracer.counts["phy.frames"]
    certs = calls_under(tracer.spans, "phy.e2e_run", "phy.uniqueness_certificate")
    out["phy.uniqueness_certificate.per_frame"] = certs / frames if frames else 0.0
    op_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == OP)
    out["trace.op_s"] = op_s / ops
    out["trace.untraced_s"] = per_name.get(OP, (0, 0.0))[1] / ops
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True, help="wall time of the spawn")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = import_module("cachealign")
    modules = {name: import_module(f"cachealign.{name}") for name in PACKAGE_MODULES}
    cls = WORKLOADS[args.workload]
    workload = cls(pkg, args.outdir)
    try:
        rng = np.random.default_rng(args.seed)
        rounds = max(1, round(args.seconds / cls.round_s))
        ops = [op for _ in range(rounds) for op in workload.make_round(rng)]
        workload.warm_up()
        setup_s = time.time() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer, {"cachealign": pkg, **modules}, TARGETS)

        times, errors, problems = [], {}, []
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op(i)
            start = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # a failing operation is counted, not fatal
                out = None
                key = f"{type(exc).__name__}: {exc}".splitlines()[0][:160]
                errors[key] = errors.get(key, 0) + 1
            times.append(time.perf_counter() - start)
            if tracer:
                tracer.end_op()
            if out is not None:
                try:
                    workload.check(op, out)
                except CheckFailed as exc:
                    problems.append(str(exc))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()

    result = {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": sum(errors.values()),
        "errors": errors,
        "problems": problems[:20],
        "correct": not problems,
        "metrics": {
            "ops_per_s": len(ops) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, len(ops))
        tracer.write(os.path.join(args.outdir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
