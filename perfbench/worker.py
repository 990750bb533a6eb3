"""One workload in one process: set up, warm up, then a closed loop of ops.

Started by ``run.py``, never by hand.  The process imports the library,
builds the seeded inputs and runs one warm-up op; ``setup_s`` is the time
from the parent's spawn timestamp to the start of the first timed op.  The
loop then runs whole cycles over the inputs, one op at a time from a single
client thread, until the window has lasted ``--seconds``.  Whole cycles keep
the mix of inputs, and so the per-op trace counts, the same on every run.

With ``--trace 1`` the window is split: an untraced half, then a traced
half whose spans give the per-layer metrics; the gap between the two halves'
throughput is the tracing overhead.

The process prints one JSON line with its raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import tracer as tracing
import workloads


class Loop:
    """Runs ops over the input cycle and tallies gates and reruns."""

    def __init__(self, workload, inputs):
        self.op = workloads.WORKLOADS[workload][1]
        self.standing = workloads.STANDING[workload]
        self.inputs = inputs
        self.next_input = 0
        self.first_values = {}     # input index -> canonical values of its first run
        self.reset()

    def reset(self):
        self.latencies_ms = []
        self.failed = 0            # ops that raised, differed on rerun or failed a new gate
        self.errors = 0
        self.nonrepro = 0
        self.gates_evaluated = 0
        self.gates_passed = 0
        self.new_failures = {}     # failing gate outside STANDING -> count
        self.standing_failures = {}

    def run_one(self):
        index = self.next_input
        self.next_input = (index + 1) % len(self.inputs)
        start = time.perf_counter()
        try:
            gates, values = self.op(self.inputs[index])
        except Exception:
            self.latencies_ms.append((time.perf_counter() - start) * 1e3)
            if not self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors += 1
            self.failed += 1
            return
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        canonical = json.dumps(values, sort_keys=True)
        reproduced = self.first_values.setdefault(index, canonical) == canonical
        self.nonrepro += not reproduced
        self.gates_evaluated += len(gates)
        new_failure = False
        for name, ok in gates.items():
            if ok:
                self.gates_passed += 1
            else:
                tally = self.standing_failures if name in self.standing else self.new_failures
                tally[name] = tally.get(name, 0) + 1
                new_failure = new_failure or name not in self.standing
        self.failed += new_failure or not reproduced

    def run_window(self, seconds, tracer=None):
        """Whole cycles until ``seconds`` have passed; returns the tallies."""
        self.reset()
        start = time.perf_counter()
        while True:
            for _ in range(len(self.inputs)):
                if tracer is not None:
                    tracer.op_id = len(self.latencies_ms)
                self.run_one()
            if time.perf_counter() - start >= seconds:
                break
        window = time.perf_counter() - start
        ops = len(self.latencies_ms)
        return {
            "ops": ops, "window_s": window, "ops_per_s": ops / window,
            "latencies_ms": self.latencies_ms, "failed": self.failed, "errors": self.errors,
            "nonrepro": self.nonrepro, "gates_evaluated": self.gates_evaluated,
            "gates_passed": self.gates_passed, "new_failures": self.new_failures,
            "standing_failures": self.standing_failures,
        }


def layer_metrics(tracer, ops):
    """Per-op span metrics: NAME.calls, NAME.ms, NAME.self_ms, kernel work."""
    out = {}
    for name, row in tracer.summary().items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value / ops
    transforms = ("numpy.fft.fft", "numpy.fft.ifft")
    for key in ("calls", "ms"):
        out[f"numpy.fft.{key}"] = sum(out.get(f"{name}.{key}", 0.0) for name in transforms)
    out["numpy.fft.points"] = sum(tracer.work[name] for name in transforms) / ops
    out["numpy.polyval.coeff_points"] = tracer.work["numpy.polyval"] / ops
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    make_inputs = workloads.WORKLOADS[args.workload][0]
    loop = Loop(args.workload, make_inputs(args.seed, args.out_dir))
    loop.run_one()                                   # the warm-up op
    warm_up = {"failed": loop.failed, "new_failures": loop.new_failures}
    result = {"setup_s": (time.time_ns() - args.spawned_ns) / 1e9,
              "numpy": np.__version__, "warm_up": warm_up}
    if not args.setup_only:
        if args.trace:
            half = args.seconds / 2.0
            result["untraced"] = loop.run_window(half)
            tracer = tracing.Tracer()
            result["wrapped"] = tracing.install(tracer)
            result["traced"] = loop.run_window(half, tracer)
            result["layers"] = layer_metrics(tracer, result["traced"]["ops"])
            tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}.tsv"))
        else:
            result["untraced"] = loop.run_window(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
