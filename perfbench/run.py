"""flatwitness benchmark: one command, end-to-end metrics or a per-layer trace.

Run from the root of a source checkout (it imports the library from
``src/``; nothing is installed or built):

    python3 perfbench/run.py --workload factor_large --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json``):

* ``factor_large``: ``hardy_factor(f, 256)`` cycling over the constant
  function and a seeded analytic series at N = 2^16, 2^18, 2^20;
* ``suite``: ``flatwitness suite --seed S --json --out FILE`` in-process.

Each run starts the workload in a fresh worker process (closed loop, one
client thread, ``FLATWITNESS_THREADS=1``, BLAS/OpenMP threads capped at the
CPU count).  ``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the
median over ``SETUP_SAMPLES`` processes, the timed one and set-up-only ones.
``--trace 1`` prints the per-layer metrics of ``layers.json`` from spans
recorded outside the library (``tracer.py``).

Every op is checked: each gate the CLI applies to the same pipeline, at the
CLI's tolerance, and a rerun of an input must reproduce its first run's
reported values.  ``check_pass_frac`` counts every gate, the standing
criterion-6 failures too.  ``correct`` is false when an op raised, a rerun
differed, or a gate outside the documented standing failures failed.

The last line of stdout is the result JSON; the line before it is the full
record with the environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["FLATWITNESS_THREADS"] = "1"
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            requested = int(env.get(var, cpus))
        except ValueError:
            requested = cpus
        env[var] = str(min(max(requested, 1), cpus))
    return env


def run_worker(args, env, out_dir, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-ns", str(time.time_ns())]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("worker exceeded the run deadline")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile that leaves at least ten samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    median stands in for it and the printed percentile says so.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(window, setups, peak_rss_mb):
    ops = window["ops"]
    tail_ms, tail_pct, samples = tail(window["latencies_ms"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": window["ops_per_s"],
        "op_p50_ms": statistics.median(window["latencies_ms"]),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "op_ok_frac": (ops - window["failed"]) / ops,
        "check_pass_frac": window["gates_passed"] / max(window["gates_evaluated"], 1),
    }
    detail = {"op_tail_percentile": tail_pct, "op_samples": samples,
              "setup_samples_s": setups}
    return metrics, detail


def stamp(root, args, env, numpy_version):
    """Environment stamp: versions, CPUs, thread settings, seed, source identity."""
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0], "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "FLATWITNESS_THREADS": env["FLATWITNESS_THREADS"],
        **{var: env[var] for var in THREAD_VARS},
        "seed": args.seed, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description="flatwitness benchmark")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "flatwitness" / "__init__.py").is_file():
        fail("run from the root of a flatwitness checkout (src/flatwitness is missing)")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = worker_env(root)

    first = run_worker(args, env, out_dir, deadline)
    windows = [first[key] for key in ("untraced", "traced") if key in first]
    window = windows[-1]
    attempted = sum(w["ops"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    detail = {"workload": args.workload, "warm_up": first["warm_up"],
              "new_gate_failures": window["new_failures"],
              "standing_gate_failures": window["standing_failures"],
              "errors": window["errors"], "nonreproducible": window["nonrepro"],
              "gates_evaluated": window["gates_evaluated"]}
    if args.trace:
        untraced = first["untraced"]
        computed = dict(first["layers"])
        computed["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
        computed["trace.ops_per_s_traced"] = window["ops_per_s"]
        computed["trace.overhead_ops_per_s"] = untraced["ops_per_s"] - window["ops_per_s"]
        detail["wrapped_callables"] = first["wrapped"]
        # a span name never entered on this workload has zero calls and time
        metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        setups = [first["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, env, out_dir, deadline, setup_only=True)["setup_s"])
        computed, extra = end_to_end(window, setups, first["peak_rss_mb"])
        detail.update(extra)
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    correct = failed == 0 and not first["warm_up"]["failed"]
    detail["env"] = stamp(root, args, env, first["numpy"])
    print(json.dumps({"detail": detail, "metrics": metrics}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
