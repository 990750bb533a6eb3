"""Smoke test of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/smoke.py

It checks that
* one run of each workload completes, correct, with every end-to-end metric
  of BENCHMARK.json printed with its unit;
* a traced run prints every per-layer metric, and two traced runs with one
  seed agree exactly on the kernel and call counts below;
* the baseline trace matches what layers.json predicts: no polyval on
  factor_large, no seq_core outside suite, and no failing gate beyond the
  standing criterion-6 failures;
* every per-layer metric is named in layers.json and moves on some workload;
* outside a checkout (only BENCHMARK.json and perfbench/) the benchmark
  exits non-zero without printing a result.
Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11
REPEATED_COUNTS = ("numpy.fft.calls", "numpy.fft.points", "numpy.polyval.calls",
                   "numpy.polyval.coeff_points", "seq_core.verify_olympiad_bound.calls")
# gates passed over gates evaluated at the baseline: every gate but the
# standing criterion-6 failures (h_leakage; both of them in the suite)
BASELINE_PASS = {"factor_large": 3 / 4, "suite": 30 / 32}

def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done):
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    failures = []

    def check(ok, message):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    table = [m for layer in layers["layers"] for m in layer["metrics"]]
    check(table == [m["name"] for m in spec["per_layer"]],
          "layers.json lists exactly the per-layer metrics of BENCHMARK.json")

    seen = {}
    for workload in (w["name"] for w in spec["workloads"]):
        res = result(bench(workload, 0))
        check(res is not None and res["correct"] and res["attempted"] >= 1,
              f"{workload}: untraced run is correct")
        if res is None:
            continue
        check(all(res["metrics"].get(m["name"], {}).get("unit") == m["unit"]
                  for m in spec["end_to_end"]),
              f"{workload}: every end-to-end metric printed with its unit")
        check(res["metrics"]["check_pass_frac"]["value"] >= BASELINE_PASS[workload],
              f"{workload}: no gate fails beyond the standing failures")

        traced = [result(bench(workload, 1)) for _ in range(2)]
        if None in traced:
            check(False, f"{workload}: traced runs complete")
            continue
        first, second = (t["metrics"] for t in traced)
        check(all(first.get(m["name"], {}).get("unit") == m["unit"]
                  for m in spec["per_layer"]),
              f"{workload}: every per-layer metric printed with its unit")
        check(all(first[c]["value"] == second[c]["value"] for c in REPEATED_COUNTS),
              f"{workload}: kernel and call counts repeat exactly across traced runs")
        seen[workload] = first

    if len(seen) == len(spec["workloads"]):
        check(seen["factor_large"]["numpy.polyval.calls"]["value"] == 0,
              "factor_large makes no polyval calls")
        check(all(seen["factor_large"][m["name"]]["value"] == 0 for m in spec["per_layer"]
                  if m["name"].startswith("seq_core.") and m["name"].endswith(".calls")),
              "seq_core is not entered outside suite")
        idle = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")
                and all(seen[w][m["name"]]["value"] == 0 for w in seen)]
        check(not idle, "every per-layer metric moves on some workload"
              + (f" (idle: {', '.join(idle)})" if idle else ""))

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("factor_large", 0, cwd=bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          "outside a checkout the benchmark fails without a result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
