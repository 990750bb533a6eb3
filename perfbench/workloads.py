"""The benchmark workloads: their inputs, one op each, and the op's gates.

An op returns ``(gates, values)``: ``gates`` maps each gated check to
pass/fail, with the tolerances the CLI applies to the same pipeline, and
``values`` holds every reported number outside timing fields, so a rerun on
the same input can be compared with the first run of that input.

``STANDING`` names the gates that fail at the repository's baseline and are
documented as standing failures (criterion 6's truncation limits).  They
are counted like every other gate; they are only kept apart so that the
benchmark can tell them from a new failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from flatwitness import cli, hardy_engine

SHELLS = 256
FACTOR_SIZES = (2**16, 2**18, 2**20)


def _series_samples(rng, n, amplitude):
    """Analytic series with |c_k| = amplitude / (k + 1) and seeded phases.

    Its 2-norm is amplitude * sqrt(sum 1/(k+1)^2), about 1.28 * amplitude for
    every seed, so the amplitude alone decides whether the rescale path runs.
    """
    k = np.arange(n // 2)
    coeffs = amplitude * np.exp(2j * np.pi * rng.uniform(size=k.size)) / (k + 1.0)
    return hardy_engine.from_taylor(coeffs, n).samples


def factor_large_inputs(seed, _out_dir):
    rng = np.random.default_rng(seed)
    inputs = []
    for n in FACTOR_SIZES:
        inputs.append(np.ones(n, dtype=complex))
        # norm 0.64 at the smallest size; 1.28 (> 1, so rescaled) above it
        inputs.append(_series_samples(rng, n, 0.5 if n == FACTOR_SIZES[0] else 1.0))
    return inputs


def factor_large_op(samples):
    res = hardy_engine.hardy_factor(hardy_engine.GridFunction(samples), SHELLS)
    log = res.log_report
    gates = {
        "gw_deviation": res.gw_deviation <= 1e-10,
        "h_norm_sq": res.h_norm_sq <= res.star_rhs + 1e-8,
        "h_leakage": res.h_leakage <= 1e-6,
        "log_integral": log.integral_value <= log.comparison_bound * (1 + 1e-9),
    }
    values = [res.gw_deviation, res.h_norm_sq, res.star_rhs, res.h_leakage,
              log.integral_value, log.comparison_bound, res.scale]
    return gates, values


def suite_inputs(seed, out_dir):
    return [(seed, os.path.join(out_dir, "suite-report.json"))]


def suite_op(job):
    seed, path = job
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["suite", "--seed", str(seed), "--json", "--out", path])
    with open(path) as fh:
        report = json.load(fh)
    gates = {}
    for check in report["checks"]:
        index = check["name"].split("_")[1]
        for name, ok in check["value"]["checks"].items():
            gates[f"criterion_{index}.{name}"] = ok
        del check["value"]["elapsed_s"]
    del report["wall_time_s"]
    # the CLI's exit-code contract: 0 when every gated check passes, else 1
    if code != (0 if report["pass"] else 1) or report["pass"] != all(gates.values()):
        raise RuntimeError(f"suite exit code {code} disagrees with its report")
    return gates, report


WORKLOADS = {
    "factor_large": (factor_large_inputs, factor_large_op),
    "suite": (suite_inputs, suite_op),
}

STANDING = {
    "factor_large": {"h_leakage"},
    "suite": {"criterion_6.h_leakage", "criterion_6.radial_ratio"},
}
