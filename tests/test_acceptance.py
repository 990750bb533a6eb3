"""Acceptance battery: one test per criterion, one printed verdict line each.

Criteria 1 through 9 call the shared battery implementations directly;
criterion 10 exercises the `suite` subcommand end to end.  Every tolerance
is fixed here or inside the battery, not tuned at run time.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from flatwitness import acceptance, cli, hardy_engine
from flatwitness.halfplane_transfer import mobius, mobius_inv
from flatwitness.hardy_engine import constant_function, eval_series
from flatwitness.layered_factor import preset_l2


def _report(result, budget_s):
    line = f"[acceptance] criterion {result.index}: " \
           f"{'PASS' if result.passed else 'FAIL'}  {result.name} " \
           f"({result.elapsed_s:.2f}s, budget {budget_s}s)"
    print(line)
    for name, ok in result.checks.items():
        print(f"    {'ok  ' if ok else 'FAIL'} {name}")
    return result


def _run(criterion, budget_s):
    result = _report(criterion(), budget_s)
    assert result.elapsed_s < budget_s, f"criterion {result.index} exceeded {budget_s}s"
    assert result.passed, [c for c in result.records if c.passed is not None and not c.passed]


def test_criterion_1_olympiad_bound_suite():
    _run(acceptance.criterion_1, 5.0)


def test_criterion_2_witness_suite():
    _run(acceptance.criterion_2, 10.0)


def test_criterion_3_bezout_suite():
    _run(acceptance.criterion_3, 1.0)


def test_criterion_4_layered_factorization():
    _run(acceptance.criterion_4, 1.0)


def test_criterion_5_outer_fixtures():
    _run(acceptance.criterion_5, 5.0)


def test_criterion_5_gates_both_fixtures_boundary_modulus(monkeypatch):
    # the log-sin fixture's boundary modulus is gated too: off by a factor 1 + 1e-6,
    # which its Taylor coefficients' 1e-3 gate lets through, it must fail
    def skewed(log_modulus, *args, _synthesize=acceptance.outer_from_modulus, **kwargs):
        outer = _synthesize(log_modulus, *args, **kwargs)
        if np.ptp(log_modulus) == 0.0:  # the constant fixture stays exact
            return outer
        boundary = hardy_engine.GridFunction(outer.boundary.samples * (1.0 + 1e-6))
        return dataclasses.replace(outer, boundary=boundary)

    monkeypatch.setattr(acceptance, "outer_from_modulus", skewed)
    result = acceptance.criterion_5()
    assert not result.passed
    assert [name for name, ok in result.checks.items() if not ok] == \
        ["boundary_modulus_deviation"]


@pytest.mark.parametrize("n", [2**k for k in range(2, 15)])
def test_outer_fixture_matches_its_formulas(n):
    theta = hardy_engine.grid_thetas(n)
    assert np.array_equal(acceptance.outer_fixture("log-sin", n),
                          np.log(2.0 * np.abs(np.sin(theta / 2.0))))
    assert np.array_equal(acceptance.outer_fixture("const:2.5", n), np.full(n, np.log(2.5)))


def test_criterion_6_boundary_pipeline():
    _run(acceptance.criterion_6, 20.0)


def test_criterion_7_projection_strictness():
    _run(acceptance.criterion_7, 5.0)


def test_inner_check_runs_once_per_inner_function(monkeypatch, capsys):
    # hardy project checks its b once, and criterion 7 each of its four inner functions
    calls = []

    def counted(b, _check=hardy_engine.inner_check):
        calls.append(b.n)
        return _check(b)

    for module in (hardy_engine, acceptance, cli):
        monkeypatch.setattr(module, "inner_check", counted, raising=False)
    assert cli.main(["hardy", "project", "--grid", "1024", "--inner", "blaschke:0.5"]) == 0
    assert calls == [1024]
    calls.clear()
    assert acceptance.criterion_7().passed
    assert calls == [2**14] * 4


def test_criterion_8_mobius_transfer():
    _run(acceptance.criterion_8, 5.0)


def _criterion_8_closure_loop(seed):
    """Criterion 8's round trips as one forward and one backward closure per series."""
    rng = np.random.default_rng(seed + 8)
    worst_round, directs = 0.0, []
    for _ in range(100):
        coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        zpts = 0.95 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))

        def forward(s):
            s = np.asarray(s, dtype=complex)
            return eval_series(coeffs, mobius(s)) / (1.0 + s)

        def back(z):
            z = np.asarray(z, dtype=complex)
            return 2.0 * forward(mobius_inv(z)) / (1.0 - z)

        directs.append(np.polyval(coeffs[::-1], zpts))
        worst_round = max(worst_round, float(np.max(np.abs(back(zpts) - directs[-1]))))
    return worst_round, np.array(directs)


@pytest.mark.parametrize("seed", [20250811, 4099])
def test_criterion_8_matches_closure_loop(seed, monkeypatch):
    worst_round, loop_directs = _criterion_8_closure_loop(seed)
    directs = []

    def recorded(p, x):
        directs.append(polyval(p, x))
        return directs[-1]

    polyval = np.polyval
    monkeypatch.setattr(np, "polyval", recorded)
    result = acceptance.criterion_8(seed)
    assert len(directs) == 1
    assert {c.name: c.value for c in result.records}["round_trip"] == worst_round
    assert directs[0].tobytes() == loop_directs.tobytes()


def test_criterion_9_ultralimit_contracts():
    _run(acceptance.criterion_9, 1.0)


def test_criterion_10_suite_subcommand(capsys):
    t0 = time.perf_counter()
    code = cli.main(["suite"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    lines = [ln for ln in captured.err.splitlines() if ln.startswith("criterion")]
    with capsys.disabled():
        print(f"\n[acceptance] criterion 10: "
              f"{'PASS' if code == 0 and elapsed < 60 else 'FAIL'}  "
              f"suite subcommand (exit {code}, {elapsed:.1f}s)")
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    assert len(lines) == 9 and len(report["checks"]) == 9
    assert code == 0, "suite exit status nonzero: " + ", ".join(
        c["name"] for c in report["checks"] if not c["pass"]
    )


@pytest.mark.parametrize("n, empty", [(2**6, 251), (2**14, 165), (2**20, 0)])
def test_factor_checks_report_empty_shells(n, empty):
    checks, _ = acceptance.factor_checks(constant_function(n), 256)
    values = {c.name: c.value for c in checks}
    assert values["empty_shells"] == empty
    if n == 2**14:  # the default size of `hardy factor` and criterion 6
        assert values["weight_floored"] == values["clamp_count"] == 0


@pytest.mark.parametrize("shells, ratio, floored", [(64, 0.5, 0), (310, 0.1, 10)])
def test_layered_checks_report_weight_floored(shells, ratio, floored):
    # suffix sums of the l2 preset are ratio^n / (1 - ratio); at ratio 0.1 the
    # last ten shells' suffix sums fall below the 1e-300 floor
    f, layout, tail = preset_l2(shells, ratio)
    checks, _ = acceptance.layered_checks(f, layout, "auto", tail, 1e-3)
    assert {c.name: c.value for c in checks}["weight_floored"] == floored
