"""Desk-scale acceptance battery and the check vocabulary it shares with the CLI.

Each CLI pipeline has one function here (``olympiad_checks``, ``witness_checks``,
...) that runs it and returns ``Check`` records: name, measured value, the
tolerance that judges it, and the verdict (None when informational).  A
subcommand parses its arguments, calls its function once and serialises the
records.  A criterion calls the same function on pinned inputs, joins the
instances with ``_all_instances`` (a gate passes only if it passed on every
instance) and adds only the checks that belong to it alone, such as closed
forms, round trips and operator laws.  ``run_suite`` executes all criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from .bezout_ops import principal_generator, sampled_function
from .errors import InvalidInput
from .halfplane_transfer import (
    disk_to_halfplane_h2,
    halfplane_to_disk_h2,
    transfer_factorization,
)
from .hardy_engine import (
    DEFAULT_CLAMP,
    GridFunction,
    constant_function,
    coordinate_function,
    grid_thetas,
    hardy_factor,
    inner_check,
    neg_mode_leakage,
    outer_from_modulus,
    project_onto_bH2,
    radial_decay_check,
)
from .layered_factor import factor, preset_l2, verify_star_bound
from .pointwise_witness import pointwise_relation, synthesize_witness, verify_witness
from .seq_core import default_bound_tol, tail_profile, verify_olympiad_bound
from .ultralimits import (
    bounded_sequence,
    eventual_limit,
    ideal_membership_nonprincipal,
    principal_limit,
)

__all__ = ["Check", "CriterionResult", "run_suite", "olympiad_checks", "witness_checks",
           "bezout_checks", "ulim_checks", "layered_checks", "factor_checks", "outer_checks",
           "project_checks", "transfer_checks", "manufactured_relation", "decaying_sequences",
           "random_pair", "blaschke", "halfplane_points"] + [f"criterion_{i}" for i in range(1, 10)]

DEFAULT_SEED = 20250811
# most points that criterion 2 stacks into one witness call; the bound keeps
# the (P, n, n) temporaries, and so the suite's peak memory, small
WITNESS_BLOCK_POINTS = 2048
# sequences that criterion 1 stacks into one olympiad call; more rows run no
# faster and raise the suite's peak memory
OLYMPIAD_BLOCK = 4
EPS = np.finfo(float).eps
ULP_BUDGET = 2.0 * EPS


@dataclass(frozen=True)
class Check:
    """One measured quantity; ``passed`` is None for an informational record."""

    name: str
    value: object
    tol: object = None
    passed: Optional[bool] = None


def _gate(name, value, tol) -> Check:
    return Check(name, value, tol, bool(value <= tol))


def _all_instances(runs):
    """Gates that passed on every run of a pipeline, and each name's records in run order."""
    gates: Dict[str, bool] = {}
    records: Dict[str, List[Check]] = {}
    for checks in runs:
        for c in checks:
            records.setdefault(c.name, []).append(c)
            if c.passed is not None:
                gates[c.name] = gates.get(c.name, True) and bool(c.passed)
    return gates, records


def _worst(records, name) -> float:
    return max(c.value for c in records[name])


# ---------------------------------------------------------------------------
# pipelines, one per subcommand


def olympiad_checks(profile, tol):
    """The telescoping bound on every window between dyadic indices and the last term.

    ``profile`` is a stack and ``tol`` one value or one per row; returns one
    check list per row.
    """
    n = profile.n_terms
    grid = np.unique(np.concatenate([2 ** np.arange(0, 14), [n]]))
    grid = grid[grid <= n]
    first, last = np.triu_indices(grid.size, 1)
    out = verify_olympiad_bound(profile, grid[first], grid[last], tol_abs=tol)
    gaps = out.lhs - out.rhs
    holds = np.all(out.holds, axis=-1).tolist()
    # with no window (a one-term profile) there is no worst gap to report
    worst = gaps.max(axis=-1).tolist() if gaps.shape[-1] else [None] * len(holds)
    tols = np.broadcast_to(tol, len(holds)).tolist()
    return [[Check("bound_holds_all_windows", w, t, h), Check("windows", gaps.shape[-1]),
             Check("head_mass", r0)]
            for w, t, h, r0 in zip(worst, tols, holds, profile.head.tolist())]


def manufactured_relation(weights, r, raw_m, starts=(0,)):
    """The relation (weights, r, m), m being raw_m with each row projected so sum_i r_i m_i = 0."""
    c = np.conj(r)
    cc = np.einsum("pi,pi->p", c, r).real
    coef = np.where(cc > 0, np.einsum("pi,pi->p", raw_m, r) / np.where(cc > 0, cc, 1), 0)
    return pointwise_relation(weights, r, raw_m - coef[:, None] * c, starts)


def witness_checks(rel):
    """Synthesize a certificate for ``rel`` and verify it.

    Returns (one check list per relation of the stack, certificate).
    """
    cert = synthesize_witness(rel)
    ver = verify_witness(rel, cert)
    fields = (ver.max_coeff_residual, ver.coeff_scale, ver.max_reconstruction_residual,
              ver.reconstruction_scale, ver.max_abs_rho, ver.mu_norm_ok)
    runs = [[_gate("coeff_residual", coeff, 1e-10 * coeff_scale),
             _gate("reconstruction_residual", recon, 1e-10 * recon_scale),
             _gate("rho_bound", abs_rho, 1.0 + 1e-12),
             Check("mu_norm_bound", mu_ok, None, mu_ok)]
            for coeff, coeff_scale, recon, recon_scale, abs_rho, mu_ok
            in zip(*(f.tolist() for f in fields))]
    return runs, cert


def random_pair(rng, atoms):
    """Two complex Gaussian sampled functions, each with about 5% zero atoms."""
    fv = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    gv = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    fv[rng.uniform(size=atoms) < 0.05] = 0.0
    gv[rng.uniform(size=atoms) < 0.05] = 0.0
    return sampled_function(fv), sampled_function(gv)


def _worst_rel(lhs, target, scale) -> float:
    err = np.abs(lhs - target)
    rel = err / np.maximum(scale, 1e-300)
    rel[scale == 0] = err[scale == 0]
    return float(rel.max())


def bezout_checks(f, g) -> List[Check]:
    """The generator identities of d = |f| + |g|, each at two ulp."""
    gen = principal_generator(f, g)
    d = gen.d.values.real
    errors = (
        ("f_eq_Fd", _worst_rel(gen.F.values * d, f.values, np.abs(f.values))),
        ("g_eq_Gd", _worst_rel(gen.G.values * d, g.values, np.abs(g.values))),
        ("d_membership", _worst_rel(f.values * gen.cf.values + g.values * gen.cg.values, d, d)),
        ("F_bound", float(np.abs(gen.F.values).max() - 1.0)),
        ("cf_unimodular", float(np.abs(np.abs(gen.cf.values) - 1.0).max())),
    )
    return [_gate(name, err, ULP_BUDGET) for name, err in errors]


def ulim_checks(seq, tol, tail_fraction) -> List[Check]:
    """Eventual limit and ideal-membership verdict; all informational."""
    certified = eventual_limit(seq, tol, tail_fraction)
    if certified is None:
        checks = [Check("eventual_limit", "no verdict")]
    else:
        checks = [Check("eventual_limit", certified.limit, tol),
                  Check("eventual_radius", certified.radius)]
    verdict = ideal_membership_nonprincipal(certified, tol)
    return checks + [Check("ideal_membership", verdict.value), Check("sup_norm", seq.sup_norm)]


def layered_checks(f, layout, mode, tail, tol):
    """Factor f over the layered space; returns (checks, factorization).

    ``weight_floored`` counts the suffix sums floored before rooting (a safety valve).
    """
    res = factor(f, layout, mode=mode, tail_sum_sq=tail)
    star = verify_star_bound(res)
    g_shell = res.g_shell_values
    checks = [
        _gate("factorization_residual", res.residual, 1e-12 * (1.0 + f.norm)),
        Check("star_bound_lhs_vs_rhs", star.lhs, star.rhs, star.holds),
        Check("h_norm_sq", res.h_norm_sq),
        Check("branch", res.mode),
    ]
    if res.mode == "general":
        # the weight is nondecreasing from shell 2 onward; shell 1 is pinned to 1
        nonincreasing = bool(np.all(np.diff(g_shell[1:]) <= 1e-15))
        checks.append(Check("g_shell_nonincreasing", nonincreasing, None, nonincreasing))
        certified = eventual_limit(bounded_sequence(g_shell), tol)
        verdict = ideal_membership_nonprincipal(certified, tol)
        checks.append(Check("g_ideal_membership", verdict.value))
    checks.append(Check("g_last_shell_value", float(g_shell[-1])))
    checks.append(Check("cauchy_certificate", star.cauchy_bound))
    checks.append(Check("weight_floored", res.floored))
    return checks, res


def factor_checks(f, shells):
    """Boundary factorization f = g*h with its radial profile; returns (checks, factorization).

    The last three records count the safety valves that fired: floored suffix
    sums, clamped log-moduli, and shells holding no grid sample (mass taken as 0).
    """
    res = hardy_factor(f, shells)
    radial = radial_decay_check(res.outer)
    log = res.log_report
    counts = res.layout.counts()[1: shells + 1]
    checks = [
        _gate("g_matches_reciprocal_weight", res.gw_deviation, 1e-10),
        _gate("h_norm_sq_vs_majorant", res.h_norm_sq, res.star_rhs + 1e-8),
        _gate("h_leakage", res.h_leakage, 1e-6),
        _gate("radial_ratio", radial.ratio, 0.1),
        Check("radial_values", radial.values),
        Check("log_integral_vs_bound", log.integral_value, log.comparison_bound,
              log.integral_value <= log.comparison_bound * (1 + 1e-9)),
        Check("input_rescale", res.scale),
        Check("weight_floored", res.w.floored),
        Check("clamp_count", res.outer.clamp_count),
        Check("empty_shells", int(np.count_nonzero(counts == 0))),
    ]
    return checks, res


def outer_checks(log_modulus, clamp):
    """Outer synthesis from a log-modulus array; returns (checks, outer function)."""
    outer = outer_from_modulus(log_modulus, clamp=clamp)
    modulus = np.exp(np.maximum(np.asarray(log_modulus, dtype=complex).real, np.log(clamp)))
    dev = float(np.max(np.abs(np.abs(outer.boundary.samples) - modulus)))
    checks = [
        _gate("boundary_modulus_deviation", dev, 1e-10 * (1.0 + float(modulus.max()))),
        Check("negative_mode_leakage", neg_mode_leakage(outer.boundary)),
        Check("clamp_count", outer.clamp_count),
    ]
    return checks, outer


def blaschke(n, a) -> GridFunction:
    """The Blaschke factor (z - a)/(1 - a z) on the n-point grid."""
    zs = coordinate_function(n).samples
    return GridFunction((zs - a) / (1.0 - a * zs))


def project_checks(f, inner):
    """Projection of f onto b*H2 and its idempotence; returns (checks, projection)."""
    out = project_onto_bH2(f, inner)
    again = project_onto_bH2(out.projection, inner)
    idem = float(np.sqrt(np.mean(np.abs(again.projection.samples
                                        - out.projection.samples) ** 2)))
    checks = [
        _gate("inner_boundary_deviation", inner.boundary_dev, 1e-8),
        Check("distance", out.distance),
        _gate("idempotence_residual", idem, 1e-10),
        Check("strict_subspace", out.distance > 1e-10),
    ]
    return checks, out


def halfplane_points(rng, count):
    """Uniform samples of the box [0.05, 4] x [-4, 4] in the right half-plane."""
    return rng.uniform(0.05, 4.0, size=count) + 1j * rng.uniform(-4.0, 4.0, size=count)


def transfer_checks(grid, shells, points) -> List[Check]:
    """Move the factorization of the constant 1 to the half-plane and check it there."""
    with np.errstate(over="ignore"):  # the fixture's reference value 1/(1 + s)^2 squares 1 + s
        if np.any(np.isinf(np.abs(1.0 + np.asarray(points)) ** 2)):
            raise InvalidInput("|1 + s|^2 overflows float64 at a point s")
    res = hardy_factor(constant_function(grid), shells)
    out = transfer_factorization(res.f.taylor(), res.outer, points)
    fixture = disk_to_halfplane_h2(np.array([0.5, -0.5]), points)  # (1 - z)/2
    fix_err = float(np.max(np.abs(fixture - 1.0 / (1.0 + points) ** 2)))
    return [
        _gate("transferred_identity_residual", out.max_identity_residual, 1e-8),
        Check("disk_side_residual", out.disk_residual),
        _gate("fixture_one_minus_z", fix_err, 1e-12),
    ]


# ---------------------------------------------------------------------------
# the criteria: pinned runs of the pipelines above


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed_s: float
    checks: Dict[str, bool]
    details: Dict[str, object]


def _result(index, name, t0, checks, details) -> CriterionResult:
    return CriterionResult(
        index=index,
        name=name,
        passed=all(checks.values()),
        elapsed_s=time.perf_counter() - t0,
        checks=checks,
        details=details,
    )


def decaying_sequences(rng, block):
    """Fill each row of the complex ``block`` with a_k = (x_k + i y_k) k^-p, p ~ U(0.6, 1.5).

    x and y are standard normal draws, written straight into the real and
    imaginary parts; the rows equal (x + 1j*y) * k^-p bit for bit unless a
    draw is exactly +-0.0.
    """
    k = np.arange(1, block.shape[-1] + 1, dtype=float)
    for row in block:
        decay = k ** -rng.uniform(0.6, 1.5)
        np.multiply(rng.standard_normal(k.size), decay, out=row.real)
        np.multiply(rng.standard_normal(k.size), decay, out=row.imag)
    return block


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Weighted tail-series bound on random square-summable sequences.

    The sequences are drawn in blocks of OLYMPIAD_BLOCK rows, and each block
    is checked by one ``olympiad_checks`` call on its stacked profile.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    buf = np.empty((OLYMPIAD_BLOCK, 10_000), dtype=complex)
    runs = []
    for start in range(0, 100, OLYMPIAD_BLOCK):
        profile = tail_profile(decaying_sequences(rng, buf[: min(OLYMPIAD_BLOCK, 100 - start)]))
        runs.extend(olympiad_checks(profile, default_bound_tol(profile)))
    gates, records = _all_instances(runs)
    details = {"sequences": 100, "windows": sum(c.value for c in records["windows"]),
               "worst_lhs_minus_rhs": _worst(records, "bound_holds_all_windows")}
    return _result(1, "olympiad bound suite", t0, gates, details)


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Synthesize-and-verify on random manufactured pointwise relations.

    The relations are drawn one by one and certified in stacks: each term
    count n has a buffer, run through one ``witness_checks`` call when the
    next relation would take it past WITNESS_BLOCK_POINTS points, and at the
    end.  The checks come back in draw order.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 2)
    runs = [None] * 200
    buffers: Dict[int, list] = {}

    def flush(block):
        order, weights, r, raw_m = zip(*block)
        starts = np.cumsum([0] + [w.size for w in weights[:-1]])
        rel = manufactured_relation(*map(np.concatenate, (weights, r, raw_m)), starts)
        for i, checks in zip(order, witness_checks(rel)[0]):
            runs[i] = checks
        block.clear()

    for i in range(200):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 513))
        weights = rng.uniform(size=p)
        weights[rng.uniform(size=p) < 0.1] = 0.0
        r = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        r[rng.uniform(size=p) < 0.1] = 0.0
        raw_m = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        block = buffers.setdefault(n, [])
        if sum(entry[1].size for entry in block) + p > WITNESS_BLOCK_POINTS:
            flush(block)
        block.append((i, weights, r, raw_m))
    for block in buffers.values():
        flush(block)
    gates, records = _all_instances(runs)
    details = {
        "relations": 200,
        "worst_coeff_residual_over_scale":
            max(c.value / c.tol for c in records["coeff_residual"]),
        "worst_reconstruction_residual_over_scale":
            max(c.value / c.tol for c in records["reconstruction_residual"]),
        "max_abs_rho": _worst(records, "rho_bound"),
    }
    return _result(2, "witness suite", t0, gates, details)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Pointwise generator identities at two ulp on random pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 3)
    gates, records = _all_instances(bezout_checks(*random_pair(rng, 1000)) for _ in range(100))
    details = {"pairs": 100, "atoms": 1000, "ulp_budget": ULP_BUDGET,
               "worst_errors": {name: _worst(records, name) for name in gates}}
    return _result(3, "bezout suite", t0, gates, details)


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Layered factorization closed forms at the geometric preset."""
    t0 = time.perf_counter()
    n_shells = 64
    f, layout, tail = preset_l2(n_shells, ratio=0.5)
    checks, res = layered_checks(f, layout, "auto", tail, 1e-3)
    gates, records = _all_instances([checks])
    k = np.arange(1, n_shells + 1, dtype=float)
    g_expected = 2.0 ** (-(k - 1) / 4.0)
    g_err = float(np.max(np.abs(res.g_shell_values - g_expected)))
    x = 2.0 ** -0.5
    h_norm_closed = float(0.5 * (1.0 - x**n_shells) / (1.0 - x))  # sum 2^-(k+1)/2, k<=64
    h_err = abs(res.h_norm_sq - h_norm_closed)

    compact_f = sampled_function(
        np.concatenate([[1.0], np.zeros(n_shells - 1)]), layout.flat_weights
    )
    compact = factor(compact_f, layout)
    w_compact_exact = bool(
        np.array_equal(compact.w_values, np.arange(1, n_shells + 1, dtype=float))
    )
    gates["g_matches_closed_form"] = g_err <= 1e-12
    gates["h_norm_matches_closed_form"] = h_err <= 1e-10
    gates["compact_weights_exact"] = w_compact_exact and compact.mode == "compact"
    star = records["star_bound_lhs_vs_rhs"][0]
    details = {
        "g_max_error": g_err,
        "h_norm_sq": res.h_norm_sq,
        "h_norm_closed_form": h_norm_closed,
        "star_lhs": star.value,
        "star_rhs": star.tol,
    }
    return _result(4, "layered factorization", t0, gates, details)


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Outer-function fixtures on the 2^14 grid."""
    t0 = time.perf_counter()
    n = 2**14
    c = 2.5
    checks, fix_a = outer_checks(np.full(n, np.log(c)), DEFAULT_CLAMP)
    gates, records = _all_instances([checks])
    a_err = float(np.max(np.abs(fix_a.boundary.samples - c)))
    a_leak = records["negative_mode_leakage"][0].value

    theta = grid_thetas(n)
    fix_b = outer_from_modulus(np.log(2.0 * np.abs(np.sin(theta / 2.0))))
    target = np.zeros(16, dtype=complex)
    target[0] = 1.0
    target[1] = -1.0
    b_err = float(np.max(np.abs(fix_b.boundary.taylor()[:16] - target)))

    gates["constant_reproduced"] = a_err <= 1e-10
    gates["one_minus_z_coefficients"] = b_err <= 1e-3
    gates["constant_leakage"] = a_leak <= 1e-8
    details = {
        "constant_error": a_err,
        "one_minus_z_coeff_error": b_err,
        "constant_leakage": a_leak,
        "clamp_counts": [fix_a.clamp_count, fix_b.clamp_count],
    }
    return _result(5, "outer-function fixtures", t0, gates, details)


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Full boundary factorization pipeline on the constant function."""
    t0 = time.perf_counter()
    checks, res = factor_checks(constant_function(2**14), 256)
    gates, records = _all_instances([checks])
    radial = records["radial_values"][0].value
    gates["radial_strictly_decreasing_from_4"] = bool(np.all(np.diff(radial[3:]) < 0))
    details = {
        "gw_deviation": res.gw_deviation,
        "h_norm_sq": res.h_norm_sq,
        "star_rhs": res.star_rhs,
        "h_leakage": res.h_leakage,
        "radial_values": radial.tolist(),
        "radial_ratio": records["radial_ratio"][0].value,
        "log_integral": res.log_report.integral_value,
        "log_bound": res.log_report.comparison_bound,
    }
    for name in ("weight_floored", "clamp_count", "empty_shells"):
        details[name] = records[name][0].value
    return _result(6, "boundary factorization pipeline", t0, gates, details)


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Projection onto shifted analytic subspaces: distances and operator laws."""
    t0 = time.perf_counter()
    n = 2**14
    one = constant_function(n)
    z = coordinate_function(n)
    proj_z = project_onto_bH2(one, inner_check(z))
    dist_z_err = abs(proj_z.distance - 1.0)

    runs = []
    worst_dist = 0.0
    worst_adj = 0.0
    zs = z.samples
    probe = GridFunction(0.5 * zs + 0.25 * zs**3)
    for a in (0.3, 0.5, 0.9):
        inner = inner_check(blaschke(n, a))
        checks, proj = project_checks(one, inner)
        runs.append(checks)
        worst_dist = max(worst_dist, abs(proj.distance**2 - (1.0 - a * a)))
        lhs = np.mean(proj.projection.samples * np.conj(probe.samples))
        rhs = np.mean(one.samples * np.conj(project_onto_bH2(probe, inner).projection.samples))
        worst_adj = max(worst_adj, abs(lhs - rhs))
    gates, records = _all_instances(runs)
    gates["distance_to_shifted_space"] = dist_z_err <= 1e-12
    gates["blaschke_distances"] = worst_dist <= 1e-8
    gates["self_adjoint"] = bool(worst_adj <= 1e-10)
    details = {
        "dist_one_zH2_error": dist_z_err,
        "worst_blaschke_distance_error": worst_dist,
        "worst_idempotence_residual": _worst(records, "idempotence_residual"),
        "worst_self_adjointness_residual": worst_adj,
    }
    return _result(7, "projection strictness", t0, gates, details)


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Disk/half-plane correspondence: round trips, fixture, transferred factorization."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 8)
    coeffs = np.empty((100, 30), dtype=complex)
    zpts = np.empty((100, 100), dtype=complex)
    for row in range(100):
        coeffs[row] = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        zpts[row] = 0.95 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    # each row's coefficients are a column that broadcasts against its row of points
    direct = np.polyval(coeffs.T[::-1, :, None], zpts)
    back = np.array([halfplane_to_disk_h2(partial(disk_to_halfplane_h2, c), z)
                     for c, z in zip(coeffs, zpts)])
    worst_round = float(np.max(np.abs(back - direct)))

    gates, records = _all_instances([transfer_checks(2**14, 256, halfplane_points(rng, 100))])
    gates["round_trip"] = worst_round <= 1e-10
    details = {
        "worst_round_trip_error": worst_round,
        "fixture_error": records["fixture_one_minus_z"][0].value,
        "transferred_identity_residual": records["transferred_identity_residual"][0].value,
        "disk_side_residual": records["disk_side_residual"][0].value,
    }
    return _result(8, "half-plane transfer", t0, gates, details)


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Limit contracts: evaluations, decay classification, oscillation verdict."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 9)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    seq = bounded_sequence(vals)
    exact = all(principal_limit(seq, i + 1) == complex(vals[i]) for i in range(64))

    k = np.arange(1, 65, dtype=float)
    decaying = bounded_sequence(2.0 ** (-(k - 1) / 4.0))
    alternating = bounded_sequence((-1.0) ** np.arange(1, 65))
    _, records = _all_instances(ulim_checks(s, 1e-3, 0.25) for s in (decaying, alternating))
    verdict_decay, verdict_alt = (c.value for c in records["ideal_membership"])

    checks = {
        "principal_limits_exact": exact,
        "decaying_in_ideal": verdict_decay == "yes",
        "alternating_undecidable": verdict_alt == "undecidable",
    }
    details = {
        "decaying_verdict": verdict_decay,
        "alternating_verdict": verdict_alt,
    }
    return _result(9, "ultralimit contracts", t0, checks, details)


_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9]


def run_suite(seed: int = DEFAULT_SEED) -> List[CriterionResult]:
    return [fn(seed) for fn in _CRITERIA]
