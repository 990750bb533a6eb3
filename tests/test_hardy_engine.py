import collections
import math
import multiprocessing
import os
import queue
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwitness import hardy_engine
from flatwitness.errors import InvalidInput, InvalidWeight, NotInner, ScaleOverflow
from flatwitness.hardy_engine import (
    RADIAL_DEPTHS,
    CircleWeight,
    GridFunction,
    _block_size,
    _blocked_fft,
    _blocked_shape,
    _cis,
    _negative_fraction,
    _scaled_parts,
    _sum_sq,
    _unit_deviation,
    analytic_project,
    arc_energies,
    arc_layout,
    build_circle_weight,
    check_log_integrable,
    constant_function,
    coordinate_function,
    eval_series,
    from_taylor,
    grid_thetas,
    hardy_factor,
    inner_check,
    neg_mode_leakage,
    outer_from_modulus,
    project_onto_bH2,
    radial_decay_check,
)
from flatwitness.seq_core import profile_from_energies


def test_grid_round_trip_and_parseval():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    g = GridFunction(x)
    back = GridFunction.from_spectrum(g.spectrum())
    assert np.max(np.abs(back.samples - x)) <= 1e-12 * np.max(np.abs(x))
    assert abs(g.norm_sq - np.sum(np.abs(g.spectrum()) ** 2)) <= 1e-12 * g.norm_sq
    # a strided view is copied into one block, whose float view the norms read
    strided = GridFunction(np.repeat(x, 2)[::2])
    assert strided.samples.flags.c_contiguous and strided.norm_sq == g.norm_sq


def test_spectrum_follows_the_current_samples():
    # nothing is kept between reads: a Taylor read leaves the leakage bits as
    # they were, and a change to an aliased input array shows in the next read
    n = 4096
    rng = np.random.default_rng(1)
    c = rng.standard_normal(n // 2) / np.arange(1, n // 2 + 1)
    g = GridFunction(from_taylor(c, n).samples * np.exp(-1j * grid_thetas(n)))
    leak, taylor = neg_mode_leakage(g), g.taylor()
    assert neg_mode_leakage(g) == leak
    assert np.array_equal(g.taylor(), taylor)
    arr = np.ones(8, dtype=complex)
    x = GridFunction(arr)
    assert x.taylor() == pytest.approx([1, 0, 0, 0], abs=1e-15)
    arr[:] = 0.0
    assert np.array_equal(x.taylor(), np.zeros(4))


def test_spectrum_pure_modes():
    n = 256
    th = grid_thetas(n)
    g = GridFunction(np.exp(3j * th) + 0.5 * np.exp(-7j * th))
    spec = g.spectrum()
    assert abs(spec[3] - 1.0) <= 1e-13
    assert abs(spec[n - 7] - 0.5) <= 1e-13
    others = np.delete(spec, [3, n - 7])
    assert np.max(np.abs(others)) <= 1e-13
    # bin order puts mode m at index m, so a negative mode is a negative index
    assert spec[-7] == pytest.approx(0.5, abs=1e-13)


def test_grid_validation():
    with pytest.raises(InvalidInput):
        GridFunction(np.ones(3))  # not a power of two
    with pytest.raises(InvalidInput):
        GridFunction(np.array([1.0, np.nan, 0.0, 0.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [
    [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [complex(np.inf, 0.0)],
    [complex(0.0, -np.inf)], [complex(np.nan, 1.0)], [complex(1.0, np.nan)], [1e308, np.inf],
])
def test_grid_refuses_every_non_finite_sample(bad):
    # the sum is tested first: inf - inf is NaN and NaN propagates, so no bad entry hides
    samples = np.full(8, 0.5 + 0.5j)
    samples[:len(bad)] = bad
    with pytest.raises(InvalidInput, match="samples must be finite"):
        GridFunction(samples)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e308, -1e308, 1e308j, 1e308 - 1e308j])
def test_grid_accepts_finite_samples_whose_sum_overflows(big):
    samples = np.full(8, big, dtype=complex)
    assert np.array_equal(GridFunction(samples).samples, samples)


def _reference_mean_sq(x):
    # the parent rule: abs, square and the mean, each term within 3u of |x_j|^2
    return float(np.mean(np.abs(x) ** 2))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("log2n", [2, 7, 12, 16])
def test_norms_match_mean_of_squared_moduli_within_error_model(log2n, scale):
    # the reference sums N terms each within 3u of |x_j|^2, and the einsum the 2N
    # squares of the float view; the measured distances sit far inside
    # 2 (gamma_N + 3u) sum |x_j|^2, while the proven model of the einsum is pinned
    # against math.fsum below; the 1/N is a power of two
    n = 2**log2n
    rng = np.random.default_rng(500 + log2n)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    want = _reference_mean_sq(x)
    model = 2 * (_gamma(n) + 3 * U) / (1 - _gamma(n) - 3 * U) * want
    got = GridFunction(x).norm_sq
    assert abs(got - want) <= model
    # inside float64's range the sum is not rescaled, so the input norm is this mean
    _, peak, total = _scaled_parts(x)
    assert peak == 1.0 and total / n == got


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("log2n", [2, 12, 16])
def test_einsum_reductions_match_fsum_within_error_model(log2n, scale):
    # each of the m terms is one product, rounded or fused, and einsum adds them in
    # lanes and blocks of its own; Higham's bound for a sum in any order, gamma_{m-1}
    # on the rounded terms (Lemma 3.1, sec. 4.2), covers every block length, so with
    # the products' rounding the sum is within gamma_m S of the exact S, and
    # math.fsum of the rounded squares within 2u S
    n = 2**log2n
    rng = np.random.default_rng(600 + log2n)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    blocks = x.reshape(2 ** (log2n // 2), -1)
    parts = blocks.view(float)
    upper = parts[:, parts.shape[1] // 2:]
    for v in (x.view(float), parts, upper):
        exact = math.fsum((v * v).ravel())
        assert abs(_sum_sq(v) - exact) <= (_gamma(v.size) + 2 * U) * exact
    exact = math.fsum((parts * parts).ravel())
    assert abs(GridFunction(x).norm_sq - exact / n) <= (_gamma(2 * n) + 2 * U) * exact / n
    # the fraction adds the two square roots and the quotient, three roundings
    want = math.sqrt(math.fsum((upper * upper).ravel()) / exact)
    assert abs(_negative_fraction(blocks) - want) <= (_gamma(2 * n) + 2 * U + 3 * U) * want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
def test_input_norm_rescales_squares_that_overflow_or_underflow(scale):
    # divided by the largest part, scaled back: one more rounding per sample and the
    # product and square root, on top of the two sums' model
    n = 2**10
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = math.sqrt(_reference_mean_sq(x))
    parts, peak, total = _scaled_parts(scale * x)
    norm = peak * math.sqrt(total / n)
    assert abs(norm / scale - want) <= (_gamma(n) + 8 * U) * want
    assert GridFunction(scale * x).norm == norm
    assert peak == np.max(np.abs((scale * x).view(float))) and parts.shape == (2 * n,)
    zeros = np.zeros(n, dtype=complex)
    assert _scaled_parts(zeros)[2] == 0.0 and _negative_fraction(zeros) == 0.0
    # a NaN or an infinity, wherever it sits, makes the sum NaN
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, n - 1):
            y = scale * x
            y[at] = complex(bad, 0.0) if at else complex(0.0, bad)
            assert math.isnan(_scaled_parts(y)[2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [1e200, 1e-170])
def test_grid_norm_holds_where_the_squares_overflow_or_underflow(level):
    # the plain mean of the squares overflows to inf for the first, and to 0.0 for the second
    f = GridFunction(np.full(8, level, dtype=complex))
    assert f.norm == level
    assert f.norm_sq == level * level  # inf and a subnormal, as the square itself is


def test_analytic_project_kills_negative_mode():
    n = 128
    th = grid_thetas(n)
    out = analytic_project(GridFunction(np.exp(-1j * th)))
    assert np.max(np.abs(out.samples)) <= 1e-13


def test_analytic_project_cosine():
    n = 128
    th = grid_thetas(n)
    out = analytic_project(GridFunction(np.cos(th).astype(complex)))
    spec = out.spectrum()
    assert abs(spec[1] - 0.5) <= 1e-13
    assert np.max(np.abs(np.delete(spec, 1))) <= 1e-13


def test_analytic_project_idempotent_and_contractive():
    rng = np.random.default_rng(3)
    g = GridFunction(rng.standard_normal(256) + 1j * rng.standard_normal(256))
    once = analytic_project(g)
    twice = analytic_project(once)
    assert np.max(np.abs(twice.samples - once.samples)) <= 1e-13
    assert once.norm <= g.norm + 1e-14
    analytic = from_taylor(rng.standard_normal(40), 256)
    assert np.max(np.abs(analytic_project(analytic).samples - analytic.samples)) \
        <= 1e-12 * analytic.norm


def test_arc_energies_constant_matches_arc_lengths():
    n, m = 2**16, 8
    prof = arc_energies(constant_function(n), arc_layout(n, m))
    shells = np.arange(1, m + 1, dtype=float)
    exact = 1.0 / (np.pi * shells * (shells + 1.0))  # arc measure over 2 pi
    assert np.allclose(prof.magnitudes_sq, exact, rtol=2e-2)
    assert prof.tail == pytest.approx(1.0 / (np.pi * (m + 1)), rel=2e-2)
    # the shell masses, core, and outer region partition the total mass exactly
    outer_mass = np.mean(np.abs(grid_thetas(n)) >= 1.0)
    assert np.sum(prof.magnitudes_sq) + prof.tail + outer_mass == pytest.approx(1.0, abs=1e-14)


def test_arc_energies_zero_function():
    prof = arc_energies(GridFunction(np.full(2**12, 0.0)), arc_layout(2**12, 8))
    assert np.all(prof.magnitudes_sq == 0.0)
    assert prof.tail == 0.0


def test_arc_energies_outer_support_only():
    n = 2**12
    th = grid_thetas(n)
    f = GridFunction(np.where(np.abs(th) >= 1.0, 1.0 + 0.0j, 0.0j))
    prof = arc_energies(f, arc_layout(n, 8))
    assert np.all(prof.magnitudes_sq == 0.0)
    assert prof.tail == 0.0


def test_arc_energies_coarse_grid_policy():
    # shells narrower than the sample spacing hold no sample and get zero mass
    layout = arc_layout(2**10, 256)
    prof = arc_energies(constant_function(2**10), layout)
    assert prof.n_terms == 256
    empty = layout.half_counts[1:257] == 0
    assert np.any(empty) and np.all(prof.magnitudes_sq[empty] == 0.0)


def test_build_circle_weight_flat_profile_gives_unit_weight():
    n, m = 2**12, 8
    layout = arc_layout(n, m)
    prof = profile_from_energies(np.zeros(m), tail_sum_sq=1.0)  # every suffix sum 1
    w = build_circle_weight(prof, layout)
    assert np.all(w.region_values == 1.0) and np.all(w.log_half == 0.0)
    assert w.log_half.shape == (n // 2,)


def test_build_circle_weight_constant_input_matches_arc_asymptotics():
    # for the constant function the suffix sums sit near 1/(pi n), so the
    # shell weights track (pi n)^(1/4) until the cap would engage
    n, m = 2**14, 64
    layout = arc_layout(n, m)
    prof = arc_energies(constant_function(n), layout)
    w = build_circle_weight(prof, layout)
    shells = np.arange(2, m + 1, dtype=float)
    assert np.allclose(w.region_values[2: m + 1], (np.pi * shells) ** 0.25, rtol=0.05)
    # and exactly the defining formula against the profile itself
    expected = np.minimum(prof.suffix_sums[1:m] ** -0.25, shells)
    assert np.array_equal(w.region_values[2: m + 1], expected)


def test_build_circle_weight_cap_engages_on_fast_decay():
    n, m = 2**12, 6
    layout = arc_layout(n, m)
    mags = 10.0 ** -(5 * np.arange(1, m + 1, dtype=float))  # r_{n-1} << n^-4
    prof = profile_from_energies(mags / np.sum(mags) * 1e-30, tail_sum_sq=1e-40)
    w = build_circle_weight(prof, layout)
    assert np.allclose(w.region_values[2: m + 1], np.arange(2, m + 1, dtype=float))
    assert w.region_values[m + 1] == m + 1


def test_build_circle_weight_requires_normalized_mass():
    layout = arc_layout(2**12, 4)
    prof = profile_from_energies(np.array([2.0, 1.0, 0.5, 0.25]), tail_sum_sq=0.1)
    with pytest.raises(InvalidWeight):
        build_circle_weight(prof, layout)


def test_build_circle_weight_tolerates_rounding_level_excess():
    # a unit-norm input concentrated inside |theta| < 1 can push r_1 a few
    # ulp over 1; that must not be rejected and must still pass the w >= 1
    # validator downstream
    eps = np.finfo(float).eps
    layout = arc_layout(2**12, 4)
    bumped = profile_from_energies(np.array([3 * eps, 0.5, 0.25, 0.25]),
                                   tail_sum_sq=2 * eps)
    assert bumped.suffix_sums[1] > 1.0
    w = build_circle_weight(bumped, layout)
    check_log_integrable(w, layout)  # does not raise
    # a real violation still raises
    bad = profile_from_energies(np.array([0.1, 1.0, 0.1, 0.1]))
    with pytest.raises(InvalidWeight):
        build_circle_weight(bad, layout)


def test_hardy_factor_center_concentrated_unit_norm():
    # nearly all mass inside the shells; exercises the r ~ 1 boundary
    n = 2**12
    th = grid_thetas(n)
    bump = np.exp(-(th**2) * 40.0) + 1e-6
    f = analytic_project(GridFunction(bump.astype(complex)))
    f = GridFunction(f.samples / f.norm)  # exactly unit norm up to rounding
    res = hardy_factor(f, 32)
    assert res.gw_deviation <= 1e-10
    assert res.h_norm_sq <= res.star_rhs + 1e-8


def test_build_circle_weight_floors_zero_suffixes():
    layout = arc_layout(2**12, 4)
    prof = profile_from_energies(np.array([0.5, 0.25, 0.0, 0.0]))
    w = build_circle_weight(prof, layout)
    assert w.floored == 3  # r_2 = r_3 = r_4 = 0 lifted to the floor
    assert w.region_values[3] == 3.0  # cap takes over after flooring
    assert w.region_values[4] == 4.0
    assert w.region_values[5] == 5.0


def _weight_of(layout, region_values):
    """A CircleWeight taking region_values[r] on region r, built by hand."""
    region_values = np.asarray(region_values, dtype=float)
    return CircleWeight(layout.expand_half(np.log(region_values)), region_values, 0)


def test_check_log_integrable_values():
    n, m = 2**12, 8
    layout = arc_layout(n, m)
    unit = check_log_integrable(_weight_of(layout, np.ones(m + 2)), layout)
    assert unit.integral_value == 0.0
    const_e = check_log_integrable(_weight_of(layout, np.full(m + 2, np.e)), layout)
    assert const_e.integral_value == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(InvalidWeight):
        check_log_integrable(_weight_of(layout, np.full(m + 2, 0.5)), layout)
    # a value below 1 on a region that holds no sample is never seen on the grid;
    # the same value on a region that holds samples is refused
    sparse = arc_layout(2**6, 64)
    empty = int(np.flatnonzero(sparse.half_counts == 0)[0])
    held = int(np.flatnonzero(sparse.half_counts > 0)[-1])
    dipped = np.ones(66)
    dipped[empty] = 0.5
    assert check_log_integrable(_weight_of(sparse, dipped), sparse).integral_value == 0.0
    dipped[held] = 0.5
    with pytest.raises(InvalidWeight):
        check_log_integrable(_weight_of(sparse, dipped), sparse)


def test_check_log_integrable_bounds_built_weight():
    n, m = 2**14, 64
    f = constant_function(n)
    layout = arc_layout(n, m)
    prof = arc_energies(f, layout)
    w = build_circle_weight(prof, layout)
    rep = check_log_integrable(w, layout)
    assert rep.integral_value <= rep.comparison_bound * (1.0 + 1e-12)


def test_outer_constant_modulus():
    n = 2**12
    out = outer_from_modulus(np.zeros(n))
    assert np.max(np.abs(out.boundary.samples - 1.0)) <= 1e-13
    out_c = outer_from_modulus(np.full(n, np.log(2.5)))
    assert np.max(np.abs(out_c.boundary.samples - 2.5)) <= 1e-12
    assert neg_mode_leakage(out_c.boundary) <= 1e-12


def test_outer_one_minus_z_fixture():
    n = 2**14
    th = grid_thetas(n)
    out = outer_from_modulus(np.log(np.abs(1.0 - np.exp(1j * th))))
    assert out.clamp_count == 0  # midpoint grid never samples the zero
    target = np.zeros(16, complex)
    target[0], target[1] = 1.0, -1.0
    assert np.max(np.abs(out.boundary.taylor()[:16] - target)) <= 1e-3


def test_outer_boundary_modulus_reproduced_exactly():
    rng = np.random.default_rng(5)
    n = 2**12
    k = np.cos(grid_thetas(n)) + 0.2 * rng.standard_normal(n)
    out = outer_from_modulus(k)
    assert np.max(np.abs(np.abs(out.boundary.samples) - np.exp(k))) \
        <= 1e-12 * np.max(np.exp(k))


def test_outer_polynomial_agrees_with_boundary():
    # the stored completion evaluated on the grid reproduces the samples
    n = 2**10
    th = grid_thetas(n)
    out = outer_from_modulus(np.log(2.0 + np.cos(th)))
    z = np.exp(1j * th[::16])
    vals = np.exp(np.polyval(out.log_coeffs[::-1], z))
    assert np.max(np.abs(vals - out.boundary.samples[::16])) <= 1e-10


def test_outer_clamp_counts_minus_inf():
    n = 2**10
    k = np.zeros(n)
    k[5] = -np.inf  # a prescribed zero of the modulus
    out = outer_from_modulus(k)
    assert out.clamp_count == 1
    assert np.all(np.isfinite(out.boundary.samples))


def test_outer_rejects_bad_input():
    for shape in (2, 6, (4, 4)):
        with pytest.raises(InvalidInput, match="power-of-two length >= 4"):
            outer_from_modulus(np.zeros(shape))
    with pytest.raises(InvalidInput, match="must be real"):
        outer_from_modulus(np.full(2**8, 1.0j))
    with pytest.raises(InvalidInput, match="bounded above"):
        outer_from_modulus(np.full(2**8, np.inf))
    # the largest usable factor is below 1
    with pytest.raises(ScaleOverflow, match=r"<= exp\(-\d"):
        outer_from_modulus(np.full(2**8, 800.0))
    # far past the limit the factor underflows to 0, so the message gives its log
    with pytest.raises(ScaleOverflow, match=r"<= exp\(-1e\+200\)"):
        outer_from_modulus(np.full(2**8, 1e200))


@pytest.mark.parametrize("clamp", [1e-12, 0.5])
def test_outer_real_and_zero_imaginary_input_agree_bitwise(clamp):
    # on both paths: the real part of a complex array is a strided view
    rng = np.random.default_rng(11)
    asymmetric = rng.standard_normal(2**12)
    asymmetric[::97] = -np.inf
    mirrored = np.concatenate((asymmetric[:2**11], asymmetric[2**11 - 1::-1]))
    for k in (asymmetric, mirrored):
        real, cplx = outer_from_modulus(k, clamp), outer_from_modulus(k.astype(complex), clamp)
        assert real.clamp_count == cplx.clamp_count > 0
        assert np.array_equal(real.boundary.samples, cplx.boundary.samples)
        assert np.array_equal(real.log_coeffs, cplx.log_coeffs)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_outer_rejects_nan_and_plus_inf(dtype, bad):
    k = np.zeros(2**8, dtype=dtype)
    k[3] = bad
    k[7] = -np.inf  # a legal zero of the modulus does not hide the bad entry
    with pytest.raises(InvalidInput, match="bounded above and not NaN"):
        outer_from_modulus(k)


@pytest.mark.filterwarnings("error")
def test_outer_overflow_limit_shrinks_with_the_grid():
    # the boundary's transform sums N samples of size exp(peak), so the largest
    # peak is ln(float max) - ln N once that falls below 700: 698.7 at N = 2^16
    with pytest.raises(ScaleOverflow):
        outer_from_modulus(np.full(2**16, 699.0))
    out = outer_from_modulus(np.full(2**16, 698.0))
    assert np.all(np.isfinite(out.boundary.spectrum()))
    # up to 2^14 points every peak up to 700 stays accepted
    out = outer_from_modulus(np.full(2**14, 700.0))
    assert np.all(np.isfinite(out.boundary.spectrum()))


def _twiddled_spectrum(samples):
    # reference spectrum: raw transform, 1/N, complex-exp midpoint twiddle
    n = samples.size
    modes = np.fft.fftfreq(n, 1.0 / n)
    return np.fft.fft(samples) / n * np.exp(-1j * np.pi * modes / n)


def _reference_outer(k, clamp=1e-12):
    """Outer synthesis through the complex transform: fft, analytic-signal
    fold, ifft, exp; power series and Taylor data through complex-exp twiddles."""
    k = np.maximum(np.asarray(k, dtype=float), np.log(clamp))
    n = k.size
    fold = np.zeros(n)
    fold[0] = fold[n // 2] = 1.0
    fold[1: n // 2] = 2.0
    c_bins = np.fft.fft(k) / n * fold
    boundary = np.exp(np.fft.ifft(c_bins * n))
    log_coeffs = np.empty(n // 2 + 1, dtype=complex)
    log_coeffs[: n // 2] = c_bins[: n // 2] * np.exp(-1j * np.pi * np.arange(n // 2) / n)
    log_coeffs[n // 2] = -1j * c_bins[n // 2]
    return boundary, log_coeffs, _twiddled_spectrum(boundary)[: n // 2]


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _mirror(half):
    """The N samples whose first half is ``half`` and whose sample N-1-j is sample j."""
    return np.concatenate((half, half[::-1]))


def _mirrored_log_modulus(n, rng):
    """Random region values of an arc layout on the n-point grid, expanded: exactly mirrored."""
    layout = arc_layout(n, max(1, n // 16))
    return _mirror(layout.expand_half(rng.standard_normal(layout.max_shell + 2)))


@pytest.mark.parametrize("log2n", range(4, 17))
def test_outer_matches_complex_transform_reference(log2n):
    # asymmetric inputs take the full-length path and mirrored ones the half-length one
    n = 2**log2n
    rng = np.random.default_rng(log2n)
    plain = rng.standard_normal(n)
    zeros = plain.copy()
    zeros[rng.choice(n, size=max(1, n // 16), replace=False)] = -np.inf
    mirrored = _mirrored_log_modulus(n, rng)
    mirrored_zeros = mirrored.copy()
    hit = rng.choice(n // 2, size=max(1, n // 32), replace=False)
    mirrored_zeros[hit] = mirrored_zeros[n - 1 - hit] = -np.inf
    for k in (plain, zeros, mirrored, mirrored_zeros):
        even = k is mirrored or k is mirrored_zeros
        for clamp in (1e-12, 0.5):
            out = outer_from_modulus(k, clamp)
            boundary, log_coeffs, taylor = _reference_outer(k, clamp)
            # the mirrored path clamps one half and counts both
            assert out.clamp_count == int(np.sum(k < np.log(clamp)))
            # and its second half is exactly the conjugate mirror, its coefficients real
            samples = out.boundary.samples
            assert np.array_equal(samples[::-1], np.conj(samples)) == even
            assert np.isrealobj(out.log_coeffs) == even
            assert _rel_err(samples, boundary) <= 1e-12
            assert _rel_err(out.log_coeffs, log_coeffs) <= 1e-12
            assert _rel_err(out.boundary.taylor(), taylor) <= 1e-12


@pytest.mark.parametrize("log2n", range(4, 17))
def test_leakage_and_projection_match_twiddled_spectrum(log2n):
    n = 2**log2n
    rng = np.random.default_rng(100 + log2n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    nearly_analytic = from_taylor(rng.standard_normal(n // 2), n).samples + 1e-3 * noise
    for samples in (noise, nearly_analytic):
        spec = _twiddled_spectrum(samples)
        want = np.linalg.norm(spec[n // 2:]) / np.linalg.norm(spec)
        assert abs(neg_mode_leakage(GridFunction(samples)) - want) <= 1e-12 * want
        spec[n // 2:] = 0.0
        projected = GridFunction.from_spectrum(spec).samples
        assert _rel_err(analytic_project(GridFunction(samples)).samples, projected) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_leakage_survives_overflowing_squares():
    # squares of 1e300 overflow float64 and those of 1e-200 underflow to 0, but the
    # leakage is a ratio of norms, and the inner-function gate sees it at every scale
    th = grid_thetas(64)
    for scale in (1.0, 1e300, 1e-200):
        h = GridFunction(scale * (np.exp(1j * th) + 0.5 * np.exp(-1j * th)))
        assert neg_mode_leakage(h) == pytest.approx(0.5 / np.sqrt(1.25), rel=1e-12)
        with pytest.raises(InvalidInput, match="not analytic"):
            inner_check(h)


U = np.finfo(float).eps / 2  # unit roundoff


def _gamma(k):
    return k * U / (1 - k * U)


def _fft_error_bound(stages, mu):
    """Higham's bound (ch. 24) on ||fl(FFT x) - DFT x|| / ||DFT x|| after the given number
    of butterfly stages, each computed root of unity within mu of the exact one."""
    eta = mu + _gamma(4) * (np.sqrt(2) + mu)
    return stages * eta / (1 - stages * eta)


def _transform_errors(n):
    """The error models of the plain length-n transform and of ``_blocked_fft``.

    The plain roots are taken within 2u.  A blocked twiddle is the product of two
    table roots, each cis of an angle fl(fl(-2 pi/n) * m) within 4 pi u of its own,
    rounded by cos and sin; the two complex multiplies that apply it are counted in
    mu, and the twiddle pass is one stage more than log2 n.
    """
    table_root = (4 * np.pi + 2 * np.sqrt(2)) * U
    blocked_mu = 2 * table_root + 2 * np.sqrt(2) * _gamma(2)
    log2n = np.log2(n)
    return _fft_error_bound(log2n, 2 * U), _fft_error_bound(log2n + 1, blocked_mu)


def _blocked(x):
    # the blocked transform into a buffer of its own, as neg_mode_leakage takes it
    return _blocked_fft(x, np.empty(_blocked_shape(x.size), dtype=complex))


@pytest.mark.parametrize("log2n", [*range(2, 17), 20])
def test_blocked_fft_matches_plain_transform_within_error_model(log2n):
    n = 2**log2n
    rng = np.random.default_rng(300 + log2n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    blocked = _blocked(x)
    n1 = 2 ** (log2n // 2)
    assert blocked.shape == (n1, n // n1)
    want = np.fft.fft(x)
    eps_plain, eps_blocked = _transform_errors(n)
    # column-major order is natural bin order: C[k1, k2] is bin k1 + N1*k2
    dist = np.linalg.norm(blocked.T.ravel() - want)
    assert dist <= (eps_blocked + eps_plain) / (1 - eps_plain) * np.linalg.norm(want)


@pytest.mark.parametrize("log2n", [*range(4, 17), 20])
def test_outer_mirrored_path_matches_general_path_within_error_model(log2n):
    # one ulp at one sample breaks the mirror and sends the input down the full-length path
    n = 2**log2n
    rng = np.random.default_rng(400 + log2n)
    k = _mirrored_log_modulus(n, rng)
    bent = k.copy()
    bent[1] = np.nextafter(bent[1], np.inf)
    even, general = outer_from_modulus(k), outer_from_modulus(bent)
    assert np.isrealobj(even.log_coeffs) and np.iscomplexobj(general.log_coeffs)
    # each path is at most 2 log2 N + 2 stages (the full-length rfft and irfft, or the
    # half-length pair and its two twiddles), with roots within the table bound of
    # _transform_errors, so the conjugates differ by 2 eps ||k|| in 2-norm; the ulp
    # moves them by at most 2u ||k||.  A twiddle root of the half-length path is the
    # product of two table roots, as in _blocked_fft, and its excess over the table
    # bound is less than the bound's excess over numpy's own roots in the other stages
    table_root = (4 * np.pi + 2 * np.sqrt(2)) * U
    eps = _fft_error_bound(2 * log2n + 2, table_root)
    k_norm = np.linalg.norm(k)
    # a sample's relative distance is its conjugates' distance, plus exp, cos, sin and the
    # two products rounded in each path and the ulp in its modulus
    dist = np.abs(even.boundary.samples - general.boundary.samples)
    dist /= np.abs(general.boundary.samples)
    assert np.linalg.norm(dist) <= (2 * eps + 4 * U) * k_norm + 16 * U * np.sqrt(n)
    # the coefficients are 2/N times the spectrum, of norm at most 2 ||k|| / sqrt(N)
    coeff_dist = np.linalg.norm(even.log_coeffs - general.log_coeffs)
    assert coeff_dist <= (2 * eps + 2 * U) * 2 * k_norm / np.sqrt(n)


def _one_call_blocked_fft(x):
    # the transform as one call per pass, on one thread, kept as the reference
    n = x.size
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    s = 1 << ((n2.bit_length() - 1) // 2)
    blocks = np.fft.fft(x.reshape(n1, n2), axis=0)
    k1 = np.arange(n1)[:, None, None]
    step = -2.0 * np.pi / n
    rows = blocks.reshape(n1, n2 // s, s)
    rows *= _cis(step * (k1 * np.arange(s)))
    rows *= _cis(step * (k1 * (s * np.arange(n2 // s))[:, None]))
    return np.fft.fft(blocks, axis=1, out=blocks)


@pytest.mark.parametrize("log2n", range(2, 21))
def test_blocked_fft_halves_equal_one_call_bit_for_bit(log2n):
    n = 2**log2n
    rng = np.random.default_rng(700 + log2n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, want = _blocked(x), _one_call_blocked_fft(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.filterwarnings("error")
def test_blocked_fft_halves_keep_the_callers_errstate():
    # an infinite sample leaves infinite entries in every row after the column pass,
    # and the twiddle's complex products raise the invalid flag in both halves; the
    # caller's errstate must hold on the helper too
    x = np.ones(64, dtype=complex)
    x[40] = np.inf
    with np.errstate(invalid="ignore"):
        got, want = _blocked(x), _one_call_blocked_fft(x)
    assert np.array_equal(got, want, equal_nan=True)
    with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
        _blocked(x)


def _in_child(body):
    # a helper task that never finishes keeps an interpreter from exiting, since
    # concurrent.futures joins its worker at exit; so a body that could deadlock the
    # helper runs in a child interpreter, which a timeout kills: the test fails, not hangs
    paths = [os.path.dirname(os.path.dirname(hardy_engine.__file__)), os.path.dirname(__file__)]
    code = f"import sys; sys.path[:0] = {paths!r}; import {__name__} as t; t.{body.__name__}()"
    try:
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{body.__name__} did not finish within 60 s in a child interpreter")
    assert done.returncode == 0, done.stderr


def _callers_share_the_helper():
    # four callers on two cores queue their halves on the one helper, with the
    # interpreter switching threads every microsecond; each must get its own transform
    inputs = [np.random.default_rng(900 + i).standard_normal(2**10) + 0j for i in range(4)]
    wants = [_one_call_blocked_fft(x) for x in inputs]
    mismatches = []

    def call(x, want):
        for _ in range(25):
            if not np.array_equal(_blocked(x), want):
                mismatches.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=pair) for pair in zip(inputs, wants)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and not mismatches


def test_concurrent_callers_share_the_helper():
    _in_child(_callers_share_the_helper)


def _leakage_in_child(samples, results):
    results.put(neg_mode_leakage(GridFunction(samples)))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_forked_child_takes_the_leakage_with_its_own_helper():
    # the parent's helper thread is not copied into a forked child; a child that
    # handed its half to it would wait for ever
    samples = np.random.default_rng(8).standard_normal(2**12) + 0j
    want = neg_mode_leakage(GridFunction(samples))  # the parent's helper is running
    fork = multiprocessing.get_context("fork")
    results = fork.Queue()
    child = fork.Process(target=_leakage_in_child, args=(samples, results))
    child.start()
    try:
        got = results.get(timeout=30)
    except queue.Empty:
        pytest.fail("the forked child did not finish the leakage within 30 s")
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == want and child.exitcode == 0


def test_alongside_returns_both_results_with_there_on_another_thread():
    here, there = hardy_engine._alongside(threading.get_ident, threading.get_ident)
    assert here == threading.get_ident() != there


def _raise(error):
    raise error


def test_alongside_raises_theres_error_with_heres_as_its_context():
    with pytest.raises(ValueError, match="there") as caught:
        hardy_engine._alongside(lambda: _raise(KeyError("here")),
                                lambda: _raise(ValueError("there")))
    assert isinstance(caught.value.__context__, KeyError)


def test_alongside_waits_for_there_when_only_here_raises():
    finished = threading.Event()

    def there():
        time.sleep(0.05)
        finished.set()

    with pytest.raises(KeyError):
        hardy_engine._alongside(lambda: _raise(KeyError("here")), there)
    assert finished.is_set()


def _in_halves_on_the_helper():
    # a half queued on the helper from the helper itself would wait for ever behind
    # the task that queued it; there() runs first, then here()
    ran = []

    def task(lo, hi):
        ran.append((lo, hi, threading.get_ident()))

    _, helper = hardy_engine._alongside(lambda: None, threading.get_ident)
    hardy_engine._alongside(lambda: None, lambda: hardy_engine._in_halves(task, 8))
    assert ran == [(4, 8, helper), (0, 4, helper)]


def test_in_halves_on_the_helper_runs_both_halves_inline():
    _in_child(_in_halves_on_the_helper)


def _factor_bytes(res):
    # every array and value of a factorization, as bytes
    arrays = (res.g.samples, res.h.samples, res.outer.log_coeffs, res.w.log_half,
              res.w.region_values, res.profile.suffix_sums)
    values = (res.scale, res.gw_deviation, res.h_norm_sq, res.star_rhs, res.h_leakage,
              res.log_report.integral_value, res.log_report.comparison_bound)
    return [a.tobytes() for a in arrays] + [np.float64(v).tobytes() for v in values] \
        + [res.outer.clamp_count, res.w.floored]


def _overlap_inputs():
    rng = np.random.default_rng(28)
    series = np.exp(2j * np.pi * rng.uniform(size=2**10)) / np.arange(1, 2**10 + 1)
    return [from_taylor(series, 2**12).samples, constant_function(2**11).samples,
            from_taylor([1.0, 0.5, 0.25], 2**10).samples, 3.0 * coordinate_function(2**12).samples]


def _concurrent_hardy_factor_calls():
    # four callers each put their analyticity gate and halves on the one helper, with
    # the interpreter switching threads every microsecond; each must get its own result
    inputs = _overlap_inputs()
    wants = [_factor_bytes(hardy_factor(GridFunction(x), 64)) for x in inputs]
    mismatches = []

    def call(x, want):
        for _ in range(10):
            if _factor_bytes(hardy_factor(GridFunction(x), 64)) != want:
                mismatches.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=pair) for pair in zip(inputs, wants)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and not mismatches


def test_concurrent_hardy_factor_calls_match_a_serial_call():
    _in_child(_concurrent_hardy_factor_calls)


def _factor_in_child(inputs, results):
    results.put([_factor_bytes(hardy_factor(GridFunction(x), 64)) for x in inputs])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_forked_child_factors_with_its_own_helper():
    # the child's analyticity gate goes to a helper of its own, not to the parent's
    # thread, which the child has no copy of
    inputs = _overlap_inputs()
    wants = [_factor_bytes(hardy_factor(GridFunction(x), 64)) for x in inputs]
    fork = multiprocessing.get_context("fork")
    results = fork.Queue()
    child = fork.Process(target=_factor_in_child, args=(inputs, results))
    child.start()
    try:
        got = results.get(timeout=30)
    except queue.Empty:
        pytest.fail("the forked child did not finish the factorizations within 30 s")
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == wants and child.exitcode == 0


def test_leakage_traced_peak_is_one_blocked_buffer():
    # the (N1, N2) transform buffer is 16 bytes a sample and the twiddle tables
    # under 4 more; a copy of the strided upper half would add 8
    n = 2**16
    h = GridFunction(np.random.default_rng(5).standard_normal(n) + 0j)
    neg_mode_leakage(h)  # transform plans and first-call caches are not the leakage's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        neg_mode_leakage(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / n <= 20


def _plain_leakage(samples):
    # the reference rule: one full-length transform in natural bin order, scaled to max 1
    spec = np.fft.fft(samples)
    top = np.max(np.abs(spec))
    if top == 0.0:
        return 0.0
    spec /= top
    return np.linalg.norm(spec[samples.size // 2:]) / np.linalg.norm(spec)


@settings(max_examples=80, deadline=None)
@given(log2n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       noise=st.sampled_from([0.0, 1e-9, 1e-4, 1.0]), scale=st.sampled_from([0.0, 1.0, 1e300]))
def test_leakage_matches_plain_transform(log2n, seed, noise, scale):
    # scale 0 is the zero function, and at 1e300 the squares overflow
    n = 2**log2n
    rng = np.random.default_rng(seed)
    analytic = from_taylor(rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2), n)
    samples = analytic.samples + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    samples *= scale
    eps_plain, eps_blocked = _transform_errors(n)
    got, want = neg_mode_leakage(GridFunction(samples)), _plain_leakage(samples)
    assert abs(got - want) <= 2 * (eps_blocked + eps_plain)
    assert got == want == 0.0 or scale != 0.0


def test_hardy_factor_modulus_is_reciprocal_weight():
    rng = np.random.default_rng(9)
    f = from_taylor(np.exp(2j * np.pi * rng.uniform(size=2**11)) / np.arange(1, 2**11 + 1), 2**12)
    res = hardy_factor(f, 64)
    w = _mirror(res.layout.expand_half(res.w.region_values))
    chain = np.max(np.abs(np.abs(res.g.samples) * w - 1.0))
    assert chain <= 1e-14
    assert res.gw_deviation.hex() == float(chain).hex()


_NEAR_ONE = st.one_of(st.floats(0.5, 2.0),
                      st.integers(-2**20, 2**20).map(lambda k: 1.0 + k * U))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_NEAR_ONE, min_size=1, max_size=64),
       side=st.sampled_from(["both", "above", "below"]))
def test_unit_deviation_equals_the_elementwise_chain_bit_for_bit(values, side):
    # fl(x - 1) rises with x and fl(1 - x) = -fl(x - 1), so the extremes decide
    x = np.array(values)
    if side == "above":
        x = np.where(x < 1.0, 2.0 - x, x)
    elif side == "below":
        x = np.where(x > 1.0, 2.0 - x, x)
    want = float(np.max(np.abs(x - 1.0)))
    assert _unit_deviation(x).hex() == want.hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300, 1e305, 1e307])
def test_hardy_factor_normalizes_an_input_whose_squares_overflow(scale):
    # from 1e305 on the raw transform of the input overflows; the gate reads the
    # normalized input, whose transform cannot
    n = 2**12
    f = from_taylor([1.0, 0.5, 0.25], n)
    unit = hardy_factor(f, 64)
    res = hardy_factor(GridFunction(scale * f.samples), 64)
    assert res.scale / scale == pytest.approx(unit.scale, rel=8 * U)
    for name in ("h_norm_sq", "star_rhs", "h_leakage"):
        assert getattr(res, name) == pytest.approx(getattr(unit, name), rel=1e-13)
    assert res.gw_deviation <= 1e-14 and res.w.floored == unit.w.floored


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e-310])
def test_hardy_factor_factors_an_input_whose_squares_underflow(scale):
    # the norm is far below 1, so the input is factored as it is; every arc mass
    # underflows, so every suffix sum is floored and the weight is the cap; at
    # 1e-310 every sample is subnormal, and the divisor is the smallest normal float
    res = hardy_factor(GridFunction(scale * from_taylor([1.0, 0.5, 0.25], 2**12).samples), 64)
    assert res.scale == 1.0 and res.w.floored == 64
    assert res.gw_deviation <= 1e-14 and res.h_norm_sq <= res.star_rhs + 1e-8


@pytest.mark.filterwarnings("error")
def test_hardy_factor_refuses_noise_whose_transform_overflows():
    # the raw transform of this input passes float64's maximum, so its leakage would be
    # NaN; the gate reads the normalized input, so the noise is measured and refused
    n = 2**14
    rng = np.random.default_rng(27)
    noise = 1e307 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    with pytest.raises(InvalidInput, match="not analytic"):
        hardy_factor(GridFunction(noise), 64)


def test_analyticity_gates_refuse_a_nan_leakage(monkeypatch):
    # NaN > tol is false, so each gate must ask for ratio <= tol instead
    monkeypatch.setattr(hardy_engine, "_negative_fraction", lambda coefficients: math.nan)
    with pytest.raises(InvalidInput, match="not analytic: negative-mode fraction nan"):
        hardy_factor(from_taylor([1.0, 0.5, 0.25], 2**8), 16)
    with pytest.raises(InvalidInput, match="not analytic to tolerance"):
        inner_check(coordinate_function(2**8))


def test_hardy_factor_refuses_a_non_analytic_input_before_a_later_stage_error():
    # the gate runs beside the layout, which refuses zero shells; the input's refusal
    # still comes first, as when the gate ran before every other stage
    z = coordinate_function(2**10)
    with pytest.raises(InvalidInput, match="not analytic"):
        hardy_factor(GridFunction(np.conj(z.samples)), 0)
    with pytest.raises(InvalidInput, match="need at least one shell"):
        hardy_factor(z, 0)


@pytest.mark.filterwarnings("error")
def test_hardy_factor_refuses_a_norm_beyond_float64():
    with pytest.raises(InvalidInput, match="2-norm overflows float64"):
        hardy_factor(GridFunction(np.full(2**6, 1.5e308 + 1.5e308j)), 8)


def test_hardy_factor_fft_budget(monkeypatch):
    # two leakage transforms, each a column pass of core N1 = 64 and a row pass of
    # core N2 = 128, each pass over all N points in two calls of N/2, one per thread,
    # and one real transform pair of length N/2 for the outer factor of the mirrored
    # weight; each read of g's Taylor data costs one more, full-length, transform
    n = 2**13
    f = from_taylor([1.0, 0.5, 0.25], n)
    counts = collections.Counter()
    passes = collections.Counter()  # (core length, points covered) of each complex forward transform
    real_lengths = []  # the signal length of each real transform
    lock = threading.Lock()  # the helper thread counts too
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, *args, _name=name, _kernel=getattr(np.fft, name), **kwargs):
            with lock:
                counts[_name] += 1
                if _name == "fft":
                    passes[np.shape(a)[kwargs.get("axis", -1)], np.size(a)] += 1
                elif _name in ("rfft", "irfft"):
                    real_lengths.append(args[0] if args else np.size(a))
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    res = hardy_factor(f, 64)
    assert [counts[k] for k in ("fft", "ifft", "rfft", "irfft")] == [8, 0, 1, 1]
    assert passes == {(64, n // 2): 4, (128, n // 2): 4}
    assert real_lengths == [n // 2] * 2
    first = res.g.taylor()
    assert counts["fft"] == 9 and passes[n, n] == 1
    assert np.array_equal(res.g.taylor(), first)
    assert counts["fft"] == 10
    assert sum(counts.values()) == 12


def test_hardy_factor_traced_peak_per_sample():
    # a rescaled input keeps the most: g and h, the half-grid log-weight and the log
    # coefficients, about 40 bytes a sample; a normalized copy of the input would add 16
    # to each figure, a per-sample region array 8, and an N-long weight 4
    n = 2**16
    rng = np.random.default_rng(2)
    f = from_taylor(np.exp(2j * np.pi * rng.uniform(size=n // 2)) / np.arange(1, n // 2 + 1), n)
    hardy_factor(f, 256)  # transform plans and first-call caches are not the pipeline's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = hardy_factor(f, 256)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.scale > 1.0
    assert (peak - start) / n <= 61
    assert (kept - start) / n <= 42


def test_hardy_factor_normalized_input_is_rebuilt_on_read():
    n = 2**10
    f = from_taylor([1.0, 0.75], n)  # norm 1.25
    res = hardy_factor(f, 16)
    assert res.source is f and res.scale > 1.0
    before = {name: getattr(res, name) for name in
              ("gw_deviation", "h_norm_sq", "star_rhs", "h_leakage", "log_report")}
    assert res.f.samples.tobytes() == (f.samples / res.scale).tobytes()
    assert res.f is res.f
    assert {name: getattr(res, name) for name in before} == before
    unit = constant_function(n)
    assert hardy_factor(unit, 16).f is unit


def test_hardy_factor_constant_small_grid():
    res = hardy_factor(constant_function(2**12), 64)
    assert res.gw_deviation <= 1e-10
    assert res.h_norm_sq <= res.star_rhs + 1e-8
    assert res.h_norm_sq >= res.f.norm_sq  # dividing by |g| <= 1 cannot shrink
    # h is the literal quotient, so the product recombines to f within rounding
    eps = np.finfo(float).eps
    assert np.max(np.abs(res.g.samples * res.h.samples - res.f.samples)) \
        <= 4 * eps * np.max(np.abs(res.f.samples))
    assert np.max(np.abs(res.g.samples)) <= 1.0 + 1e-12


def test_hardy_factor_tail_series_certificate():
    # the weighted tail series in the majorant is certified by the
    # telescoping bound 2(sqrt(r_1) - sqrt(r_M)) of the suffix sums
    res = hardy_factor(constant_function(2**12), 64)
    prof = res.profile
    series = res.star_rhs - res.f.norm_sq - prof.tail / np.sqrt(prof.suffix_sums[-1])
    certificate = 2.0 * (np.sqrt(prof.suffix_sums[1]) - np.sqrt(prof.suffix_sums[-1]))
    assert series <= certificate + 1e-10 * (1.0 + prof.head)


def test_arc_layout_partitions_grid():
    layout = arc_layout(2**12, 16)
    counts = 2 * layout.half_counts
    assert counts.sum() == 2**12
    assert np.all(counts[1:17] > 0)  # resolvable shells are nonempty at this size


def _per_sample_regions(n, m):
    """The layout's rule sample by sample: 0 for |theta| >= 1, else min(floor(1/|theta|), M+1)."""
    th = np.abs(grid_thetas(n))
    region = np.minimum(np.floor(1.0 / th), m + 1)
    region[th >= 1.0] = 0
    return region.astype(int)


LAYOUT_SHELLS = (1, 2, 3, 7, 16, 64, 255, 256, 1000, 4096)


@pytest.mark.parametrize("log2n", range(2, 21))
def test_arc_layout_runs_match_per_sample_rule(log2n):
    n = 2**log2n
    for m in (*LAYOUT_SHELLS, n):
        layout = arc_layout(n, m)
        region = _per_sample_regions(n, m)
        assert layout.half_counts.shape == (m + 2,)
        assert np.array_equal(_mirror(layout.expand_half(np.arange(m + 2))), region)
        assert np.array_equal(2 * layout.half_counts, np.bincount(region, minlength=m + 2))


@pytest.mark.parametrize("log2n", range(2, 21))
def test_hardy_factor_outer_is_the_expanded_weights_outer_bit_for_bit(log2n):
    # hardy_factor synthesizes g from the half grid's log-modulus; the full-length
    # array of the mirrored region values must give the same outer function through
    # outer_from_modulus
    n = 2**log2n
    res = hardy_factor(from_taylor([1.0, 0.5], n), max(1, 2 ** (log2n // 2)))
    full = -np.log(res.w.region_values)[_per_sample_regions(n, res.layout.max_shell)]
    want = outer_from_modulus(full)
    got = res.outer
    assert got.boundary.samples.tobytes() == want.boundary.samples.tobytes()
    assert got.log_coeffs.dtype == want.log_coeffs.dtype
    assert got.log_coeffs.tobytes() == want.log_coeffs.tobytes()
    assert got.clamp_count == want.clamp_count


@pytest.mark.parametrize("n, m", [(2**4, 3), (2**10, 256), (2**12, 16), (2**14, 64), (2**16, 1000)])
def test_arc_pipeline_matches_per_sample_references(n, m):
    # masses within their summation error model of the exact and the bincount
    # sums; weight and log check bit for bit against the per-sample region array
    layout = arc_layout(n, m)
    region = _per_sample_regions(n, m)
    rng = np.random.default_rng(n + m)
    f = from_taylor(rng.standard_normal(n // 8) + 1j * rng.standard_normal(n // 8), n)
    f = GridFunction(f.samples / (2.0 * f.norm))
    prof = arc_energies(f, layout)
    energy = np.abs(f.samples) ** 2 / n
    masses = np.append(prof.magnitudes_sq, prof.tail)  # regions 1..M+1
    exact = np.array([math.fsum(energy[region == r]) for r in range(1, m + 2)])
    # nonnegative terms: any order of summing n_r of them is within gamma_{n_r} of the sum
    ku = 2 * layout.half_counts[1:] * (np.finfo(float).eps / 2)
    gamma = ku / (1.0 - ku)
    assert np.all(np.abs(masses - exact) <= gamma * exact)
    binned = np.bincount(region, weights=energy, minlength=m + 2)[1:]
    assert np.all(np.abs(masses - binned) <= 2.0 * gamma * exact)
    w = build_circle_weight(prof, layout)
    per_sample = w.region_values[region]
    assert np.array_equal(_mirror(layout.expand_half(w.region_values)), per_sample)
    rep = check_log_integrable(w, layout)
    logs = np.log(np.maximum(per_sample, 1.0))
    shells = np.arange(2, m + 1, dtype=float)
    bound = 2.0 * float(np.sum(np.log(shells) / shells**2)) \
        + float(np.sum(logs[region == m + 1]) / n)
    assert rep.integral_value == float(np.mean(logs))
    assert rep.comparison_bound == bound


def _half_grid_cases():
    # M = 1 and 64 everywhere; up to 2^14 also M = floor(N/pi), past which no shell holds
    # a sample, and 4 floor(N/pi), whose core is empty too
    for log2n in (*range(2, 17), 20):
        n = 2**log2n
        shells = {1, 64} | ({n // math.pi, 4 * (n // math.pi)} if log2n <= 14 else set())
        yield from ((n, int(m)) for m in sorted(shells))


@pytest.mark.parametrize("n, m", _half_grid_cases())
def test_half_grid_weight_readers_match_per_sample_reference(n, m):
    # the weight is kept as log w on the half grid; |g| w, the log integral and its
    # bound must be what the per-sample weight gives, bit for bit
    rng = np.random.default_rng(n + m)
    k = max(1, n // 8)
    res = hardy_factor(from_taylor(rng.standard_normal(k) + 1j * rng.standard_normal(k), n), m)
    region = _per_sample_regions(n, m)
    w = res.w.region_values[region]
    chain = float(np.max(np.abs(np.abs(res.g.samples) * w - 1.0)))
    assert res.gw_deviation.hex() == chain.hex()
    logs = np.log(np.maximum(w, 1.0))
    shells = np.arange(2, m + 1, dtype=float)
    bound = 2.0 * float(np.sum(np.log(shells) / shells**2)) \
        + float(np.sum(logs[region == m + 1]) / n)
    assert res.log_report.integral_value.hex() == float(np.mean(logs)).hex()
    assert res.log_report.comparison_bound.hex() == bound.hex()
    assert res.w.log_half.tobytes() == np.log(w[: n // 2]).tobytes()


def test_hardy_factor_rotation_invariant_arc_masses():
    n, m = 2**12, 64
    res_one = hardy_factor(constant_function(n), m)
    res_z = hardy_factor(coordinate_function(n), m)
    assert np.allclose(res_z.profile.magnitudes_sq, res_one.profile.magnitudes_sq,
                       rtol=1e-12)
    assert res_z.gw_deviation <= 1e-10
    assert res_z.h_norm_sq <= res_z.star_rhs + 1e-8


def test_hardy_factor_support_off_center():
    n, m = 2**12, 64
    th = grid_thetas(n)
    f = analytic_project(GridFunction(np.exp(-((np.abs(th) - 2.0) ** 2) * 4.0) + 0.05))
    f = GridFunction(f.samples / max(1.0, f.norm))
    res = hardy_factor(f, m)
    assert res.gw_deviation <= 1e-10
    assert res.h_norm_sq <= res.star_rhs + 1e-8


def test_hardy_factor_decay_for_vanishing_input():
    # an input vanishing at the accumulation point has fast-decaying arc
    # masses, so the synthesized outer factor genuinely decays toward it
    f = from_taylor([0.5, -0.5], 2**13)
    res = hardy_factor(f, 128)
    rad = radial_decay_check(res.outer)
    assert np.all(np.diff(rad.values) < 0)
    assert rad.ratio <= 0.1


def test_hardy_factor_high_frequency_input():
    res = hardy_factor(from_taylor(np.eye(1, 101, 100)[0], 2**13), 128)
    assert res.gw_deviation <= 1e-10
    assert res.h_norm_sq <= res.star_rhs + 1e-8


def test_hardy_factor_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        hardy_factor(GridFunction(np.full(2**10, 0.0)), 16)
    th = grid_thetas(2**10)
    with pytest.raises(InvalidInput):
        hardy_factor(GridFunction(np.exp(-1j * th)), 16)  # not analytic


def test_hardy_factor_evaluators_consistent():
    res = hardy_factor(constant_function(2**12), 64)
    g_eval = res.outer
    z = 0.3 + 0.4j
    f_z = eval_series(res.f.taylor(), z)
    assert abs(g_eval(z) * (f_z / g_eval(z)) - f_z) <= 1e-12
    # the outer factor stays in the unit ball off the boundary as well
    probes = 0.95 * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    assert np.max(np.abs(g_eval(probes))) <= 1.0 + 1e-12
    # interior evaluation of g agrees with the boundary data as z approaches it
    th0 = grid_thetas(2**12)[100]
    seq = [abs(g_eval(r * np.exp(1j * th0)) - res.g.samples[100]) for r in (0.99, 0.9999)]
    assert seq[1] < seq[0]


def test_radial_decay_constant_and_linear():
    ones = radial_decay_check(np.ones_like)
    assert ones.values.shape == (RADIAL_DEPTHS,)
    assert np.allclose(ones.values, 1.0)
    assert ones.ratio == 1.0
    lin = radial_decay_check(lambda z: 1.0 - z)
    assert np.allclose(lin.values, 2.0 ** -np.arange(1, RADIAL_DEPTHS + 1.0), rtol=1e-12)
    assert lin.ratio == pytest.approx(2.0 ** (1 - RADIAL_DEPTHS), rel=1e-12)


def test_radial_decay_log_domain_matches_direct():
    # the outer function is evaluated as exp of its log series; sum that
    # series term by term at each radius instead
    n = 2**10
    out = outer_from_modulus(np.log(2.0 + np.cos(grid_thetas(n))))
    rep = radial_decay_check(out)
    powers = np.arange(out.log_coeffs.size)
    direct = [abs(np.exp(np.sum(out.log_coeffs * (1.0 - 2.0**-j) ** powers)))
              for j in range(1, RADIAL_DEPTHS + 1)]
    assert np.allclose(rep.values, direct, rtol=1e-12)


def test_eval_series_matches_power_sum():
    rng = np.random.default_rng(6)
    for length in rng.integers(2**6, 2**12, size=6, endpoint=True):
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        z = 0.95 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
        z[:2] = [0.95, -0.95j]  # the edge of the sampled disk
        powers = np.vander(z, length, increasing=True)
        # relative to the sum of the terms' moduli, the scale of Horner's error bound
        scale = np.abs(powers) @ np.abs(coeffs)
        assert np.all(np.abs(eval_series(coeffs, z) - powers @ coeffs) <= 1e-12 * scale)


def test_block_size_grows_with_the_series_to_256():
    sizes = {n: _block_size(n) for n in (1, 64, 2**14, 2**14 + 1, 2**15, 2**15 + 1, 2**20)}
    assert sizes == {1: 64, 64: 64, 2**14: 64, 2**14 + 1: 128, 2**15: 128, 2**15 + 1: 256,
                     2**20: 256}


@pytest.mark.parametrize("length", [1, 63, 64, 65, 4097, 2**14 + 1, 2**15 + 1])
def test_eval_series_matches_polyval(length):
    rng = np.random.default_rng(length)
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    z = 0.95 * np.sqrt(rng.uniform(size=(4, 8))) * np.exp(2j * np.pi * rng.uniform(size=(4, 8)))
    z[0, :3] = [0.0, 0.95, -0.95j]
    got = eval_series(coeffs, z)
    assert got.shape == z.shape
    # blocked Horner's error model: B roundings within a block, ceil(L/B) across blocks
    b = min(_block_size(length), length)
    scale = np.polyval(np.abs(coeffs)[::-1], np.abs(z))  # sum_k |c_k| |z|^k
    tol = (b + -(-length // b)) * np.finfo(float).eps * scale
    assert np.all(np.abs(got - np.polyval(coeffs[::-1], z)) <= tol)
    assert got[0, 0] == coeffs[0]
    one = eval_series(coeffs, z[0, 1])
    assert np.ndim(one) == 0 and not isinstance(one, np.ndarray)
    assert abs(one - np.polyval(coeffs[::-1], z[0, 1])) <= tol[0, 1]


def test_inner_check_coordinate_and_blaschke():
    n = 2**12
    z = coordinate_function(n)
    rep = inner_check(z)
    assert rep.b is z
    assert rep.boundary_dev <= 1e-14
    assert rep.interior_max <= 1.0
    a = 0.5
    b = GridFunction((z.samples - a) / (1.0 - a * z.samples))
    rep_b = inner_check(b)
    assert rep_b.boundary_dev <= 1e-10
    assert rep_b.interior_max <= 1.0


def test_inner_check_transforms_b_once(monkeypatch):
    # the analyticity gate and the interior values share one spectrum of b
    n = 2**10
    z = coordinate_function(n)
    b = GridFunction((z.samples - 0.3) / (1.0 - 0.3 * z.samples))
    calls = collections.Counter()

    def counted(*args, _kernel=np.fft.fft, **kwargs):
        calls["fft"] += 1
        return _kernel(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    rep = inner_check(b)
    assert calls["fft"] == 1
    radii = np.linspace(0.15, 0.9, 6)
    pts = (radii[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)[None, :]).ravel()
    assert rep.interior_max == float(np.max(np.abs(eval_series(b.taylor(), pts))))


def test_inner_check_rejects_average():
    n = 2**12
    z = coordinate_function(n)
    with pytest.raises(NotInner, match=r"^boundary deviation ") as refused:
        inner_check(GridFunction((1.0 + z.samples) / 2.0))
    dev = float(re.match(r"boundary deviation (\S+),", str(refused.value)).group(1))
    # |b| = |cos(theta/2)| dips to 0 near theta = pi, so the deviation is ~1
    assert dev == pytest.approx(1.0, abs=1e-3)
    assert dev > 0.49


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e305, 1e308])
def test_inner_check_refuses_a_huge_b_without_a_warning(scale):
    # the raw transform of b would overflow; the gate reads b over its divisor, and the
    # interior is the scaled series' maximum times the divisor
    b = GridFunction(scale * coordinate_function(2**14).samples)
    with pytest.raises(NotInner, match=r"^boundary deviation \S+, interior max 9e\+30[47]$"):
        inner_check(b)


def test_projection_onto_shifted_space():
    n = 2**12
    one = constant_function(n)
    z = coordinate_function(n)
    out = project_onto_bH2(one, inner_check(z))
    assert np.max(np.abs(out.projection.samples)) <= 1e-12
    assert out.distance == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_projection_refuses_squares_that_sum_past_float64():
    inner = inner_check(coordinate_function(8))
    with pytest.raises(InvalidInput, match="sum past float64"):
        project_onto_bH2(GridFunction(np.full(8, 1e200, dtype=complex)), inner)
    # squares that sum within float64 are projected without a warning: the constant's
    # distance from z H2 is its own modulus
    out = project_onto_bH2(GridFunction(np.full(8, 1e153, dtype=complex)), inner)
    assert out.distance == pytest.approx(1e153, rel=1e-14)


def test_projection_blaschke_distance():
    n = 2**12
    one = constant_function(n)
    zs = coordinate_function(n).samples
    for a in (0.3, 0.5, 0.9):
        b = GridFunction((zs - a) / (1.0 - a * zs))
        out = project_onto_bH2(one, inner_check(b))
        assert out.distance**2 == pytest.approx(1.0 - a * a, abs=1e-8)
        # brute-force grid inner products reproduce the projection coefficient
        proj_oracle = -a * b.samples
        assert np.max(np.abs(out.projection.samples - proj_oracle)) <= 1e-8


def test_projection_fixed_point():
    n = 2**12
    zs = coordinate_function(n).samples
    b = GridFunction((zs - 0.4) / (1.0 - 0.4 * zs))
    f = GridFunction(b.samples * zs)  # already inside the subspace
    out = project_onto_bH2(f, inner_check(b))
    assert out.distance <= 1e-10


def test_projection_operator_laws():
    n = 2**12
    zs = coordinate_function(n).samples
    b = GridFunction((zs - 0.6) / (1.0 - 0.6 * zs))
    f = GridFunction(1.0 + 0.3 * zs**2)
    g = GridFunction(0.5 * zs + 0.25 * zs**3)
    inner = inner_check(b)
    pf = project_onto_bH2(f, inner)
    pg = project_onto_bH2(g, inner)
    again = project_onto_bH2(pf.projection, inner)
    assert np.sqrt(np.mean(np.abs(again.projection.samples - pf.projection.samples) ** 2)) \
        <= 1e-10
    lhs = np.mean(pf.projection.samples * np.conj(g.samples))
    rhs = np.mean(f.samples * np.conj(pg.projection.samples))
    assert abs(lhs - rhs) <= 1e-10
    assert pf.projection.norm <= f.norm + 1e-12


def test_projection_rejects_non_inner():
    # the projection takes only what inner_check accepted, and NotInner comes from there
    n = 2**12
    zs = coordinate_function(n).samples
    with pytest.raises(NotInner):
        project_onto_bH2(constant_function(n), inner_check(GridFunction((1.0 + zs) / 2.0)))
    # a huge candidate's interior maximum is reported in six significant digits
    with pytest.raises(NotInner, match=r"interior max 1e\+100$"):
        project_onto_bH2(constant_function(n), inner_check(GridFunction(np.full(n, 1e100))))


@pytest.mark.parametrize("call, message", [
    (lambda: from_taylor(np.ones(9), 16), "power series longer than the analytic bandwidth"),
    (lambda: arc_energies(constant_function(64), arc_layout(128, 8)),
     "layout and function grid sizes differ"),
    (lambda: build_circle_weight(profile_from_energies(np.full(4, 0.01)), arc_layout(256, 8)),
     "profile length does not match the layout's shell count"),
    (lambda: inner_check(GridFunction(np.exp(-1j * grid_thetas(64)))),
     "candidate is not analytic to tolerance"),
    (lambda: project_onto_bH2(constant_function(64), inner_check(coordinate_function(128))),
     "f and b must share a grid"),
])
def test_grid_refusals(call, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()


def test_neg_mode_leakage_of_zero_function_is_zero():
    assert neg_mode_leakage(GridFunction(np.zeros(64, dtype=complex))) == 0.0
