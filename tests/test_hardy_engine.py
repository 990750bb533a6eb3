import collections
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwitness.errors import InvalidInput, InvalidWeight, NotInner, ScaleOverflow
from flatwitness.hardy_engine import (
    RADIAL_DEPTHS,
    GridFunction,
    _block_size,
    _blocked_fft,
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
    empty = layout.counts()[1:257] == 0
    assert np.any(empty) and np.all(prof.magnitudes_sq[empty] == 0.0)


def test_build_circle_weight_flat_profile_gives_unit_weight():
    n, m = 2**12, 8
    layout = arc_layout(n, m)
    prof = profile_from_energies(np.zeros(m), tail_sum_sq=1.0)  # every suffix sum 1
    w = build_circle_weight(prof, layout)
    assert np.all(w.values == 1.0)


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
    check_log_integrable(w.values, layout)  # does not raise
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


def test_check_log_integrable_values():
    n, m = 2**12, 8
    layout = arc_layout(n, m)
    unit = check_log_integrable(np.ones(n), layout)
    assert unit.integral_value == 0.0
    const_e = check_log_integrable(np.full(n, np.e), layout)
    assert const_e.integral_value == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(InvalidWeight):
        check_log_integrable(np.full(n, 0.5), layout)


def test_check_log_integrable_bounds_built_weight():
    n, m = 2**14, 64
    f = constant_function(n)
    layout = arc_layout(n, m)
    prof = arc_energies(f, layout)
    w = build_circle_weight(prof, layout)
    rep = check_log_integrable(w.values, layout)
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
    rng = np.random.default_rng(11)
    k = rng.standard_normal(2**12)
    k[::97] = -np.inf
    real, cplx = outer_from_modulus(k, clamp), outer_from_modulus(k.astype(complex), clamp)
    assert real.clamp_count == cplx.clamp_count > 0
    assert np.array_equal(real.boundary.samples, cplx.boundary.samples)
    assert np.array_equal(real.log_spectrum, cplx.log_spectrum)
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


@pytest.mark.parametrize("log2n", range(4, 17))
def test_outer_matches_complex_transform_reference(log2n):
    n = 2**log2n
    rng = np.random.default_rng(log2n)
    plain = rng.standard_normal(n)
    zeros = plain.copy()
    zeros[rng.choice(n, size=max(1, n // 16), replace=False)] = -np.inf
    for k in (plain, zeros):
        out = outer_from_modulus(k)
        boundary, log_coeffs, taylor = _reference_outer(k)
        assert out.clamp_count == int(np.sum(np.isinf(k)))
        assert _rel_err(out.boundary.samples, boundary) <= 1e-12
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


@pytest.mark.parametrize("log2n", [*range(2, 17), 20])
def test_blocked_fft_matches_plain_transform_within_error_model(log2n):
    n = 2**log2n
    rng = np.random.default_rng(300 + log2n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    blocked = _blocked_fft(x)
    n1 = 2 ** (log2n // 2)
    assert blocked.shape == (n1, n // n1)
    want = np.fft.fft(x)
    eps_plain, eps_blocked = _transform_errors(n)
    # column-major order is natural bin order: C[k1, k2] is bin k1 + N1*k2
    dist = np.linalg.norm(blocked.T.ravel() - want)
    assert dist <= (eps_blocked + eps_plain) / (1 - eps_plain) * np.linalg.norm(want)


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
    w = res.w.values
    assert np.max(np.abs(np.abs(res.g.samples) * w - 1.0)) <= 1e-14
    assert res.gw_deviation <= 1e-14


def test_hardy_factor_fft_budget(monkeypatch):
    # two leakage transforms, each two batched passes over all N points with
    # cores of N1 = 64 and N2 = 128, and one real transform pair for the outer
    # factor; each read of g's Taylor data costs one more, full-length, transform
    n = 2**13
    f = from_taylor([1.0, 0.5, 0.25], n)
    counts = collections.Counter()
    passes = []  # (core length, points covered) of each complex forward transform
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(a, *args, _name=name, _kernel=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            if _name == "fft":
                passes.append((np.shape(a)[kwargs.get("axis", -1)], np.size(a)))
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    res = hardy_factor(f, 64)
    assert [counts[k] for k in ("fft", "ifft", "rfft", "irfft")] == [4, 0, 1, 1]
    assert passes == [(64, n), (128, n)] * 2
    first = res.g.taylor()
    assert counts["fft"] == 5 and passes[-1] == (n, n)
    assert np.array_equal(res.g.taylor(), first)
    assert counts["fft"] == 6
    assert sum(counts.values()) == 8


def test_hardy_factor_traced_peak_per_sample():
    # a rescaled input keeps the most: g and h, the weight and the log spectrum,
    # about 48 bytes a sample; a normalized copy of the input would add 16 to each
    # figure, and a per-sample region array 8
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
    assert (peak - start) / n <= 84
    assert (kept - start) / n <= 50


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
    counts = layout.counts()
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
        assert np.array_equal(layout.expand(np.arange(m + 2)), region)
        assert np.array_equal(layout.counts(), np.bincount(region, minlength=m + 2))


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
    ku = layout.counts()[1:] * (np.finfo(float).eps / 2)
    gamma = ku / (1.0 - ku)
    assert np.all(np.abs(masses - exact) <= gamma * exact)
    binned = np.bincount(region, weights=energy, minlength=m + 2)[1:]
    assert np.all(np.abs(masses - binned) <= 2.0 * gamma * exact)
    w = build_circle_weight(prof, layout)
    assert np.array_equal(w.values, w.region_values[region])
    rep = check_log_integrable(w.values, layout)
    logs = np.log(np.maximum(w.values, 1.0))
    shells = np.arange(2, m + 1, dtype=float)
    bound = 2.0 * float(np.sum(np.log(shells) / shells**2)) \
        + float(np.sum(logs[region == m + 1]) / n)
    assert rep.integral_value == float(np.mean(logs))
    assert rep.comparison_bound == bound


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


def test_projection_onto_shifted_space():
    n = 2**12
    one = constant_function(n)
    z = coordinate_function(n)
    out = project_onto_bH2(one, inner_check(z))
    assert np.max(np.abs(out.projection.samples)) <= 1e-12
    assert out.distance == pytest.approx(1.0, abs=1e-12)


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
