"""Boundary-grid Hardy space core.

Functions on the circle are sampled at the midpoint grid
theta_j = 2*pi*(j + 1/2)/N (wrapped to (-pi, pi]), N a power of two.  The
midpoint placement means the angle zero, where the weight construction
accumulates, is never itself a sample.  Fourier data uses the unitary-mean
convention: coefficient m is (1/N) sum_j samples_j exp(-i m theta_j) for
m in [-N/2, N/2), so the squared 2-norm is both the mean squared sample
and the summed squared spectrum.

The outer synthesis takes the real transform of the prescribed log-modulus
k and forms its harmonic conjugate c on the grid by multiplying the
positive bins by -i (the zero and Nyquist bins are dropped) and
transforming back.  The boundary samples are exp(k) * (cos c + i sin c), so
their log-modulus is k itself, sample for sample, and the boundary modulus
matches the prescription to the rounding of exp.  The analytic completion
k + i c, whose power-series coefficients come from the same real transform
(doubled on the positive bins), becomes an explicit polynomial in z, built
on first use, for evaluation anywhere in the closed disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidInput, InvalidWeight, NotInner, ScaleOverflow
from .seq_core import SUFFIX_FLOOR, TailProfile, profile_from_energies

__all__ = [
    "GridFunction",
    "ArcLayout",
    "CircleWeight",
    "OuterFunction",
    "LogIntegralReport",
    "HardyFactorization",
    "RadialDecayReport",
    "InnerFunction",
    "ProjectionResult",
    "grid_thetas",
    "eval_series",
    "constant_function",
    "coordinate_function",
    "from_taylor",
    "analytic_project",
    "neg_mode_leakage",
    "arc_layout",
    "arc_energies",
    "build_circle_weight",
    "check_log_integrable",
    "outer_from_modulus",
    "hardy_factor",
    "radial_decay_check",
    "inner_check",
    "project_onto_bH2",
]

EXP_OVERFLOW_LIMIT = 700.0  # exp argument beyond which float64 overflows
DEFAULT_CLAMP = 1e-12
ANALYTIC_TOL = 1e-10  # negative-mode fraction above which hardy_factor rejects its input
INNER_TOL = 1e-8      # boundary, interior and analyticity slack of an inner function
RADIAL_DEPTHS = 12    # radial_decay_check samples the radii 1 - 2^-j, j = 1..RADIAL_DEPTHS


def _cis(angle: np.ndarray) -> np.ndarray:
    """exp(i*angle), written through the real and imaginary views of one array."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _midpoint_angles(j, n: int) -> np.ndarray:
    """The angles 2*pi*(j + 1/2)/N of the sample indices j, not wrapped, as a fresh array."""
    th = np.asarray(j).astype(float)
    th += 0.5
    th *= 2.0 * np.pi
    th /= n
    return th


def grid_thetas(n: int) -> np.ndarray:
    """Midpoint sample angles in (-pi, pi]."""
    th = _midpoint_angles(np.arange(n), n)
    return np.subtract(th, 2.0 * np.pi, out=th, where=th > np.pi)


def _block_size(n_coeffs: int) -> int:
    """Coefficients per Horner block: 64 up to 2^14 of them, doubling with the length to 256."""
    return int(np.clip(2.0 ** ((n_coeffs - 1).bit_length() - 8), 64, 256))


def eval_series(coeffs, z):
    """The power series sum_k coeffs[k] z^k (ascending order) at the points z.

    The package's one series evaluator: the outer function, the boundary
    factors' Taylor series and the half-plane transfer all evaluate here.
    Blocked Horner: each block of B coefficients is one product with the
    table of z^0..z^(B-1), and the blocks are combined by Horner in z^B, so
    the error stays within about (B + ceil(L/B)) eps sum_k |c_k| |z|^k for L
    coefficients.  A scalar z gives a scalar, an array keeps its shape.
    """
    c = np.asarray(coeffs)
    z = np.asarray(z)
    pts = z.ravel()
    length = max(c.size, 1)
    b = min(_block_size(length), length)
    dtype = np.result_type(c, pts, 1.0)
    blocks = np.zeros(-(-length // b) * b, dtype=dtype)
    blocks[:c.size] = c
    blocks = blocks.reshape(-1, b)
    powers = np.empty((pts.size, b), dtype=dtype)
    powers[:, 0] = 1.0
    powers[:, 1:] = pts[:, None]
    np.cumprod(powers, axis=1, out=powers)
    z_b = powers[:, -1] * pts
    acc = powers @ blocks[-1]
    for block in blocks[-2::-1]:
        acc = acc * z_b + powers @ block
    return acc.reshape(z.shape)[()]


class GridFunction:
    """Complex boundary samples on the midpoint circle grid."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex)
        n = arr.size
        if arr.ndim != 1 or n < 4 or n & (n - 1):
            raise InvalidInput("samples must be a 1-d array whose length is a power of two >= 4")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("samples must be finite")
        self.samples = arr

    @property
    def n(self) -> int:
        return self.samples.size

    def spectrum(self) -> np.ndarray:
        """Fourier coefficients in bin order: modes 0..N/2-1 then -N/2..-1."""
        n = self.n
        spec = np.fft.fft(self.samples)
        spec *= _cis((-np.pi / n) * np.fft.fftfreq(n, 1.0 / n))
        spec /= n
        return spec

    @classmethod
    def from_spectrum(cls, coefficients) -> "GridFunction":
        coefficients = np.asarray(coefficients, dtype=complex)
        n = coefficients.size
        raw = coefficients * _cis((np.pi / n) * np.fft.fftfreq(n, 1.0 / n))
        raw *= n
        return cls(np.fft.ifft(raw))

    def taylor(self) -> np.ndarray:
        """Nonnegative-mode coefficients, the power-series view of the function."""
        return self.spectrum()[: self.n // 2].copy()

    @property
    def norm_sq(self) -> float:
        sq = np.abs(self.samples)
        return float(np.mean(np.square(sq, out=sq)))

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq))


def constant_function(n: int) -> GridFunction:
    return GridFunction(np.ones(n, dtype=complex))


def coordinate_function(n: int) -> GridFunction:
    return GridFunction(np.exp(1j * grid_thetas(n)))


def from_taylor(coeffs, n: int) -> GridFunction:
    """Sample a power series (coefficient list) on the n-point grid."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size > n // 2:
        raise InvalidInput("power series longer than the analytic bandwidth of the grid")
    coefficients = np.zeros(n, dtype=complex)
    coefficients[: c.size] = c
    return GridFunction.from_spectrum(coefficients)


def analytic_project(h: GridFunction) -> GridFunction:
    """Zero the negative-mode bins; the orthogonal projection onto the analytic part.

    The midpoint twiddle is diagonal, so zeroing bins of the raw transform
    is the same projection without it.
    """
    raw = np.fft.fft(h.samples)
    raw[h.n // 2:] = 0.0
    return GridFunction(np.fft.ifft(raw))


def neg_mode_leakage(h: GridFunction) -> float:
    """2-norm fraction of the spectrum sitting in negative-mode bins.

    The midpoint twiddle is unimodular and the 1/N scale cancels in the
    ratio, so the raw transform serves, and it is taken by ``_blocked_fft``
    as an N1 x N2 array whose entry [k1, k2] is raw bin k1 + N1*k2.  The
    negative-mode bins N/2..N-1 are then exactly the columns k2 >= N2/2,
    the upper half of the last axis, so the bins are never put back in order.
    """
    return _negative_fraction(_blocked_fft(h.samples))


def _blocked_fft(x: np.ndarray) -> np.ndarray:
    """The raw transform of N = N1*N2 samples as an (N1, N2) array C, C[k1, k2] = X[k1 + N1*k2].

    Bailey's four-step transform without the final transpose: a length-N1
    pass down the columns of x viewed as (N1, N2), the twiddle
    exp(-2i pi k1*n2/N), and a length-N2 pass along the rows, written in
    place.  N1 = 2^floor(log2(N)/2), so every row fits in cache and no N-long
    scratch is needed.  With n2 = a + S*b, S = 2^floor(log2(N2)/2), the
    twiddle is the product of an N1 x S and an N1 x N2/S table of roots.
    """
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


# the smallest norm whose square is a normal float64
_NORM_FLOOR = np.sqrt(np.finfo(float).tiny)


def _negative_fraction(coefficients: np.ndarray) -> float:
    """2-norm fraction of the coefficients in the upper half of the last axis."""
    with np.errstate(over="ignore"):
        total = np.linalg.norm(coefficients)
    # the squares overflow or underflow, and the ratio depends only on the scaled moduli
    if not _NORM_FLOOR <= total < np.inf:
        coefficients = np.abs(coefficients)
        peak = coefficients.max()
        if peak == 0.0:
            return 0.0
        coefficients /= peak
        total = np.linalg.norm(coefficients)
    upper = coefficients[..., coefficients.shape[-1] // 2:]
    # one dot product per row: a norm of the strided upper half would copy it first
    return float(np.sqrt(np.sum(np.vecdot(upper, upper).real)) / total)


# ---------------------------------------------------------------------------
# arc shells


@dataclass(frozen=True)
class ArcLayout:
    """Partition of the grid: outer region, arc shells 1..M, residual core.

    Sample j lies in region 0 for |theta_j| >= 1, region n for the shell
    1/(n+1) <= |theta_j| < 1/n, and region M+1 for the core |theta_j| < 1/(M+1).
    Each region is one arc on either side of theta = 0, and sample N-1-j
    (theta = -theta_j exactly, and the same region after rounding) shares
    sample j's region, so the layout is M + 2 run lengths: ``half_counts[r]``
    samples of region r on 0 < theta < pi.  In sample order the runs are
    core, M, ..., 1, outer, then outer, 1, ..., M, core.
    """

    n_samples: int
    max_shell: int
    half_counts: np.ndarray

    def counts(self) -> np.ndarray:
        return 2 * self.half_counts

    def expand(self, region_values) -> np.ndarray:
        """The per-sample array taking ``region_values[r]`` on region r."""
        v = np.asarray(region_values)
        return np.repeat(np.concatenate((v[::-1], v)),
                         np.concatenate((self.half_counts[::-1], self.half_counts)))


def arc_layout(n_samples: int, max_shell: int) -> ArcLayout:
    """The run lengths of the regions, in O(M) work for M shells.

    On the half grid 0 < theta_j < pi the region index falls as j grows, so
    the samples of region >= n are the first ones, up to the first j where
    the rule fails: theta_j < 1 for n = 1, floor(1/theta_j) >= n otherwise,
    with theta_j formed by ``_midpoint_angles``, as in ``grid_thetas``.  Each such j
    lies within a sample of N/(2 pi n) - 1/2, so the rule is evaluated on a
    6-sample window there.  Midpoint angles are irrational multiples of pi,
    so no sample sits on a shell boundary and none sits at angle zero.
    """
    if max_shell < 1:
        raise InvalidInput("need at least one shell")
    n = np.arange(1, max_shell + 2)
    start = np.maximum(np.floor(n_samples / (2.0 * np.pi * n) - 0.5).astype(int) - 2, 0)
    th = _midpoint_angles(start[:, None] + np.arange(6), n_samples)
    below_one = th[0] < 1.0
    np.divide(1.0, th, out=th)
    np.floor(th, out=th)
    inside = th >= n[:, None]
    inside[0] = below_one
    at_least = start + np.count_nonzero(inside, axis=1)  # half-grid samples of region >= n
    return ArcLayout(n_samples, max_shell, -np.diff(at_least, prepend=n_samples // 2, append=0))


def arc_energies(f: GridFunction, layout: ArcLayout) -> TailProfile:
    """Per-shell mean-square mass of the boundary samples, core mass as tail.

    Each of the layout's 2(M + 2) runs is summed in sample order by one
    ``reduceat`` over the nonempty runs, and a region's mass is its left run
    plus its right run.  The terms are nonnegative, so in any summation order
    a region of n_r samples and exact mass s_r comes out within
    gamma_{n_r} s_r.  Shells narrower than the sample spacing may contain no
    samples at all; they get zero mass, which contributes nothing to either
    side of the factorization's bounds (``ArcLayout.counts`` tells how many
    are empty).
    """
    if layout.n_samples != f.n:
        raise InvalidInput("layout and function grid sizes differ")
    M = layout.max_shell
    energy = np.abs(f.samples)
    np.square(energy, out=energy)
    energy /= f.n
    lengths = np.concatenate((layout.half_counts[::-1], layout.half_counts))
    full = lengths > 0
    runs = np.zeros(lengths.size)
    runs[full] = np.add.reduceat(energy, (np.cumsum(lengths) - lengths)[full])
    sums = runs[M + 1::-1] + runs[M + 2:]  # region r: runs M + 1 - r and M + 2 + r
    return profile_from_energies(sums[1: M + 1], float(sums[M + 1]))


@dataclass(frozen=True)
class CircleWeight:
    values: np.ndarray          # the weight at each grid sample, real and >= 1
    region_values: np.ndarray   # value on outer, shells 1..M, core
    floored: int                # suffix sums clamped before rooting


def build_circle_weight(profile: TailProfile, layout: ArcLayout) -> CircleWeight:
    """Weight 1 on |theta| >= 1/2, min(r_{n-1}^(-1/4), n) on shell n >= 2.

    The core gets the same formula continued one step past the last shell.
    Requires every used suffix sum at most 1, which holds for profiles of
    functions with 2-norm at most 1.  Suffix sums below SUFFIX_FLOOR (zero
    among them) are floored and counted; the cap min(..., n) then takes over.
    """
    M = layout.max_shell
    if profile.n_terms != M:
        raise InvalidInput("profile length does not match the layout's shell count")
    r_used = profile.suffix_sums[1: M + 1]  # r_1 .. r_M
    floored = int(np.sum(r_used < SUFFIX_FLOOR))
    r_used = np.maximum(r_used, SUFFIX_FLOOR)
    # allow rounding-level excess over 1 from a unit-norm input; the weight
    # then dips below 1 by well under the validator's 1e-12 slack
    if np.any(r_used > 1.0 + 1e-12):
        raise InvalidWeight("suffix sums exceed 1; normalize the input to unit 2-norm")
    region_values = np.ones(M + 2)
    shells = np.arange(2, M + 1, dtype=float)
    region_values[2: M + 1] = np.minimum(r_used[: M - 1] ** -0.25, shells)
    region_values[M + 1] = min(r_used[M - 1] ** -0.25, float(M + 1))
    return CircleWeight(layout.expand(region_values), region_values, floored)


@dataclass(frozen=True)
class LogIntegralReport:
    integral_value: float     # mean of |log(1/w)| over the circle
    comparison_bound: float   # 2 sum log(n)/n^2 over the shells, plus the core part


def check_log_integrable(w: np.ndarray, layout: ArcLayout) -> LogIntegralReport:
    """Mean absolute log of 1/w for the real grid weight w, with its summable majorant.

    The bound is meaningful for weights produced by ``build_circle_weight``;
    for arbitrary w >= 1 only ``integral_value`` is.
    """
    if np.min(w) < 1.0 - 1e-12:
        raise InvalidWeight("weight must be >= 1 everywhere")
    logs = np.maximum(w, 1.0)
    np.log(logs, out=logs)
    integral = float(np.mean(logs))
    shells = np.arange(2, layout.max_shell + 1, dtype=float)
    c = layout.half_counts[-1]  # the core is the first c and the last c samples
    core = np.concatenate((logs[:c], logs[w.size - c:]))
    bound = 2.0 * float(np.sum(np.log(shells) / shells**2)) + float(np.sum(core) / w.size)
    return LogIntegralReport(integral, bound)


# ---------------------------------------------------------------------------
# outer synthesis


@dataclass(frozen=True)
class OuterFunction:
    """Zero-free analytic function with prescribed boundary modulus.

    ``boundary`` holds the grid samples and ``log_spectrum`` the real
    transform of the (clamped) log-modulus over N, modes 0..N/2.
    ``log_coeffs`` are the power-series coefficients (degree N/2) of the
    analytic completion A, so the function itself is exp(A(z)) anywhere in
    the closed disk; they are built from ``log_spectrum`` on first access.
    """

    boundary: GridFunction
    log_spectrum: np.ndarray
    clamp_count: int

    @cached_property
    def log_coeffs(self) -> np.ndarray:
        # bin m carries exp(2i pi m j/N) = z_j^m e^{-i pi m/N} for m < N/2, and
        # the Nyquist bin carries (-1)^j = -i z_j^{N/2}; the positive modes count twice
        half = self.boundary.n // 2
        coeffs = self.log_spectrum.copy()
        coeffs[1:half] *= 2.0
        coeffs[:half] *= _cis((-np.pi / self.boundary.n) * np.arange(half))
        coeffs[half] *= -1j
        return coeffs

    def __call__(self, z):
        return np.exp(eval_series(self.log_coeffs, z))


def outer_from_modulus(log_modulus, clamp: float = DEFAULT_CLAMP) -> OuterFunction:
    """Synthesize the outer function whose boundary modulus is exp(log_modulus).

    Takes a sample array; -inf entries (zeros of the prescribed modulus) are
    legal.  Samples below log(clamp) are lifted to log(clamp) and counted.
    The boundary modulus of the result reproduces the (clamped) prescription
    at every sample to rounding error.  A complex array must be real to
    rounding, and its real part is used.
    """
    vals = np.asarray(log_modulus)
    if vals.ndim != 1 or vals.size < 4 or vals.size & (vals.size - 1):
        raise InvalidInput("log-modulus must have power-of-two length >= 4")
    if np.iscomplexobj(vals):
        finite = vals.real[np.isfinite(vals.real)]
        scale = 1.0 + (float(np.max(np.abs(finite))) if finite.size else 0.0)
        imag = vals.imag[np.isfinite(vals.imag)]
        if imag.size != vals.size or (imag.size and np.max(np.abs(imag)) > 1e-12 * scale):
            raise InvalidInput("log-modulus must be real")
        vals = vals.real
    vals = vals.astype(float, copy=False)
    top = float(np.max(vals))  # NaN propagates through the maximum, and +inf is it
    if np.isnan(top) or top == np.inf:
        raise InvalidInput("log-modulus must be bounded above and not NaN")
    floor = np.log(clamp)
    clamp_count = int(np.count_nonzero(vals < floor))
    k = np.maximum(vals, floor)  # a fresh array: the caller's is never written
    n = k.size
    # the transforms of the boundary sum N samples of size up to exp(peak)
    limit = min(EXP_OVERFLOW_LIMIT, float(np.log(np.finfo(float).max) - np.log(n)))
    peak = max(top, float(floor))
    if peak > limit:
        raise ScaleOverflow(limit - peak)

    spec = np.fft.rfft(k)  # modes 0..N/2 of the real log-modulus
    log_spectrum = spec / n
    # harmonic conjugate c: -i on the positive modes, zero and Nyquist dropped
    spec *= -1j
    spec[0] = spec[n // 2] = 0.0
    samples = _cis(np.fft.irfft(spec, n))
    np.exp(k, out=k)
    samples.real *= k
    samples.imag *= k
    return OuterFunction(boundary=GridFunction(samples), log_spectrum=log_spectrum,
                         clamp_count=clamp_count)


# ---------------------------------------------------------------------------
# the factorization pipeline


@dataclass(frozen=True)
class HardyFactorization:
    """f = g * h on the boundary grid, g outer with modulus 1/w.

    ``source`` is the input as given and ``scale`` the factor it was divided
    by to reach unit norm; the factorization is of the normalized input
    ``f``, which is rebuilt from ``source`` and ``scale`` on first read, so
    the pipeline keeps no copy of it.  ``star_rhs`` is the norm majorant
    head + weighted tail series + core term, and ``gw_deviation`` is
    max | |g| w - 1 | over the grid.
    """

    source: GridFunction
    g: GridFunction
    h: GridFunction
    w: CircleWeight
    outer: OuterFunction
    profile: TailProfile
    layout: ArcLayout
    scale: float
    gw_deviation: float
    h_norm_sq: float
    star_rhs: float
    h_leakage: float
    log_report: LogIntegralReport

    @cached_property
    def f(self) -> GridFunction:
        return self.source if self.scale == 1.0 else GridFunction(self.source.samples / self.scale)


def _weighted_tail_series(profile: TailProfile) -> float:
    # sum over shells n >= 2 of a_n^2 / sqrt(r_{n-1}), skipping massless shells
    a2 = profile.magnitudes_sq[1:]
    r_prev = np.maximum(profile.suffix_sums[1:-1], SUFFIX_FLOOR)
    return float(np.sum(np.where(a2 > 0, a2 / np.sqrt(r_prev), 0.0)))


def hardy_factor(f: GridFunction, max_shell: int) -> HardyFactorization:
    """Factor an analytic boundary function against the arc-shell weight.

    Pipeline: arc masses -> weight -> log-integrability report -> outer
    function with modulus 1/w -> h = f/g on the grid.  The input must be
    analytic to ANALYTIC_TOL (negative-mode fraction) and not the zero
    function; it is divided by its norm when that norm exceeds 1.
    """
    sq = np.abs(f.samples)  # |f|^2, and on the rescale path |fn|^2 in the same buffer
    norm_sq = float(np.mean(np.square(sq, out=sq)))
    if norm_sq == 0.0:
        raise InvalidInput("cannot factor the zero function")
    leak = neg_mode_leakage(f)
    if leak > ANALYTIC_TOL:
        raise InvalidInput(f"input is not analytic: negative-mode fraction {leak:.2e}")
    scale = max(1.0, float(np.sqrt(norm_sq)))
    if scale > 1.0:
        fn = GridFunction(f.samples / scale)
        norm_sq = float(np.mean(np.square(np.abs(fn.samples, out=sq), out=sq)))
    else:
        fn = f
    del sq

    layout = arc_layout(fn.n, max_shell)
    profile = arc_energies(fn, layout)
    weight = build_circle_weight(profile, layout)
    log_report = check_log_integrable(weight.values, layout)
    # the weight takes M + 2 values, so their logs are taken once each
    outer = outer_from_modulus(layout.expand(-np.log(weight.region_values)))
    g = outer.boundary
    h = GridFunction(fn.samples / g.samples)
    del fn  # the result rebuilds it from f and scale when it is read

    dev = np.abs(g.samples)
    dev *= weight.values
    dev -= 1.0
    gw_dev = float(np.max(np.abs(dev, out=dev)))
    core_term = float(profile.tail / np.sqrt(max(profile.suffix_sums[-1], SUFFIX_FLOOR))) \
        if profile.tail > 0 else 0.0
    star_rhs = norm_sq + _weighted_tail_series(profile) + core_term
    return HardyFactorization(
        source=f, g=g, h=h, w=weight, outer=outer, profile=profile, layout=layout,
        scale=scale, gw_deviation=gw_dev, h_norm_sq=h.norm_sq, star_rhs=star_rhs,
        h_leakage=neg_mode_leakage(h), log_report=log_report,
    )


# ---------------------------------------------------------------------------
# diagnostics on analytic representations


@dataclass(frozen=True)
class RadialDecayReport:
    values: np.ndarray
    ratio: float  # last value over first


def radial_decay_check(g: Callable) -> RadialDecayReport:
    """Evaluate |g| at the radii 1 - 2^-j, j = 1..RADIAL_DEPTHS, along the positive axis.

    ``g`` is a point evaluator, such as an OuterFunction.
    """
    j = np.arange(1, RADIAL_DEPTHS + 1, dtype=float)
    radii = 1.0 - 2.0**-j
    values = np.abs(g(radii))
    ratio = float(values[-1] / values[0]) if values[0] != 0.0 else float("inf")
    return RadialDecayReport(values, ratio)


@dataclass(frozen=True)
class InnerFunction:
    """A function ``inner_check`` accepted, with the two measures it judged."""

    b: GridFunction
    boundary_dev: float   # max | |b| - 1 | on the grid
    interior_max: float   # max |b| over a coarse polar sample grid


def inner_check(b: GridFunction) -> InnerFunction:
    """The one gate for inner functions, to INNER_TOL: InvalidInput unless b is analytic,
    NotInner unless it is unimodular on the grid and at most 1 on a coarse interior grid."""
    spectrum = b.spectrum()  # the twiddle and the 1/N scale leave the leakage ratio as it is
    if _negative_fraction(spectrum[None, :]) > INNER_TOL:
        raise InvalidInput("candidate is not analytic to tolerance")
    dev = float(np.max(np.abs(np.abs(b.samples) - 1.0)))
    radii = np.linspace(0.15, 0.9, 6)
    angles = np.exp(1j * 2.0 * np.pi * np.arange(64) / 64)
    pts = (radii[:, None] * angles[None, :]).ravel()
    interior_max = float(np.max(np.abs(eval_series(spectrum[: b.n // 2], pts))))
    if dev > INNER_TOL or not interior_max <= 1.0 + INNER_TOL:
        raise NotInner(f"boundary deviation {dev:.2e}, interior max {interior_max:.6g}")
    return InnerFunction(b, dev, interior_max)


@dataclass(frozen=True)
class ProjectionResult:
    projection: GridFunction
    distance: float


def project_onto_bH2(f: GridFunction, inner: InnerFunction) -> ProjectionResult:
    """Orthogonal projection of f onto the shifted analytic subspace b * H2.

    ``inner`` is ``inner_check``'s verdict on b, which is not checked again.
    For unimodular-boundary b this is b P+(conj(b) f).  The distance from
    the constant function 1 is positive for every nonconstant inner b,
    which exhibits the subspace as proper.
    """
    b = inner.b
    if f.n != b.n:
        raise InvalidInput("f and b must share a grid")
    inner_part = analytic_project(GridFunction(np.conj(b.samples) * f.samples))
    proj = GridFunction(b.samples * inner_part.samples)
    distance = float(np.sqrt(np.mean(np.abs(f.samples - proj.samples) ** 2)))
    return ProjectionResult(proj, distance)
