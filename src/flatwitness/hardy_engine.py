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
(doubled on the positive bins), is kept as an explicit polynomial in z for
evaluation anywhere in the closed disk.  The arc-shell weight depends only
on |theta|, so its log-modulus is mirrored (sample N-1-j equals sample j),
its spectrum is real and c is odd: such an input is synthesized on the half
grid, by a DCT-II and a DST-III of length N/2 that are one real transform
each (Makhoul's method), and its second half is the conjugate mirror of
the first.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
    """Complex boundary samples on the midpoint circle grid, any finite ones: the norms read
    one ``_scaled_parts`` sum, so they hold where the squares overflow or underflow."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        # contiguous, so the norms can read the real and imaginary parts as one float view
        arr = np.ascontiguousarray(samples, dtype=complex)
        n = arr.size
        if arr.ndim != 1 or n < 4 or n & (n - 1):
            raise InvalidInput("samples must be a 1-d array whose length is a power of two >= 4")
        # a NaN or an infinity makes the sum non-finite, so the elementwise check runs
        # only for the rare finite samples whose sum overflows
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        if not np.isfinite(total) and not np.all(np.isfinite(arr)):
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
        _, peak, total = _scaled_parts(self.samples)
        return peak * peak * (total / self.n)

    @property
    def norm(self) -> float:
        _, peak, total = _scaled_parts(self.samples)
        return peak * float(np.sqrt(total / self.n))


def _sum_sq(v: np.ndarray) -> float:
    """The sum of v_j^2 over every entry of a real array, by ``np.einsum``.

    einsum's own sum-of-products loop never enters BLAS, so the sum, unlike
    a BLAS dot product's, does not depend on the BLAS thread count; it reads
    a strided view in place, with no per-sample buffer.
    """
    axes = [*range(v.ndim)]
    return float(np.einsum(v, axes, v, axes, []))


def _unit_deviation(x: np.ndarray) -> float:
    """max_j |x_j - 1| of a real array from its extremes: fl(x - 1) rises with x and
    fl(1 - x) = -fl(x - 1), so this is the elementwise maximum bit for bit."""
    return max(float(np.max(x)) - 1.0, 1.0 - float(np.min(x)))


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
    blocks = np.empty(_blocked_shape(h.n), dtype=complex)
    return _negative_fraction(_blocked_fft(h.samples, blocks))


# numpy copies a broadcast operand into a buffer of this many elements per ufunc call,
# 8192 by default: two halves twiddling at once would hold two of 128 KiB, which at
# N = 2^16 is more than both tables; 1024 is 16 KiB each
_TWIDDLE_BUFSIZE = 1024


_ON_HELPER = threading.local()  # is_helper is set on the helper thread alone


def _mark_helper() -> None:
    _ON_HELPER.is_helper = True


def _start_helper() -> None:
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="flatwitness-fft",
                                 initializer=_mark_helper)


# the one helper thread, started on first use; a forked child has no copy of the
# parent's thread, so it gets a helper of its own
_start_helper()
os.register_at_fork(after_in_child=_start_helper)


def _alongside(here: Callable, there: Callable) -> tuple:
    """(here(), there()), with there() on the helper while here() runs on the calling thread.

    there() runs in a copy of the caller's context, so numpy's errstate holds
    there too, and it is always waited for: when both raise, there()'s
    exception is raised, with here()'s as its ``__context__``.  Called on the
    helper itself (the analyticity gate of ``hardy_factor`` runs there),
    there() and then here() run in turn on it, with the same precedence: a task
    queued behind the running one would wait for ever.
    """
    if getattr(_ON_HELPER, "is_helper", False):
        last = there()
        return here(), last
    done = _HELPER.submit(contextvars.copy_context().run, there)
    try:
        first = here()
    finally:
        last = done.result()
    return first, last


def _in_halves(task: Callable[[int, int], None], size: int) -> None:
    """task(0, size/2) on the calling thread alongside task(size/2, size) (``_alongside``)."""
    half = size // 2
    _alongside(lambda: task(0, half), lambda: task(half, size))


def _blocked_shape(n: int) -> tuple[int, int]:
    """(N1, N2) of ``_blocked_fft`` for N samples: N1 = 2^floor(log2(N)/2), N2 = N/N1."""
    n1 = 1 << ((n.bit_length() - 1) // 2)
    return n1, n // n1


def _blocked_fft(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The raw transform of N = N1*N2 samples as an (N1, N2) array C, C[k1, k2] = X[k1 + N1*k2].

    Bailey's four-step transform without the final transpose: a length-N1
    pass down the columns of x viewed as (N1, N2), the twiddle
    exp(-2i pi k1*n2/N), and a length-N2 pass along the rows, written in
    place into ``blocks``, a complex array of ``_blocked_shape(N)`` that the
    caller allocates.  N1 = 2^floor(log2(N)/2), so every row fits in cache and
    no N-long scratch is needed.  With n2 = a + S*b, S = 2^floor(log2(N2)/2), the
    twiddle is the product of an N1 x S and an N1 x N2/S table of roots,
    built once.  Each pass runs in two halves, the column pass over columns
    and the twiddle and row pass over rows, by ``_in_halves``; every column
    and row is transformed alone, so C is the one-thread result bit for bit.
    """
    n = x.size
    n1, n2 = blocks.shape
    s = 1 << ((n2.bit_length() - 1) // 2)
    grid = x.reshape(n1, n2)

    def columns(lo, hi):
        np.fft.fft(grid[:, lo:hi], axis=0, out=blocks[:, lo:hi])

    _in_halves(columns, n2)
    k1 = np.arange(n1)[:, None, None]
    step = -2.0 * np.pi / n
    low = _cis(step * (k1 * np.arange(s)))
    high = _cis(step * (k1 * (s * np.arange(n2 // s))[:, None]))
    rows = blocks.reshape(n1, n2 // s, s)

    def twiddled_rows(lo, hi):
        rows[lo:hi] *= low[lo:hi]
        rows[lo:hi] *= high[lo:hi]
        np.fft.fft(blocks[lo:hi], axis=1, out=blocks[lo:hi])

    with np.errstate():  # the scope of setbufsize
        np.setbufsize(_TWIDDLE_BUFSIZE)
        _in_halves(twiddled_rows, n1)
    return blocks


_TINY = np.finfo(float).tiny


def _scaled_parts(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The float view of complex x, the divisor applied to it, and the sum of its squares.

    When that sum overflows, or its mean over the entries of x falls below the
    smallest normal float, the view is divided by its largest part, or by that
    float if it is larger (Blue's scaled 2-norm), so no square overflows and
    the largest is not lost; a NaN or an infinite entry makes the sum NaN.
    """
    parts = x.view(float)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _sum_sq(parts)
        if _TINY * x.size <= total < np.inf:
            return parts, 1.0, total
        # a NaN maximum stays NaN as max's first argument; numpy's complex division by a
        # real is the product with its reciprocal, which a subnormal divisor would overflow
        peak = max(float(parts.max()), -float(parts.min()), _TINY)
        parts = parts * (1.0 / peak)
        return parts, peak, _sum_sq(parts)


def _negative_fraction(coefficients: np.ndarray) -> float:
    """2-norm fraction of the coefficients in the upper half of the last axis.

    Both norms are ``_sum_sq`` of the float view (``_scaled_parts``), in which
    the upper half of the complex last axis is the upper half of the float one.
    """
    parts, _, total = _scaled_parts(coefficients)
    if total == 0.0:
        return 0.0
    return float(np.sqrt(_sum_sq(parts[..., parts.shape[-1] // 2:])) / np.sqrt(total))


# ---------------------------------------------------------------------------
# arc shells


@dataclass(frozen=True)
class ArcLayout:
    """Partition of the grid: outer region, arc shells 1..M, residual core.

    Sample j lies in region 0 for |theta_j| >= 1, region n for the shell
    1/(n+1) <= |theta_j| < 1/n, and region M+1 for the core |theta_j| < 1/(M+1).
    Each region is one arc on either side of theta = 0.  The layout gives
    sample N-1-j sample j's region by construction: it is M + 2 run lengths,
    ``half_counts[r]`` samples of region r on 0 < theta < pi, mirrored.  The
    angles of ``grid_thetas`` are mirrored only to one rounding, so the layout
    is read from, and expands onto, the half grid alone; a region with no
    sample there has none at all.  In sample order the runs are
    core, M, ..., 1, outer, then outer, 1, ..., M, core.
    """

    n_samples: int
    max_shell: int
    half_counts: np.ndarray

    def expand_half(self, region_values) -> np.ndarray:
        """The samples j < N/2 taking ``region_values[r]`` on region r: the runs
        core, M, ..., 1, outer; sample N-1-j takes sample j's value."""
        return np.repeat(np.asarray(region_values)[::-1], self.half_counts[::-1])


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
    side of the factorization's bounds (the zeros of ``half_counts`` tell
    which are empty).
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
    """The arc-shell weight w >= 1 (to rounding); a function of |theta|, so mirrored."""

    log_half: np.ndarray        # log w at the samples j < N/2
    region_values: np.ndarray   # value on outer, shells 1..M, core
    floored: int                # suffix sums clamped before rooting


def build_circle_weight(profile: TailProfile, layout: ArcLayout) -> CircleWeight:
    """Weight 1 on |theta| >= 1/2, min(r_{n-1}^(-1/4), n) on shell n >= 2.

    The core gets the same formula continued one step past the last shell.
    Requires every used suffix sum at most 1, which holds for profiles of
    functions with 2-norm at most 1.  Suffix sums below SUFFIX_FLOOR (zero
    among them) are floored and counted; the cap min(..., n) then takes over.
    Only the M + 2 region values are logged; the logs are expanded onto the half grid.
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
    return CircleWeight(layout.expand_half(np.log(region_values)), region_values, floored)


@dataclass(frozen=True)
class LogIntegralReport:
    integral_value: float     # mean of |log(1/w)| over the N samples of the circle
    comparison_bound: float   # 2 sum log(n)/n^2 over the shells, plus the core's part


def check_log_integrable(weight: CircleWeight, layout: ArcLayout) -> LogIntegralReport:
    """Mean absolute log of 1/w for a weight on the layout's regions, with its summable majorant.

    Every region that holds a sample must be at least 1 - 1e-12.  log max(w, 1)
    is max(log w, 0) on the half grid, and the sums run over it and then its
    mirror, the N samples in order.
    The bound is meaningful for weights produced by ``build_circle_weight``;
    for arbitrary w >= 1 only ``integral_value`` is.
    """
    if np.any((weight.region_values < 1.0 - 1e-12) & (layout.half_counts > 0)):
        raise InvalidWeight("weight must be >= 1 everywhere")
    half = np.maximum(weight.log_half, 0.0)
    integral = float(np.mean(np.concatenate((half, half[::-1]))))
    shells = np.arange(2, layout.max_shell + 1, dtype=float)
    core = half[: layout.half_counts[-1]]  # the first c samples, mirrored in the last c
    bound = 2.0 * float(np.sum(np.log(shells) / shells**2)) \
        + float(np.sum(np.concatenate((core, core[::-1]))) / layout.n_samples)
    return LogIntegralReport(integral, bound)


# ---------------------------------------------------------------------------
# outer synthesis


@dataclass(frozen=True)
class OuterFunction:
    """Zero-free analytic function with prescribed boundary modulus.

    ``boundary`` holds the grid samples.  ``log_coeffs`` are the
    power-series coefficients (degree N/2) of the analytic completion A of
    the (clamped) log-modulus, so the function itself is exp(A(z)) anywhere
    in the closed disk.  A mirrored log-modulus has A(conj z) = conj A(z):
    its coefficients are real and the one of degree N/2 is 0.
    """

    boundary: GridFunction
    log_coeffs: np.ndarray
    clamp_count: int

    def __call__(self, z):
        return np.exp(eval_series(self.log_coeffs, z))


def outer_from_modulus(log_modulus, clamp: float = DEFAULT_CLAMP) -> OuterFunction:
    """Synthesize the outer function whose boundary modulus is exp(log_modulus).

    Takes a sample array; -inf entries (zeros of the prescribed modulus) are
    legal.  Samples below log(clamp) are lifted to log(clamp) and counted.
    The boundary modulus of the result reproduces the (clamped) prescription
    at every sample to rounding error.  A complex array must be real to
    rounding, and its real part is used.  A log-modulus whose sample N-1-j
    equals sample j exactly is synthesized from its first half
    (``_mirrored_transform``, then ``_mirrored_outer``).
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
    n = vals.size
    half = n // 2
    # the transforms of the boundary sum N samples of size up to exp(peak)
    limit = min(EXP_OVERFLOW_LIMIT, float(np.log(np.finfo(float).max) - np.log(n)))
    peak = max(top, float(floor))
    if peak > limit:
        raise ScaleOverflow(limit - peak)
    if np.array_equal(vals[:half], vals[:half - 1:-1]):
        return _mirrored_outer(*_mirrored_transform(vals[:half], floor))

    clamp_count = int(np.count_nonzero(vals < floor))
    k = np.maximum(vals, floor)  # a fresh array: the caller's is never written
    spec = np.fft.rfft(k)  # modes 0..N/2 of the real log-modulus
    # bin m carries exp(2i pi m j/N) = z_j^m e^{-i pi m/N} for m < N/2, and
    # the Nyquist bin carries (-1)^j = -i z_j^{N/2}; the positive modes count twice
    log_coeffs = spec / n
    log_coeffs[1:half] *= 2.0
    log_coeffs[:half] *= _cis((-np.pi / n) * np.arange(half))
    log_coeffs[half] *= -1j
    # harmonic conjugate c: -i on the positive modes, zero and Nyquist dropped
    spec *= -1j
    spec[0] = spec[half] = 0.0
    samples = _cis(np.fft.irfft(spec, n))
    np.exp(k, out=k)
    samples.real *= k
    samples.imag *= k
    return OuterFunction(boundary=GridFunction(samples), log_coeffs=log_coeffs,
                         clamp_count=clamp_count)


def _mirrored_transform(first_half: np.ndarray, floor: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The transform step of the outer synthesis of a mirrored log-modulus k from its
    samples j < L = N/2: exp(k) and the conjugate c, both in v's order (below), the
    log coefficients and the clamp count.  ``_mirrored_outer`` writes the samples.

    k is even in theta, so its twiddled spectrum is real: 2 Y_m/N for the
    DCT-II Y_m = sum_{j<L} k_j cos(pi m (2j+1)/(2L)), with mode N/2 zero.
    Makhoul's method takes Y from one real transform V of length L of the
    permuted samples v = (k_0, k_2, ..., k_{L-2}, k_{L-1}, ..., k_3, k_1) and
    the twiddle W_m = e^{-i pi m/(2L)} V_m on modes 0..L/2 (``_twiddle_quarter``):
    Y_m = Re W_m and Y_{L-m} = -Im W_m.  The conjugate
    c_j = (2/L) sum_m Y_m sin(pi m (2j+1)/(2L)) is a DST-III, (-1)^j times the
    DCT-III of Y reversed, which is Makhoul's inverse: the spectrum
    -i conj(e^{-i pi m/(2L)} W_m) with mode 0 dropped, one inverse real
    transform of length L, and the permutation undone with the odd samples
    negated.  Of the spectrum, only the coefficients leave.
    """
    half = first_half.size
    quarter = half // 2
    clamp_count = 2 * int(np.count_nonzero(first_half < floor))
    v = np.empty(half)
    np.maximum(first_half[::2], floor, out=v[:quarter])
    np.maximum(first_half[::-2], floor, out=v[quarter:])
    spec = np.fft.rfft(v)
    _twiddle_quarter(spec)
    log_coeffs = np.empty(half + 1)  # 2 Y_0/N, then 4 Y_m/N, then 0 at N/2
    log_coeffs[: quarter + 1] = spec.real
    np.negative(spec.imag[quarter - 1:0:-1], out=log_coeffs[quarter + 1: half])
    log_coeffs[half] = 0.0
    log_coeffs *= 2.0 / half
    log_coeffs[0] *= 0.5
    _twiddle_quarter(spec)
    np.conjugate(spec, out=spec)
    spec *= -1j
    spec[0] = 0.0
    c = np.fft.irfft(spec, half)  # c_{2j} = c[j] and c_{2j+1} = -c[L-1-j]
    c[quarter:] *= -1.0  # now the conjugate in v's order
    np.exp(v, out=v)
    return v, c, log_coeffs, clamp_count


def _mirrored_outer(modulus: np.ndarray, conj: np.ndarray, log_coeffs: np.ndarray,
                    clamp_count: int) -> OuterFunction:
    """The boundary step: the outer function of ``_mirrored_transform``'s four results,
    its N samples modulus * e^{i conj}, with modulus and conj in v's order.

    They are written to the first half through strided views, the even samples
    on the calling thread and the odd ones alongside (``_alongside``); c is odd
    and k even, so sample N-1-j is the conjugate of sample j.
    """
    half = conj.size
    quarter = half // 2
    out = np.empty(2 * half, dtype=complex)
    first, mirror = out[:half], out[:half - 1:-1]  # mirror[j] is sample N-1-j

    def write(part, view):
        np.cos(conj[part], out=first.real[view])
        np.sin(conj[part], out=first.imag[view])
        first.real[view] *= modulus[part]
        first.imag[view] *= modulus[part]
        np.conjugate(first[view], out=mirror[view])

    # the views [::2] and [::-2] are samples 0, 2, ..., L-2 and L-1, ..., 3, 1
    _alongside(lambda: write(slice(None, quarter), slice(None, None, 2)),
               lambda: write(slice(quarter, None), slice(None, None, -2)))
    return OuterFunction(boundary=GridFunction(out), log_coeffs=log_coeffs,
                         clamp_count=clamp_count)


def _twiddle_quarter(spec: np.ndarray) -> None:
    """Multiply mode m = 0..Q of a spectrum of Q + 1 modes by e^{-i pi m/(4Q)} in place.

    As in ``_blocked_fft``, with m = a + S*b, S = 2^floor(log2(Q)/2), the
    root is the product of an S-root and a (Q/S + 1)-root table entry.
    """
    quarter = spec.size - 1
    s = 1 << ((quarter.bit_length() - 1) // 2)
    step = -np.pi / (4 * quarter)
    high = _cis(step * (s * np.arange(quarter // s + 1)))
    rows = spec[:quarter].reshape(-1, s)
    rows *= _cis(step * np.arange(s))
    rows *= high[:-1, None]
    spec[quarter] *= high[-1]


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

    The input must be analytic to ANALYTIC_TOL (negative-mode fraction) and
    not the zero function; it is divided by its ``_scaled_parts`` norm when
    that exceeds 1, before any stage reads it, so a large input is still
    normalized and its transform for the analyticity gate cannot overflow,
    while a tiny one is factored as it is.  A NaN leakage is refused.

    Stage order.  After the norm, ``_alongside`` runs the analyticity gate
    (the blocked transform of the normalized input, its negative-mode
    fraction and the refusal) on the helper thread while the calling thread
    takes the arc layout, the arc masses, the weight, the log-integrability
    report (both from the weight's half-grid log, which took M + 2 logs) and
    the outer synthesis's transform step (of -log w on the half grid).  Once
    both are done, ``_mirrored_outer`` writes the outer boundary g (in two
    halves, on both threads), then come the quotient h = f/g, |g| w on the
    first half, and h's leakage (both threads again).  The gate's exception
    wins over a stage's, so its refusal comes first, as when the gate ran first.
    """
    _, peak, total = _scaled_parts(f.samples)
    norm = peak * float(np.sqrt(total / f.n))
    if norm == 0.0:
        raise InvalidInput("cannot factor the zero function")
    if norm == np.inf:
        raise InvalidInput("the input's 2-norm overflows float64")
    scale = max(1.0, norm)
    if scale > 1.0:
        fn = GridFunction(f.samples / scale)
        norm_sq = fn.norm_sq
    else:
        fn, norm_sq = f, peak * peak * (total / f.n)
    # the gate's buffer is allocated here: in the helper's malloc arena this thread's later
    # N-long arrays could not reuse it (README, "Threads"); the gate empties the list, so
    # the buffer is freed before g is allocated
    buffer = [np.empty(_blocked_shape(fn.n), dtype=complex)]

    def gate():
        leak = _negative_fraction(_blocked_fft(fn.samples, buffer.pop()))
        if not leak <= ANALYTIC_TOL:
            raise InvalidInput(f"input is not analytic: negative-mode fraction {leak:.2e}")

    def stages():
        layout = arc_layout(fn.n, max_shell)
        profile = arc_energies(fn, layout)
        weight = build_circle_weight(profile, layout)
        log_report = check_log_integrable(weight, layout)
        # -log w is finite, at most rounding above 0 and mirrored by construction, so
        # none of outer_from_modulus's refusals or tests applies
        return layout, profile, weight, log_report, _mirrored_transform(
            -weight.log_half, np.log(DEFAULT_CLAMP))

    (layout, profile, weight, log_report, transform), _ = _alongside(stages, gate)
    outer = _mirrored_outer(*transform)
    del transform  # exp(k) and c, freed before h is allocated
    g = outer.boundary
    h = GridFunction(fn.samples / g.samples)
    del fn  # the result rebuilds it from f and scale when it is read

    # |g| and w are both mirrored exactly, so the extremes of |g| w are the first half's
    gw = np.abs(g.samples[: g.n // 2])
    gw *= layout.expand_half(weight.region_values)
    gw_dev = _unit_deviation(gw)
    del gw  # freed before h's leakage transform allocates its own N-long buffer
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
    NotInner unless it is unimodular on the grid and at most 1 on a coarse interior grid.

    The spectrum is taken of b divided by its ``_scaled_parts`` divisor, so no
    bin overflows; the interior maximum is the scaled series' times the divisor,
    a product of Python floats, which overflows to inf without a warning.  A b
    of unit scale (every inner function among them) is transformed as it is.
    """
    parts, divisor, _ = _scaled_parts(b.samples)
    scaled = b if divisor == 1.0 else GridFunction(parts.view(complex))
    spectrum = scaled.spectrum()  # the twiddle and the 1/N scale leave the leakage ratio as it is
    if not _negative_fraction(spectrum[None, :]) <= INNER_TOL:  # NaN included
        raise InvalidInput("candidate is not analytic to tolerance")
    dev = _unit_deviation(np.abs(b.samples))
    radii = np.linspace(0.15, 0.9, 6)
    angles = np.exp(1j * 2.0 * np.pi * np.arange(64) / 64)
    pts = (radii[:, None] * angles[None, :]).ravel()
    interior_max = float(np.max(np.abs(eval_series(spectrum[: b.n // 2], pts)))) * divisor
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
    which exhibits the subspace as proper.  An f whose squared samples, which
    the distance sums, sum past float64 is refused.
    """
    b = inner.b
    if f.n != b.n:
        raise InvalidInput("f and b must share a grid")
    if _scaled_parts(f.samples)[1] > 1.0:  # divided down only when the sum overflows
        raise InvalidInput("the squared samples of f sum past float64")
    inner_part = analytic_project(GridFunction(np.conj(b.samples) * f.samples))
    proj = GridFunction(b.samples * inner_part.samples)
    distance = float(np.sqrt(np.mean(np.abs(f.samples - proj.samples) ** 2)))
    return ProjectionResult(proj, distance)
