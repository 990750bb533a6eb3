"""Square-summable sequences, suffix sums, and the weighted tail-series bound.

Suffix sums are accumulated backwards (r_n from r_{n+1}), never by forward
subtraction, so the telescoping identity r_{n-1} - r_n = |a_n|^2 holds to a
single rounding per step.  A profile may carry a closed-form tail mass for
the terms beyond the stored prefix; a zero tail means the sequence is taken
to be finitely supported.

A profile may also hold a stack: equal-length sequences, one per row of a
2-D array, sharing one tail mass.  Every function here then works row by
row with the windows shared across rows, and each row's values are bit for
bit those of the one-sequence call on that row.  As in numpy's reductions,
a result has its input's leading shape: one sequence and one window give
numpy scalars, and a stack or an array of windows gives arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTail, InvalidInput

__all__ = [
    "TailProfile",
    "OlympiadBound",
    "tail_profile",
    "profile_from_energies",
    "geometric_profile",
    "olympiad_weighted_sum",
    "verify_olympiad_bound",
    "default_bound_tol",
]

SUFFIX_FLOOR = 1e-300  # suffix sums are floored here before a root is taken


@dataclass(frozen=True)
class TailProfile:
    """Terms |a_k|^2 for k = 1..N together with suffix sums r_n for n = 0..N.

    ``magnitudes_sq[k-1]`` is |a_k|^2 and ``suffix_sums[n]`` is
    r_n = tail + sum_{k>n} |a_k|^2, so ``suffix_sums`` has one more entry
    than ``magnitudes_sq`` and ``suffix_sums[-1] == tail``.  For a stack both
    arrays are 2-D, one row per sequence, and these relations hold row by
    row.  Build one with ``profile_from_energies``, ``tail_profile`` or
    ``geometric_profile``: each checks its own input and the tail, and the
    suffix sums never increase.
    """

    magnitudes_sq: np.ndarray
    suffix_sums: np.ndarray
    tail: float = 0.0

    @property
    def n_terms(self) -> int:
        return self.magnitudes_sq.shape[-1]

    @property
    def head(self):
        """r_0, the total mass of the sequence: a scalar, or one per row of a stack.

        A stack's masses are a copy, so a caller that keeps them does not keep
        every suffix sum alive.
        """
        return self.suffix_sums.T[0].copy()


def _check_shape(arr):
    # one sequence, or a stack of equal-length ones, with at least one term
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise InvalidInput("need a nonempty sequence, or a 2-D stack of equal-length ones")


def _profile(mags: np.ndarray, tail_sum_sq: float) -> TailProfile:
    # mags are checked finite and nonnegative by the caller
    if not np.isfinite(tail_sum_sq) or tail_sum_sq < 0:
        raise InvalidInput("tail mass must be finite and nonnegative")
    # cumsum runs left to right, so accumulate in place through the reversed
    # view of [terms, tail]: this realises r_n = r_{n+1} + |a_{n+1}|^2 with
    # one rounding per step, per row.
    sums = np.empty(mags.shape[:-1] + (mags.shape[-1] + 1,))
    sums[..., :-1] = mags
    sums[..., -1] = tail_sum_sq
    with np.errstate(over="ignore"):
        np.cumsum(sums[..., ::-1], axis=-1, out=sums[..., ::-1])
    if not np.all(np.isfinite(sums[..., 0])):  # the largest suffix sum, r_0
        raise InvalidInput("the total mass of the sequence overflows float64")
    return TailProfile(mags, sums, float(tail_sum_sq))


def profile_from_energies(magnitudes_sq, tail_sum_sq: float = 0.0) -> TailProfile:
    """Build a profile from the per-term masses |a_k|^2 themselves (one row per sequence)."""
    mags = np.asarray(magnitudes_sq, dtype=float)
    _check_shape(mags)
    if not np.all(np.isfinite(mags)) or np.any(mags < 0):
        raise InvalidInput("per-term masses must be finite and nonnegative")
    return _profile(mags, tail_sum_sq)


def tail_profile(a, tail_sum_sq: float = 0.0) -> TailProfile:
    """Profile of a stored complex sequence a_1..a_N, or of a stack of them as rows.

    ``tail_sum_sq`` is the mass sum_{k>N} |a_k|^2 of the unstored terms, when
    the sequence continues past the prefix in a known closed form.
    """
    arr = np.asarray(a, dtype=complex)
    _check_shape(arr)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("sequence entries must be finite")
    with np.errstate(over="ignore"):
        mags = np.abs(arr)
        np.square(mags, out=mags)
    if not np.all(np.isfinite(mags)):
        raise InvalidInput("a squared term |a_k|^2 overflows float64")
    return _profile(mags, tail_sum_sq)


def geometric_profile(ratio: float, n_terms: int) -> TailProfile:
    """Profile with |a_k|^2 = ratio^k and the exact geometric tail.

    With the tail included the suffix sums come out in closed form,
    r_n = ratio^(n+1) / (1 - ratio).
    """
    if not 0 < ratio < 1:
        raise InvalidInput("ratio must lie in (0, 1)")
    if n_terms < 1:
        raise InvalidInput("need at least one term")
    k = np.arange(1, n_terms + 1, dtype=float)
    mags = ratio**k
    tail = ratio ** (n_terms + 1) / (1.0 - ratio)
    return _profile(mags, tail)


def default_bound_tol(profile: TailProfile):
    """1e-12 (1 + r_0): a scalar, or one per row of a stack."""
    return 1e-12 * (1.0 + profile.head)


def _windows(profile: TailProfile, m, n):
    m, n = np.asarray(m), np.asarray(n)
    if m.dtype.kind not in "iu" or n.dtype.kind not in "iu":
        raise InvalidInput("window indices must be integers")
    if not np.all((1 <= m) & (m < n) & (n <= profile.n_terms)):
        raise InvalidInput(f"window must satisfy 1 <= m < n <= {profile.n_terms}")
    # suffix sums are nonincreasing, so r_{n-1} is the smallest r_{k-1} in the window
    if np.any(profile.suffix_sums[..., n - 1] == 0.0):
        raise DegenerateTail("window touches a zero suffix sum")
    return m, n


def olympiad_weighted_sum(profile: TailProfile, m, n):
    """sum_{k=m+1}^{n} |a_k|^2 / sqrt(r_{k-1}), elementwise over arrays of windows.

    The terms between consecutive distinct window edges form blocks, each
    summed once pairwise; a window adds its blocks.  One window is one block,
    the plain pairwise sum of its slice.  A stack gives one row of sums per
    sequence, shaped (rows,) + the windows' shape.
    """
    m, n = _windows(profile, m, n)
    rows = profile.magnitudes_sq.shape[:-1]
    if m.size == 0:
        return np.zeros(rows + np.broadcast(m, n).shape)
    edges = np.unique(np.concatenate([m.ravel(), n.ravel()]))
    lo, hi = edges[0], edges[-1]
    terms = np.sqrt(profile.suffix_sums[..., lo:hi])
    np.divide(profile.magnitudes_sq[..., lo:hi], terms, out=terms)
    # one pairwise sum per row and block; numpy does not specify np.add.reduceat's order
    blocks = np.stack([np.sum(terms[..., a - lo:b - lo], axis=-1)
                       for a, b in zip(edges[:-1], edges[1:])], axis=-1)
    inside = (edges[:-1] >= m[..., None]) & (edges[1:] <= n[..., None])
    blocks = blocks.reshape(rows + (1,) * (inside.ndim - 1) + blocks.shape[-1:])
    return np.where(inside, blocks, 0.0).sum(axis=-1)


@dataclass(frozen=True)
class OlympiadBound:
    """One window's verdict lhs <= rhs + tol, or elementwise arrays for arrays of windows.

    For a stack the arrays lead with one axis of rows, and ``tol`` holds one
    tolerance per row unless one was given for all.
    """

    lhs: float
    rhs: float
    tol: float
    holds: bool


def verify_olympiad_bound(profile: TailProfile, m, n, tol_abs=None) -> OlympiadBound:
    """Check the telescoping bound: the window sum is at most 2(sqrt(r_m) - sqrt(r_n)).

    Scalar windows give numpy scalars; arrays of m and n, or a stack, give arrays.
    ``tol_abs`` is one tolerance, or for a stack one per row.
    """
    lhs = olympiad_weighted_sum(profile, m, n)
    r = profile.suffix_sums
    rhs = 2.0 * (np.sqrt(r[..., m]) - np.sqrt(r[..., n]))
    tol = np.asarray(default_bound_tol(profile) if tol_abs is None else tol_abs, dtype=float)[()]
    holds = lhs <= rhs + tol.reshape(tol.shape + (1,) * (np.ndim(rhs) - tol.ndim))
    return OlympiadBound(lhs=lhs, rhs=rhs, tol=tol, holds=holds)
