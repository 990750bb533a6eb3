"""Square-summable sequences, suffix sums, and the weighted tail-series bound.

Suffix sums are accumulated backwards (r_n from r_{n+1}), never by forward
subtraction, so the telescoping identity r_{n-1} - r_n = |a_n|^2 holds to a
single rounding per step.  A profile may carry a closed-form tail mass for
the terms beyond the stored prefix; a zero tail means the sequence is taken
to be finitely supported.
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
    than ``magnitudes_sq`` and ``suffix_sums[-1] == tail``.  Build one with
    ``profile_from_energies`` (or ``tail_profile`` and ``geometric_profile``,
    which call it): it checks the terms and the tail, and its suffix sums never
    increase.
    """

    magnitudes_sq: np.ndarray
    suffix_sums: np.ndarray
    tail: float = 0.0

    @property
    def n_terms(self) -> int:
        return len(self.magnitudes_sq)

    @property
    def head(self) -> float:
        """r_0, the total mass of the sequence."""
        return float(self.suffix_sums[0])


def profile_from_energies(magnitudes_sq, tail_sum_sq: float = 0.0) -> TailProfile:
    """Build a profile from the per-term masses |a_k|^2 themselves."""
    mags = np.asarray(magnitudes_sq, dtype=float)
    if mags.ndim != 1 or mags.size == 0:
        raise InvalidInput("need a one-dimensional, nonempty sequence")
    if not np.all(np.isfinite(mags)) or np.any(mags < 0):
        raise InvalidInput("per-term masses must be finite and nonnegative")
    if not np.isfinite(tail_sum_sq) or tail_sum_sq < 0:
        raise InvalidInput("tail mass must be finite and nonnegative")
    # cumsum runs left to right, so accumulate over the reversed terms: this
    # realises r_n = r_{n+1} + |a_{n+1}|^2 with one rounding per step.
    with np.errstate(over="ignore"):
        acc = np.cumsum(np.concatenate(([tail_sum_sq], mags[::-1])))
    if not np.isfinite(acc[-1]):  # the largest suffix sum, r_0
        raise InvalidInput("the total mass of the sequence overflows float64")
    return TailProfile(mags, acc[::-1].copy(), float(tail_sum_sq))


def tail_profile(a, tail_sum_sq: float = 0.0) -> TailProfile:
    """Profile of a stored complex sequence a_1..a_N.

    ``tail_sum_sq`` is the mass sum_{k>N} |a_k|^2 of the unstored terms, when
    the sequence continues past the prefix in a known closed form.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput("need a one-dimensional, nonempty sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("sequence entries must be finite")
    with np.errstate(over="ignore"):
        mags = np.abs(arr) ** 2
    if not np.all(np.isfinite(mags)):
        raise InvalidInput("a squared term |a_k|^2 overflows float64")
    return profile_from_energies(mags, tail_sum_sq)


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
    return profile_from_energies(mags, tail)


def default_bound_tol(profile: TailProfile) -> float:
    return 1e-12 * (1.0 + profile.head)


def _windows(profile: TailProfile, m, n):
    m, n = np.asarray(m), np.asarray(n)
    if m.dtype.kind not in "iu" or n.dtype.kind not in "iu":
        raise InvalidInput("window indices must be integers")
    if not np.all((1 <= m) & (m < n) & (n <= profile.n_terms)):
        raise InvalidInput(f"window must satisfy 1 <= m < n <= {profile.n_terms}")
    # suffix sums are nonincreasing, so r_{n-1} is the smallest r_{k-1} in the window
    if np.any(profile.suffix_sums[n - 1] == 0.0):
        raise DegenerateTail("window touches a zero suffix sum")
    return m, n


def olympiad_weighted_sum(profile: TailProfile, m, n):
    """sum_{k=m+1}^{n} |a_k|^2 / sqrt(r_{k-1}), elementwise over arrays of windows.

    The terms between consecutive distinct window edges form blocks, each
    summed once pairwise; a window adds its blocks.  One window is one block,
    the plain pairwise sum of its slice.
    """
    m, n = _windows(profile, m, n)
    if m.size == 0:
        return np.zeros(np.broadcast(m, n).shape)
    edges = np.unique(np.concatenate([m.ravel(), n.ravel()]))
    lo, hi = edges[0], edges[-1]
    terms = profile.magnitudes_sq[lo:hi] / np.sqrt(profile.suffix_sums[lo:hi])
    blocks = np.array([np.sum(terms[a - lo:b - lo]) for a, b in zip(edges[:-1], edges[1:])])
    inside = (edges[:-1] >= m[..., None]) & (edges[1:] <= n[..., None])
    sums = np.where(inside, blocks, 0.0).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


@dataclass(frozen=True)
class OlympiadBound:
    """One window's verdict, or elementwise arrays of them for arrays of windows."""

    lhs: float
    rhs: float
    tol: float
    holds: bool


def verify_olympiad_bound(profile: TailProfile, m, n, tol_abs=None) -> OlympiadBound:
    """Check the telescoping bound: the window sum is at most 2(sqrt(r_m) - sqrt(r_n)).

    Scalar windows give floats and a bool; arrays of m and n give arrays.
    """
    lhs = olympiad_weighted_sum(profile, m, n)
    rhs = 2.0 * (np.sqrt(profile.suffix_sums[m]) - np.sqrt(profile.suffix_sums[n]))
    tol = default_bound_tol(profile) if tol_abs is None else float(tol_abs)
    holds = lhs <= rhs + tol
    if np.ndim(lhs) == 0:
        rhs, holds = float(rhs), bool(holds)
    return OlympiadBound(lhs=lhs, rhs=rhs, tol=tol, holds=holds)
