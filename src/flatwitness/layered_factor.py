"""Weight construction and factorization over a shell-layered atom space.

The space is exhausted by shells 1..N of weighted atoms.  Per-shell masses
of a function feed a tail profile; the reciprocal of the resulting weight
is a function vanishing at infinity (in shell index) and the product with
the weighted function recovers the input exactly, with the weighted norm of
the second factor controlled by the head mass plus the weighted tail series.

Two branches, chosen by ``mode``:

* ``compact``: the weight is 1 on shell 1 and n on shell n >= 2.  Used when
  the stored data is finitely supported (no tail descriptor).
* ``general``: the weight on shell n >= 2 is the inverse fourth root of the
  preceding suffix sum, which requires every needed suffix sum positive.

``mode="auto"`` picks ``general`` exactly when the profile carries a
positive closed-form tail; stored data without a tail descriptor is
finitely supported as represented, which is the compact case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezout_ops import SampledFunction, sampled_function
from .errors import DegenerateTail, InvalidInput
from .seq_core import (
    SUFFIX_FLOOR,
    TailProfile,
    olympiad_weighted_sum,
    profile_from_energies,
)

__all__ = [
    "LayeredSpace",
    "ShellWeights",
    "LayeredFactorization",
    "StarBoundReport",
    "shell_energies",
    "build_weight",
    "factor",
    "verify_star_bound",
    "preset_l2",
    "preset_lebesgue_r",
    "preset_circle",
]


class LayeredSpace:
    """Shells 1..N of weighted atoms; every atom lies in exactly one shell.

    Built from one array of atom weights per shell, in shell order.  Atoms
    are flattened in shell order; a sampled function on the space is an
    array aligned with that flat order.
    """

    def __init__(self, shell_weights):
        shells = [np.asarray(w, dtype=float) for w in shell_weights]
        if not shells:
            raise InvalidInput("need at least one shell")
        for pos, w in enumerate(shells, start=1):
            if w.ndim != 1 or w.size == 0:
                raise InvalidInput(f"shell {pos} must carry a nonempty list of atom weights")
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise InvalidInput(f"shell {pos} atom weights must be positive and finite")
        self.n_shells = len(shells)
        self.flat_weights = np.concatenate(shells)
        self.shell_of_atom = np.repeat(np.arange(1, len(shells) + 1), [w.size for w in shells])

    @property
    def n_atoms(self) -> int:
        return len(self.flat_weights)


def _check_alignment(f: SampledFunction, layout: LayeredSpace):
    if f.n_atoms != layout.n_atoms or not np.array_equal(f.weights, layout.flat_weights):
        raise InvalidInput("function is not aligned with the layout's atoms")


def shell_energies(f: SampledFunction, layout: LayeredSpace,
                   tail_sum_sq: float = 0.0) -> TailProfile:
    """Per-shell weighted masses of |f|^2, as a tail profile.

    ``tail_sum_sq`` carries the closed-form mass beyond the stored shells
    when the function is a truncation of something with a known tail.
    """
    _check_alignment(f, layout)
    with np.errstate(over="ignore"):  # profile_from_energies refuses a mass that overflows
        energy = f.weights * np.abs(f.values) ** 2
    mags = np.bincount(layout.shell_of_atom, weights=energy,
                       minlength=layout.n_shells + 1)[1:]
    return profile_from_energies(mags, tail_sum_sq)


@dataclass(frozen=True)
class ShellWeights:
    values: np.ndarray  # one weight per shell
    mode: str
    floored: int        # shells whose suffix sum was floored before rooting


def build_weight(profile: TailProfile, mode: str = "auto") -> ShellWeights:
    """Per-shell weights: 1 on shell 1, then n or 1/r_{n-1}^(1/4) per branch."""
    if mode not in ("auto", "compact", "general"):
        raise InvalidInput(f"unknown mode {mode!r}")
    n = profile.n_terms
    if mode == "auto":
        mode = "general" if profile.tail > 0 else "compact"
    w = np.ones(n)
    if mode == "compact":
        w[1:] = np.arange(2, n + 1, dtype=float)
        return ShellWeights(w, mode, 0)
    r_prev = profile.suffix_sums[1:n]  # r_{n-1} for shells n = 2..N
    if np.any(r_prev == 0.0):
        bad = 2 + int(np.argmax(r_prev == 0.0))
        raise DegenerateTail(f"suffix sum before shell {bad} is zero")
    floored = int(np.sum(r_prev < SUFFIX_FLOOR))
    w[1:] = np.maximum(r_prev, SUFFIX_FLOOR) ** -0.25
    return ShellWeights(w, mode, floored)


@dataclass(frozen=True)
class LayeredFactorization:
    g: SampledFunction          # shellwise constant, reciprocal of the weight
    h: SampledFunction          # input times the weight
    w_values: np.ndarray        # per-shell weights
    mode: str
    residual: float             # weighted 2-norm of f - g*h
    h_norm_sq: float
    profile: TailProfile
    floored: int

    @property
    def g_shell_values(self) -> np.ndarray:
        return 1.0 / self.w_values


def _star_majorant(profile: TailProfile, mode: str) -> float:
    if mode == "compact":
        shells = np.arange(1, profile.n_terms + 1, dtype=float)
        return float(np.sum(shells**2 * profile.magnitudes_sq))
    if profile.n_terms == 1:
        return profile.head  # no shells beyond the first, the series is empty
    return profile.head + olympiad_weighted_sum(profile, 1, profile.n_terms)


def factor(f: SampledFunction, layout: LayeredSpace, mode: str = "auto",
           tail_sum_sq: float = 0.0) -> LayeredFactorization:
    """Split f = g * h with g shellwise constant and tending to zero.

    g is the reciprocal weight and h = f * w atomwise, so the product
    recombines a division and matches f to a few rounding errors.  In the
    general branch the weighted norm of h is bounded by the head mass plus
    the weighted tail series; in the compact branch by the shell-index
    weighted mass.
    """
    profile = shell_energies(f, layout, tail_sum_sq)
    weights = build_weight(profile, mode)
    w_atom = weights.values[layout.shell_of_atom - 1]
    g_vals = (1.0 / weights.values)[layout.shell_of_atom - 1].astype(complex)
    h_vals = f.values * w_atom
    residual_sq = np.sum(f.weights * np.abs(f.values - g_vals * h_vals) ** 2)
    h = SampledFunction(h_vals, f.weights)
    return LayeredFactorization(
        g=SampledFunction(g_vals, f.weights),
        h=h,
        w_values=weights.values,
        mode=weights.mode,
        residual=float(np.sqrt(residual_sq)),
        h_norm_sq=h.norm_sq,
        profile=profile,
        floored=weights.floored,
    )


@dataclass(frozen=True)
class StarBoundReport:
    lhs: float           # shell-by-shell recomputation of the weighted mass of h
    rhs: float           # branch majorant
    tol: float
    holds: bool
    cauchy_bound: float  # 2(sqrt(r_1) - sqrt(r_N)), certifies the tail series


def verify_star_bound(result: LayeredFactorization) -> StarBoundReport:
    profile = result.profile
    lhs = float(np.sum(result.w_values**2 * profile.magnitudes_sq))
    rhs = _star_majorant(profile, result.mode)
    tol = 1e-10 * (1.0 + profile.head)
    cauchy = 2.0 * (np.sqrt(profile.suffix_sums[1]) - np.sqrt(profile.suffix_sums[-1]))
    return StarBoundReport(
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        holds=bool(lhs <= rhs + tol),
        cauchy_bound=float(cauchy),
    )


# ---------------------------------------------------------------------------
# preset spaces


def preset_l2(n_shells: int, ratio: float = 0.5):
    """One unit atom per shell, f_k = ratio^(k/2), exact geometric tail.

    Returns (f, layout, tail_sum_sq).
    """
    if not 0 < ratio < 1:
        raise InvalidInput("ratio must lie in (0, 1)")
    if n_shells < 1:
        raise InvalidInput("need at least one shell")
    layout = LayeredSpace(np.ones((n_shells, 1)))
    k = np.arange(1, n_shells + 1, dtype=float)
    f = sampled_function(np.sqrt(ratio**k), layout.flat_weights)
    tail = ratio ** (n_shells + 1) / (1.0 - ratio)
    return f, layout, tail


def _mirrored_shells(lo, hi, atoms_per_shell: int, sample):
    """Shells lo[n] <= |x| < hi[n] of midpoint atoms mirrored about 0, and ``sample`` on them.

    Each shell holds atoms_per_shell atoms of weight (hi - lo) / (atoms_per_shell / 2).
    Returns (f, layout).
    """
    if lo.size < 1 or atoms_per_shell < 2 or atoms_per_shell % 2:
        raise InvalidInput("need n_shells >= 1 and an even atoms_per_shell >= 2")
    half = atoms_per_shell // 2
    step = (hi - lo) / half
    xs = lo[:, None] + (np.arange(half) + 0.5) * step[:, None]
    layout = LayeredSpace(np.repeat(step[:, None], atoms_per_shell, axis=1))
    pts = np.concatenate([-xs[:, ::-1], xs], axis=1)
    return sampled_function(sample(pts.ravel()), layout.flat_weights), layout


def preset_lebesgue_r(n_shells: int, atoms_per_shell: int = 64):
    """Symmetric unit-interval shells of the real line, midpoint atoms.

    Each shell n covers n-1 <= |x| < n; the sample is f(x) = exp(-|x|/2), whose
    mass beyond the stored shells is 2*exp(-N) in closed form.
    """
    n = np.arange(1.0, n_shells + 1)
    f, layout = _mirrored_shells(n - 1.0, n, atoms_per_shell,
                                 lambda x: np.exp(-np.abs(x) / 2.0))
    return f, layout, 2.0 * np.exp(-float(n_shells))


def preset_circle(n_shells: int, atoms_per_shell: int = 64):
    """Arc shells of the circle accumulating at angle zero, midpoint atoms.

    The first shell covers 1 < |theta| <= pi and shell n >= 2 covers
    1/n < |theta| <= 1/(n-1); the sample is f = 1, with tail mass 2/N for
    the unstored arc |theta| <= 1/N.
    """
    lo = 1.0 / np.arange(1.0, n_shells + 1)
    f, layout = _mirrored_shells(lo, np.append(np.pi, lo[:-1]), atoms_per_shell, np.ones_like)
    return f, layout, 2.0 / float(n_shells)
