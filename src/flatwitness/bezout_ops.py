"""Two-generator ideal reduction to a principal generator, pointwise.

Functions live on a finite weighted atom set.  Every identity here is a
pointwise division or multiplication; outputs are evaluated in extended
precision and rounded once, so the defining identities verify at a couple
of ulp in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "SampledFunction",
    "PrincipalGenerator",
    "StrictnessWitness",
    "sampled_function",
    "principal_generator",
    "strictness_witness",
]


@dataclass(frozen=True)
class SampledFunction:
    """Complex values on weighted atoms; weight zero marks a null atom."""

    values: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return len(self.values)

    @property
    def norm_sq(self) -> float:
        """Squared weighted 2-norm, sum of weight * |value|^2."""
        return float(np.sum(self.weights * np.abs(self.values) ** 2))

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq))


def sampled_function(values, weights=None) -> SampledFunction:
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1 or vals.size == 0:
        raise InvalidInput("values must be a one-dimensional, nonempty array")
    if weights is None:
        wts = np.ones(vals.shape, dtype=float)
    else:
        wts = np.asarray(weights, dtype=float)
    if wts.shape != vals.shape:
        raise InvalidInput("weights must match values in shape")
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(wts))):
        raise InvalidInput("values and weights must be finite")
    if np.any(wts < 0):
        raise InvalidInput("weights must be nonnegative")
    return SampledFunction(vals, wts)


def _same_atoms(f: SampledFunction, g: SampledFunction):
    if f.n_atoms != g.n_atoms or not np.array_equal(f.weights, g.weights):
        raise InvalidInput("functions must live on the same weighted atom set")


def _ratio(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """v / a where a > 0 and 1 elsewhere (a is |v|, or a sum that includes it)."""
    live = a > 0
    return np.where(live, v / np.where(live, a, 1), 1.0)


@dataclass(frozen=True)
class PrincipalGenerator:
    """d = |f| + |g| with cofactors both ways.

    f = F*d and g = G*d exhibit containment in the ideal of d, while
    d = f*cf + g*cg exhibits d inside the ideal of (f, g).  |F| <= 1,
    |G| <= 1 and |cf| = |cg| = 1 pointwise.
    """

    d: SampledFunction
    F: SampledFunction
    G: SampledFunction
    cf: SampledFunction
    cg: SampledFunction


def principal_generator(f: SampledFunction, g: SampledFunction) -> PrincipalGenerator:
    _same_atoms(f, g)
    fl = f.values.astype(np.clongdouble)
    gl = g.values.astype(np.clongdouble)
    with np.errstate(over="ignore"):
        af, ag = np.abs(fl), np.abs(gl)
        d = af + ag
        d_out = d.astype(complex)
    if not np.all(np.isfinite(d_out)):
        raise InvalidInput("|f| + |g| overflows float64")
    wts = f.weights
    return PrincipalGenerator(
        d=SampledFunction(d_out, wts),
        F=SampledFunction(_ratio(fl, d).astype(complex), wts),
        G=SampledFunction(_ratio(gl, d).astype(complex), wts),
        cf=SampledFunction(np.conj(_ratio(fl, af).astype(complex)), wts),
        cg=SampledFunction(np.conj(_ratio(gl, ag).astype(complex)), wts),
    )


@dataclass(frozen=True)
class StrictnessWitness:
    """Obstruction to solving indicator = g*h when g vanishes on positive mass.

    ``distance`` is the weighted 2-distance from the indicator of the zero
    set to the range of multiplication by g; it equals sqrt(zero_mass), so a
    positive value certifies that the principal ideal of g misses part of
    the space.
    """

    zero_mass: float
    distance: float
    witness: SampledFunction


def strictness_witness(g: SampledFunction) -> StrictnessWitness:
    zero = (np.abs(g.values) == 0) & (g.weights > 0)
    indicator = np.where(zero, 1.0 + 0.0j, 0.0j)
    mass = float(np.sum(g.weights[zero]))
    return StrictnessWitness(
        zero_mass=mass,
        distance=float(np.sqrt(mass)),
        witness=SampledFunction(indicator, g.weights),
    )
