"""Disk to right-half-plane correspondences for bounded and square-summable
analytic functions.

The biholomorphism is phi(s) = (s-1)/(s+1) with inverse (1+z)/(1-z).
Bounded functions transfer by plain composition; the square-summable
correspondence carries the extra factor 1/(1+s) one way and 2/(1-z) the
other, and the two factors cancel exactly on a round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .hardy_engine import eval_series

__all__ = [
    "TransferResult",
    "mobius",
    "mobius_inv",
    "disk_to_halfplane_h2",
    "halfplane_to_disk_h2",
    "transfer_factorization",
]


def mobius(s):
    """phi(s) = (s-1)/(s+1), right half-plane onto the disk."""
    s = np.asarray(s, dtype=complex)
    if np.any(s == -1):
        raise InvalidInput("pole of the map at s = -1")
    return (s - 1.0) / (s + 1.0)


def mobius_inv(z):
    """phi^{-1}(z) = (1+z)/(1-z), disk onto the right half-plane."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 1):
        raise InvalidInput("pole of the map at z = 1")
    return (1.0 + z) / (1.0 - z)


def _check_halfplane(points: np.ndarray):
    if np.any(points.real <= 0):
        raise InvalidInput("points must lie strictly in the open right half-plane")


def _check_disk(points: np.ndarray):
    if np.any(np.abs(points) >= 1):
        raise InvalidInput("points must lie strictly inside the unit disk")


def _taylor_values(coeffs, z):
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InvalidInput("coefficient array must be one-dimensional and nonempty")
    return eval_series(coeffs, z)


def disk_to_halfplane_h2(coeffs, s):
    """F(s) = f(phi(s)) / (1 + s) at the half-plane points s, f given by its Taylor coefficients."""
    s = np.asarray(s, dtype=complex)
    _check_halfplane(s)
    return _taylor_values(coeffs, mobius(s)) / (1.0 + s)


def halfplane_to_disk_h2(F, z):
    """f(z) = 2 F(phi^{-1}(z)) / (1 - z) at the disk points z, F a half-plane evaluator."""
    z = np.asarray(z, dtype=complex)
    _check_disk(z)
    return 2.0 * F(mobius_inv(z)) / (1.0 - z)


@dataclass(frozen=True)
class TransferResult:
    F: np.ndarray  # the transferred factors' values at the sample points
    G: np.ndarray
    H: np.ndarray
    max_identity_residual: float  # max |F - G H| over the sample points
    disk_residual: float          # max |f - g h| at the disk images of the points


def transfer_factorization(f_coeffs, g, points) -> TransferResult:
    """Carry a disk factorization f = g h to the half-plane sample points.

    f is given by its Taylor coefficients and g by an evaluator, such as a
    factorization's OuterFunction; each is evaluated once, at z = phi(points),
    and h = f/g there, its analytic continuation.  The bounded factor moves
    by composition, G = g o phi; the other two carry the 1/(1+s) factor, so
    F = G H pointwise by construction and the residual only reports
    evaluation noise (scaled by 1/|1+s|).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise InvalidInput("need a nonempty list of sample points")
    _check_halfplane(pts)
    z = mobius(pts)
    fz = _taylor_values(f_coeffs, z)
    gz = g(z)
    hz = fz / gz
    F = fz / (1.0 + pts)
    H = hz / (1.0 + pts)
    disk_residual = float(np.max(np.abs(fz - gz * hz)))
    identity_residual = float(np.max(np.abs(F - gz * H)))
    return TransferResult(F, gz, H, identity_residual, disk_residual)
