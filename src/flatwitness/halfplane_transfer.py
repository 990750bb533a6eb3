"""Disk to right-half-plane correspondences for bounded and square-summable
analytic functions.

The biholomorphism is phi(s) = (s-1)/(s+1) with inverse (1+z)/(1-z).
Bounded functions transfer by plain composition; the square-summable
correspondence carries the extra factor 1/(1+s) one way and 2/(1-z) the
other, and the two factors cancel exactly on a round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput
from .hardy_engine import eval_series

__all__ = [
    "TransferResult",
    "mobius",
    "mobius_inv",
    "as_disk_evaluator",
    "disk_to_halfplane_h2",
    "halfplane_to_disk_h2",
    "transfer_factorization",
]


def mobius(s):
    """phi(s) = (s-1)/(s+1), right half-plane onto the disk."""
    s = np.asarray(s, dtype=complex)
    if np.any(s == -1):
        raise InvalidInput("pole of the map at s = -1")
    out = (s - 1.0) / (s + 1.0)
    return complex(out) if out.ndim == 0 else out


def mobius_inv(z):
    """phi^{-1}(z) = (1+z)/(1-z), disk onto the right half-plane."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 1):
        raise InvalidInput("pole of the map at z = 1")
    out = (1.0 + z) / (1.0 - z)
    return complex(out) if out.ndim == 0 else out


def _check_halfplane(points: np.ndarray):
    if np.any(points.real <= 0):
        raise InvalidInput("points must lie strictly in the open right half-plane")


def _check_disk(points: np.ndarray):
    if np.any(np.abs(points) >= 1):
        raise InvalidInput("points must lie strictly inside the unit disk")


def as_disk_evaluator(f) -> Callable:
    """Normalize a disk-side representation to a point evaluator.

    Accepts a callable or a power-series coefficient array (ascending order).
    """
    if callable(f):
        return f
    coeffs = np.array(f, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InvalidInput("coefficient array must be one-dimensional and nonempty")

    def evaluate(z):
        return eval_series(coeffs, np.asarray(z, dtype=complex))

    return evaluate


def disk_to_halfplane_h2(f) -> Callable:
    """Half-plane function F(s) = f(phi(s)) / (1 + s)."""
    f_eval = as_disk_evaluator(f)

    def F(s):
        s = np.asarray(s, dtype=complex)
        _check_halfplane(s)
        return f_eval(mobius(s)) / (1.0 + s)

    return F


def halfplane_to_disk_h2(F) -> Callable:
    """Disk function f(z) = 2 F(phi^{-1}(z)) / (1 - z)."""

    def f(z):
        z = np.asarray(z, dtype=complex)
        _check_disk(z)
        return 2.0 * F(mobius_inv(z)) / (1.0 - z)

    return f


@dataclass(frozen=True)
class TransferResult:
    F: Callable
    G: Callable
    H: Callable
    points: np.ndarray
    max_identity_residual: float  # max |F - G H| over the sample points
    disk_residual: float          # max |f - g h| at the disk images of the points


def transfer_factorization(f, g, h, points) -> TransferResult:
    """Carry a disk factorization f = g h to the half-plane.

    The bounded factor moves by composition, G = g o phi; the other two
    carry the 1/(1+s) factor, so F = G H pointwise by construction and the
    residual only reports evaluation noise (scaled by 1/|1+s|).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or pts.size == 0:
        raise InvalidInput("need a nonempty list of sample points")
    _check_halfplane(pts)
    f_eval = as_disk_evaluator(f)
    g_eval = as_disk_evaluator(g)
    h_eval = as_disk_evaluator(h)

    def G(s):
        s = np.asarray(s, dtype=complex)
        _check_halfplane(s)
        return g_eval(mobius(s))

    F = disk_to_halfplane_h2(f_eval)
    H = disk_to_halfplane_h2(h_eval)
    z = mobius(pts)
    disk_residual = float(np.max(np.abs(f_eval(z) - g_eval(z) * h_eval(z))))
    identity_residual = float(np.max(np.abs(F(pts) - G(pts) * H(pts))))
    return TransferResult(F, G, H, pts, identity_residual, disk_residual)
