"""Decidable fragments of ultrafilter limits on bounded sequences.

Limits along a point filter are evaluations.  For limits along any filter
refining the cofinite one, only consequences of ordinary convergence are
reported: when the stored tail settles, the certified limit is valid for
every such filter, and otherwise the answer is a verdict, never a guess.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import ceil
from typing import Optional

import numpy as np

from .errors import InvalidInput

__all__ = [
    "BoundedSequence",
    "EventualLimit",
    "Membership",
    "bounded_sequence",
    "principal_limit",
    "eventual_limit",
    "ideal_membership_nonprincipal",
]


@dataclass(frozen=True)
class BoundedSequence:
    values: np.ndarray
    sup_norm: float


def bounded_sequence(values) -> BoundedSequence:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput("need a one-dimensional, nonempty sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("sequence entries must be finite")
    with np.errstate(over="ignore"):
        sup_norm = float(np.max(np.abs(arr)))
    if np.isinf(sup_norm):
        raise InvalidInput("the modulus of a sequence entry overflows float64")
    return BoundedSequence(arr, sup_norm)


def principal_limit(seq: BoundedSequence, m: int) -> complex:
    """Limit along the point filter at index m (1-based): the m-th entry."""
    if not 1 <= m <= len(seq.values):
        raise InvalidInput(f"index {m} out of range 1..{len(seq.values)}")
    return complex(seq.values[m - 1])


@dataclass(frozen=True)
class EventualLimit:
    limit: complex
    radius: float


def eventual_limit(seq: BoundedSequence, tol: float,
                   tail_fraction: float = 0.25) -> Optional[EventualLimit]:
    """Certify a limit from the trailing samples, or return None.

    The trailing ``tail_fraction`` of the samples must all lie within ``tol``
    of their mean.  A certified limit is the limit along every filter that
    contains the cofinite sets; None means the stored data does not settle
    and no verdict is issued, as when the spread of the tail overflows.
    """
    if not 0 < tail_fraction < 1:
        raise InvalidInput("tail_fraction must lie in (0, 1)")
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    n = len(seq.values)
    count = max(1, ceil(tail_fraction * n))
    tail = seq.values[n - count:]
    with np.errstate(over="ignore", invalid="ignore"):
        center = complex(np.mean(tail))
        radius = float(np.max(np.abs(tail - center)))
    if not np.isfinite(center):
        raise InvalidInput("the mean of the sequence's tail overflows float64")
    if radius <= tol:
        return EventualLimit(center, radius)
    return None


class Membership(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDECIDABLE = "undecidable"


def ideal_membership_nonprincipal(certified: Optional[EventualLimit], tol: float) -> Membership:
    """Does the sequence tend to zero along every filter refining the cofinite one?

    ``certified`` is the sequence's limit as ``eventual_limit`` certified it,
    or None when it issued none, so the verdict rests on the same tail as the
    limit.  YES and NO are theorems about all such filters; UNDECIDABLE covers
    the cases where the answer genuinely depends on the filter or the stored
    prefix does not settle.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    if certified is None:
        return Membership.UNDECIDABLE
    if abs(certified.limit) <= tol:
        return Membership.YES
    if abs(certified.limit) > 2.0 * tol:
        return Membership.NO
    return Membership.UNDECIDABLE
