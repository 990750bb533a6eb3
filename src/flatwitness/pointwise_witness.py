"""Certificates for sampled linear relations sum_i r_i(x) m_i(x) = 0.

For each sample point the construction produces a matrix rho(x) whose
columns annihilate the coefficient row, together with coordinates mu(x)
that rebuild the module row:

    sum_i r_i(x) rho_ij(x) = 0        for every j,
    m_i(x) = sum_j rho_ij(x) mu_j(x)  for every i.

The columns of rho(x) are an orthonormal frame of the annihilator of the
coefficient row (padded with a zero column), built from a fixed Householder
reflector convention so that identical inputs give bit-identical output.
Certificates are not unique; ``verify_witness`` checks the defining
relations, which is the actual contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotARelation

__all__ = [
    "PointwiseRelation",
    "WitnessCertificate",
    "WitnessReport",
    "pointwise_relation",
    "synthesize_witness",
    "verify_witness",
]

RELATION_TOL = 1e-10   # relation residual allowed per unit of the point's scale
ZERO_THRESHOLD = 1e-13  # norm at or below which a coefficient row counts as zero


@dataclass(frozen=True)
class PointwiseRelation:
    """P weighted sample points, each carrying a coefficient row and a module row.

    The points hold S relations stacked one after another: relation s owns
    the points from ``starts[s]`` up to the next start, and ``starts`` is
    ``(0,)`` for a single relation.  ``r_norms`` and ``m_norms`` are the
    rows' 2-norms and ``mass`` each relation's weighted module mass
    sum_p w_p |m_p|^2, taken once when the relation is validated.
    """

    point_weights: np.ndarray  # (P,)
    r_rows: np.ndarray         # (P, n)
    m_rows: np.ndarray         # (P, n)
    r_norms: np.ndarray        # (P,)
    m_norms: np.ndarray        # (P,)
    starts: np.ndarray         # (S,)
    mass: np.ndarray           # (S,)

    @property
    def n_points(self) -> int:
        return self.r_rows.shape[0]

    @property
    def n_terms(self) -> int:
        return self.r_rows.shape[1]


def pointwise_relation(point_weights, r_rows, m_rows, starts=(0,)) -> PointwiseRelation:
    """Validate P points holding the relations that begin at ``starts``."""
    wts = np.asarray(point_weights, dtype=float)
    r = np.asarray(r_rows, dtype=complex)
    m = np.asarray(m_rows, dtype=complex)
    starts = np.asarray(starts, dtype=np.intp)
    if r.ndim != 2 or m.shape != r.shape or wts.shape != (r.shape[0],):
        raise InvalidInput("need r_rows and m_rows of shape (P, n) and P point weights")
    if r.shape[0] == 0 or r.shape[1] == 0:
        raise InvalidInput("need at least one point and one term")
    if (starts.ndim != 1 or starts.size == 0 or starts[0] != 0
            or np.any(np.diff(starts) <= 0) or starts[-1] >= r.shape[0]):
        raise InvalidInput("relation starts must rise strictly from 0 and stay below P")
    # a NaN or infinity anywhere reaches a row norm or a relation's weighted
    # module mass, as do squares that overflow, and 0 * inf at a null point is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r_norms, m_norms = np.linalg.norm(r, axis=1), np.linalg.norm(m, axis=1)
        mass = np.add.reduceat(wts * m_norms ** 2, starts)
    if not (np.all(np.isfinite(r_norms)) and np.all(np.isfinite(mass))):
        raise InvalidInput("relation data, its row norms and its weighted module mass "
                           "must be finite in float64")
    if np.any(wts < 0):
        raise InvalidInput("point weights must be nonnegative")
    return PointwiseRelation(wts, r, m, r_norms, m_norms, starts, mass)


def _frame_columns(rows: np.ndarray, norms: np.ndarray, zero_threshold: np.ndarray) -> np.ndarray:
    """rho (P, n, n) whose leading n-1 columns are orthonormal and orthogonal to each row.

    ``norms`` holds the rows' 2-norms.  Rows with norm at most their
    ``zero_threshold`` get the identity.  For the rest, a Householder
    reflector sends the normalised row to the first coordinate axis; its
    remaining columns span the orthogonal complement and become columns
    0..n-2, followed by one zero column.
    The reflector pivot phase is taken opposite to the phase of the leading
    entry (ties resolved to +1) so there is no cancellation and the frame is
    a deterministic function of the input.
    """
    P, n = rows.shape
    rho = np.zeros((P, n, n), dtype=complex)
    zero = norms <= zero_threshold
    # every row gets a frame, written in place; a zero row, whose norm may be 0,
    # is divided by 1 instead, and its frame is replaced by the identity below
    v = rows / np.where(zero, 1.0, norms)[:, None]
    lead = v[:, 0]
    alead = np.abs(lead)
    phase = np.where(alead > 0, lead / np.where(alead > 0, alead, 1), 1.0)
    v[:, 0] += phase  # v = x - alpha*e1, x the normalised row and alpha = -phase
    vnorm_sq = np.einsum("pi,pi->p", v, np.conj(v)).real
    # columns 0..n-2 of rho, indexed (i, j, p): order="C" runs each pass with
    # the points innermost, in long loops rather than P * n loops of n - 1
    frame, vt = rho.transpose(1, 2, 0)[:, : n - 1], v.T
    np.multiply(2.0 * vt[:, None, :], np.conj(vt)[None, 1:, :], out=frame, order="C")
    np.true_divide(frame, vnorm_sq, out=frame, order="C")
    np.subtract(np.eye(n)[:, 1:, None], frame, out=frame, order="C")
    rho[zero] = np.eye(n)
    return rho


@dataclass(frozen=True)
class WitnessCertificate:
    rho: np.ndarray  # (P, n, k)
    mu: np.ndarray   # (P, k)

    @property
    def k(self) -> int:
        return self.mu.shape[1]


def synthesize_witness(rel: PointwiseRelation) -> WitnessCertificate:
    """Build (rho, mu) for a valid relation; inner dimension k equals n.

    Frames are constructed on the conjugated coefficient rows: the relation
    pairs rows bilinearly, so the annihilator of r under that pairing is the
    orthogonal complement of conj(r), and the module row lies inside it.

    Raises NotARelation when some positive-weight point violates the
    relation beyond RELATION_TOL times its scale.  Rows of norm at most
    ZERO_THRESHOLD times max(1, largest |r_i| of their relation) count as zero.
    """
    resid = np.abs(np.einsum("pi,pi->p", rel.r_rows, rel.m_rows))
    scale = 1.0 + rel.r_norms * rel.m_norms
    live = rel.point_weights > 0
    if np.any(resid[live] > RELATION_TOL * scale[live]):
        bad = int(np.argmax(np.where(live, resid / scale, -1.0)))
        raise NotARelation(
            f"point {bad}: residual {resid[bad]:.3e} exceeds {RELATION_TOL:g} * scale"
        )
    peak = np.maximum.reduceat(np.abs(rel.r_rows), rel.starts).max(axis=1)
    threshold = np.repeat(ZERO_THRESHOLD * np.maximum(1.0, peak),
                          np.diff(rel.starts, append=rel.n_points))
    # conjugation keeps each row's norm, bit for bit
    rho = _frame_columns(np.conj(rel.r_rows), rel.r_norms, threshold)
    mu = np.einsum("pi,pij->pj", rel.m_rows, np.conj(rho))
    return WitnessCertificate(rho, mu)


@dataclass(frozen=True)
class WitnessReport:
    """The verifier's findings, one entry per relation of the stack."""

    max_coeff_residual: np.ndarray
    max_reconstruction_residual: np.ndarray
    max_abs_rho: np.ndarray
    mu_norm_ok: np.ndarray
    coeff_scale: np.ndarray
    reconstruction_scale: np.ndarray


def verify_witness(rel: PointwiseRelation, cert: WitnessCertificate) -> WitnessReport:
    """Check the two defining identities and the certificate bounds.

    Each relation of the stack is judged on its own points.  Residuals are
    maxima over positive-weight points; atoms of weight zero are outside the
    relation's domain and are skipped.  Every quantity is >= 0, so a maximum
    over no entry (no live point, or k = 0) is 0.
    """
    P, n = rel.r_rows.shape
    if cert.rho.shape[0] != P or cert.rho.shape[1] != n or cert.mu.shape[0] != P:
        raise InvalidInput("certificate shape does not match the relation")
    if cert.rho.shape[2] != cert.mu.shape[1]:
        raise InvalidInput("rho and mu disagree on the inner dimension")
    starts, live = rel.starts, rel.point_weights > 0

    # each maximum is taken over a relation's points first, then over its (S, *)
    # result, whose rows are short: a row-wise maximum over P short rows costs more
    def relation_max(values):
        return np.maximum.reduceat(values, starts).max(axis=1, initial=0.0)

    coeff = np.abs(np.einsum("pi,pij->pj", rel.r_rows, cert.rho))
    recon = np.abs(rel.m_rows - np.einsum("pij,pj->pi", cert.rho, cert.mu))
    mu_norms = np.add.reduceat(rel.point_weights[:, None] * np.abs(cert.mu) ** 2, starts)
    bound = rel.mass + 1e-10 * (1.0 + rel.mass)
    return WitnessReport(
        max_coeff_residual=relation_max(np.where(live[:, None], coeff, 0.0)),
        max_reconstruction_residual=relation_max(np.where(live[:, None], recon, 0.0)),
        max_abs_rho=relation_max(np.abs(cert.rho).reshape(P, -1)),
        mu_norm_ok=np.all(mu_norms <= bound[:, None], axis=1),
        coeff_scale=1.0 + np.maximum.reduceat(rel.r_norms, starts),
        reconstruction_scale=1.0 + np.maximum.reduceat(rel.m_norms, starts),
    )
