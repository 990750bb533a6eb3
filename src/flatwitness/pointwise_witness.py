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

    ``r_norms`` and ``m_norms`` are the rows' 2-norms, taken once when the
    relation is validated.
    """

    point_weights: np.ndarray  # (P,)
    r_rows: np.ndarray         # (P, n)
    m_rows: np.ndarray         # (P, n)
    r_norms: np.ndarray        # (P,)
    m_norms: np.ndarray        # (P,)

    @property
    def n_points(self) -> int:
        return self.r_rows.shape[0]

    @property
    def n_terms(self) -> int:
        return self.r_rows.shape[1]


def pointwise_relation(point_weights, r_rows, m_rows) -> PointwiseRelation:
    wts = np.asarray(point_weights, dtype=float)
    r = np.asarray(r_rows, dtype=complex)
    m = np.asarray(m_rows, dtype=complex)
    if r.ndim != 2 or m.shape != r.shape or wts.shape != (r.shape[0],):
        raise InvalidInput("need r_rows and m_rows of shape (P, n) and P point weights")
    if r.shape[0] == 0 or r.shape[1] == 0:
        raise InvalidInput("need at least one point and one term")
    # a NaN or infinity anywhere reaches a row norm or the weighted module mass,
    # as do squares that overflow, and 0 * inf at a null point is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r_norms, m_norms = np.linalg.norm(r, axis=1), np.linalg.norm(m, axis=1)
        sizes = np.append(r_norms, wts @ m_norms ** 2)
    if not np.all(np.isfinite(sizes)):
        raise InvalidInput("relation data, its row norms and its weighted module mass "
                           "must be finite in float64")
    if np.any(wts < 0):
        raise InvalidInput("point weights must be nonnegative")
    return PointwiseRelation(wts, r, m, r_norms, m_norms)


def _frame_columns(rows: np.ndarray, norms: np.ndarray, zero_threshold: float) -> np.ndarray:
    """rho (P, n, n) whose leading n-1 columns are orthonormal and orthogonal to each row.

    ``norms`` holds the rows' 2-norms.  Rows with norm at most
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
    nz = norms > zero_threshold
    rho[~nz] = np.eye(n)
    v = rows[nz] / norms[nz, None]
    lead = v[:, 0]
    alead = np.abs(lead)
    phase = np.where(alead > 0, lead / np.where(alead > 0, alead, 1), 1.0)
    v[:, 0] += phase  # v = x - alpha*e1, x the normalised row and alpha = -phase
    vnorm_sq = np.einsum("pi,pi->p", v, np.conj(v)).real
    rho[nz, :, : n - 1] = np.eye(n)[:, 1:] - (
        2.0 * v[:, :, None] * np.conj(v)[:, None, 1:] / vnorm_sq[:, None, None])
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
    ZERO_THRESHOLD times max(1, largest |r_i|) count as zero.
    """
    resid = np.abs(np.einsum("pi,pi->p", rel.r_rows, rel.m_rows))
    scale = 1.0 + rel.r_norms * rel.m_norms
    live = rel.point_weights > 0
    if np.any(resid[live] > RELATION_TOL * scale[live]):
        bad = int(np.argmax(np.where(live, resid / scale, -1.0)))
        raise NotARelation(
            f"point {bad}: residual {resid[bad]:.3e} exceeds {RELATION_TOL:g} * scale"
        )
    peak = float(np.max(np.abs(rel.r_rows))) if rel.r_rows.size else 0.0
    # conjugation keeps each row's norm, bit for bit
    rho = _frame_columns(np.conj(rel.r_rows), rel.r_norms, ZERO_THRESHOLD * max(1.0, peak))
    mu = np.einsum("pi,pij->pj", rel.m_rows, np.conj(rho))
    return WitnessCertificate(rho, mu)


@dataclass(frozen=True)
class WitnessReport:
    max_coeff_residual: float
    max_reconstruction_residual: float
    rho_bound_ok: bool
    mu_norm_ok: bool
    coeff_scale: float
    reconstruction_scale: float


def verify_witness(rel: PointwiseRelation, cert: WitnessCertificate) -> WitnessReport:
    """Check the two defining identities and the certificate bounds.

    Residuals are maxima over positive-weight points; atoms of weight zero
    are outside the relation's domain and are skipped.
    """
    P, n = rel.r_rows.shape
    if cert.rho.shape[0] != P or cert.rho.shape[1] != n or cert.mu.shape[0] != P:
        raise InvalidInput("certificate shape does not match the relation")
    if cert.rho.shape[2] != cert.mu.shape[1]:
        raise InvalidInput("rho and mu disagree on the inner dimension")
    live = rel.point_weights > 0
    coeff = np.abs(np.einsum("pi,pij->pj", rel.r_rows, cert.rho))
    recon = np.abs(rel.m_rows - np.einsum("pij,pj->pi", cert.rho, cert.mu))
    max_coeff = float(coeff[live].max()) if np.any(live) else 0.0
    max_recon = float(recon[live].max()) if np.any(live) else 0.0

    rho_bound_ok = bool(np.max(np.abs(cert.rho)) <= 1.0 + 1e-12) if cert.rho.size else True
    mu_norms = np.einsum("p,pj->j", rel.point_weights, np.abs(cert.mu) ** 2)
    m_norm_total = float(np.sum(rel.point_weights[:, None] * np.abs(rel.m_rows) ** 2))
    tol = 1e-10 * (1.0 + m_norm_total)
    mu_norm_ok = bool(np.all(mu_norms <= m_norm_total + tol))

    coeff_scale = 1.0 + float(np.max(rel.r_norms))
    recon_scale = 1.0 + float(np.max(rel.m_norms))
    return WitnessReport(
        max_coeff_residual=max_coeff,
        max_reconstruction_residual=max_recon,
        rho_bound_ok=rho_bound_ok,
        mu_norm_ok=mu_norm_ok,
        coeff_scale=coeff_scale,
        reconstruction_scale=recon_scale,
    )
