import re

import numpy as np
import pytest

from flatwitness import acceptance
from flatwitness.errors import InvalidInput, NotARelation
from flatwitness.pointwise_witness import (
    ZERO_THRESHOLD,
    WitnessCertificate,
    pointwise_relation,
    synthesize_witness,
    verify_witness,
)


def random_relation(rng, n, p, zero_rows=0.0, zero_weights=0.0):
    weights = rng.uniform(size=p)
    if zero_weights:
        weights[rng.uniform(size=p) < zero_weights] = 0.0
    r = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    if zero_rows:
        r[rng.uniform(size=p) < zero_rows] = 0.0
    raw_m = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    return acceptance.manufactured_relation(weights, r, raw_m)


def frame_rows(v):
    """The frame built on the vector v, one frame vector per row.

    The certificate builds its frames on the conjugated coefficient row and
    stores frame vector j as rho[p, :, j], so a one-point relation with
    coefficient row conj(v) (and a zero module row) carries the frame of v.
    """
    v = np.asarray(v, dtype=complex)
    rel = pointwise_relation([1.0], [np.conj(v)], [np.zeros_like(v)])
    return synthesize_witness(rel).rho[0].T


def test_frame_two_dim_spans_complement():
    v1, v2 = frame_rows(np.array([1.0, 1.0]))
    assert np.allclose(np.abs(v1), np.abs(np.array([1, 1]) / np.sqrt(2)), atol=1e-14)
    assert abs(np.vdot(np.array([1.0, 1.0]), v1)) <= 1e-14  # orthogonal to the input
    assert np.allclose(v2, 0.0)
    assert abs(np.linalg.norm(v1) - 1.0) <= 1e-14


def test_frame_zero_row_gives_standard_basis():
    assert np.array_equal(frame_rows(np.zeros(2)), np.eye(2, dtype=complex))


def test_frame_one_dim():
    assert np.array_equal(frame_rows(np.array([1.0])), np.zeros((1, 1), dtype=complex))


def test_frame_orthonormality_random_complex():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8):
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vecs = frame_rows(r)
        live = vecs[: n - 1]
        gram = live @ np.conj(live.T)
        assert np.max(np.abs(gram - np.eye(n - 1))) <= 1e-12
        # every live frame vector annihilates r in the hermitian pairing
        assert np.max(np.abs(live @ np.conj(r))) <= 1e-12 * np.linalg.norm(r)
        assert np.allclose(vecs[n - 1], 0.0)


def test_frame_determinism():
    rng = np.random.default_rng(11)
    r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert frame_rows(r).tobytes() == frame_rows(r.copy()).tobytes()


def test_single_point_hand_example():
    rel = pointwise_relation([1.0], [[1.0, 1.0]], [[1.0, -1.0]])
    cert = synthesize_witness(rel)
    assert cert.k == 2
    assert abs(abs(cert.mu[0, 0]) - np.sqrt(2)) <= 1e-14
    assert abs(cert.mu[0, 1]) <= 1e-14
    col = cert.rho[0, :, 0]
    assert np.allclose(np.abs(col), np.array([1, 1]) / np.sqrt(2), atol=1e-14)
    rep = verify_witness(rel, cert)
    assert rep.max_coeff_residual <= 1e-14
    assert rep.max_reconstruction_residual <= 1e-14
    assert rep.max_abs_rho <= 1.0 + 1e-12 and rep.mu_norm_ok


def test_zero_coefficient_row_passes_module_through():
    rel = pointwise_relation([1.0], [[0.0]], [[2.5 + 1.0j]])
    cert = synthesize_witness(rel)
    assert cert.rho[0, 0, 0] == 1.0
    assert cert.mu[0, 0] == 2.5 + 1.0j
    rep = verify_witness(rel, cert)
    assert rep.max_reconstruction_residual == 0.0


def test_one_dim_nonzero_row_forces_zero_witness():
    rel = pointwise_relation([1.0], [[2.0]], [[0.0]])
    cert = synthesize_witness(rel)
    assert np.allclose(cert.rho, 0.0)
    assert np.allclose(cert.mu, 0.0)
    assert verify_witness(rel, cert).max_coeff_residual == 0.0


def test_random_relations_synthesize_then_verify():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 200))
        rel = random_relation(rng, n, p, zero_rows=0.15, zero_weights=0.15)
        cert = synthesize_witness(rel)
        rep = verify_witness(rel, cert)
        assert rep.max_coeff_residual <= 1e-10 * rep.coeff_scale
        assert rep.max_reconstruction_residual <= 1e-10 * rep.reconstruction_scale
        assert rep.max_abs_rho <= 1.0 + 1e-12
        assert rep.mu_norm_ok


def test_mu_norm_sharper_bound_per_column():
    rng = np.random.default_rng(3)
    rel = random_relation(rng, 4, 300)
    cert = synthesize_witness(rel)
    m_total = float(np.sum(rel.point_weights[:, None] * np.abs(rel.m_rows) ** 2))
    mu_norms = np.einsum("p,pj->j", rel.point_weights, np.abs(cert.mu) ** 2)
    assert np.all(mu_norms <= m_total + 1e-10 * (1.0 + m_total))


def test_broken_certificate_detected():
    rng = np.random.default_rng(17)
    rel = random_relation(rng, 3, 50)
    cert = synthesize_witness(rel)
    doubled = WitnessCertificate(cert.rho, 2.0 * cert.mu)
    rep = verify_witness(rel, doubled)
    assert rep.max_reconstruction_residual > 1e-3


def test_zero_relation_zero_certificate():
    rel = pointwise_relation([1.0, 1.0], np.zeros((2, 3)), np.zeros((2, 3)))
    cert = WitnessCertificate(np.zeros((2, 3, 3), complex), np.zeros((2, 3), complex))
    rep = verify_witness(rel, cert)
    assert rep.max_coeff_residual == 0.0
    assert rep.max_reconstruction_residual == 0.0


def test_not_a_relation_raises():
    rel = pointwise_relation([1.0], [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(NotARelation):
        synthesize_witness(rel)


def test_violation_on_null_atom_is_ignored():
    weights = [0.0, 1.0]
    r = [[1.0, 0.0], [1.0, 1.0]]
    m = [[1.0, 0.0], [1.0, -1.0]]  # first point violates, but carries no weight
    cert = synthesize_witness(pointwise_relation(weights, r, m))
    rep = verify_witness(pointwise_relation(weights, r, m), cert)
    assert rep.max_coeff_residual <= 1e-12
    assert rep.max_reconstruction_residual <= 1e-12


def test_shape_mismatch_rejected():
    rel = pointwise_relation([1.0], [[1.0, 1.0]], [[1.0, -1.0]])
    bad = WitnessCertificate(np.zeros((1, 3, 3), complex), np.zeros((1, 3), complex))
    with pytest.raises(InvalidInput):
        verify_witness(rel, bad)
    with pytest.raises(InvalidInput):
        pointwise_relation([1.0], [[1.0, 1.0]], [[1.0]])


def test_near_threshold_row_treated_as_zero():
    # a row below the split threshold takes the full basis and still verifies
    rel = pointwise_relation([1.0], [[1e-16, 0.0]], [[0.3, 0.7]])
    cert = synthesize_witness(rel)
    rep = verify_witness(rel, cert)
    assert rep.max_reconstruction_residual <= 1e-14
    assert np.array_equal(cert.rho[0], np.eye(2, dtype=complex))


@pytest.mark.parametrize("call, message", [
    (lambda: pointwise_relation([-1.0], [[1.0]], [[0.0]]), "point weights must be nonnegative"),
    (lambda: verify_witness(pointwise_relation([1.0], [[1.0, 0.0]], [[0.0, 1.0]]),
                            WitnessCertificate(np.zeros((1, 2, 2)), np.zeros((1, 1)))),
     "rho and mu disagree on the inner dimension"),
])
def test_relation_refusals(call, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()


def frame_route(rel):
    """(rho, mu) built the way the certificate once was: each frame as rows, then transposed.

    A zero row keeps the identity frame; a nonzero row takes rows 1..n-1 of
    the transposed reflector, then one zero row.
    """
    rows, norms = np.conj(rel.r_rows), rel.r_norms
    P, n = rows.shape
    peak = float(np.max(np.abs(rel.r_rows)))
    nz = norms > ZERO_THRESHOLD * max(1.0, peak)
    frames = np.broadcast_to(np.eye(n, dtype=complex), (P, n, n)).copy()
    x = rows[nz] / norms[nz, None]
    lead = x[:, 0]
    alead = np.abs(lead)
    phase = np.where(alead > 0, lead / np.where(alead > 0, alead, 1), 1.0)
    v = x.copy()
    v[:, 0] += phase
    vnorm_sq = np.einsum("pi,pi->p", v, np.conj(v)).real
    reflect = np.broadcast_to(np.eye(n, dtype=complex), (v.shape[0], n, n)).copy()
    reflect -= 2.0 * v[:, :, None] * np.conj(v)[:, None, :] / vnorm_sq[:, None, None]
    out = np.zeros((v.shape[0], n, n), dtype=complex)
    out[:, : n - 1, :] = np.transpose(reflect[:, :, 1:], (0, 2, 1))
    frames[nz] = out
    rho = np.transpose(frames, (0, 2, 1)).copy()
    mu = np.einsum("pi,pji->pj", rel.m_rows, np.conj(frames))
    return rho, mu


def assert_frame_route_bits(rel):
    cert = synthesize_witness(rel)
    rho, mu = frame_route(rel)
    for got, want in ((cert.rho, rho), (cert.mu, mu)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [acceptance.DEFAULT_SEED, 4099])
def test_certificate_bits_match_frame_route_on_criterion_2(monkeypatch, seed):
    relations = []
    checks = acceptance.witness_checks
    monkeypatch.setattr(acceptance, "witness_checks",
                        lambda rel: relations.append(rel) or checks(rel))
    acceptance.criterion_2(seed)
    assert len(relations) == 200
    for rel in relations:
        assert_frame_route_bits(rel)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_certificate_bits_match_frame_route(n):
    rng = np.random.default_rng(12)
    for p in (1, 7, 64):
        assert_frame_route_bits(random_relation(rng, n, p))
        assert_frame_route_bits(random_relation(rng, n, p, zero_rows=0.5, zero_weights=0.5))
    # every row zero, and every point of weight zero
    m = rng.standard_normal((4, n))
    assert_frame_route_bits(pointwise_relation(np.ones(4), np.zeros((4, n)), m))
    assert_frame_route_bits(pointwise_relation(np.zeros(4), rng.standard_normal((4, n)), m))
