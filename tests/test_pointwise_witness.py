import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwitness import acceptance, pointwise_witness
from flatwitness.acceptance import Check
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


def test_verify_empty_inner_dimension():
    # k = 0: no coefficient residual and no rho entry, and nothing rebuilds m
    rel = pointwise_relation([1.0, 0.0], [[1.0, 1.0], [0.0, 0.0]], [[1.0, -1.0], [2.0, 0.0]])
    cert = WitnessCertificate(np.zeros((2, 2, 0), complex), np.zeros((2, 0), complex))
    rep = verify_witness(rel, cert)
    assert rep.max_coeff_residual.tolist() == [0.0]
    assert rep.max_abs_rho.tolist() == [0.0]
    assert rep.max_reconstruction_residual.tolist() == [1.0]
    assert rep.mu_norm_ok.tolist() == [True]


def test_relation_mass_within_error_model():
    # the mass sums w_p |m_p|^2 from the row norms; against the entrywise sum
    # it differs by order and by the sqrt-then-square, within 2 P eps relative
    rng = np.random.default_rng(29)
    for n, p in ((1, 1), (3, 100), (5, 512)):
        rel = random_relation(rng, n, p, zero_weights=0.1)
        direct = np.sum(rel.point_weights[:, None] * np.abs(rel.m_rows) ** 2)
        assert abs(rel.mass[0] - direct) <= 2 * p * np.finfo(float).eps * direct


def test_each_relation_of_a_stack_is_refused_only_on_its_own_mass():
    # each point's mass is 1e308: one relation of two points overflows, two
    # stacked relations of one point each do not
    w, r, m = [1.0, 1.0], [[0.0], [0.0]], [[1e154], [1e154]]
    with pytest.raises(InvalidInput, match="weighted module mass"):
        pointwise_relation(w, r, m)
    rel = pointwise_relation(w, r, m, starts=(0, 1))
    assert rel.mass.tolist() == [1e308, 1e308]
    runs, _ = acceptance.witness_checks(rel)
    assert len(runs) == 2 and all(c.passed for checks in runs for c in checks)


@pytest.mark.parametrize("call, message", [
    (lambda: pointwise_relation([-1.0], [[1.0]], [[0.0]]), "point weights must be nonnegative"),
    (lambda: verify_witness(pointwise_relation([1.0], [[1.0, 0.0]], [[0.0, 1.0]]),
                            WitnessCertificate(np.zeros((1, 2, 2)), np.zeros((1, 1)))),
     "rho and mu disagree on the inner dimension"),
])
def test_relation_refusals(call, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()


@pytest.mark.parametrize("starts", [(), (1,), (0, 0), (1, 0), (0, 2), [[0]]])
def test_relation_starts_refused(starts):
    with pytest.raises(InvalidInput, match="relation starts must rise strictly from 0"):
        pointwise_relation([1.0, 1.0], [[1.0], [0.0]], [[0.0], [1.0]], starts)


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


def segments(rel):
    """Each relation of a stack as a relation of its own, with the bounds of its points."""
    bounds = [*rel.starts.tolist(), rel.n_points]
    for a, b in zip(bounds[:-1], bounds[1:]):
        yield a, b, pointwise_relation(rel.point_weights[a:b], rel.r_rows[a:b], rel.m_rows[a:b])


@pytest.mark.parametrize("seed", [acceptance.DEFAULT_SEED, 4099])
def test_certificate_bits_match_frame_route_on_criterion_2(monkeypatch, seed):
    stacks = []
    checks = acceptance.witness_checks
    monkeypatch.setattr(acceptance, "witness_checks",
                        lambda rel: stacks.append(rel) or checks(rel))
    acceptance.criterion_2(seed)
    assert sum(rel.starts.size for rel in stacks) == 200
    assert len(stacks) < 200
    assert max(rel.n_points for rel in stacks) <= acceptance.WITNESS_BLOCK_POINTS
    for rel in stacks:
        cert = synthesize_witness(rel)
        for a, b, one in segments(rel):
            rho, mu = frame_route(one)
            for got, want in ((cert.rho[a:b], rho), (cert.mu[a:b], mu)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), null=st.integers(0, 5),
       specs=st.lists(st.tuples(st.integers(1, 64), st.sampled_from([0.0, 0.3, 1.0]),
                                st.sampled_from([0.0, 0.3])), min_size=1, max_size=6))
def test_stacked_gates_equal_one_call_per_relation(n, seed, null, specs):
    # zero rows and zero weights at random, and one relation with every weight zero
    rng = np.random.default_rng(seed)
    parts = []
    for index, (p, zero_rows, zero_weights) in enumerate(specs):
        weights = rng.uniform(size=p)
        weights[rng.uniform(size=p) < zero_weights] = 0.0
        if index == null % len(specs):
            weights[:] = 0.0
        r = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        r[rng.uniform(size=p) < zero_rows] = 0.0
        parts.append((weights, r, rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))))
    starts = np.cumsum([0] + [weights.size for weights, _, _ in parts[:-1]])
    stack = acceptance.manufactured_relation(*map(np.concatenate, zip(*parts)), starts)
    runs, cert = acceptance.witness_checks(stack)
    assert len(runs) == len(parts)
    for (a, b, _), part, checks in zip(segments(stack), parts, runs):
        [one], one_cert = acceptance.witness_checks(acceptance.manufactured_relation(*part))
        assert checks == one
        assert cert.rho[a:b].tobytes() == one_cert.rho.tobytes()
        assert cert.mu[a:b].tobytes() == one_cert.mu.tobytes()


def per_relation_gates(rel):
    """The four witness gates of one relation, computed as the one-relation verifier did."""
    cert = synthesize_witness(rel)
    live = rel.point_weights > 0
    coeff = np.abs(np.einsum("pi,pij->pj", rel.r_rows, cert.rho))
    recon = np.abs(rel.m_rows - np.einsum("pij,pj->pi", cert.rho, cert.mu))
    max_coeff = float(coeff[live].max()) if np.any(live) else 0.0
    max_recon = float(recon[live].max()) if np.any(live) else 0.0
    max_abs_rho = float(np.max(np.abs(cert.rho)))
    mu_norms = np.einsum("p,pj->j", rel.point_weights, np.abs(cert.mu) ** 2)
    total = float(np.sum(rel.point_weights[:, None] * np.abs(rel.m_rows) ** 2))
    mu_ok = bool(np.all(mu_norms <= total + 1e-10 * (1.0 + total)))
    coeff_tol = 1e-10 * (1.0 + float(np.max(rel.r_norms)))
    recon_tol = 1e-10 * (1.0 + float(np.max(rel.m_norms)))
    return [Check("coeff_residual", max_coeff, coeff_tol, max_coeff <= coeff_tol),
            Check("reconstruction_residual", max_recon, recon_tol, max_recon <= recon_tol),
            Check("rho_bound", max_abs_rho, 1.0 + 1e-12, max_abs_rho <= 1.0 + 1e-12),
            Check("mu_norm_bound", mu_ok, None, mu_ok)]


def per_relation_criterion_2(seed):
    """Criterion 2's draws, one relation and one verifier call at a time."""
    rng = np.random.default_rng(seed + 2)
    runs = []
    for _ in range(200):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 513))
        weights = rng.uniform(size=p)
        weights[rng.uniform(size=p) < 0.1] = 0.0
        r = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        r[rng.uniform(size=p) < 0.1] = 0.0
        raw_m = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        runs.append(per_relation_gates(acceptance.manufactured_relation(weights, r, raw_m)))
    return runs


@pytest.mark.parametrize("seed", [acceptance.DEFAULT_SEED, 4099])
def test_criterion_2_matches_per_relation_loop(monkeypatch, seed):
    seen = []
    join = acceptance._all_instances
    monkeypatch.setattr(acceptance, "_all_instances", lambda runs: seen.append(runs) or join(runs))
    result = acceptance.criterion_2(seed)
    want = per_relation_criterion_2(seed)
    # every gate of every relation in draw order, each mu_norm_bound verdict included
    assert seen == [want]
    gates, records = join(want)
    assert result.checks == gates
    assert result.details == {
        "relations": 200,
        "worst_coeff_residual_over_scale":
            max(c.value / c.tol for c in records["coeff_residual"]),
        "worst_reconstruction_residual_over_scale":
            max(c.value / c.tol for c in records["reconstruction_residual"]),
        "max_abs_rho": max(c.value for c in records["rho_bound"]),
    }


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


def frame_columns_by_division(rows, norms, zero_threshold):
    """The frame columns as once built, dividing the frame by vnorm_sq + 0j."""
    P, n = rows.shape
    rho = np.zeros((P, n, n), dtype=complex)
    zero = norms <= zero_threshold
    v = rows / np.where(zero, 1.0, norms)[:, None]
    lead = v[:, 0]
    alead = np.abs(lead)
    phase = np.where(alead > 0, lead / np.where(alead > 0, alead, 1), 1.0)
    v[:, 0] += phase
    vnorm_sq = np.einsum("pi,pi->p", v, np.conj(v)).real
    frame, vt = rho.transpose(1, 2, 0)[:, : n - 1], v.T
    np.multiply(2.0 * vt[:, None, :], np.conj(vt)[None, 1:, :], out=frame, order="C")
    np.true_divide(frame, vnorm_sq, out=frame, order="C")
    np.subtract(np.eye(n)[:, 1:, None], frame, out=frame, order="C")
    rho[zero] = np.eye(n)
    return rho


def test_frame_reciprocal_multiply_matches_division_bits():
    # exact +0 and -0 real and imaginary parts, purely real and purely
    # imaginary rows, and zero rows: the multiply by 1 / vnorm_sq may give a
    # zero part another sign than the division, but never a different rho
    rng = np.random.default_rng(15)
    parts = np.array([0.0, -0.0, 1.0, -2.5, 0.75])
    for _ in range(300):
        n, p = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        rows = rng.choice(parts, (p, n)) + 1j * rng.choice(parts, (p, n))
        rows = np.where(rng.uniform(size=(p, n)) < 0.5, rows, rng.standard_normal((p, n)))
        rows[rng.uniform(size=p) < 0.2] = 0.0
        norms = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
        threshold = np.full(p, ZERO_THRESHOLD)
        got = pointwise_witness._frame_columns(rows, norms, threshold)
        want = frame_columns_by_division(rows, norms, threshold)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
