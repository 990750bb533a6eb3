import numpy as np
import pytest

from flatwitness.errors import InvalidInput
from flatwitness.halfplane_transfer import (
    as_disk_evaluator,
    disk_to_halfplane_h2,
    halfplane_to_disk_h2,
    mobius,
    mobius_inv,
    transfer_factorization,
)
from flatwitness.hardy_engine import constant_function, hardy_factor


def test_mobius_fixtures():
    assert mobius(1.0) == 0.0
    assert mobius_inv(0.0) == 1.0
    assert mobius(1j) == pytest.approx(1j, abs=1e-15)
    y = np.linspace(-20.0, 20.0, 41)
    assert np.max(np.abs(np.abs(mobius(1j * y)) - 1.0)) <= 1e-14


def test_mobius_poles():
    with pytest.raises(InvalidInput):
        mobius(-1.0)
    with pytest.raises(InvalidInput):
        mobius_inv(1.0)


def test_mobius_round_trip():
    rng = np.random.default_rng(2)
    s = rng.uniform(0.01, 10, 200) + 1j * rng.uniform(-10, 10, 200)
    assert np.max(np.abs(mobius_inv(mobius(s)) - s)) <= 1e-12
    z = 0.999 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    assert np.max(np.abs(mobius(mobius_inv(z)) - z)) <= 1e-14


def test_disk_to_halfplane_fixtures():
    s = np.array([0.5, 1.0, 2.0 + 3.0j, 0.1 - 0.7j])
    half_linear = disk_to_halfplane_h2(np.array([0.5, -0.5]))  # (1 - z)/2
    assert np.max(np.abs(half_linear(s) - 1.0 / (1.0 + s) ** 2)) <= 1e-15
    one = disk_to_halfplane_h2(np.array([1.0]))
    assert np.max(np.abs(one(s) - 1.0 / (1.0 + s))) <= 1e-15
    zero = disk_to_halfplane_h2(np.array([0.0]))
    assert np.all(zero(s) == 0.0)


def test_halfplane_to_disk_fixture():
    f = halfplane_to_disk_h2(lambda s: 1.0 / (1.0 + s) ** 2)
    z = np.array([0.0, 0.5j, -0.3, 0.2 + 0.2j])
    assert np.max(np.abs(f(z) - (1.0 - z) / 2.0)) <= 1e-15
    zero = halfplane_to_disk_h2(lambda s: np.zeros_like(np.asarray(s, complex)))
    assert np.all(zero(z) == 0.0)


def test_round_trip_random_series():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        f = as_disk_evaluator(coeffs)
        back = halfplane_to_disk_h2(disk_to_halfplane_h2(f))
        z = 0.95 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
        worst = max(worst, float(np.max(np.abs(back(z) - f(z)))))
    assert worst <= 1e-10


def test_domain_enforcement():
    F = disk_to_halfplane_h2(np.array([1.0]))
    with pytest.raises(InvalidInput):
        F(np.array([-0.1 + 1.0j]))
    f = halfplane_to_disk_h2(lambda s: 1.0 / (1.0 + s))
    with pytest.raises(InvalidInput):
        f(np.array([1.0 + 0.0j]))
    with pytest.raises(InvalidInput):
        f(np.array([1.2j]))


def test_transfer_trivial_factorization():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 5.0, 64) + 1j * rng.uniform(-5.0, 5.0, 64)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    out = transfer_factorization(coeffs, np.array([1.0]), coeffs, pts)
    assert out.max_identity_residual <= 1e-13
    assert np.max(np.abs(out.G(pts) - 1.0)) == 0.0
    assert np.max(np.abs(out.H(pts) - out.F(pts))) <= 1e-15


def test_transfer_linear_fixture():
    pts = np.array([0.5, 1.0, 2.0 + 1.0j])
    half = transfer_factorization(np.array([0.5, -0.5]), np.array([0.5, -0.5]),
                                  np.array([1.0]), pts)
    assert np.max(np.abs(half.F(pts) - 1.0 / (1.0 + pts) ** 2)) <= 1e-15
    assert np.max(np.abs(half.G(pts) - 1.0 / (1.0 + pts))) <= 1e-15
    assert np.max(np.abs(half.H(pts) - 1.0 / (1.0 + pts))) <= 1e-15


def test_transfer_pipeline_output():
    res = hardy_factor(constant_function(2**12), 64)
    f_eval, g_eval, h_eval = res.evaluators()
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.05, 4.0, 100) + 1j * rng.uniform(-4.0, 4.0, 100)
    out = transfer_factorization(f_eval, g_eval, h_eval, pts)
    assert out.max_identity_residual <= 1e-8
    assert out.disk_residual <= 1e-10


def test_transfer_residual_scales_with_disk_error():
    # perturbing one factor shows the residual is the disk error damped by 1/|1+s|
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.2, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    f = np.array([1.0, 0.5])
    g = np.array([1.0])
    eps = 1e-6

    def h_perturbed(z):
        return np.polyval(f[::-1], np.asarray(z, complex)) + eps

    out = transfer_factorization(f, g, h_perturbed, pts)
    damp = float(np.max(1.0 / np.abs(1.0 + pts)))
    assert out.disk_residual == pytest.approx(eps, rel=1e-6)
    assert out.max_identity_residual <= eps * damp * (1.0 + 1e-9)


def test_sup_norm_transfer_is_isometric_on_matched_samples():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 5.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200)
    g = as_disk_evaluator(np.array([0.3, -0.2, 0.1j]))
    lhs = np.max(np.abs(g(mobius(pts))))
    composed = lambda s: g(mobius(s))
    assert np.max(np.abs(composed(pts))) == lhs


def test_evaluator_input_validation():
    with pytest.raises(InvalidInput):
        as_disk_evaluator(np.zeros((2, 2)))
    with pytest.raises(InvalidInput):
        transfer_factorization(np.array([1.0]), np.array([1.0]), np.array([1.0]),
                               np.array([]))
