from functools import partial

import numpy as np
import pytest

from flatwitness import halfplane_transfer, hardy_engine
from flatwitness.acceptance import halfplane_points
from flatwitness.errors import InvalidInput
from flatwitness.halfplane_transfer import (
    disk_to_halfplane_h2,
    halfplane_to_disk_h2,
    mobius,
    mobius_inv,
    transfer_factorization,
)
from flatwitness.hardy_engine import OuterFunction, constant_function, eval_series, hardy_factor


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
    half_linear = disk_to_halfplane_h2(np.array([0.5, -0.5]), s)  # (1 - z)/2
    assert np.max(np.abs(half_linear - 1.0 / (1.0 + s) ** 2)) <= 1e-15
    one = disk_to_halfplane_h2(np.array([1.0]), s)
    assert np.max(np.abs(one - 1.0 / (1.0 + s))) <= 1e-15
    zero = disk_to_halfplane_h2(np.array([0.0]), s)
    assert np.all(zero == 0.0)


def test_halfplane_to_disk_fixture():
    z = np.array([0.0, 0.5j, -0.3, 0.2 + 0.2j])
    f = halfplane_to_disk_h2(lambda s: 1.0 / (1.0 + s) ** 2, z)
    assert np.max(np.abs(f - (1.0 - z) / 2.0)) <= 1e-15
    zero = halfplane_to_disk_h2(np.zeros_like, z)
    assert np.all(zero == 0.0)


def test_round_trip_random_series():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        z = 0.95 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
        back = halfplane_to_disk_h2(partial(disk_to_halfplane_h2, coeffs), z)
        worst = max(worst, float(np.max(np.abs(back - eval_series(coeffs, z)))))
    assert worst <= 1e-10


def test_domain_enforcement():
    with pytest.raises(InvalidInput):
        disk_to_halfplane_h2(np.array([1.0]), np.array([-0.1 + 1.0j]))
    F = lambda s: 1.0 / (1.0 + s)
    with pytest.raises(InvalidInput):
        halfplane_to_disk_h2(F, np.array([1.0 + 0.0j]))
    with pytest.raises(InvalidInput):
        halfplane_to_disk_h2(F, np.array([1.2j]))


def test_transfer_trivial_factorization():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 5.0, 64) + 1j * rng.uniform(-5.0, 5.0, 64)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    out = transfer_factorization(coeffs, partial(eval_series, np.array([1.0])), pts)
    assert out.max_identity_residual <= 1e-13
    assert np.max(np.abs(out.G - 1.0)) == 0.0
    assert np.max(np.abs(out.H - out.F)) <= 1e-15


def test_transfer_linear_fixture():
    pts = np.array([0.5, 1.0, 2.0 + 1.0j])
    half = transfer_factorization(np.array([0.5, -0.5]), partial(eval_series, [0.5, -0.5]), pts)
    assert np.max(np.abs(half.F - 1.0 / (1.0 + pts) ** 2)) <= 1e-15
    assert np.max(np.abs(half.G - 1.0 / (1.0 + pts))) <= 1e-15
    assert np.max(np.abs(half.H - 1.0 / (1.0 + pts))) <= 1e-15


def test_transfer_pipeline_output():
    res = hardy_factor(constant_function(2**12), 64)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.05, 4.0, 100) + 1j * rng.uniform(-4.0, 4.0, 100)
    out = transfer_factorization(res.f.taylor(), res.outer, pts)
    assert out.max_identity_residual <= 1e-8
    assert out.disk_residual <= 1e-10


def test_transfer_evaluates_each_factor_once(monkeypatch):
    calls = {"eval_series": 0, "outer": 0, "mobius": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the outer function evaluates its log series through hardy_engine's eval_series
    series = counted("eval_series", eval_series)
    monkeypatch.setattr(halfplane_transfer, "eval_series", series)
    monkeypatch.setattr(hardy_engine, "eval_series", series)
    monkeypatch.setattr(halfplane_transfer, "mobius",
                        counted("mobius", halfplane_transfer.mobius))
    monkeypatch.setattr(OuterFunction, "__call__", counted("outer", OuterFunction.__call__))
    res = hardy_factor(constant_function(2**10), 16)
    transfer_factorization(res.f.taylor(), res.outer,
                           halfplane_points(np.random.default_rng(5), 20))
    assert calls == {"eval_series": 2, "outer": 1, "mobius": 1}


def _closure_route(res, pts):
    """The transfer as closures built from the factorization: the reference route."""
    f_taylor = res.f.taylor()

    def f_eval(z):
        return eval_series(f_taylor, z)

    def h_eval(z):
        return f_eval(z) / res.outer(z)

    def halfplane(disk_eval):
        def F(s):
            s = np.asarray(s, dtype=complex)
            return disk_eval(mobius(s)) / (1.0 + s)
        return F

    F, H = halfplane(f_eval), halfplane(h_eval)

    def G(s):
        return res.outer(mobius(np.asarray(s, dtype=complex)))

    z = mobius(pts)
    disk = float(np.max(np.abs(f_eval(z) - res.outer(z) * h_eval(z))))
    identity = float(np.max(np.abs(F(pts) - G(pts) * H(pts))))
    return F(pts), G(pts), H(pts), identity, disk


@pytest.mark.parametrize("seed", [20250811, 4099])
def test_transfer_values_match_closure_route_bitwise(seed):
    res = hardy_factor(constant_function(2**14), 256)
    pts = halfplane_points(np.random.default_rng(seed), 100)
    out = transfer_factorization(res.f.taylor(), res.outer, pts)
    F, G, H, identity, disk = _closure_route(res, pts)
    assert out.F.tobytes() == F.tobytes()
    assert out.G.tobytes() == G.tobytes()
    assert out.H.tobytes() == H.tobytes()
    assert out.max_identity_residual == identity
    assert out.disk_residual == disk


def test_sup_norm_transfer_is_isometric_on_matched_samples():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 5.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200)
    g = partial(eval_series, np.array([0.3, -0.2, 0.1j]))
    lhs = np.max(np.abs(g(mobius(pts))))
    composed = lambda s: g(mobius(s))
    assert np.max(np.abs(composed(pts))) == lhs


def test_evaluator_input_validation():
    with pytest.raises(InvalidInput):
        disk_to_halfplane_h2(np.zeros((2, 2)), np.array([1.0]))
    with pytest.raises(InvalidInput):
        transfer_factorization(np.zeros((2, 2)), np.ones_like, np.array([1.0]))
    with pytest.raises(InvalidInput):
        transfer_factorization(np.array([1.0]), np.ones_like, np.array([]))
