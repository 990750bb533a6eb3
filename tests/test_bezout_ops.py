import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwitness.bezout_ops import (
    principal_generator,
    sampled_function,
    strictness_witness,
)
from flatwitness.errors import InvalidInput

EPS = np.finfo(float).eps


def test_generator_one_sided_atom():
    f = sampled_function([3.0 + 4.0j])
    g = sampled_function([0.0])
    gen = principal_generator(f, g)
    assert gen.d.values[0] == pytest.approx(5.0)
    assert gen.F.values[0] == pytest.approx((3 + 4j) / 5)
    assert gen.G.values[0] == 0.0
    assert gen.F.values[0] * gen.d.values[0] == pytest.approx(3 + 4j, rel=2 * EPS)


def test_generator_degenerate_atom_conventions():
    gen = principal_generator(sampled_function([0.0]), sampled_function([0.0]))
    assert gen.d.values[0] == 0.0
    # where f = g = 0 every cofactor is 1, so cf and cg stay unimodular
    assert gen.F.values[0] == gen.G.values[0] == 1.0
    assert gen.cf.values[0] == gen.cg.values[0] == 1.0
    assert gen.F.values[0] * gen.d.values[0] == 0.0


def test_generator_unit_pair():
    gen = principal_generator(sampled_function([1.0]), sampled_function([1.0j]))
    assert gen.d.values[0] == 2.0
    assert gen.F.values[0] == pytest.approx(0.5)
    assert gen.G.values[0] == pytest.approx(0.5j)
    assert gen.cf.values[0] == pytest.approx(1.0)
    assert gen.cg.values[0] == pytest.approx(-1.0j)
    lhs = 1.0 * gen.cf.values[0] + 1.0j * gen.cg.values[0]
    assert lhs == pytest.approx(2.0, rel=1e-15)


def _five_identity_errors(fv, gv):
    f, g = sampled_function(fv), sampled_function(gv)
    gen = principal_generator(f, g)
    d = gen.d.values.real

    def rel(lhs, target, scale):
        err = np.abs(lhs - target)
        out = err / np.maximum(scale, 1e-300)
        out[scale == 0] = err[scale == 0]
        return float(out.max())

    return {
        "f": rel(gen.F.values * d, fv, np.abs(fv)),
        "g": rel(gen.G.values * d, gv, np.abs(gv)),
        "d": rel(fv * gen.cf.values + gv * gen.cg.values, d, d),
        "Fb": float(np.abs(gen.F.values).max() - 1.0),
        "Gb": float(np.abs(gen.G.values).max() - 1.0),
        "cf": float(np.abs(np.abs(gen.cf.values) - 1.0).max()),
        "cg": float(np.abs(np.abs(gen.cg.values) - 1.0).max()),
    }


def test_generator_identities_random_two_ulp():
    rng = np.random.default_rng(9)
    for _ in range(30):
        fv = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        gv = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        fv[rng.uniform(size=1000) < 0.05] = 0.0
        gv[rng.uniform(size=1000) < 0.05] = 0.0
        errs = _five_identity_errors(fv, gv)
        assert max(errs.values()) <= 2 * EPS, errs


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                          st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                min_size=1, max_size=50))
@settings(max_examples=150, deadline=None)
def test_generator_identities_property(quads):
    arr = np.asarray(quads, dtype=float)
    fv = arr[:, 0] + 1j * arr[:, 1]
    gv = arr[:, 2] + 1j * arr[:, 3]
    errs = _five_identity_errors(fv, gv)
    assert max(errs.values()) <= 2 * EPS


def test_mismatched_atoms_rejected():
    f = sampled_function([1.0], [1.0])
    g = sampled_function([1.0], [2.0])
    with pytest.raises(InvalidInput):
        principal_generator(f, g)
    with pytest.raises(InvalidInput):
        principal_generator(f, sampled_function([1.0, 2.0]))


def test_norm_sq_ignores_null_atoms():
    f = sampled_function([10.0, 1.0], [0.0, 1.0])
    assert f.norm_sq == 1.0


def test_strictness_witness():
    g = sampled_function([0.0, 2.0, 0.0, 1.0j], [0.5, 1.0, 0.25, 1.0])
    obstruction = strictness_witness(g)
    assert obstruction.zero_mass == 0.75
    assert obstruction.distance == pytest.approx(np.sqrt(0.75))
    assert np.array_equal(obstruction.witness.values, [1, 0, 1, 0])
    # a nowhere-vanishing generator has no obstruction
    clean = strictness_witness(sampled_function([1.0, 2.0]))
    assert clean.zero_mass == 0.0
    # zero values on null atoms do not count
    null = strictness_witness(sampled_function([0.0, 1.0], [0.0, 1.0]))
    assert null.zero_mass == 0.0


@pytest.mark.parametrize("values, weights, message", [
    (np.ones((2, 2)), None, "values must be a one-dimensional, nonempty array"),
    ([], None, "values must be a one-dimensional, nonempty array"),
    ([1.0, 2.0], [1.0], "weights must match values in shape"),
    ([1.0, np.nan], None, "values and weights must be finite"),
    ([1.0, 2.0], [1.0, np.inf], "values and weights must be finite"),
    ([1.0, 2.0], [1.0, -1.0], "weights must be nonnegative"),
])
def test_sampled_function_refusals(values, weights, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        sampled_function(values, weights)
