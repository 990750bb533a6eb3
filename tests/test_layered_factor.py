import re

import numpy as np
import pytest

from flatwitness.bezout_ops import sampled_function
from flatwitness.errors import DegenerateTail, InvalidInput
from flatwitness.layered_factor import (
    LayeredSpace,
    build_weight,
    factor,
    preset_circle,
    preset_l2,
    preset_lebesgue_r,
    shell_energies,
    verify_star_bound,
)
from flatwitness.seq_core import geometric_profile, profile_from_energies
from flatwitness.ultralimits import (
    Membership,
    bounded_sequence,
    eventual_limit,
    ideal_membership_nonprincipal,
)

EPS = np.finfo(float).eps


def test_shell_energies_l2_geometric():
    f, layout, _ = preset_l2(30, ratio=0.5)
    prof = shell_energies(f, layout)  # truncated, no tail descriptor
    k = np.arange(1, 31, dtype=float)
    assert np.allclose(prof.magnitudes_sq, 2.0**-k, rtol=1e-15)
    for n in range(30):
        assert prof.suffix_sums[n] == pytest.approx(2.0**-n - 2.0**-30, rel=1e-13)


def test_shell_energies_single_shell_support():
    _, layout, _ = preset_l2(10)
    f = sampled_function(np.concatenate([[3.0], np.zeros(9)]), layout.flat_weights)
    prof = shell_energies(f, layout)
    assert prof.magnitudes_sq[0] == pytest.approx(f.norm_sq)
    assert np.all(prof.magnitudes_sq[1:] == 0.0)


def test_shell_energies_additive_over_atoms():
    single = LayeredSpace(np.ones((5, 1)))
    double = LayeredSpace(np.ones((5, 2)))
    vals = np.linspace(1.0, 0.2, 5)
    f1 = sampled_function(vals, single.flat_weights)
    f2 = sampled_function(np.repeat(vals, 2), double.flat_weights)
    p1 = shell_energies(f1, single)
    p2 = shell_energies(f2, double)
    assert np.allclose(p2.magnitudes_sq, 2.0 * p1.magnitudes_sq, rtol=1e-15)


def test_shell_energy_alignment_check():
    f, layout, _ = preset_l2(5)
    with pytest.raises(InvalidInput):
        shell_energies(sampled_function(np.ones(4)), layout)
    with pytest.raises(InvalidInput):
        shell_energies(sampled_function(np.ones(5), 2.0 * layout.flat_weights), layout)


def test_build_weight_general_geometric():
    prof = geometric_profile(0.5, 64)
    w = build_weight(prof, mode="general")
    n = np.arange(1, 65, dtype=float)
    expected = np.concatenate([[1.0], 2.0 ** ((n[1:] - 1) / 4.0)])
    assert np.allclose(w.values, expected, rtol=1e-14)
    assert w.mode == "general"


def test_build_weight_compact_is_shell_index():
    prof = profile_from_energies(np.ones(7))
    w = build_weight(prof, mode="compact")
    assert np.array_equal(w.values, np.arange(1, 8, dtype=float))


def test_build_weight_single_shell():
    w = build_weight(profile_from_energies(np.array([2.0])), mode="compact")
    assert np.array_equal(w.values, [1.0])


def test_factor_single_shell_general_branch():
    f, layout, tail = preset_l2(1, ratio=0.5)
    res = factor(f, layout, tail_sum_sq=tail)
    assert res.mode == "general"
    assert np.array_equal(res.w_values, [1.0])
    rep = verify_star_bound(res)
    assert rep.holds
    assert rep.rhs == pytest.approx(res.profile.head)


def test_build_weight_auto_selects_by_tail():
    with_tail = geometric_profile(0.5, 8)
    assert build_weight(with_tail).mode == "general"
    without_tail = profile_from_energies(2.0 ** -np.arange(1, 9, dtype=float))
    assert build_weight(without_tail).mode == "compact"


def test_build_weight_degenerate_midsequence():
    prof = profile_from_energies(np.array([1.0, 0.0, 0.0, 0.0]))  # r_1.. all zero
    with pytest.raises(DegenerateTail):
        build_weight(prof, mode="general")


def test_factor_geometric_closed_forms():
    n_shells = 64
    f, layout, tail = preset_l2(n_shells, ratio=0.5)
    res = factor(f, layout, tail_sum_sq=tail)
    k = np.arange(1, n_shells + 1, dtype=float)
    assert np.max(np.abs(res.g_shell_values - 2.0 ** (-(k - 1) / 4.0))) <= 1e-12
    assert np.max(np.abs(res.h.values - 2.0 ** (-(k + 1) / 4.0))) <= 1e-12
    oracle = float(np.sum(np.abs(res.h.values.astype(np.clongdouble)) ** 2))
    assert res.h_norm_sq == pytest.approx(oracle, rel=1e-13)
    assert res.residual <= 1e-12 * (1.0 + f.norm)
    # last reciprocal-weight value is exactly the fourth root of the last
    # suffix sum used
    assert res.g_shell_values[-1] <= res.profile.suffix_sums[-2] ** 0.25 * (1 + 1e-15)
    # per-atom recombination undoes the division to a few roundings
    assert np.max(np.abs(res.g.values * res.h.values - f.values)) \
        <= 4 * EPS * np.max(np.abs(f.values))


def test_factor_compact_support():
    f, layout, _ = preset_l2(8)
    g_only_first = sampled_function(
        np.concatenate([[f.values[0]], np.zeros(7)]), layout.flat_weights
    )
    res = factor(g_only_first, layout)
    assert res.mode == "compact"
    assert np.allclose(res.g_shell_values, 1.0 / np.arange(1, 9), rtol=1e-15)
    assert np.array_equal(res.h.values[1:], np.zeros(7))
    assert res.h.norm == pytest.approx(g_only_first.norm, rel=1e-14)


def test_factor_zero_function_policies():
    f, layout, _ = preset_l2(6)
    zero = sampled_function(np.zeros(6), layout.flat_weights)
    res = factor(zero, layout)  # auto picks compact for tail-free data
    assert res.mode == "compact"
    assert np.all(res.h.values == 0.0)
    with pytest.raises(DegenerateTail):
        factor(zero, layout, mode="general")


def test_star_bound_geometric_closed_form():
    f, layout, tail = preset_l2(64, ratio=0.5)
    res = factor(f, layout, tail_sum_sq=tail)
    rep = verify_star_bound(res)
    assert rep.holds
    # both sides in closed form: lhs sums 2^-(k+1)/2, rhs adds the head mass
    x = 2.0**-0.5
    lhs_closed = 0.5 * (1.0 - x**64) / (1.0 - x)
    assert rep.lhs == pytest.approx(lhs_closed, rel=1e-12)
    head = res.profile.head
    series = sum(2.0**-k / np.sqrt(2.0 ** -(k - 1)) for k in range(2, 65))
    assert rep.rhs == pytest.approx(head + series, rel=1e-12)
    assert rep.lhs <= rep.cauchy_bound + head + rep.tol


def test_star_bound_compact_is_weighted_mass():
    f, layout, _ = preset_l2(8)
    compact_f = sampled_function(
        np.concatenate([f.values[:3], np.zeros(5)]), layout.flat_weights
    )
    res = factor(compact_f, layout)
    rep = verify_star_bound(res)
    shells = np.arange(1, 9, dtype=float)
    assert rep.rhs == pytest.approx(float(np.sum(shells**2 * res.profile.magnitudes_sq)))
    assert rep.holds


def test_star_bound_random_long_profile():
    rng = np.random.default_rng(12)
    n_shells = 1000
    layout = LayeredSpace(np.ones((n_shells, 1)))
    vals = rng.standard_normal(n_shells) * np.arange(1, n_shells + 1.0) ** -1.0
    f = sampled_function(vals, layout.flat_weights)
    res = factor(f, layout, mode="general", tail_sum_sq=1e-8)
    rep = verify_star_bound(res)
    assert rep.holds
    # extended-precision oracle for the weighted mass of h
    lhs_oracle = float(np.sum((res.w_values.astype(np.longdouble) ** 2)
                              * res.profile.magnitudes_sq))
    assert rep.lhs == pytest.approx(lhs_oracle, rel=1e-12)


def test_factor_general_feeds_membership_yes():
    f, layout, tail = preset_l2(64, ratio=0.5)
    res = factor(f, layout, tail_sum_sq=tail)
    seq = bounded_sequence(res.g_shell_values)
    assert ideal_membership_nonprincipal(eventual_limit(seq, 1e-3), tol=1e-3) is Membership.YES


def test_preset_lebesgue_r_energies_match_integrals():
    f, layout, tail = preset_lebesgue_r(12, atoms_per_shell=256)
    prof = shell_energies(f, layout, tail_sum_sq=tail)
    n = np.arange(1, 13, dtype=float)
    exact = 2.0 * (np.exp(-(n - 1)) - np.exp(-n))  # integral of e^-|x| over the shell
    assert np.allclose(prof.magnitudes_sq, exact, rtol=1e-4)
    res = factor(f, layout, tail_sum_sq=tail)
    assert res.mode == "general"
    assert verify_star_bound(res).holds
    assert np.all(np.diff(res.g_shell_values) <= 0)


def test_preset_circle_energies_match_arc_lengths():
    f, layout, tail = preset_circle(16, atoms_per_shell=64)
    prof = shell_energies(f, layout, tail_sum_sq=tail)
    n = np.arange(2, 17, dtype=float)
    assert prof.magnitudes_sq[0] == pytest.approx(2.0 * (np.pi - 1.0), rel=1e-12)
    assert np.allclose(prof.magnitudes_sq[1:], 2.0 * (1.0 / (n - 1) - 1.0 / n), rtol=1e-12)
    res = factor(f, layout, tail_sum_sq=tail)
    assert verify_star_bound(res).holds
    # total mass exceeds 1 here, so only the type-level monotonicity applies:
    # the weight never decreases from shell 2 onward
    assert np.all(np.diff(res.w_values[1:]) >= 0)


def test_layout_validation():
    with pytest.raises(InvalidInput):
        LayeredSpace([])
    with pytest.raises(InvalidInput):
        LayeredSpace([[0.0]])  # nonpositive atom weight
    with pytest.raises(InvalidInput):
        LayeredSpace([[1.0], []])  # a shell without atoms


@pytest.mark.parametrize("call, message", [
    (lambda: build_weight(geometric_profile(0.5, 4), mode="sideways"), "unknown mode 'sideways'"),
    (lambda: preset_l2(8, ratio=1.0), "ratio must lie in (0, 1)"),
    (lambda: preset_l2(8, ratio=0.0), "ratio must lie in (0, 1)"),
    (lambda: preset_l2(0), "need at least one shell"),
    (lambda: preset_circle(8, atoms_per_shell=3),
     "need n_shells >= 1 and an even atoms_per_shell >= 2"),
    (lambda: preset_lebesgue_r(0), "need n_shells >= 1 and an even atoms_per_shell >= 2"),
])
def test_layered_refusals(call, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()
