import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwitness.errors import DegenerateTail, InvalidInput
from flatwitness.seq_core import (
    geometric_profile,
    olympiad_weighted_sum,
    profile_from_energies,
    tail_profile,
    verify_olympiad_bound,
)

EPS = np.finfo(float).eps


def test_geometric_truncated_matches_direct_summation():
    k = np.arange(1, 31, dtype=float)
    a = 2.0 ** (-k / 2.0)
    prof = tail_profile(a)
    mags = np.abs(a) ** 2
    for n in range(31):
        oracle = float(np.sum(mags[n:]))  # direct summation
        assert prof.suffix_sums[n] == pytest.approx(oracle, rel=1e-15)
    # closed form for the truncated geometric sum
    for n in range(30):
        assert prof.suffix_sums[n] == pytest.approx(2.0**-n - 2.0**-30, rel=1e-13)
    assert prof.suffix_sums[30] == 0.0
    assert prof.tail == 0


def test_zero_sequence():
    prof = tail_profile(np.zeros(3))
    assert np.all(prof.suffix_sums == 0.0)
    assert np.all(prof.magnitudes_sq == 0.0)


def test_single_term():
    prof = tail_profile(np.array([1.0]))
    assert prof.suffix_sums[0] == 1.0
    assert prof.suffix_sums[1] == 0.0


def test_nonfinite_entry_rejected():
    with pytest.raises(InvalidInput):
        tail_profile(np.array([1.0, np.inf]))
    with pytest.raises(InvalidInput):
        profile_from_energies(np.array([1.0, -0.5]))


def test_geometric_profile_exact_suffix_sums():
    prof = geometric_profile(0.5, 64)
    n = np.arange(65)
    assert np.array_equal(prof.suffix_sums, 2.0**-n.astype(float))


def test_weighted_sum_geometric_closed_form():
    # brute-force oracle over 200 stored terms of the infinite sequence
    prof = geometric_profile(0.5, 200)
    got = olympiad_weighted_sum(prof, 1, 200)
    oracle = sum(2.0**-k / np.sqrt(2.0 ** -(k - 1)) for k in range(2, 201))
    assert got == pytest.approx(oracle, rel=1e-14)
    closed = 2.0**-1.5 / (1.0 - 2.0**-0.5)  # limit of the full series
    assert got == pytest.approx(closed, abs=1e-14 + 2.0**-100)


def test_weighted_sum_single_term_window():
    prof = tail_profile(np.array([3.0, 2.0, 1.0]))
    expected = prof.magnitudes_sq[1] / np.sqrt(prof.suffix_sums[1])
    assert olympiad_weighted_sum(prof, 1, 2) == expected


def test_window_validation():
    prof = tail_profile(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(InvalidInput):
        olympiad_weighted_sum(prof, 0, 2)
    with pytest.raises(InvalidInput):
        olympiad_weighted_sum(prof, 2, 2)
    with pytest.raises(InvalidInput):
        olympiad_weighted_sum(prof, 1, 4)


def test_degenerate_window_raises():
    prof = tail_profile(np.array([1.0, 0.0, 0.0]))  # r_1 = r_2 = 0
    with pytest.raises(DegenerateTail):
        olympiad_weighted_sum(prof, 1, 3)


def test_bound_single_step_reduces_to_proof_step():
    prof = geometric_profile(0.7, 50)
    for n in (2, 17, 50):
        rep = verify_olympiad_bound(prof, n - 1, n)
        lhs = prof.magnitudes_sq[n - 1] / np.sqrt(prof.suffix_sums[n - 1])
        rhs = 2.0 * (np.sqrt(prof.suffix_sums[n - 1]) - np.sqrt(prof.suffix_sums[n]))
        assert rep.lhs == pytest.approx(lhs, rel=1e-15)
        assert rep.rhs == pytest.approx(rhs, rel=1e-12)
        assert rep.holds


def test_bound_normalized_head_window():
    # with r_1 = 1 the bound over (1, n] reads 2(1 - sqrt(r_n))
    rng = np.random.default_rng(7)
    a = rng.standard_normal(500) * np.arange(1, 501.0) ** -1.2
    a[1:] /= np.sqrt(np.sum(np.abs(a[1:]) ** 2))  # force r_1 = 1
    prof = tail_profile(a)
    assert prof.suffix_sums[1] == pytest.approx(1.0, abs=1e-12)
    r = prof.suffix_sums
    for n in (5, 50, 500):
        rep = verify_olympiad_bound(prof, 1, n)
        assert rep.holds
        assert rep.rhs == pytest.approx(2.0 * (np.sqrt(r[1]) - np.sqrt(r[n])), rel=1e-12)


def test_bound_random_sequences_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        a *= np.arange(1, 2001.0) ** -rng.uniform(0.6, 1.5)
        prof = tail_profile(a)
        mags = np.abs(np.asarray(a)) ** 2
        for m, n in ((1, 2000), (3, 77), (100, 1999)):
            rep = verify_olympiad_bound(prof, m, n)
            assert rep.holds
            # extended-precision recomputation of both sides
            mags_ld = mags.astype(np.longdouble)
            r = np.concatenate(([0], np.cumsum(mags_ld[::-1])))[::-1]
            lhs = float(np.sum(mags_ld[m:n] / np.sqrt(r[m:n])))
            rhs = float(2.0 * (np.sqrt(r[m]) - np.sqrt(r[n])))
            assert rep.lhs == pytest.approx(lhs, rel=1e-12)
            assert lhs <= rhs + 1e-12 * (1.0 + float(r[0]))


def test_partial_sums_monotone():
    prof = geometric_profile(0.9, 300)
    sums = [olympiad_weighted_sum(prof, 1, n) for n in range(2, 301, 7)]
    assert np.all(np.diff(sums) >= 0)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=10))
@settings(max_examples=200, deadline=None)
def test_telescoping_property(values, tail):
    prof = tail_profile(np.asarray(values), tail)
    mags = prof.magnitudes_sq
    r = prof.suffix_sums
    slack = 8.0 * EPS * max(r[0], 1e-300)
    assert np.all(np.abs(r[:-1] - r[1:] - mags) <= slack)
    assert np.all(np.diff(r) <= 0)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_bound_property_random_windows(length, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    prof = tail_profile(a, tail_sum_sq=float(rng.uniform(1e-6, 1.0)))
    m = int(rng.integers(1, length))
    n = int(rng.integers(m + 1, length + 1))
    assert verify_olympiad_bound(prof, m, n).holds


@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=2, max_value=16))
@settings(max_examples=100, deadline=None)
def test_batched_windows_match_scalar_windows(length, seed, n_edges):
    # every window between up to 16 edges, so at most 15 blocks: each path is
    # within (ceil(log2 n) + 15) eps S of the exact window sum S, n the window length
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(length) + 1j * rng.standard_normal(length))
    a *= np.arange(1, length + 1.0) ** -rng.uniform(0.6, 1.5)
    prof = tail_profile(a, tail_sum_sq=float(rng.uniform(0.0, 1.0)))
    edges = np.unique(rng.integers(1, length + 1, size=n_edges))
    first, last = np.triu_indices(edges.size, 1)
    m, n = edges[first], edges[last]
    batched = verify_olympiad_bound(prof, m, n)
    assert batched.lhs.shape == batched.rhs.shape == batched.holds.shape == m.shape
    for i in range(m.size):
        one = verify_olympiad_bound(prof, int(m[i]), int(n[i]))
        bound = 2 * (np.ceil(np.log2(n[i] - m[i])) + 15) * EPS * one.lhs
        assert abs(batched.lhs[i] - one.lhs) <= bound
        assert batched.rhs[i] == one.rhs
        assert batched.holds[i] == one.holds


def test_batched_windows_raise_like_their_bad_window():
    prof = tail_profile(np.array([1.0, 2.0, 0.0, 0.0]))  # r_2 = r_3 = r_4 = 0
    for m, n, bad, error in (([1, 0], [2, 2], (0, 2), InvalidInput),
                             ([1, 2], [2, 2], (2, 2), InvalidInput),
                             ([1, 1], [2, 5], (1, 5), InvalidInput),
                             ([1, 1], [2, 4], (1, 4), DegenerateTail),
                             ([1.0], [2.0], (1.0, 2.0), InvalidInput)):
        with pytest.raises(error) as batched:
            verify_olympiad_bound(prof, np.array(m), np.array(n))
        with pytest.raises(error) as scalar:
            verify_olympiad_bound(prof, *bad)
        assert str(batched.value) == str(scalar.value)


def test_one_window_is_the_plain_slice_sum():
    rng = np.random.default_rng(3)
    prof = tail_profile(rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    m, n = 17, 981
    exact = np.sum(prof.magnitudes_sq[m:n] / np.sqrt(prof.suffix_sums[m:n]))
    assert olympiad_weighted_sum(prof, m, n) == exact
    assert olympiad_weighted_sum(prof, np.array([m]), np.array([n]))[0] == exact

