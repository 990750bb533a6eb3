import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwitness import acceptance
from flatwitness.errors import DegenerateTail, InvalidInput
from flatwitness.seq_core import (
    default_bound_tol,
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


SHAPE = "need a nonempty sequence, or a 2-D stack of equal-length ones"


def _refusal_id(value):
    # the shape cases keep the ids they had under the earlier wording of the refusal
    return "need a one-dimensional, nonempty sequence" if value == SHAPE else None


@pytest.mark.parametrize("call, message", [
    (lambda: profile_from_energies(np.ones((2, 2, 2))), SHAPE),
    (lambda: profile_from_energies([]), SHAPE),
    (lambda: profile_from_energies([1.0], np.inf), "tail mass must be finite and nonnegative"),
    (lambda: profile_from_energies([1.0], -1.0), "tail mass must be finite and nonnegative"),
    (lambda: tail_profile([]), SHAPE),
    (lambda: tail_profile(np.ones((2, 2, 2))), SHAPE),
    (lambda: geometric_profile(1.0, 8), "ratio must lie in (0, 1)"),
    (lambda: geometric_profile(0.0, 8), "ratio must lie in (0, 1)"),
    (lambda: geometric_profile(0.5, 0), "need at least one term"),
    (lambda: tail_profile(np.ones((3, 0))), SHAPE),
    (lambda: profile_from_energies([[1.0], [-1.0]]),
     "per-term masses must be finite and nonnegative"),
], ids=_refusal_id)
def test_profile_refusals(call, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=300),
       st.integers(min_value=0, max_value=10**6), st.sampled_from([0.0, 0.25]))
@settings(max_examples=100, deadline=None)
def test_stack_rows_equal_one_sequence_calls(rows, length, seed, tail):
    # each row of a stack, under array windows and under one scalar window,
    # gives bit for bit what the one-sequence call on that row gives
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
    a *= np.arange(1, length + 1.0) ** -rng.uniform(0.6, 1.5, size=(rows, 1))
    stack = tail_profile(a, tail)
    edges = np.unique(rng.integers(1, length + 1, size=int(rng.integers(2, 17))))
    first, last = np.triu_indices(edges.size, 1)
    m = int(rng.integers(1, length))
    n = int(rng.integers(m + 1, length + 1))
    ones = [tail_profile(row, tail) for row in a]
    assert stack.n_terms == length and stack.head.shape == (rows,)
    for i, one in enumerate(ones):
        assert bits(stack.suffix_sums[i]) == bits(one.suffix_sums)
        assert bits(stack.head[i]) == bits(one.head)
        assert bits(default_bound_tol(stack)[i]) == bits(default_bound_tol(one))
    for wm, wn in ((edges[first], edges[last]), (m, n)):
        out = verify_olympiad_bound(stack, wm, wn)
        assert out.lhs.shape == out.rhs.shape == out.holds.shape == (rows,) + np.shape(wm)
        for i, one in enumerate(ones):
            want = verify_olympiad_bound(one, wm, wn)
            assert bits(out.lhs[i]) == bits(want.lhs) and bits(out.rhs[i]) == bits(want.rhs)
            assert np.array_equal(out.holds[i], want.holds) and out.tol[i] == want.tol
    if tail == 0.0:
        # a zero suffix sum in any one row refuses the whole stack, as that row alone is refused
        bad = int(rng.integers(rows))
        a[bad, length - 1] = 0.0
        for call in (lambda: verify_olympiad_bound(tail_profile(a), 1, length),
                     lambda: verify_olympiad_bound(tail_profile(a[bad]), 1, length)):
            with pytest.raises(DegenerateTail, match="window touches a zero suffix sum"):
                call()


def test_stack_profile_from_energies_matches_rows():
    rng = np.random.default_rng(5)
    mags = rng.uniform(size=(3, 50))
    stack = profile_from_energies(mags, 0.5)
    for row, sums in zip(mags, stack.suffix_sums):
        assert bits(sums) == bits(profile_from_energies(row, 0.5).suffix_sums)
    assert stack.tail == 0.5 and isinstance(tail_profile([1.0, 2.0]).head, float)
    # the masses of a stack are a copy, never a view that keeps every suffix sum alive
    assert stack.head.base is None


@pytest.mark.parametrize("seed", [acceptance.DEFAULT_SEED, 4099])
def test_criterion_1_blocks_equal_per_sequence_draws(monkeypatch, seed):
    # the rows written into each block are the sequences once drawn one by one
    # as (a + 1j*b) * decay, and each row's checks are the one-sequence checks
    blocks, calls = [], []
    draw, checks = acceptance.decaying_sequences, acceptance.olympiad_checks
    monkeypatch.setattr(acceptance, "decaying_sequences",
                        lambda rng, block: blocks.append(draw(rng, block).copy()) or block)
    monkeypatch.setattr(acceptance, "olympiad_checks",
                        lambda profile, tol: calls.append(checks(profile, tol)) or calls[-1])
    acceptance.criterion_1(seed)
    assert len(blocks) == len(calls) == 100 // acceptance.OLYMPIAD_BLOCK
    rng = np.random.default_rng(seed)
    k = np.arange(1, 10_001, dtype=float)
    for block, runs in zip(blocks, calls):
        assert block.shape == (acceptance.OLYMPIAD_BLOCK, k.size) and len(runs) == len(block)
        for row, run in zip(block, runs):
            decay = k ** -rng.uniform(0.6, 1.5)
            a = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) * decay
            assert np.array_equal(row.view(np.uint64), a.view(np.uint64))
            one = tail_profile(a[None])
            assert [run] == checks(one, default_bound_tol(one))


def test_criterion_1_traced_peak_memory():
    # a block of four 10^4-term rows and its profile take about 2 MiB; a larger
    # block, or a record that keeps a block's suffix sums alive (a view
    # instead of a copy of the head masses), passes the bound
    acceptance.criterion_1()
    tracemalloc.start()
    try:
        acceptance.criterion_1()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
