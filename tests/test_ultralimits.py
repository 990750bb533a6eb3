import re

import numpy as np
import pytest

from flatwitness.errors import InvalidInput
from flatwitness.ultralimits import (
    EventualLimit,
    Membership,
    bounded_sequence,
    eventual_limit,
    ideal_membership_nonprincipal,
    principal_limit,
)


def test_principal_limit_is_evaluation():
    seq = bounded_sequence([5.0, 7.0, 9.0])
    assert principal_limit(seq, 2) == 7.0
    const = bounded_sequence(np.full(10, 3.0 - 1.0j))
    for m in (1, 5, 10):
        assert principal_limit(const, m) == 3.0 - 1.0j
    recip = bounded_sequence(1.0 / np.arange(1, 20.0))
    assert principal_limit(recip, 4) == 0.25


def test_principal_limit_range_check():
    seq = bounded_sequence([1.0])
    with pytest.raises(InvalidInput):
        principal_limit(seq, 0)
    with pytest.raises(InvalidInput):
        principal_limit(seq, 2)


def test_eventual_limit_reciprocal_sequence():
    seq = bounded_sequence(1.0 / np.arange(1, 10_001.0))
    out = eventual_limit(seq, tol=1e-2)
    assert out is not None
    assert abs(out.limit) <= 2e-4
    assert out.radius <= 1e-2


def test_eventual_limit_oscillation_gives_no_verdict():
    seq = bounded_sequence((-1.0) ** np.arange(1, 101))
    assert eventual_limit(seq, tol=1e-2) is None


def test_eventual_limit_constant():
    seq = bounded_sequence(np.full(40, 2.0 + 1.0j))
    out = eventual_limit(seq, tol=1e-12)
    assert out.limit == 2.0 + 1.0j
    assert out.radius == 0.0


def test_eventual_limit_certificate_covers_tail():
    rng = np.random.default_rng(8)
    vals = 5.0 + 1e-4 * rng.standard_normal(400)
    seq = bounded_sequence(vals)
    out = eventual_limit(seq, tol=1e-3, tail_fraction=0.25)
    assert out is not None
    tail = vals[-100:]
    assert np.max(np.abs(tail - out.limit)) <= 1e-3
    assert out.radius <= 1e-3


def test_tail_fraction_validation():
    seq = bounded_sequence([1.0, 2.0])
    with pytest.raises(InvalidInput):
        eventual_limit(seq, tol=1e-3, tail_fraction=0.0)
    with pytest.raises(InvalidInput):
        eventual_limit(seq, tol=1e-3, tail_fraction=1.0)
    with pytest.raises(InvalidInput):
        eventual_limit(seq, tol=-1.0)


def test_membership_decaying_yes():
    k = np.arange(1, 65, dtype=float)
    seq = bounded_sequence(2.0 ** (-(k - 1) / 4.0))
    assert ideal_membership_nonprincipal(eventual_limit(seq, 1e-3), tol=1e-3) is Membership.YES


def test_membership_unit_no():
    seq = bounded_sequence(np.ones(64))
    assert ideal_membership_nonprincipal(eventual_limit(seq, 1e-3), tol=1e-3) is Membership.NO


def test_membership_oscillation_undecidable():
    seq = bounded_sequence((-1.0) ** np.arange(1, 65))
    verdict = ideal_membership_nonprincipal(eventual_limit(seq, 1e-3), tol=1e-3)
    assert verdict is Membership.UNDECIDABLE


def test_membership_monotone_in_tol():
    rng = np.random.default_rng(4)
    tols = [1e-4, 1e-3, 1e-2, 1e-1]
    for _ in range(50):
        vals = rng.standard_normal(80) * np.exp(-np.arange(80) / rng.uniform(2, 30))
        seq = bounded_sequence(vals)
        verdicts = [ideal_membership_nonprincipal(eventual_limit(seq, t), t) for t in tols]
        for lo, hi in zip(verdicts, verdicts[1:]):
            if lo is Membership.YES:
                assert hi is Membership.YES


@pytest.mark.parametrize("call, message", [
    (lambda: bounded_sequence(np.ones((2, 2))), "need a one-dimensional, nonempty sequence"),
    (lambda: bounded_sequence([]), "need a one-dimensional, nonempty sequence"),
    (lambda: bounded_sequence([1.0, np.nan]), "sequence entries must be finite"),
    (lambda: ideal_membership_nonprincipal(None, 0.0), "tol must be positive"),
    (lambda: ideal_membership_nonprincipal(EventualLimit(0.0, 0.0), -1e-3),
     "tol must be positive"),
])
def test_ultralimit_refusals(call, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()


@pytest.mark.parametrize("limit, verdict", [
    (1e-3, Membership.YES),
    (1.5e-3, Membership.UNDECIDABLE),
    (2e-3, Membership.UNDECIDABLE),
    (2.5e-3, Membership.NO),
])
def test_membership_band_between_tol_and_twice_tol_is_undecidable(limit, verdict):
    # a limit certified within tol of a value in (tol, 2 tol] may still be 0
    seq = bounded_sequence(np.full(16, limit))
    assert ideal_membership_nonprincipal(eventual_limit(seq, 1e-3), 1e-3) is verdict
