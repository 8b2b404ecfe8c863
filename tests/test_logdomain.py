"""Log-domain scalar arithmetic against direct linear-scale oracles."""

import math
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from wcalc import LogDomainError, log_add, log_sub, log_sum
from wcalc.logdomain import LOG_ZERO, prefix_max_abs, slack

# range where exp() is exact enough for a linear-scale oracle
moderate = st.floats(min_value=-200.0, max_value=200.0,
                     allow_nan=False, allow_infinity=False)
# full double range, including magnitudes where exp() overflows
wide = st.floats(min_value=-1e300, max_value=1e300,
                 allow_nan=False, allow_infinity=False)


@given(moderate, moderate)
def test_log_add_matches_linear_oracle(a, b):
    got = log_add(a, b)
    want = math.log(math.exp(a) + math.exp(b))
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


@given(wide, wide)
def test_log_add_commutes_and_dominates(a, b):
    assert log_add(a, b) == log_add(b, a)
    assert log_add(a, b) >= max(a, b)
    # adding zero is the identity
    assert log_add(a, LOG_ZERO) == a


@given(wide)
def test_log_add_doubling(a):
    assert log_add(a, a) == pytest.approx(a + math.log(2.0), rel=1e-15, abs=1e-12)


@given(moderate, moderate)
def test_log_sub_inverts_log_add(a, b):
    lo, hi = sorted((a, b))
    total = log_add(a, b)
    # recovering the dominant addend is well conditioned
    assert log_sub(total, lo) == pytest.approx(hi, abs=1e-9, rel=1e-9)
    # recovering the drowned one cancels: the log-scale ulp of total is
    # eps*|total|, which the subtraction amplifies by e^gap
    if hi - lo < 30.0:
        tol = 1e-9 + 8.0 * 2.3e-16 * max(1.0, abs(hi)) * math.exp(hi - lo)
        assert log_sub(total, hi) == pytest.approx(lo, abs=tol)


def test_log_sub_domain():
    assert log_sub(3.0, 3.0) == LOG_ZERO
    assert log_sub(5.0, LOG_ZERO) == 5.0
    with pytest.raises(LogDomainError):
        log_sub(1.0, 2.0)
    with pytest.raises(LogDomainError):
        log_add(float("nan"), 0.0)


@given(st.lists(moderate, min_size=1, max_size=40))
def test_log_sum_matches_fsum_oracle(vals):
    got = log_sum(vals)
    want = math.log(math.fsum(math.exp(v) for v in vals))
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


@given(st.lists(wide, min_size=1, max_size=40))
def test_log_sum_never_below_max(vals):
    # downstream bound checks rely on this holding exactly
    assert log_sum(vals) >= max(vals)


def test_log_sum_edge_cases():
    assert log_sum([]) == LOG_ZERO
    assert log_sum([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    assert log_sum([7.25]) == 7.25
    # huge magnitudes only shift; no overflow
    assert log_sum([1e300, 1e300]) == pytest.approx(1e300 + math.log(2.0), rel=1e-15)
    assert log_sum([-1e300, -1e300]) == pytest.approx(-1e300 + math.log(2.0), rel=1e-15)


@given(wide, wide, st.sampled_from([1e-12, 1e-9]))
def test_slack_is_relative_to_the_larger_magnitude(a, b, rel):
    # bit for bit the old inline rule rel * max(1, |a|, |b|)
    assert slack(rel, a, b) == rel * max(1.0, abs(a), abs(b))
    assert slack(rel, a) == rel * max(1.0, abs(a))


def test_slack_at_log_zero_is_infinite():
    assert slack(1e-12, LOG_ZERO, 0.0) == math.inf


# a few values drawn often, so that ties, -inf and both zeros come up
_TIED = st.sampled_from([0.0, -0.0, LOG_ZERO, math.inf, 1.5, -1.5, 700.0])


@given(st.lists(st.one_of(_TIED, st.floats()), min_size=1, max_size=60))
@example([-0.0, 0.0, -0.0])
@example([LOG_ZERO, 3.0, LOG_ZERO, -3.0])
@example([math.nan, 1.0, 2.0])
@example([1.0, math.nan, 0.5, 2.0])
def test_prefix_max_abs_equals_accumulate_max(values):
    want = array("d", accumulate(map(abs, values), max))
    assert prefix_max_abs(values).tobytes() == want.tobytes()
