"""Log-domain scalar arithmetic against direct linear-scale oracles."""

import math
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from wcalc import LogDomainError, log_add, log_sub, log_sum
from wcalc.logdomain import (
    LOG_ZERO,
    first_drop,
    last_drop,
    ln_axis,
    prefix_max_abs,
    slack,
)

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


@pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.0, math.nan)])
def test_log_sub_rejects_nan(a, b):
    with pytest.raises(LogDomainError, match="nan operand"):
        log_sub(a, b)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite, finite)
@example(5e-324, 0.0)
@example(1e308, -1e308)
def test_log_sub_difference_is_positive_past_the_early_returns(x, y):
    """For finite a > b, and for a = inf over a finite b, b - a is negative
    or -inf, so the difference log_sub takes the log of is positive: it
    needs no branch for a difference that rounds to zero or below."""
    lo, hi = sorted((x, y))
    for a, b in [(math.inf, lo)] + ([(hi, lo)] if hi > lo else []):
        assert -math.expm1(b - a) > 0.0
        assert log_sub(a, b) <= a


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



@pytest.mark.parametrize("vals", [
    [math.nan, 1.0, 2.0],
    [0.0, math.nan, 2.0],
    [1.0, 2.0, math.nan],
    [math.inf, math.nan],
])
def test_log_sum_raises_on_nan_anywhere(vals):
    with pytest.raises(LogDomainError, match="nan operand"):
        log_sum(vals)
    with pytest.raises(LogDomainError, match="nan operand"):
        log_sum(iter(vals))


def _log_sum_filtered(values):
    # the body log_sum had before it raised on a NaN past the first place,
    # copied as it was
    vals = [v for v in values if v != LOG_ZERO]
    if not vals:
        return LOG_ZERO
    hi = max(vals)
    if hi == math.inf:
        return math.inf
    total = math.fsum(math.exp(v - hi) for v in vals if v - hi > -745.0)
    return hi + math.log(total)


@given(st.lists(st.one_of(st.sampled_from([LOG_ZERO, math.inf, 0.0, -0.0]),
                          st.floats(-2000.0, 50.0), wide),
                max_size=40),
       st.booleans())
@example([math.inf, LOG_ZERO], False)
@example([3.0, 3.0 - 745.0, 3.0 - 744.9, 3.0 - 2000.0], False)
def test_log_sum_without_nan_matches_the_filtering_body(vals, as_tuple):
    got = log_sum(tuple(vals) if as_tuple else vals)
    assert repr(got) == repr(_log_sum_filtered(vals))

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


# --- the quotient-drop rule --------------------------------------------------
# The oracles are the loops that conditions._monotone, gamma_lower_bound
# and regularize_slc each ran before the rule moved into first_drop and
# last_drop, copied as they were.


def _monotone_loop(quotients, terms):
    big, seen = 0.0, 0  # the largest |terms[i]| for i < seen
    for i in range(1, len(quotients)):
        if quotients[i] < quotients[i - 1]:
            big, seen = max(big, max(map(abs, terms[seen:i + 2]))), i + 2
            if quotients[i] < quotients[i - 1] - slack(1e-12, big):
                return i + 1
    return 0


def _gamma_loop(terms, a):
    h = len(terms) - 1
    mu = [terms[j] - terms[j - 1] for j in range(1, h + 1)]
    ln = ln_axis(h)
    big = None
    last_violation = 0
    cur = mu[h - 1] - a * ln[h]
    for i in range(h - 1, 0, -1):
        prev = mu[i - 1] - a * ln[i]
        if cur < prev:
            if big is None:
                big = prefix_max_abs(terms)
            if cur < prev - slack(1e-12, big[i + 1]):
                last_violation = i + 1
                break
        cur = prev
    return last_violation


def _regularize_loop(terms):
    horizon = len(terms) - 1
    tol = [slack(1e-12, b) for b in prefix_max_abs(terms)]
    q = [terms[j] - terms[j - 1] - math.log(j) for j in range(1, horizon + 1)]
    for i in range(len(q) - 1, 0, -1):
        if q[i] < q[i - 1] - tol[i + 1]:
            return i + 1
    return 0


@st.composite
def _drop_case(draw):
    """(log terms, alpha): quotients that climb, jump, fall, or tie the
    quotient before them (lc), or its alpha-reduced value, missed by -10
    to 10 times 1e-12 of the terms so far; alpha is 0, 1 or drawn."""
    a = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0)))
    logs = [draw(st.sampled_from([0.0, 1e-13, -1e-13, 2.0, -3e3]))]
    q = draw(st.floats(-2.0, 2.0))
    for j in range(1, draw(st.integers(5, 80))):
        kind = draw(st.sampled_from(
            ["up", "up", "jump", "lc", "alpha", "alpha", "alpha"] * 4 + ["down"]))
        if kind == "up":
            q += draw(st.floats(0.0, 2.0))
        elif kind == "jump":
            q += draw(st.floats(10.0, 1e4))
        elif kind == "down":
            q -= draw(st.floats(0.0, 2.0))
        else:
            tie = a * math.log(j / (j - 1)) if kind == "alpha" and j > 1 else 0.0
            q += tie - draw(st.floats(-10.0, 10.0)) * 1e-12 * max(1.0, abs(logs[-1]))
        logs.append(logs[-1] + q)
    return logs, a


@settings(max_examples=200)
@given(_drop_case())
def test_first_and_last_drop_match_the_loops_they_replace(case):
    terms, a = case
    h = len(terms) - 1
    mu = [terms[j] - terms[j - 1] for j in range(1, h + 1)]
    big = prefix_max_abs(terms)
    assert first_drop(mu, terms) == _monotone_loop(mu, terms)
    reduced = [mu[j - 1] - ln_axis(h)[j] for j in range(1, h + 1)]
    assert first_drop(reduced, terms) == _monotone_loop(reduced, terms)
    assert last_drop(mu, a, big) == _gamma_loop(terms, a)
    assert last_drop(mu, 1.0, big) == _regularize_loop(terms)
