"""Trajectory classification and verdict plumbing."""

import itertools
import math
from array import array

import pytest
from hypothesis import example, given, strategies as st

from wcalc import (
    DOWN,
    FAILS,
    FLAT,
    FROZEN,
    HOLDS,
    UP,
    Verdict,
    classify_trajectory,
    decimate,
    running_sup_stabilized,
)
from wcalc.config import STABILIZE_REL
from wcalc.verdicts import log_fit, quarter_minima, trajectory_entry


def test_verdict_props_and_json():
    v = Verdict("demo", HOLDS, 64, witness=None, evidence={"x": 1})
    assert v.holds and not v.fails
    d = v.to_json()
    assert d == {"subject": "demo", "status": "Holds", "horizon": 64,
                 "witness": None, "evidence": {"x": 1}}
    assert Verdict("demo", FAILS, 64).fails


def test_decimate_keeps_ends():
    short = [1.0, 2.0, 3.0]
    assert decimate(short) == short
    long = list(range(100))
    thin = decimate(long)
    assert len(thin) == 16
    assert thin[0] == 0 and thin[-1] == 99
    assert thin == sorted(thin)
    # a fresh list, also when nothing is thinned: evidence never shares
    # the caller's list
    assert decimate(short) is not short
    assert decimate(range(3)) == [0, 1, 2]


def test_log_fit_recovers_exact_line():
    # ys = 2 ln j - 1, over a range and over a sparse index list
    for idx in (range(1, 9), [1, 3, 4, 10]):
        ys = [2.0 * math.log(j) - 1.0 for j in idx]
        slope, intercept = log_fit(idx, ys)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(-1.0, abs=1e-12)
    # one index falls back to the mean
    assert log_fit(range(5, 6), [3.0]) == (0.0, 3.0)
    assert log_fit([5, 5], [1.0, 3.0]) == (0.0, 2.0)


def classify(vals, idx=None):
    idx = idx or list(range(1, len(vals) + 1))
    return classify_trajectory(idx, vals)


def test_classify_frozen_peak_then_decay():
    vals = [0.0, 5.0, 3.0, 2.0, 1.5, 1.2, 1.1, 1.05, 1.02, 1.0]
    r = classify(vals)
    assert r.trend == FROZEN
    assert r.sup == 5.0 and r.sup_index == 1


def test_classify_constant_is_frozen():
    r = classify([2.5] * 16)
    assert r.trend == FROZEN
    assert r.sup == 2.5


def test_classify_log_growth_is_up():
    vals = [math.log(j) for j in range(1, 65)]
    r = classify(vals)
    assert r.trend == UP
    assert r.slope == pytest.approx(1.0, abs=0.05)


def test_classify_pure_decay_is_frozen():
    # sup sits at the first sample, so the freeze rule wins over the slope
    vals = [-math.log(j) for j in range(1, 65)]
    r = classify(vals)
    assert r.trend == FROZEN


def test_classify_late_spike_with_sinking_fit_is_down():
    # sup inside the last quarter blocks the freeze; the fit decides
    vals = [-float(i) for i in range(64)]
    vals[60] = 1.0
    r = classify(vals)
    assert r.trend == DOWN


def test_classify_late_sup_with_flat_slope():
    vals = [0.0] * 15 + [1e-9]
    r = classify(vals)
    assert r.trend == FLAT


def test_classify_short_window_rules():
    # under 8 points only a head-certified sup avoids the growth call
    assert classify([1.0, 1.0, 1.0]).trend == FLAT
    assert classify([1.0, 1.0, 1.1]).trend == UP
    assert classify([3.0, 2.0, 1.0]).trend == FLAT


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_trajectory([], [])
    with pytest.raises(ValueError):
        classify_trajectory([1, 2], [1.0])


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=8, max_size=64))
def test_classify_sup_is_max(vals):
    r = classify(vals)
    assert r.sup == max(vals)
    assert vals[r.sup_index] == r.sup
    assert r.trend in (FROZEN, FLAT, UP, DOWN)


def test_running_sup_plateau_stabilizes():
    vals = [min(float(j), 10.0) for j in range(1, 65)]
    stable, sup = running_sup_stabilized(vals)
    assert stable and sup == 10.0


def test_running_sup_steady_climb_does_not():
    vals = [math.log(j) for j in range(1, 65)]
    stable, sup = running_sup_stabilized(vals)
    assert not stable
    assert sup == pytest.approx(math.log(64))


def test_running_sup_scale_awareness():
    # a 1000-unit climb that settles to sub-relative drift still counts
    vals = [1000.0 * (1.0 - 2.0 ** -j) for j in range(1, 65)]
    stable, sup = running_sup_stabilized(vals)
    assert stable


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50))
def test_running_sup_returns_max(vals):
    _, sup = running_sup_stabilized(vals)
    assert sup == max(vals)


def running_sup_reference(vals):
    """running_sup_stabilized over the full list of running sups, each
    max(acc, v) seeded with -inf."""
    sups = list(itertools.accumulate(vals, max, initial=-math.inf))
    del sups[0]
    q3 = (3 * len(sups)) // 4
    anchor = sups[q3] if q3 < len(sups) else sups[-1]
    moved = sups[-1] - anchor
    scale = max(1.0, abs(sups[-1]), max(vals) - min(vals))
    return moved <= STABILIZE_REL * scale, sups[-1]


def same_float(a, b):
    """Equal including the sign of zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308])


@example([math.nan, 1.0, -2.0, 0.5])
@example([math.nan, math.nan, math.nan])
@example([-0.0, 0.0, -0.0, 0.0, 0.0])
@example([0.0, -0.0, -0.0, -0.0, 0.0])
@example([1e308, -1e308, math.inf, 1e308])
@example([0.0] * 10 + [math.nan, 5.0])
@given(st.lists(st.floats(-100, 100) | SPECIAL_FLOATS | st.floats(),
                min_size=1, max_size=50))
def test_running_sup_matches_loop_reference(vals):
    # NaNs included: max(-inf, nan) is -inf, so they never become the sup;
    # of two equal zeros the earlier one stays the sup
    stab, sup = running_sup_stabilized(vals)
    want_stab, want_sup = running_sup_reference(vals)
    assert stab == want_stab
    assert same_float(sup, want_sup)


def least_squares_slope(xs, ys):
    """Reference slope: every sum an fsum over a generator, no shared axis."""
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    return math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


@st.composite
def fitted_trajectory(draw):
    """(indices, values) whose last half is a contiguous run, a sparse
    increasing list or a single point."""
    shape = draw(st.sampled_from(["contiguous", "sparse", "one point"]))
    n = draw(st.integers(1, 2)) if shape == "one point" else \
        draw(st.integers(3, 64))
    if shape == "sparse":
        idx = sorted(draw(st.sets(st.integers(1, 5000), min_size=n, max_size=n)))
    else:
        first = draw(st.integers(1, 600))
        idx = list(range(first, first + n))
    vals = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return idx, vals


@example(([1, 2, 3, 5, 6, 7, 8], [0.0, 1.0, 4.0, 2.0, -0.0, 3.0, 1.0]))
# the matrix search's axis; a plain sum of the products gives 1 - 2^-52
@example((list(range(1, 513)), [math.log(j) for j in range(1, 513)]))
@given(fitted_trajectory())
def test_classify_slope_equals_log_fit(case):
    # bit for bit, on the first call (axis built) and the second (cached),
    # with the indices as a list and as a range where they are a run
    idx, vals = case
    n = len(vals)
    xs, half = [math.log(i) for i in idx[n // 2:]], vals[n // 2:]
    want = least_squares_slope(xs, half)
    runs = [idx]
    if idx == list(range(idx[0], idx[0] + n)):
        runs.append(range(idx[0], idx[0] + n))
    for run in runs:
        for _ in range(2):
            assert same_float(log_fit(run[n // 2:], half)[0], want)
            assert same_float(classify_trajectory(run, vals).slope, want)


@given(fitted_trajectory(), st.integers(1, 3))
def test_helpers_read_every_sequence_type_alike(case, step):
    # a list or range is read as it is, anything else through a list copy;
    # the results are the same to the bit and the inputs stay unchanged
    idx, vals = case
    idx = [idx[0] + step * (i - idx[0]) for i in idx]
    snapshot = (list(idx), list(vals))
    want = repr((classify_trajectory(idx, vals), running_sup_stabilized(vals),
                 decimate(vals), trajectory_entry(idx, vals)))
    index_forms = [tuple(idx), array("l", idx)]
    if idx == list(range(idx[0], idx[-1] + 1, step)):
        index_forms.append(range(idx[0], idx[-1] + 1, step))
    for i, v in itertools.product(index_forms,
                                  [vals, tuple(vals), array("d", vals)]):
        got = (classify_trajectory(i, v), running_sup_stabilized(v),
               decimate(v), trajectory_entry(i, v))
        assert repr(got) == want
    assert (idx, vals) == snapshot


@pytest.mark.parametrize("idx", [[0], [-2, -1, 0, 1], [-5, -3, 0, 7]])
def test_classify_index_zero_in_the_fit_raises(idx):
    for _ in range(2):
        with pytest.raises(ValueError, match="math domain error"):
            classify_trajectory(idx, [1.0] * len(idx))


def test_quarter_minima():
    # 1/j shrinks steadily: each later quarter minimum is smaller
    mins, decaying = quarter_minima([1.0 / j for j in range(1, 65)])
    assert mins == [1.0 / 16, 1.0 / 32, 1.0 / 48, 1.0 / 64] and decaying
    mins, decaying = quarter_minima([2.0] * 64)
    assert mins == [2.0] * 4 and not decaying
    # a window shorter than four entries reuses its last value
    mins, _ = quarter_minima([3.0, 1.0])
    assert mins == [3.0, 1.0, 1.0, 1.0]


def test_trajectory_entry_leaves_index_zero_out_of_the_fit():
    vals = [50.0] + [math.log(j) for j in range(1, 40)]
    got = trajectory_entry(range(40), vals)
    stab, sup = running_sup_stabilized(vals)
    rep = classify_trajectory(range(1, 40), vals[1:])
    assert got == {"stabilized": stab, "log_constant": sup,
                   "defects": decimate(vals), "trend": rep.trend,
                   "slope": rep.slope}
    # the index-0 point sets the sup; classified with the rest, its early
    # peak would read as a frozen trajectory
    assert got["log_constant"] == 50.0 and got["trend"] == UP
    assert classify_trajectory(range(1, 41), vals).trend == FROZEN
    # from index 1 on every point is fitted
    one = trajectory_entry(range(1, 41), vals)
    assert one["slope"] == classify_trajectory(range(1, 41), vals).slope


def test_trajectory_entry_two_points_has_no_trend():
    got = trajectory_entry(range(2), [0.0, 1.0])
    assert set(got) == {"stabilized", "log_constant", "defects"}
    assert got["log_constant"] == 1.0
