"""Trajectory classification and verdict plumbing."""

import itertools
import math
import struct
from array import array
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from wcalc import (
    DOWN,
    FAILS,
    FLAT,
    FROZEN,
    HOLDS,
    UNDETERMINED,
    UP,
    Verdict,
    check_condition,
    classify_trajectory,
    decimate,
    gevrey,
)
from wcalc.config import COMPARISON_SLACK, LOG_SLOPE_TOL, STABILIZE_REL
from wcalc.verdicts import _as_list, _log_axis, log_fit, quarter_minima


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
    assert r["trend"] == FROZEN
    # the evidence every trajectory reports, keys in report order
    assert r == {"stabilized": True, "log_constant": 5.0, "defects": vals,
                 "trend": FROZEN, "slope": log_fit(range(6, 11), vals[5:])[0]}
    assert list(r) == ["stabilized", "log_constant", "defects", "trend", "slope"]


def test_classify_constant_is_frozen():
    r = classify([2.5] * 16)
    assert r["trend"] == FROZEN
    assert r["log_constant"] == 2.5 and r["stabilized"]


def test_classify_log_growth_is_up():
    vals = [math.log(j) for j in range(1, 65)]
    r = classify(vals)
    assert r["trend"] == UP
    assert r["slope"] == pytest.approx(1.0, abs=0.05)


def test_classify_pure_decay_is_frozen():
    # sup sits at the first sample, so the freeze rule wins over the slope
    vals = [-math.log(j) for j in range(1, 65)]
    r = classify(vals)
    assert r["trend"] == FROZEN


def test_classify_late_spike_with_sinking_fit_is_down():
    # sup inside the last quarter blocks the freeze; the fit decides
    vals = [-float(i) for i in range(64)]
    vals[60] = 1.0
    r = classify(vals)
    assert r["trend"] == DOWN


def test_classify_late_sup_with_flat_slope():
    vals = [0.0] * 15 + [1e-9]
    r = classify(vals)
    assert r["trend"] == FLAT


def test_classify_short_window_rules():
    # under 8 points only a head-certified sup avoids the growth call
    assert classify([1.0, 1.0, 1.0])["trend"] == FLAT
    assert classify([1.0, 1.0, 1.1])["trend"] == UP
    assert classify([3.0, 2.0, 1.0])["trend"] == FLAT
    # two fitted points are enough for a trend: the last half is one point,
    # so the slope is 0, and the rising second point reads up
    assert classify([1.0, 1.1]) == {"stabilized": True, "log_constant": 1.1,
                                    "defects": [1.0, 1.1], "trend": UP,
                                    "slope": 0.0}
    # one fitted point has none
    assert "trend" not in classify([1.0]) and "slope" not in classify([1.0])


def test_mg_short_window_keeps_its_trend():
    """check mg at h = 4 reads the exact trajectory n = 2, 4 of gevrey(1):
    two fitted points whose second is the larger, so the trend is up and
    the verdict Undetermined, where a three-point rule would give no trend
    and Holds."""
    v = check_condition(gevrey(1.0), "mg", 4)
    traj = v.evidence["trajectory"]
    assert v.status == UNDETERMINED and v.evidence["diverging"] is True
    assert v.evidence["exact"] is True and len(traj["defects"]) == 2
    assert traj["trend"] == UP


def test_classify_input_validation():
    with pytest.raises(ValueError, match="empty trajectory"):
        classify_trajectory([], [])
    for idx in ([1], [0], [1, 2, 3], range(1, 4)):
        with pytest.raises(ValueError, match="equal length"):
            classify_trajectory(idx, [1.0, 2.0])


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=8, max_size=64))
def test_classify_sup_is_max(vals):
    r = classify(vals)
    assert r["log_constant"] == max(vals)
    assert r["trend"] in (FROZEN, FLAT, UP, DOWN)


def test_running_sup_plateau_stabilizes():
    vals = [min(float(j), 10.0) for j in range(1, 65)]
    r = classify(vals)
    assert r["stabilized"] and r["log_constant"] == 10.0


def test_running_sup_steady_climb_does_not():
    vals = [math.log(j) for j in range(1, 65)]
    r = classify(vals)
    assert not r["stabilized"]
    assert r["log_constant"] == pytest.approx(math.log(64))


def test_running_sup_scale_awareness():
    # a 1000-unit climb that settles to sub-relative drift still counts
    vals = [1000.0 * (1.0 - 2.0 ** -j) for j in range(1, 65)]
    assert classify(vals)["stabilized"]


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50))
def test_running_sup_returns_max(vals):
    assert classify(vals)["log_constant"] == max(vals)


def running_sup_reference(vals):
    """The running-sup rule over the full list of running sups, each
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
    n = len(vals)
    try:
        r = classify_trajectory(range(1, n + 1), vals)
    except (ValueError, OverflowError) as exc:
        # the ln fit's fsum meets inf - inf or overflows on the last half
        with pytest.raises(type(exc)):
            log_fit(range(n // 2 + 1, n + 1), vals[n // 2:])
        return
    want_stab, want_sup = running_sup_reference(vals)
    assert r["stabilized"] == want_stab
    assert same_float(r["log_constant"], want_sup)


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
            got = classify_trajectory(run, vals).get("slope")
            if n == 1:  # one point is not fitted
                assert got is None
            else:
                assert same_float(got, want)


@given(fitted_trajectory(), st.integers(1, 3))
def test_helpers_read_every_sequence_type_alike(case, step):
    # a list or range is read as it is, anything else through a list copy;
    # the results are the same to the bit and the inputs stay unchanged
    idx, vals = case
    idx = [idx[0] + step * (i - idx[0]) for i in idx]
    snapshot = (list(idx), list(vals))
    want = repr((classify_trajectory(idx, vals), decimate(vals)))
    index_forms = [tuple(idx), array("l", idx)]
    if idx == list(range(idx[0], idx[-1] + 1, step)):
        index_forms.append(range(idx[0], idx[-1] + 1, step))
    for i, v in itertools.product(index_forms,
                                  [vals, tuple(vals), array("d", vals)]):
        got = (classify_trajectory(i, v), decimate(v))
        assert repr(got) == want
    assert (idx, vals) == snapshot


# only a first index 0 leaves the fit
@pytest.mark.parametrize("idx", [[-1, 0], [-2, -1, 0, 1], [-5, -3, 0, 7]])
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


def test_classify_leaves_index_zero_out_of_the_fit():
    vals = [50.0] + [math.log(j) for j in range(1, 40)]
    got = classify_trajectory(range(40), vals)
    rest = classify_trajectory(range(1, 40), vals[1:])
    assert got == {"stabilized": True, "log_constant": 50.0,
                   "defects": decimate(vals), "trend": rest["trend"],
                   "slope": rest["slope"]}
    # the index-0 point sets the sup; fitted with the rest, its early peak
    # would read as a frozen trajectory
    assert got["trend"] == UP
    assert classify_trajectory(range(1, 41), vals)["trend"] == FROZEN


def test_classify_two_points_from_index_zero_have_no_trend():
    # index 0 leaves one point to fit, so no trend and no slope
    got = classify_trajectory(range(2), [0.0, 1.0])
    assert got == {"stabilized": True, "log_constant": 1.0,
                   "defects": [0.0, 1.0]}
    assert set(classify_trajectory(range(3), [0.0, 1.0, 2.0])) == {
        "stabilized", "log_constant", "defects", "trend", "slope"}


# --- the trajectory helper as separate scans -------------------------------
# classify_trajectory once took the running-sup rule and the fitted summary
# from separate scans, in three helpers; these bodies are kept as oracles,
# and the one-scan helper must agree with them bit for bit, exceptions
# included.

def old_decimate(values):
    vals = _as_list(values)
    if len(vals) <= 16:
        return list(vals)
    step = (len(vals) - 1) / (16 - 1)
    return [vals[round(i * step)] for i in range(16)]


def old_log_fit(indices, ys):
    if type(indices) is range:
        key = indices
    else:
        first = indices[0]
        run = range(first, first + len(indices)) if type(first) is int else None
        key = run if run is not None and indices == list(run) else tuple(indices)
    mx, dx, sxx = _log_axis(key)
    my = math.fsum(ys) / len(dx)
    if sxx == 0.0:
        return 0.0, my
    slope = math.fsum(map(mul, dx, [y - my for y in ys])) / sxx
    return slope, my - slope * mx


def old_fitted_summary(indices, values):
    """Trend and slope of a nonempty trajectory of equal length."""
    vals = _as_list(values)
    idx = _as_list(indices)
    n = len(vals)
    sup_pos = vals.index(max(vals))
    q3 = (3 * n) // 4
    slope = old_log_fit(idx[n // 2:], vals[n // 2:])[0]
    if n >= 8 and sup_pos < q3:
        trend = FROZEN
    elif n < 8:
        trend = FLAT if all(v <= vals[0] + COMPARISON_SLACK for v in vals) else UP
    elif slope > LOG_SLOPE_TOL:
        trend = UP
    elif slope < -LOG_SLOPE_TOL:
        trend = DOWN
    else:
        trend = FLAT
    return trend, slope


def old_running_sup_stabilized(values):
    vals = _as_list(values)
    if not vals:
        raise ValueError("empty trajectory")
    q3 = (3 * len(vals)) // 4
    anchor = max(itertools.chain((-math.inf,), itertools.islice(vals, q3 + 1)))
    last = max(itertools.chain((anchor,), itertools.islice(vals, q3 + 1, None)))
    moved = last - anchor
    scale = max(1.0, abs(last), max(vals) - min(vals))
    return moved <= STABILIZE_REL * scale, last


def old_classify_trajectory(indices, values):
    stab, sup = old_running_sup_stabilized(values)
    if len(indices) != len(values):
        raise ValueError("indices and values must have equal length")
    entry = {"stabilized": stab, "log_constant": sup,
             "defects": old_decimate(values)}
    if indices[0] == 0:
        indices, values = indices[1:], values[1:]
    if len(values) >= 2:
        entry["trend"], entry["slope"] = old_fitted_summary(indices, values)
    return entry


def bits(x):
    """x with every float replaced by its IEEE bytes, container types and
    dict key order kept, so == compares floats bit for bit."""
    if type(x) is float:
        return ("float", struct.pack("<d", x))
    if type(x) is dict:
        return ("dict", [(k, bits(v)) for k, v in x.items()])
    if type(x) in (list, tuple):
        return (type(x).__name__, [bits(v) for v in x])
    return (type(x).__name__, x)


def outcome(fn, *args):
    """bits of fn(*args), or the type and arguments of what it raised."""
    try:
        return bits(fn(*args))
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc).__name__, exc.args)


TRAJECTORY_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]


@st.composite
def oracle_trajectory(draw):
    """(indices, values): lengths 1-40 or 512; a log, linear, late-peak or
    free shape with plateaus and special values (NaN first or elsewhere,
    +-inf, +-0.0, values whose sums overflow) pasted in; indices as a
    range, list or array('l') starting at 0 or later, sometimes of the
    wrong length."""
    n = draw(st.one_of(st.integers(1, 40), st.just(512)))
    a = draw(st.floats(-3.0, 3.0))
    b = draw(st.floats(-5.0, 5.0))
    shape = draw(st.sampled_from(["log", "linear", "late peak", "free"]))
    if shape == "free" and n <= 40:
        vals = draw(st.lists(st.floats(-100, 100) | st.sampled_from(
            TRAJECTORY_SPECIALS), min_size=n, max_size=n))
    elif shape == "linear":
        vals = [a * j + b for j in range(n)]
    elif shape == "late peak":
        vals = [b - a * abs(j - 0.9 * n) for j in range(n)]
    else:
        vals = [a * math.log(j + 1) + b for j in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n))
        vals[lo:hi] = [vals[lo]] * (hi - lo)
    for _ in range(draw(st.integers(0, 3))):
        vals[draw(st.integers(0, n - 1))] = draw(st.sampled_from(TRAJECTORY_SPECIALS))
    if draw(st.integers(0, 7)) == 0:
        vals[0] = math.nan
    start = draw(st.sampled_from([0, 0, 1, 2, 7]))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    count = max(0, n + draw(st.sampled_from([0] * 10 + [-1, 1])))
    idx = range(start, start + step * count, step)
    form = draw(st.sampled_from(["range", "list", "array"]))
    if form == "list":
        idx = list(idx)
    elif form == "array":
        idx = array("l", idx)
    return idx, vals


@example((range(0, 40), [50.0] + [math.log(j) for j in range(1, 40)]))
@example((range(0, 5), [math.nan, math.nan, 1.0, 2.0, 0.5]))
@example((range(0, 5), [3.0, math.nan, 1.0, 2.0, 0.5]))
# index 0 leaves the fit and a NaN comes first: it is the sup of the rest
@example((range(0, 10), [1.0, math.nan] + [0.0] * 7 + [5.0]))
# without index 0 the sup sits just before the last quarter: frozen
@example((range(0, 13), [0.0] * 9 + [5.0] + [1.0] * 3))
# a late climb that 1 and |sup| leave unsettled and the range does not settle
@example((range(1, 14), [0.0] * 12 + [1.6 * STABILIZE_REL]))
@example((range(0, 5), [-0.0, 0.0, -0.0, 0.0, -0.0]))
@example((range(1, 6), [math.inf, -math.inf, 1.0, 2.0, 0.5]))
@example((list(range(1, 513)), [float(j) for j in range(512)]))
@example((array("l", range(0, 512)), [math.nan] + [1.0] * 511))
@settings(deadline=None, max_examples=400)
@given(oracle_trajectory())
def test_trajectory_helpers_match_the_old_bodies(case):
    idx, vals = case
    for form in (vals, tuple(vals), array("d", vals)):
        assert outcome(classify_trajectory, idx, form) == outcome(
            old_classify_trajectory, idx, form)
        assert outcome(decimate, form) == outcome(old_decimate, form)
    assert outcome(decimate, idx) == outcome(old_decimate, idx)
    if vals:
        tail = vals[len(vals) // 2:]
        axis = _as_list(idx)[len(vals) // 2:][:len(tail)]
        if axis:
            assert outcome(log_fit, axis, tail) == outcome(old_log_fit, axis, tail)


def test_trajectory_helpers_empty_input_raises_as_before():
    assert outcome(decimate, []) == outcome(old_decimate, [])
    for idx in ([], [1]):
        assert outcome(classify_trajectory, idx, []) == outcome(
            old_classify_trajectory, idx, [])
