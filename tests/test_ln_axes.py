"""The cached ln j and ln j! axes and the kernels that read them.

The window checks read ln j from logdomain's cached axes, fit their power
tails through verdicts.log_fit, sum gamma1's reciprocal suffixes with
logdomain.log_running_sums, add its tail bound to each suffix with
logdomain.log_add_each and take index ranges where they used lists.
Each value is the same float operation on the same operands as before, so
the bodies these replaced are kept here as oracles and must agree byte for
byte.  The mg trajectories have a stronger oracle, the worst split of
every n found by brute force.
"""

import json
import math
import random
import subprocess
import sys
import tracemalloc
from array import array
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    UP,
    HorizonError,
    LogDomainError,
    Verdict,
    WeightSequence,
    check_condition,
    compare,
    gamma_lower_bound,
    gevrey,
    log_add,
    log_sum,
    power_exponents,
    ptt,
    scaled,
    table,
)
from wcalc import relations
from wcalc.conditions import mg_pair
from wcalc.config import COMPARISON_SLACK, POWERFIT_MARGIN, WINDOW_CAP
from wcalc.logdomain import (
    LOG_ZERO,
    first_drop,
    ln_axis,
    ln_factorial_axis,
    log_add_each,
    log_running_sums,
)
from wcalc.verdicts import classify_trajectory, decimate

ROOT = Path(__file__).resolve().parents[1]

# --- the bodies the axes replaced ------------------------------------------


def old_fit_line(xs, ys):
    """Least-squares slope/intercept; returns (0, mean) for degenerate xs."""
    if len(xs) == 0:
        return 0.0, 0.0
    mx = math.fsum(xs) / len(xs)
    dx = array("d", [x - mx for x in xs])
    sxx = math.fsum(d ** 2 for d in dx)
    my = math.fsum(ys) / len(dx)
    if sxx == 0.0:
        return 0.0, my
    slope = math.fsum(map(mul, dx, [y - my for y in ys])) / sxx
    return slope, my - slope * mx


def old_powerfit_tail(log_indices, log_values, horizon):
    p, q = old_fit_line(log_indices, log_values)
    if p <= 1.0 + POWERFIT_MARGIN:
        return p, None
    log_tail = -q + (1.0 - p) * math.log(horizon) - math.log(p - 1.0)
    return p, log_tail


def old_monotone(tag, key, quotients, terms, h):
    ev = {key: decimate(quotients)}
    j = first_drop(quotients, terms)
    if j:
        ev["drop"] = quotients[j - 1] - quotients[j - 2]
        return Verdict(tag, FAILS, h, witness=j, evidence=ev)
    return Verdict(tag, HOLDS, h, evidence=ev)


def old_lc(m, h):
    """The lc body before the sequence held its first drop: a scan of
    the quotients on [0, h], fresh at every call."""
    t = m.log_terms(h)
    return old_monotone("lc", "quotients_log",
                        [t[j] - t[j - 1] for j in range(1, h + 1)], t, h)


def old_slc(m, h):
    t = m.log_terms(h)
    return old_monotone("slc", "reduced_quotients_log",
                        [t[j] - t[j - 1] - math.log(j) for j in range(1, h + 1)],
                        t, h)


def old_nq_generic(tag, values_log, h):
    partial = log_sum([-v for v in values_log])
    q3 = (3 * len(values_log)) // 4
    tail_idx = range(q3 + 1, len(values_log) + 1)
    p, log_tail = old_powerfit_tail(
        [math.log(j) for j in tail_idx], values_log[q3:], h)
    ev = {"partial_sum_log": partial, "fitted_exponent": p}
    if log_tail is None:
        return Verdict(tag, UNDETERMINED, h, evidence=ev)
    ev["tail_bound_log"] = log_tail
    ev["total_log"] = log_add(partial, log_tail)
    return Verdict(tag, HOLDS, h, evidence=ev)


def old_nq(m, h):
    t = m.log_terms(h)
    return old_nq_generic("nq", [t[j] - t[j - 1] for j in range(1, h + 1)], h)


def old_nq_carleman(m, h):
    t = m.log_terms(h)
    return old_nq_generic("nq_carleman", [t[j] / j for j in range(1, h + 1)], h)


def old_gamma1(m, h):
    t = m.log_terms(h)
    mu = [t[j] - t[j - 1] for j in range(1, h + 1)]
    q3 = (3 * h) // 4
    p, log_tail = old_powerfit_tail(
        [math.log(j) for j in range(q3 + 1, h + 1)], mu[q3:], h)
    ev = {"fitted_exponent": p}
    if log_tail is None:
        return Verdict("gamma1", UNDETERMINED, h, evidence=ev)
    suffix = [LOG_ZERO] * (h + 1)
    acc = LOG_ZERO
    for i in range(h - 1, -1, -1):
        acc = log_add(acc, -mu[i])
        suffix[i] = acc
    jmax = max(1, h // 2)
    traj = [
        (mu[j - 1] - math.log(j)) + log_add(suffix[j - 1], log_tail)
        for j in range(1, jmax + 1)
    ]
    ev["trajectory"] = classify_trajectory(list(range(1, jmax + 1)), traj)
    ev["tail_bound_log"] = log_tail
    if ev["trajectory"]["stabilized"]:
        return Verdict("gamma1", HOLDS, h, evidence=ev)
    return Verdict("gamma1", UNDETERMINED, h, evidence=ev)


def old_dc(m, h):
    idx = list(range(1, h + 1))
    t = m.log_terms(h)
    defect = [(t[j] - t[j - 1]) / j for j in idx]
    ev = {"trajectory": classify_trajectory(idx, defect)}
    if ev["trajectory"]["trend"] == UP:
        ev["diverging"] = True
        return Verdict("dc", UNDETERMINED, h, evidence=ev)
    return Verdict("dc", HOLDS, h, evidence=ev)


def brute_mg(tl, tr, h):
    """The oracle of the mg trajectories: the largest defect
    (tl[j + k] - tr[j] - tr[k]) / (j + k + 1) over every j, k >= 1 with
    j + k <= h, each n = j + k at its least tr[j] + tr[k]."""
    return max((tl[n] - min(map(add, tr[1:n], tr[n - 1:0:-1]))) / (n + 1)
               for n in range(2, h + 1))


def mg_bound(h, *terms):
    """The rounding bound of the mg oracle checks: h times the slack of
    the lc rule at the largest |term|.  An lc-certified table may let each
    quotient sit that slack below the one before, so a balanced split can
    beat another one of n by (n / 2)^2 slacks at most, under h slacks after
    the 1 / (n + 1) scaling; the float sums, the convex hull and its
    interpolation round by a few ulps only."""
    return h * COMPARISON_SLACK * max(1.0, *(abs(v) for t in terms for v in t))


def assert_mg_matches_brute(got, tl, tr, h, lc_pair):
    """got, an mg sup, is the oracle's max within mg_bound on an lc pair,
    and at least that max less mg_bound on any pair."""
    want, bound = brute_mg(tl, tr, h), mg_bound(h, tl, tr)
    assert got >= want - bound
    if lc_pair:
        assert got <= want + bound


def _assert_mg_as_brute(m, n, h):
    """The single-sequence mg of m and n and the matrix pair test of (m, n)
    against brute_mg."""
    lc = {s: check_condition(s, "lc", h).holds for s in (m, n)}
    for s in (m, n):
        v = check_condition(s, "mg", h)
        assert v.evidence["exact"] is lc[s]
        t = s.log_terms(h)
        assert_mg_matches_brute(v.evidence["trajectory"]["log_constant"],
                                t, t, h, lc[s])
    entry = mg_pair(m, n, h, {})
    assert entry["exact"] is (lc[m] and lc[n])
    assert_mg_matches_brute(entry["log_constant"], m.log_terms(h),
                            n.log_terms(h), h, lc[m] and lc[n])


def old_ratio_trajectory(m, n, h, phi):
    a, b = m.log_terms(h), n.log_terms(h)
    if phi is None:
        idx = list(range(1, h + 1))
        return idx, [(a[j] - b[j]) / j for j in idx], []
    raise AssertionError("the oracle covers phi = None only")


_SINGLE = {
    "lc": old_lc,
    "slc": old_slc,
    "nq": old_nq,
    "nq_carleman": old_nq_carleman,
    "gamma1": old_gamma1,
    "dc": old_dc,
}
_PAIR = ("preceq", "triangle")


def _json(v) -> str:
    return json.dumps(v.to_json(), sort_keys=True)


def _old_compare(m, n, rel, h):
    saved = relations._ratio_trajectory
    relations._ratio_trajectory = old_ratio_trajectory
    try:
        return compare(m, n, rel, h)
    finally:
        relations._ratio_trajectory = saved


def _assert_same_as_old(m, n, h):
    for cond, old in _SINGLE.items():
        assert _json(check_condition(m, cond, h)) == _json(old(m, h)), cond
    for rel in _PAIR:
        assert _json(compare(m, n, rel, h)) == _json(_old_compare(m, n, rel, h)), rel
    _assert_mg_as_brute(m, n, h)


def _logs(rng, length):
    """Log terms whose quotients grow like s ln j or s j ln j, with near-ties
    of the lc or slc quotients missed by -10 to 10 times 1e-12 of the terms
    so far, or of the slc quotients only, missed from above; and with random
    drops."""
    s = rng.uniform(0.3, 3.0)
    grow = rng.choice([math.log, lambda j: j * math.log(j) / 4.0])
    miss = rng.choice([10.0, 0.0])
    drops = rng.choice([0.0, 0.005, 0.05])
    logs = [rng.choice([0.0, 1e-13, -1e-13, 2.0])]
    q = rng.uniform(-2.0, 2.0)
    for j in range(1, length):
        kind = rng.choices(["up", "lc", "slc", "drop"],
                           [0.8, 0.1 if miss else 0.0, 0.1, drops])[0]
        if kind == "up":
            q += s * (grow(j) - grow(j - 1)) if j > 1 else rng.uniform(0.0, 1.0)
        elif kind == "drop":
            q -= rng.uniform(0.0, 3.0)
        else:
            tie = math.log(j / (j - 1)) if kind == "slc" and j > 1 else 0.0
            q += tie - rng.uniform(-10.0, miss) * 1e-12 * max(1.0, abs(logs[-1]))
        logs.append(logs[-1] + q)
    return logs


@settings(deadline=None, max_examples=100)
@given(h=st.integers(16, 600), seed=st.integers(0, 2 ** 32 - 1),
       pair=st.sampled_from(["independent", "near-tie"]))
def test_window_checks_match_the_old_bodies(h, seed, pair):
    rng = random.Random(seed)
    left = _logs(rng, h + 1)
    if pair == "independent":
        right = _logs(rng, h + 1)
    else:
        right = [t + rng.choice([0.0, 1.0, -1.0, 0.5e-12, -2e-12]) * max(1.0, abs(t))
                 for t in left]
    _assert_same_as_old(table(log_values=left), table(log_values=right), h)


@pytest.mark.parametrize("left, right", [
    (gevrey(1.7), gevrey(0.6)),
    (ptt(0.5, 1.2), scaled(gevrey(1.7), power_exponents(1.3), 2.5)),
])
def test_window_checks_match_the_old_bodies_at_4096(left, right):
    _assert_same_as_old(left, right, 4096)


def _convex_logs(rng, length):
    """Log terms whose quotients never decrease, ties among them."""
    quotients = sorted(rng.choice([0.0, rng.uniform(-3.0, 3.0)])
                       for _ in range(length - 1))
    logs = [rng.uniform(-2.0, 2.0)]
    for q in quotients:
        logs.append(logs[-1] + q)
    return logs


@settings(deadline=None, max_examples=100)
@given(h=st.integers(4, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_mg_is_the_worst_split_on_log_convex_pairs(h, seed):
    rng = random.Random(seed)
    left, right = (table(log_values=_convex_logs(rng, h + 1)) for _ in "lr")
    assert check_condition(left, "lc", h).holds
    assert check_condition(right, "lc", h).holds
    _assert_mg_as_brute(left, right, h)


@settings(deadline=None, max_examples=100)
@given(h=st.integers(4, 300), seed=st.integers(0, 2 ** 32 - 1),
       spread=st.sampled_from([1.0, 50.0]))
def test_mg_bounds_the_worst_split_on_any_pair(h, seed, spread):
    rng = random.Random(seed)
    left, right = (table(log_values=[rng.uniform(-spread, spread)
                                     for _ in range(h + 1)]) for _ in "lr")
    _assert_mg_as_brute(left, right, h)


# --- gevrey and ptt blocks --------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: gevrey(1.5), lambda: gevrey(0.37),
    lambda: ptt(1.0, 2.0), lambda: ptt(0.3, 1.7),
])
def test_family_blocks_equal_their_term_functions(make):
    m = make()
    terms = array("d", map(m._fn, range(8193)))
    for lo in (0, 1, 4097, 8192):
        assert array("d", m._block(lo, 8192)).tobytes() == terms[lo:].tobytes(), lo
    # through the window: a short fill from 0, then one from lo > 0
    m.log_terms(100)
    assert array("d", m.log_terms(8192)).tobytes() == terms.tobytes()


# --- the axes ---------------------------------------------------------------


def test_axes_hold_math_log_and_lgamma():
    ln, ln_fact = ln_axis(600), ln_factorial_axis(600)
    assert len(ln) >= 601 and len(ln_fact) >= 601
    assert ln[0] == LOG_ZERO
    assert array("d", ln[1:601]).tobytes() == array("d", map(math.log, range(1, 601))).tobytes()
    assert array("d", ln_fact[:601]).tobytes() == \
        array("d", (math.lgamma(j + 1) for j in range(601))).tobytes()


def test_axes_never_grow_past_the_window_cap():
    for axis in (ln_axis, ln_factorial_axis):
        before = len(axis(16))
        with pytest.raises(HorizonError):
            axis(WINDOW_CAP + 1)
        assert len(axis(16)) == before


_AXES_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import wcalc
from wcalc import logdomain
print(len(logdomain._LN_AXIS), len(logdomain._LN_FACTORIAL_AXIS))
"""


def test_import_builds_no_axis():
    proc = subprocess.run([sys.executable, "-I", "-c", _AXES_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_gamma_lower_bound_peak_memory_at_4096():
    # a filled window and warm axes: the scan itself holds the quotients,
    # the prefix maxima of the slack and one verdict per alpha, far less
    # than three lists of h floats
    h = 4096
    m = gevrey(1.5)
    m.log_terms(h)
    ln_axis(h)
    ln_factorial_axis(h)
    tracemalloc.start()
    try:
        gamma_lower_bound(m, [0.75, 1.5, 2.0], h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (h + 1) * 32, peak


# --- gamma1's suffix sums ---------------------------------------------------


def _outcome(fn, values):
    try:
        return array("d", fn(values)).tobytes()
    except LogDomainError as e:
        return type(e), str(e)


def _log_add_chain(values):
    acc, out = LOG_ZERO, []
    for v in values:
        acc = log_add(acc, v)
        out.append(acc)
    return out


LOG_VALUES = (st.floats(-800.0, 800.0)
              | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
              | st.floats())


@given(st.lists(LOG_VALUES, max_size=40))
def test_running_sums_equal_a_chain_of_log_add(values):
    assert _outcome(log_running_sums, values) == _outcome(_log_add_chain, values)


@given(st.lists(LOG_VALUES, max_size=40), LOG_VALUES)
def test_add_each_equals_a_log_add_per_value(values, b):
    assert _outcome(lambda vs: log_add_each(vs, b), values) == _outcome(
        lambda vs: [log_add(v, b) for v in vs], values)


def test_gamma1_on_a_nan_quotient_raises_as_before():
    # log M_10 = log M_11 = -inf: mu_11 is NaN, and the fitted tail is fine
    def term(j):
        return LOG_ZERO if j in (10, 11) else 1.5 * math.lgamma(j + 1)

    def raised(fn):
        with pytest.raises(LogDomainError) as info:
            fn(WeightSequence("custom", {}, term), 64)
        return type(info.value), str(info.value)

    want = raised(old_gamma1)
    assert raised(lambda m, h: check_condition(m, "gamma1", h)) == want
    assert want[1] == "nan operand"
