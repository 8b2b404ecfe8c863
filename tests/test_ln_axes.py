"""The cached ln j and ln j! axes and the kernels that read them.

The window checks read ln j from logdomain's cached axes, fit their power
tails through verdicts.log_fit, sum gamma1's reciprocal suffixes with
logdomain.log_running_sums and take index ranges where they used lists.
Each value is the same float operation on the same operands as before, so
the bodies these replaced are kept here as oracles and must agree byte for
byte.
"""

import json
import math
import random
import subprocess
import sys
import tracemalloc
from array import array
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wcalc import (
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
from wcalc.config import OFFDIAG_SAMPLES, POWERFIT_MARGIN, WINDOW_CAP
from wcalc.conditions import _monotone, sample_pairs
from wcalc.logdomain import LOG_ZERO, ln_axis, ln_factorial_axis, log_running_sums
from wcalc.verdicts import (
    classify_trajectory,
    decimate,
    running_sup_stabilized,
)

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


def old_slc(m, h):
    t = m.log_terms(h)
    return _monotone("slc", "reduced_quotients_log",
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
    stable, sup = running_sup_stabilized(traj)
    ev.update({
        "sup_log": sup,
        "stabilized": stable,
        "trajectory_log": decimate(traj),
        "tail_bound_log": log_tail,
    })
    if stable:
        return Verdict("gamma1", HOLDS, h, evidence=ev)
    return Verdict("gamma1", UNDETERMINED, h, evidence=ev)


def old_dc(m, h):
    idx = list(range(1, h + 1))
    t = m.log_terms(h)
    defect = [(t[j] - t[j - 1]) / j for j in idx]
    report = classify_trajectory(idx, defect)
    ev = {"defect": decimate(defect), "trajectory": report.summary()}
    if report.trend == UP:
        ev["diverging"] = True
        return Verdict("dc", UNDETERMINED, h, evidence=ev)
    ev["log_constant"] = report.sup
    return Verdict("dc", HOLDS, h, evidence=ev)


def old_mg(m, h, seed=0):
    jmax = h // 2
    idx = list(range(1, jmax + 1))
    pairs = sample_pairs(h, OFFDIAG_SAMPLES, seed)
    t = m.log_terms(max([2 * jmax] + [j + k for j, k in pairs]))
    diag = [(t[2 * j] - 2.0 * t[j]) / (2 * j + 1) for j in idx]
    off = [(t[j + k] - t[j] - t[k]) / (j + k + 1) for j, k in pairs]
    report = classify_trajectory(idx, diag)
    ev = {
        "diag_defect": decimate(diag),
        "offdiag_max": max(off) if off else None,
        "trajectory": report.summary(),
    }
    if report.trend == UP:
        ev["diverging"] = True
        return Verdict("mg", UNDETERMINED, h, evidence=ev)
    log_c = max(diag + off) if off else max(diag)
    ev["log_constant"] = log_c
    return Verdict("mg", HOLDS, h, evidence=ev)


def old_ratio_trajectory(m, n, h, phi):
    a, b = m.log_terms(h), n.log_terms(h)
    if phi is None:
        idx = list(range(1, h + 1))
        return idx, [(a[j] - b[j]) / j for j in idx], []
    raise AssertionError("the oracle covers phi = None only")


_SINGLE = {
    "slc": old_slc,
    "nq": old_nq,
    "nq_carleman": old_nq_carleman,
    "gamma1": old_gamma1,
    "dc": old_dc,
    "mg": old_mg,
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
    # mg reads up to index 2 * (h // 2) and its off-diagonal pairs, at most h
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


@given(st.lists(st.floats(-800.0, 800.0)
                | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
                | st.floats(), max_size=40))
def test_running_sums_equal_a_chain_of_log_add(values):
    assert _outcome(log_running_sums, values) == _outcome(_log_add_chain, values)


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
