"""Finite-horizon checks of growth/regularity conditions on one sequence.

Exact per-index conditions (log-convexity, normalization) give Holds/Fails
with a witness.  Asymptotic conditions (moderate growth, derivative
closedness, quotient series, ratio liminfs) give Holds only when the
measured defect trajectory stabilizes inside the window, Undetermined
otherwise; they never fake a proof.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from operator import mul, neg, sub, truediv

from .config import (
    COMPARISON_SLACK,
    POWERFIT_MARGIN,
    ROOT_MARGIN,
    need_horizon,
)
from .errors import InvalidParameterError
from .logdomain import (
    first_drop,
    last_drop,
    ln_axis,
    ln_factorial_axis,
    log_add,
    log_add_each,
    log_running_sums,
    log_sum,
    prefix_max_abs,
)
from .sequences import ExponentSequence, WeightSequence
from .verdicts import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    UP,
    Verdict,
    classify_trajectory,
    decimate,
    log_fit,
    quarter_minima,
)

CONDITIONS = (
    "lc", "slc", "normalized", "mg", "dc",
    "nq", "nq_carleman", "beta1", "beta3", "gamma1",
)

# floor used when reading an exponent-sequence growth report: the tail
# estimate of phi_j / j must sit above this to count as a positive gap
EXPONENT_GAP_FLOOR = 0.01


def _powerfit_tail(indices: range, log_values, horizon):
    """Fit log v ~ p log j over the tail indices; log of the integral tail
    bound for sum 1/v beyond the horizon, or None when the fit is too
    shallow."""
    p, q = log_fit(indices, log_values)
    if p <= 1.0 + POWERFIT_MARGIN:
        return p, None
    log_tail = -q + (1.0 - p) * math.log(horizon) - math.log(p - 1.0)
    return p, log_tail


def check_condition(
    m: WeightSequence,
    cond: str,
    horizon: int | None = None,
    Q: int = 2,
) -> Verdict:
    """Verdict of one condition on m up to the horizon; Q is the
    dilation of beta1/beta3."""
    if cond not in CONDITIONS:
        raise InvalidParameterError("cond", f"unknown condition {cond!r}; expected one of {CONDITIONS}")
    h = need_horizon(horizon, 4)
    if cond in ("beta1", "beta3"):
        if not isinstance(Q, int) or Q < 2:
            raise InvalidParameterError("Q", f"need integer Q >= 2, got {Q!r}")
        return _check_beta(cond, m, h, Q, math.log(Q) if cond == "beta1" else 0.0)
    if cond in ("nq", "nq_carleman"):
        return _check_nq(cond, m, h)
    return _DISPATCH[cond](m, h)


# ---------------------------------------------------------------------------
# exact per-index conditions


def _monotone(tag: str, key: str, quotient, j: int, h: int) -> Verdict:
    """Fails at the quotient drop j (witness: the index of the later
    quotient's term; 0 is none), Holds otherwise.  quotient(i) is the
    quotient ending at term i, read only at the decimated evidence
    indices and at the drop.  j is logdomain.first_drop, whose slack reads
    |log M_i| for i <= j only, so the verdict and witness hold at every
    horizon past j."""
    ev = {key: [quotient(i) for i in decimate(range(1, h + 1))]}
    if j:
        ev["drop"] = quotient(j) - quotient(j - 1)
        return Verdict(tag, FAILS, h, witness=j, evidence=ev)
    return Verdict(tag, HOLDS, h, evidence=ev)


def _check_lc(m: WeightSequence, h: int) -> Verdict:
    t = m.log_terms(h)
    return _monotone("lc", "quotients_log", lambda i: t[i] - t[i - 1],
                     m.first_drop(h), h)


def _check_slc(m: WeightSequence, h: int) -> Verdict:
    t = m.log_terms(h)
    ln = ln_axis(h)
    q = [t[j] - t[j - 1] - ln[j] for j in range(1, h + 1)]
    return _monotone("slc", "reduced_quotients_log", lambda i: q[i - 1],
                     first_drop(q, t), h)


def _check_normalized(m: WeightSequence, h: int) -> Verdict:
    t0 = m.log_term(0)
    t1 = m.log_term(1)
    ev = {"log_term_0": t0, "log_term_1": t1}
    if abs(t0) > COMPARISON_SLACK:
        return Verdict("normalized", FAILS, h, witness=0, evidence=ev)
    if t1 < t0 - COMPARISON_SLACK:
        return Verdict("normalized", FAILS, h, witness=1, evidence=ev)
    return Verdict("normalized", HOLDS, h, evidence=ev)


def check_sc(m: WeightSequence, h: int) -> Verdict:
    """The regularity certificate: log-convex, normalized and with
    divergent roots up to h.  Fails with the lc witness (m.first_drop),
    else the normalized one (both checks are exact); Undetermined when
    only the divergence of the roots is missing."""
    drop = m.first_drop(need_horizon(h, 4))
    nm = check_condition(m, "normalized", h)
    divergent = root_growth_profile(m, h)["divergent"]
    ev = {"lc": FAILS if drop else HOLDS, "normalized": nm.status,
          "roots_divergent": divergent}
    if drop or nm.fails:
        return Verdict("sc", FAILS, h, witness=drop or nm.witness,
                       evidence=ev)
    return Verdict("sc", HOLDS if divergent else UNDETERMINED, h, evidence=ev)


# ---------------------------------------------------------------------------
# two-index growth conditions


def convex_minorant(t) -> list[float]:
    """The lower convex hull of the points (j, t[j]), read at each j and
    clamped to at most t[j] against rounding."""
    hull = [0]
    for j in range(1, len(t)):
        # a vertex stays only where the hull turns up strictly
        while len(hull) >= 2:
            i, k = hull[-2], hull[-1]
            if (t[k] - t[i]) / (k - i) < (t[j] - t[i]) / (j - i):
                break
            hull.pop()
        hull.append(j)
    out = []
    for i, k in zip(hull, hull[1:]):
        step = (t[k] - t[i]) / (k - i)
        out.extend(min(t[i] + step * (j - i), t[j]) for j in range(i, k))
    out.append(t[-1])
    return out


def mg_pair(left: WeightSequence, right: WeightSequence, h: int,
            memo: dict) -> dict:
    """classify_trajectory of the mg defects (tl[n] - split[n // 2] -
    split[n - n // 2]) / (n + 1) of the pair, with exact: whether both
    sides are lc on [0, h].

    split is the right-hand terms if they are lc on [0, h], else their
    convex minorant, made once per memo under ("minorant", right, h);
    being convex, its least split is the balanced one, so each defect
    bounds the worst split from above, exactly for lc terms.  When exact,
    an odd n < h adds nothing, since its unscaled defect is at most the
    mean of its even neighbours': only the even n and an odd h are read.
    Otherwise every n = 2..h is.
    """
    tr = right.log_terms(h)
    exact = not right.first_drop(h)
    split = tr if exact else memo.get(("minorant", right, h))
    if split is None:
        split = memo["minorant", right, h] = convex_minorant(tr)
    exact = exact and not left.first_drop(h)
    tl = left.log_terms(h)
    ns = range(2, h + 1, 2) if exact else range(2, h + 1)
    if exact and h % 2:
        ns = [*ns, h]
    entry = classify_trajectory(ns, [
        (tl[n] - split[n // 2] - split[n - n // 2]) / (n + 1) for n in ns])
    entry["exact"] = exact
    return entry


def dc_pair(left: WeightSequence, right: WeightSequence, h: int) -> dict:
    """classify_trajectory of (log L_j - log R_{j-1}) / j over j = 1..h:
    L_j <= A^j R_{j-1}."""
    tl, tr = left.log_terms(h), right.log_terms(h - 1)
    return classify_trajectory(range(1, h + 1), [
        (tl[j + 1] - tr[j]) / (j + 1) for j in range(h)])


def _check_mg(m: WeightSequence, h: int) -> Verdict:
    traj = mg_pair(m, m, h, {})
    return _trend_verdict("mg", h, {"exact": traj.pop("exact"), "trajectory": traj})


def _check_dc(m: WeightSequence, h: int) -> Verdict:
    return _trend_verdict("dc", h, {"trajectory": dc_pair(m, m, h)})


def _trend_verdict(tag: str, h: int, ev: dict) -> Verdict:
    """The rule of the mg and dc defects: Undetermined with diverging: true
    when ev's trajectory trends up, else Holds."""
    if ev["trajectory"]["trend"] == UP:
        ev["diverging"] = True
        return Verdict(tag, UNDETERMINED, h, evidence=ev)
    return Verdict(tag, HOLDS, h, evidence=ev)


# ---------------------------------------------------------------------------
# series/ratio conditions


def _check_nq(tag: str, m: WeightSequence, h: int) -> Verdict:
    """Summability of the reciprocals of the quotients (nq) or of the roots
    (nq_carleman) of m, read as logs at j = 1..h."""
    t = m.log_terms(h)
    idx = range(1, h + 1)
    if tag == "nq":
        values_log = [t[j] - t[j - 1] for j in idx]
    else:
        values_log = [t[j] / j for j in idx]
    partial = log_sum([-v for v in values_log])
    q3 = (3 * len(values_log)) // 4
    p, log_tail = _powerfit_tail(
        range(q3 + 1, len(values_log) + 1), values_log[q3:], h)
    ev = {"partial_sum_log": partial, "fitted_exponent": p}
    if log_tail is None:
        return Verdict(tag, UNDETERMINED, h, evidence=ev)
    ev["tail_bound_log"] = log_tail
    ev["total_log"] = log_add(partial, log_tail)
    return Verdict(tag, HOLDS, h, evidence=ev)


def _check_beta(tag: str, m: WeightSequence, h: int, Q: int, floor_log: float) -> Verdict:
    lo = max(1, h // 2)
    t = m.log_terms(Q * h)
    vals = [(t[Q * j] - t[Q * j - 1]) - (t[j] - t[j - 1]) for j in range(lo, h + 1)]
    tail_min = min(vals)
    ev = {"tail_min_log": tail_min, "required_log": floor_log, "Q": Q,
          "window": [lo, h]}
    if tail_min > floor_log:
        return Verdict(tag, HOLDS, h, evidence=ev)
    return Verdict(tag, UNDETERMINED, h, evidence=ev)


def _check_gamma1(m: WeightSequence, h: int) -> Verdict:
    t = m.log_terms(h)
    mu = [t[j] - t[j - 1] for j in range(1, h + 1)]  # mu[i] = log mu_{i+1}
    q3 = (3 * h) // 4
    p, log_tail = _powerfit_tail(range(q3 + 1, h + 1), mu[q3:], h)
    ev = {"fitted_exponent": p}
    if log_tail is None:
        # reciprocal tail beyond the horizon cannot be bounded
        return Verdict("gamma1", UNDETERMINED, h, evidence=ev)
    # suffix log-sums of 1/mu_k from j to horizon, then the tail bound
    suffix = log_running_sums(map(neg, reversed(mu)))
    suffix.reverse()
    ln = ln_axis(h)
    jmax = max(1, h // 2)
    tails = log_add_each(islice(suffix, jmax), log_tail)
    del suffix  # traj reads only the tails: free the h sums before it grows
    idx = range(1, jmax + 1)
    traj = classify_trajectory(idx, [(mu[j - 1] - ln[j]) + tails[j - 1]
                                     for j in idx])
    ev.update(trajectory=traj, tail_bound_log=log_tail)
    if traj["stabilized"]:
        return Verdict("gamma1", HOLDS, h, evidence=ev)
    return Verdict("gamma1", UNDETERMINED, h, evidence=ev)


# the conditions that take only m and the horizon
_DISPATCH = {
    "lc": _check_lc,
    "slc": _check_slc,
    "normalized": _check_normalized,
    "mg": _check_mg,
    "dc": _check_dc,
    "gamma1": _check_gamma1,
}


# ---------------------------------------------------------------------------
# growth profiles


def root_growth_profile(m: WeightSequence, horizon: int | None = None) -> dict:
    """The divergence test of the roots log M_j / j: divergent when their
    last-quarter minimum passes their first-quarter maximum by ROOT_MARGIN.
    """
    h = need_horizon(horizon, 4)
    t = m.log_terms(h)
    first_max = max(t[j] / j for j in range(1, h // 4 + 1))
    last_min = min(t[j] / j for j in range((3 * h) // 4 + 1, h + 1))
    return {
        "horizon": h,
        "root_first_quarter_max": first_max,
        "root_last_quarter_min": last_min,
        "divergent": last_min >= first_max + ROOT_MARGIN,
    }


def gamma_lower_bound(m: WeightSequence, alphas,
                      horizon: int | None = None) -> dict:
    """Certify growth-index lower bounds: for each alpha, Holds when
    j -> log mu_j - alpha log j is non-decreasing from an onset in the
    first half of the window and the alpha-divided roots are not decaying.

    Fails (with the last violating index) when the monotonicity defect
    persists into the last quarter; late onsets give Undetermined.  The
    last violating index is logdomain.last_drop at alpha, the drop rule of
    the lc and slc checks.
    """
    alphas = tuple(map(float, alphas))
    bad = next((a for a in alphas if not math.isfinite(a)), None)
    if bad is not None:
        raise InvalidParameterError("alphas", f"need finite alphas, got {bad!r}")
    h = need_horizon(horizon, 4)
    out = {}
    terms = m.log_terms(h)
    mu = [terms[j] - terms[j - 1] for j in range(1, h + 1)]
    ln_fact = ln_factorial_axis(h)
    big = prefix_max_abs(terms)
    q1 = max(1, h // 4)
    q3 = (3 * h) // 4

    def divided_roots(a: float, lo: int, hi: int):
        # (terms[j] - a * ln j!) / j for j = lo..hi
        return map(truediv,
                   map(sub, islice(terms, lo, hi + 1),
                       map(mul, repeat(a), islice(ln_fact, lo, hi + 1))),
                   range(lo, hi + 1))

    for a in alphas:
        last_violation = last_drop(mu, a, big)
        onset = max(1, last_violation)
        first_max = max(divided_roots(a, 1, q1))
        tail_min = min(divided_roots(a, q3 + 1, h))
        decayed = tail_min < first_max - math.log(10.0)
        ev = {
            "alpha": a,
            "onset": onset,
            "divided_root_tail_min": tail_min,
            "divided_root_first_max": first_max,
            "divided_root_divergent": tail_min >= first_max + ROOT_MARGIN,
        }
        subject = f"gamma_lb(alpha={a})"
        if last_violation > q3:
            out[a] = Verdict(subject, FAILS, h, witness=last_violation, evidence=ev)
        elif onset > h // 2:
            out[a] = Verdict(subject, UNDETERMINED, h, evidence=ev)
        elif decayed:
            ev["decaying_roots"] = True
            out[a] = Verdict(subject, UNDETERMINED, h, evidence=ev)
        else:
            out[a] = Verdict(subject, HOLDS, h, evidence=ev)
    return out


def exponent_growth_report(phi: ExponentSequence,
                           horizon: int | None = None) -> dict:
    """Tail behaviour of phi_j / j: estimate of the liminf plus a decay flag.

    Quarterly minima that shrink steadily mark a gap vanishing at infinity
    even when the last value still sits above EXPONENT_GAP_FLOOR.
    """
    h = need_horizon(horizon, 4)
    mins, decaying = quarter_minima(
        [p / j for j, p in enumerate(phi.values(1, h), 1)])
    tail = mins[3]
    return {
        "horizon": h,
        "tail_liminf": tail,
        "quarter_mins": mins,
        "decaying": decaying,
        "positive_gap": tail > EXPONENT_GAP_FLOOR and not decaying,
    }
