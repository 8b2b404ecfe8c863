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


def _monotone(tag: str, key: str, quotients: list[float], terms: list[float],
              h: int) -> Verdict:
    """Fails at logdomain.first_drop of the quotient sequence (witness: the
    index j of the later quotient), Holds otherwise.  The slack of a drop
    reads |log M_i| for i <= j only, so the verdict and witness hold at
    every horizon past j."""
    ev = {key: decimate(quotients)}
    j = first_drop(quotients, terms)
    if j:
        ev["drop"] = quotients[j - 1] - quotients[j - 2]
        return Verdict(tag, FAILS, h, witness=j, evidence=ev)
    return Verdict(tag, HOLDS, h, evidence=ev)


def _check_lc(m: WeightSequence, h: int) -> Verdict:
    t = m.log_terms(h)
    return _monotone("lc", "quotients_log",
                     [t[j] - t[j - 1] for j in range(1, h + 1)], t, h)


def lc_certified(m: WeightSequence, h: int) -> bool:
    """The lc check's verdict on [0, h] without its evidence."""
    t = m.log_terms(h)
    return not first_drop(list(map(sub, islice(t, 1, None), t)), t)


def _check_slc(m: WeightSequence, h: int) -> Verdict:
    t = m.log_terms(h)
    ln = ln_axis(h)
    return _monotone("slc", "reduced_quotients_log",
                     [t[j] - t[j - 1] - ln[j] for j in range(1, h + 1)], t, h)


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
    divergent roots up to h.  Fails with the lc witness, else the
    normalized one (both checks are exact); Undetermined when only the
    divergence of the roots is missing."""
    lc = check_condition(m, "lc", h)
    nm = check_condition(m, "normalized", h)
    divergent = root_growth_profile(m, h)["divergent"]
    ev = {"lc": lc.status, "normalized": nm.status,
          "roots_divergent": divergent}
    if lc.fails or nm.fails:
        return Verdict("sc", FAILS, h,
                       witness=lc.witness if lc.fails else nm.witness,
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


def mg_trajectory(tl, split, h: int, exact: bool) -> tuple:
    """The indices n and defects (tl[n] - split[n // 2] - split[n - n // 2])
    / (n + 1) of the mg trajectory of a pair.

    split is the right-hand terms if they are lc on [0, h], else their
    convex minorant; being convex, its least split is the balanced one, so
    each defect bounds the worst split from above, exactly for lc terms.
    With exact (both sides lc on [0, h]) an odd n < h adds nothing, since
    its unscaled defect is at most the mean of its even neighbours': only
    the even n and an odd h are read.  Otherwise every n = 2..h is.
    """
    ns = range(2, h + 1, 2) if exact else range(2, h + 1)
    if exact and h % 2:
        ns = [*ns, h]
    return ns, [(tl[n] - split[n // 2] - split[n - n // 2]) / (n + 1)
                for n in ns]


def _check_mg(m: WeightSequence, h: int) -> Verdict:
    t = m.log_terms(h)
    exact = lc_certified(m, h)
    split = t if exact else convex_minorant(t)
    ns, defect = mg_trajectory(t, split, h, exact)
    traj = classify_trajectory(ns, defect)
    return _trend_verdict("mg", h, {"exact": exact, "trajectory": traj})


def _check_dc(m: WeightSequence, h: int) -> Verdict:
    idx = range(1, h + 1)
    t = m.log_terms(h)
    defect = [(t[j] - t[j - 1]) / j for j in idx]  # M_j <= A^j M_{j-1}
    return _trend_verdict("dc", h, {"trajectory": classify_trajectory(idx, defect)})


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
    """Tail estimates for quotient/root growth plus window-safe orderings.

    liminf/limsup estimates are min/max over the last quarter.  The
    sandwich flag reports the two orderings that are checkable inside a
    window: roots never exceed quotients pointwise (normalized log-convex
    inputs), and the tail max of the roots stays below the tail max of the
    quotients.  The divergence flag compares the last-quarter minimum of
    the roots against the first-quarter maximum plus ROOT_MARGIN.
    """
    h = need_horizon(horizon, 4)
    t = m.log_terms(h)
    mu = [t[j] - t[j - 1] for j in range(1, h + 1)]
    roots = [t[j] / j for j in range(1, h + 1)]
    q1 = max(1, h // 4)
    q3 = (3 * h) // 4
    tail_mu = mu[q3:]
    tail_roots = roots[q3:]
    pointwise_ok = all(r <= u + COMPARISON_SLACK for r, u in zip(roots, mu))
    profile = {
        "horizon": h,
        "mu_liminf_log": min(tail_mu),
        "mu_limsup_log": max(tail_mu),
        "root_liminf_log": min(tail_roots),
        "root_limsup_log": max(tail_roots),
        "sandwich_ok": pointwise_ok and max(tail_roots) <= max(tail_mu) + COMPARISON_SLACK,
        "root_first_quarter_max": max(roots[:q1]),
        "root_last_quarter_min": min(tail_roots),
        "margin": ROOT_MARGIN,
    }
    profile["divergent"] = (
        profile["root_last_quarter_min"] >= profile["root_first_quarter_max"] + ROOT_MARGIN
    )
    return profile


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
