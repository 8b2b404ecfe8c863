"""Pairwise comparison relations between weight sequences.

The root-scale comparisons work on r_j = (log M_j - log N_j) / j (or an
exponent-sequence denominator phi_j).  Domination (preceq) asks whether the
running sup of r stabilizes; strict smallness (triangle) asks whether r
sinks without return.  Pointwise relations are exact per-index checks.
"""

from __future__ import annotations

import math

from .config import COMPARISON_SLACK, LOG_SLOPE_TOL, need_horizon
from .errors import InvalidParameterError
from .logdomain import slack
from .sequences import ExponentSequence, WeightSequence
from .verdicts import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    UP,
    Verdict,
    classify_trajectory,
    decimate,
    running_sup_stabilized,
)

RELATIONS = ("preceq", "approx", "triangle", "pointwise_le", "quotient_le")

# tolerance for the constant-ratio fast path of scaled families
RATIO_TOL = 1e-9


def _ratio_trajectory(m, n, h, phi):
    """Indices and r values; phi_j = 0 indices are excluded and reported."""
    a, b = m.log_terms(h), n.log_terms(h)
    if phi is None:
        idx = range(1, h + 1)
        return idx, [(a[j] - b[j]) / j for j in idx], []
    idx, vals, excluded = [], [], []
    for j, denom in enumerate(phi.values(1, h), 1):
        if denom == 0.0:
            excluded.append(j)
            continue
        idx.append(j)
        vals.append((a[j] - b[j]) / denom)
    if not idx:
        raise InvalidParameterError("phi", "all indices excluded (phi vanishes on the window)")
    return idx, vals, excluded


def _preceq(m, n, h, phi) -> Verdict:
    idx, vals, excluded = _ratio_trajectory(m, n, h, phi)
    report = classify_trajectory(idx, vals)
    stable, sup = running_sup_stabilized(vals)
    ev = {
        "ratio_log": decimate(vals),
        "trajectory": report.summary(),
        "sup": sup,
        "sup_stabilized": stable,
    }
    if excluded:
        ev["excluded_indices"] = decimate(excluded)
    if report.trend == UP:
        return Verdict("preceq", FAILS, h, witness=idx[report.sup_index], evidence=ev)
    if stable:
        return Verdict("preceq", HOLDS, h, evidence=ev)
    return Verdict("preceq", UNDETERMINED, h, evidence=ev)


def _triangle(m, n, h, phi) -> Verdict:
    idx, vals, excluded = _ratio_trajectory(m, n, h, phi)
    report = classify_trajectory(idx, vals)
    q3 = (3 * len(vals)) // 4
    tail = vals[q3:]
    ev = {"ratio_log": decimate(vals), "trajectory": report.summary()}
    if excluded:
        ev["excluded_indices"] = decimate(excluded)
    sinking = report.slope < -LOG_SLOPE_TOL
    if sinking and max(tail) < 0.0:
        return Verdict("triangle", HOLDS, h, evidence=ev)
    if min(tail) > 0.0 and not sinking:
        # bounded away from zero: the root ratio is not sinking
        pos = q3 + tail.index(min(tail))
        return Verdict("triangle", FAILS, h, witness=idx[pos], evidence=ev)
    return Verdict("triangle", UNDETERMINED, h, evidence=ev)


def _pointwise(m, n, h, quotients: bool) -> Verdict:
    tag = "quotient_le" if quotients else "pointwise_le"
    lo = 1 if quotients else 0
    # scan the indices both sequences have first: a violation there is a
    # Fails even when a table ends before the horizon
    top = min(m.last_index(h), n.last_index(h))
    tm, tn = m.log_terms(top), n.log_terms(top)
    for j in range(lo, top + 1):
        a = tm[j] - tm[j - 1] if quotients else tm[j]
        b = tn[j] - tn[j - 1] if quotients else tn[j]
        if a > b + slack(COMPARISON_SLACK, a, b):
            return Verdict(tag, FAILS, h, witness=j, evidence={"gap_log": a - b})
    if top < h:
        # raises TableExhaustedError for the table that ends first
        m.log_terms(top + 1)
        n.log_terms(top + 1)
    return Verdict(tag, HOLDS, h)


def compare(
    m: WeightSequence,
    n: WeightSequence,
    rel: str,
    horizon: int | None = None,
    phi: ExponentSequence | None = None,
) -> Verdict:
    if rel not in RELATIONS:
        raise InvalidParameterError("rel", f"unknown relation {rel!r}; expected one of {RELATIONS}")
    h = need_horizon(horizon, 4)
    if rel in ("pointwise_le", "quotient_le"):
        if phi is not None:
            raise InvalidParameterError("phi", f"{rel} takes no exponent sequence")
        v = _pointwise(m, n, h, rel == "quotient_le")
    elif rel == "preceq":
        v = _preceq(m, n, h, phi)
    elif rel == "triangle":
        v = _triangle(m, n, h, phi)
    else:  # approx
        fwd = _preceq(m, n, h, phi)
        bwd = _preceq(n, m, h, phi)
        ev = {"forward": fwd.to_json(), "backward": bwd.to_json()}
        if fwd.holds and bwd.holds:
            v = Verdict("approx", HOLDS, h, evidence=ev)
        elif fwd.fails or bwd.fails:
            w = fwd.witness if fwd.fails else bwd.witness
            v = Verdict("approx", FAILS, h, witness=w, evidence=ev)
        else:
            v = Verdict("approx", UNDETERMINED, h, evidence=ev)
    v.evidence["left"] = m.label()
    v.evidence["right"] = n.label()
    if phi is not None:
        v.subject = f"{rel}[phi={phi.label()}]"
        v.evidence["phi"] = phi.label()
    return v


def compare_phi_constancy(
    seqs: list[WeightSequence],
    phi: ExponentSequence,
    horizon: int | None = None,
) -> Verdict:
    """All-pairs equivalence in the phi-weighted root scale.

    Elements of one exponent-scaled family admit an exact check: their
    term ratio per phi-unit must equal log(c1) - log(c2) to RATIO_TOL.
    Other pairs fall back to the two-sided stabilization comparison.
    """
    h = need_horizon(horizon, 4)
    if len(seqs) < 2:
        raise InvalidParameterError("seqs", "need at least two sequences")
    pair_reports = []
    status = HOLDS
    witness = None
    phis = None  # phi_1..phi_h, read at the first exact-ratio pair
    for a in range(len(seqs)):
        for b in range(a + 1, len(seqs)):
            m, n = seqs[a], seqs[b]
            same_family = (
                m.family == "scaled" and n.family == "scaled"
                and m.params.get("base") == n.params.get("base")
                and m.params.get("phi") == n.params.get("phi")
            )
            if same_family:
                expected = math.log(m.params["c"]) - math.log(n.params["c"])
                tm, tn = m.log_terms(h), n.log_terms(h)
                if phis is None:
                    phis = phi.values(1, h)
                dev = 0.0
                for j, p in enumerate(phis, 1):
                    if p == 0.0:
                        continue
                    dev = max(dev, abs((tm[j] - tn[j]) / p - expected))
                ok = dev <= RATIO_TOL
                pair_reports.append({
                    "pair": [m.label(), n.label()],
                    "mode": "exact_ratio",
                    "expected_log_ratio": expected,
                    "max_deviation": dev,
                    "status": HOLDS if ok else FAILS,
                })
                if not ok and status != FAILS:
                    status = FAILS
                    witness = [m.label(), n.label()]
            else:
                v = compare(m, n, "approx", h, phi=phi)
                pair_reports.append({
                    "pair": [m.label(), n.label()],
                    "mode": "approx",
                    "status": v.status,
                })
                if v.fails and status != FAILS:
                    status = FAILS
                    witness = v.witness
                elif v.status == UNDETERMINED and status == HOLDS:
                    status = UNDETERMINED
    return Verdict(
        "phi_constancy", status, h, witness=witness,
        evidence={"pairs": pair_reports, "phi": phi.label()},
    )
