"""Reference values computed without wcalc.

Everything here works from closed forms of the generated inputs (or the
exact linear-scale values the benchmark wrote into a script), so a wrong
answer from the program cannot leak into the value it is compared with.
"""

from __future__ import annotations

import math

# relative slack for the exact per-index rules below; the generated inputs
# keep every real drop or rise far above it
EXACT_SLACK = 1e-9

# criterion 01 of the acceptance checklist: recovery within 1e-2 (log scale)
RECOVERY_TOL = 1e-2


def gevrey_log(s: float):
    return lambda j: s * math.lgamma(j + 1)


def ptt_log(tau: float, sigma: float):
    return lambda j: 0.0 if j == 0 else tau * float(j) ** sigma * math.log(j)


def scaled_log(base, phi_sigma: float, c: float):
    """base_j + j^phi_sigma * ln c (power exponents, phi_0 = 0)."""
    log_c = math.log(c)
    return lambda j: base(j) + float(j) ** phi_sigma * log_c


def table_log(values):
    logs = [math.log(v) for v in values]
    return logs.__getitem__


def ptt_element_log(tau: float, sigma: float, c: float):
    """Element c of ptt_matrix(tau, sigma): c^(j^sigma) j^(tau j^sigma)."""
    return scaled_log(ptt_log(tau, sigma), sigma, c)


# ---------------------------------------------------------------------------
# exact single-sequence rules, straight from their definitions


def _slack(terms) -> float:
    return EXACT_SLACK * max(1.0, max(abs(t) for t in terms))


def _first_drop(values, slack):
    for i in range(1, len(values)):
        if values[i] < values[i - 1] - slack:
            return i
    return None


def lc(log_m, h):
    """Log-convexity on [0, h]: quotients M_j / M_{j-1} non-decreasing."""
    terms = [log_m(j) for j in range(h + 1)]
    q = [terms[j] - terms[j - 1] for j in range(1, h + 1)]
    bad = _first_drop(q, _slack(terms))
    return ("Holds", None) if bad is None else ("Fails", bad + 1)


def slc(log_m, h):
    """Strong log-convexity: M_j / (j M_{j-1}) non-decreasing."""
    terms = [log_m(j) for j in range(h + 1)]
    q = [terms[j] - terms[j - 1] - math.log(j) for j in range(1, h + 1)]
    bad = _first_drop(q, _slack(terms))
    return ("Holds", None) if bad is None else ("Fails", bad + 1)


def normalized(log_m, h):
    """M_0 = 1 and M_1 >= M_0."""
    t0, t1 = log_m(0), log_m(1)
    if abs(t0) > EXACT_SLACK:
        return "Fails", 0
    if t1 < t0 - EXACT_SLACK:
        return "Fails", 1
    return "Holds", None


def pointwise_le(log_m, log_n, h):
    """M_j <= N_j for every j <= h; the witness is the first violation."""
    for j in range(h + 1):
        a, b = log_m(j), log_n(j)
        if a > b + EXACT_SLACK * max(1.0, abs(a), abs(b)):
            return "Fails", j
    return "Holds", None


def quotient_le(log_m, log_n, h):
    for j in range(1, h + 1):
        a = log_m(j) - log_m(j - 1)
        b = log_n(j) - log_n(j - 1)
        if a > b + EXACT_SLACK * max(1.0, abs(a), abs(b)):
            return "Fails", j
    return "Holds", None


EXACT_RULES = {"lc": lc, "slc": slc, "normalized": normalized}


# ---------------------------------------------------------------------------
# associated function, conjugate, witness series


def omega_brute(log_m, t: float, j_max: int):
    """max_j (j log t - log M_j) over every j in [0, j_max], and the
    largest maximizing index.  No convexity is assumed."""
    log_t = math.log(t)
    best, arg = -math.inf, 0
    for j in range(j_max + 1):
        v = j * log_t - log_m(j)
        if v >= best:
            best, arg = v, j
    return max(0.0, best), arg


def omega_scan_limit(s_min: float, t: float) -> int:
    """An index past which j log t - log M_j only falls, for sequences
    whose log quotients are at least s_min * log j: past t^(1/s_min) every
    further quotient exceeds t.  The factor 2 and the +16 are headroom."""
    return int(2 * t ** (1.0 / s_min)) + 16


def conjugate_interp(log_m, s: float) -> float:
    """Legendre conjugate of u -> omega(e^u) at s for a log-convex M: the
    chord of log M between floor(s) and floor(s) + 1."""
    j = int(math.floor(s))
    theta = s - j
    return (1.0 - theta) * log_m(j) + theta * log_m(j + 1)


def theta_value(log_m, t: float, truncation: int):
    """Witness series sum_j N_j / (2^j nu_j^j) exp(2 i nu_j t), nu_0 = 1."""
    re, im = [], []
    for j in range(truncation + 1):
        log_nu = 0.0 if j == 0 else log_m(j) - log_m(j - 1)
        mag = math.exp(log_m(j) - j * (math.log(2.0) + log_nu))
        phase = 2.0 * math.exp(log_nu) * t
        re.append(mag * math.cos(phase))
        im.append(mag * math.sin(phase))
    return math.fsum(re), math.fsum(im)


# ---------------------------------------------------------------------------
# composition sequence


def _partitions(k: int, cap: int):
    if k == 0:
        yield ()
        return
    for first in range(min(k, cap), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def partition_maximum(logs, top: int) -> list[float]:
    """Entry k = max over partitions k = j_1 + ... + j_l of
    log m_l + sum log m_{j_i}, by enumerating every partition."""
    out = [0.0]
    for k in range(1, top + 1):
        out.append(max(logs[len(p)] + math.fsum(logs[q] for q in p)
                       for p in _partitions(k, k)))
    return out


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
