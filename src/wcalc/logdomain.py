"""Scalar arithmetic on log-encoded nonnegative reals.

A value x >= 0 is carried as log(x) in a double; -inf encodes 0.  Addition
and subtraction shift by the running maximum before exponentiating, so
intermediate terms stay in [0, 1] and never overflow.  Long sums go through
math.fsum, which accumulates exactly and then rounds once.

The module also owns the two index axes every window check reads, ln j
and ln j!, each computed once per process into a growing array prefix,
and the one rule that decides a quotient drop: first_drop and last_drop
scan a quotient sequence forward and backward under it.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable

from .config import COMPARISON_SLACK, need_horizon
from .errors import LogDomainError

LOG_ZERO = float("-inf")

# ln j and ln j! at index j, grown on demand by ln_axis and
# ln_factorial_axis; pure functions of j, so every caller may share them
_LN_AXIS = array("d")
_LN_FACTORIAL_AXIS = array("d")

# exp(log_x) for log_x below this underflows even after the shift; such
# terms cannot move a double sum and are dropped early.
_NEGLIGIBLE_SHIFT = -745.0


def slack(rel: float, a: float, b: float = 0.0) -> float:
    """Tolerance for an order comparison x > y + slack of computed log
    values: rel * max(1, |a|, |b|).

    Differences of large log terms carry float jitter that grows with the
    terms, not with the (often tiny) difference, so the tolerance scales
    with the magnitudes compared.  A window scan passes the largest |value|
    of its window as a.  Written without max() so that per-index
    comparisons allocate nothing.
    """
    a = abs(a)
    b = abs(b)
    if b > a:
        a = b
    return rel * a if a > 1.0 else rel


def prefix_max_abs(values) -> array:
    """[max |values[k]| over k <= j for each j] of a non-empty sequence,
    the magnitudes a window scan passes to slack: the floats of
    array("d", accumulate(map(abs, values), max)), from one comparison per
    index instead of one max() call."""
    out = array("d")
    put = out.append
    b = abs(values[0])
    for x in map(abs, values):
        if x > b:
            b = x
        put(b)
    return out


def first_drop(values, terms) -> int:
    """The first j >= 2 at which values[j - 1] drops below values[j - 2]
    by more than slack(COMPARISON_SLACK, max |terms[k]| over k <= j), or 0
    when no quotient drops that far.

    values[i] is the quotient ending at term i + 1, so j is the index of
    the later quotient's term.  The slack reads no term past j, so the
    answer is the same at every horizon from j on.  The prefix maximum is
    built from slices only where a quotient decreases.
    """
    big, seen = 0.0, 0  # the largest |terms[k]| for k < seen
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            big, seen = max(big, max(map(abs, terms[seen:i + 2]))), i + 2
            if values[i] < values[i - 1] - slack(COMPARISON_SLACK, big):
                return i + 1
    return 0


def last_drop(mu, a: float, big) -> int:
    """The last j >= 2 at which mu[j - 1] - a ln j drops below its
    predecessor mu[j - 2] - a ln(j - 1) by more than
    slack(COMPARISON_SLACK, big[j]), or 0 when none does.

    mu[i] is log M_{i+1} - log M_i and big[j] the largest |log M_k| over
    k <= j (prefix_max_abs of the terms), so the drop at j is judged as
    first_drop judges it.
    """
    h = len(mu)
    ln = ln_axis(h)
    cur = mu[h - 1] - a * ln[h]
    for i in range(h - 1, 0, -1):
        prev = mu[i - 1] - a * ln[i]
        if cur < prev and cur < prev - slack(COMPARISON_SLACK, big[i + 1]):
            return i + 1
        cur = prev
    return 0


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving the log domain."""
    if math.isnan(a) or math.isnan(b):
        raise LogDomainError("nan operand")
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    if hi == math.inf:
        return math.inf
    return hi + math.log1p(math.exp(lo - hi))


def log_sub(a: float, b: float) -> float:
    """log(exp(a) - exp(b)); requires a >= b.

    Equal operands give LOG_ZERO exactly.  b > a raises LogDomainError:
    negative values have no log encoding.
    """
    if math.isnan(a) or math.isnan(b):
        raise LogDomainError("nan operand")
    if b == LOG_ZERO:
        return a
    if b > a:
        raise LogDomainError(f"log_sub would be negative: {a!r} < {b!r}")
    if a == b:
        return LOG_ZERO
    # b - a is negative or -inf, so -expm1(b - a) lies in (0, 1]
    return a + math.log(-math.expm1(b - a))


def log_sum(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over an iterable, shift-by-max + exact accumulation.

    The single shift bounds every addend by 1; fsum then keeps the
    accumulated error at one final rounding regardless of length.  Result
    is >= max(values) always, which downstream bound checks rely on.  A
    NaN anywhere raises LogDomainError.
    """
    vals = values if type(values) is list else list(values)
    # the sum is NaN when a value is, or when inf meets -inf
    if math.isnan(sum(vals)) and any(v != v for v in vals):
        raise LogDomainError("nan operand")
    hi = max(vals, default=LOG_ZERO)
    if hi == LOG_ZERO or hi == math.inf:
        return hi
    total = math.fsum(
        math.exp(v - hi) for v in vals if v - hi > _NEGLIGIBLE_SHIFT
    )
    return hi + math.log(total)


def log_running_sums(values: Iterable[float]) -> list[float]:
    """The running log-sums of values: entry k is log_add of entry k - 1
    and values[k], from LOG_ZERO.

    One pass with log_add's arithmetic inline, so every entry equals the
    chain of log_add calls bit for bit, and a NaN value raises the same
    LogDomainError at the same place.
    """
    out = []
    append = out.append
    acc = LOG_ZERO
    log1p, exp = math.log1p, math.exp
    for b in values:
        if b != b:  # acc is never NaN: no step below makes one
            raise LogDomainError("nan operand")
        if acc == LOG_ZERO:
            acc = b
        elif b != LOG_ZERO:
            if acc < b:
                acc, b = b, acc
            if acc != math.inf:
                acc = acc + log1p(exp(b - acc))
        append(acc)
    return out


def log_add_each(values: Iterable[float], b: float) -> list[float]:
    """[log_add(v, b) for v in values] in one pass with log_add's
    arithmetic inline, so every entry equals its log_add call bit for bit,
    and a NaN operand raises the same LogDomainError at the same place.
    """
    out = []
    append = out.append
    log1p, exp, inf = math.log1p, math.exp, math.inf
    for a in values:
        if a != a or b != b:
            raise LogDomainError("nan operand")
        if a == LOG_ZERO or b == LOG_ZERO:
            append(b if a == LOG_ZERO else a)
        elif a >= b:
            append(inf if a == inf else a + log1p(exp(b - a)))
        else:
            append(inf if b == inf else b + log1p(exp(a - b)))
    return out


def ln_axis(n: int) -> array:
    """[ln 0, ln 1, ..., ln n, ...] with ln 0 read as LOG_ZERO: the
    process-wide cached prefix, at least n + 1 long; do not mutate.

    Entry j is math.log(j) itself.  The prefix grows to n on demand and
    never past WINDOW_CAP: a larger n raises HorizonError before it grows.
    """
    axis = _LN_AXIS
    if n >= len(axis):
        need_horizon(n, 0)
        if not axis:
            axis.append(LOG_ZERO)
        axis.extend(map(math.log, range(len(axis), n + 1)))
    return axis


def ln_factorial_axis(n: int) -> array:
    """[ln 0!, ln 1!, ..., ln n!, ...]: the process-wide cached prefix, at
    least n + 1 long; do not mutate.

    Entry j is math.lgamma(j + 1) itself.  The prefix grows to n on demand
    and never past WINDOW_CAP: a larger n raises HorizonError before it
    grows.
    """
    axis = _LN_FACTORIAL_AXIS
    if n >= len(axis):
        need_horizon(n, 0)
        axis.extend(map(math.lgamma, range(len(axis) + 1, n + 2)))
    return axis
