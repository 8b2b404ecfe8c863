"""Scalar arithmetic on log-encoded nonnegative reals.

A value x >= 0 is carried as log(x) in a double; -inf encodes 0.  Addition
and subtraction shift by the running maximum before exponentiating, so
intermediate terms stay in [0, 1] and never overflow.  Long sums go through
math.fsum, which accumulates exactly and then rounds once.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import LogDomainError

LOG_ZERO = float("-inf")

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
    # exp(b - a) < 1 strictly, so log1p stays in domain.
    diff = -math.expm1(b - a)
    if diff <= 0.0:
        return LOG_ZERO
    return a + math.log(diff)


def log_sum(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over an iterable, shift-by-max + exact accumulation.

    The single shift bounds every addend by 1; fsum then keeps the
    accumulated error at one final rounding regardless of length.  Result
    is >= max(values) always, which downstream bound checks rely on.
    """
    vals = [v for v in values if v != LOG_ZERO]
    if not vals:
        return LOG_ZERO
    hi = max(vals)
    if math.isnan(hi):
        raise LogDomainError("nan operand")
    if hi == math.inf:
        return math.inf
    total = math.fsum(
        math.exp(v - hi) for v in vals if v - hi > _NEGLIGIBLE_SHIFT
    )
    return hi + math.log(total)
