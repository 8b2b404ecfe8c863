"""Three-valued verdicts and finite-horizon trajectory classification.

Checks over a finite horizon cannot prove limit statements; a verdict is
Holds or Fails only when the window contains a certificate (a frozen sup, a
violating index), and Undetermined otherwise, always with the measured
evidence attached.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import chain, islice, repeat
from operator import mul, sub

from .config import COMPARISON_SLACK, LOG_SLOPE_TOL, STABILIZE_REL
from .logdomain import ln_axis

HOLDS = "Holds"
FAILS = "Fails"
UNDETERMINED = "Undetermined"


class Verdict:
    __slots__ = ("subject", "status", "horizon", "witness", "evidence")

    def __init__(self, subject: str, status: str, horizon: int,
                 witness: object = None, evidence: dict | None = None) -> None:
        self.subject = subject
        self.status = status
        self.horizon = horizon
        self.witness = witness
        self.evidence = {} if evidence is None else evidence

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "status": self.status,
            "horizon": self.horizon,
            "witness": self.witness,
            "evidence": self.evidence,
        }


# length of the thinned copies that evidence payloads carry
_DECIMATE_LIMIT = 16


def _as_list(xs) -> list | range:
    """xs itself when it is a list or a range, else a list of its items:
    the trajectory helpers read their inputs without changing them."""
    return xs if type(xs) is list or type(xs) is range else list(xs)


def decimate(values) -> list:
    """Evenly thinned copy for evidence payloads, ends kept; always a new
    list, so evidence never shares the caller's."""
    vals = _as_list(values)
    if len(vals) <= _DECIMATE_LIMIT:
        return list(vals)
    step = (len(vals) - 1) / (_DECIMATE_LIMIT - 1)
    return [vals[round(i * step)] for i in range(_DECIMATE_LIMIT)]


@functools.lru_cache(maxsize=8)
def _log_axis(indices: range | tuple) -> tuple[float, array, float]:
    """Mean of ln(index) over indices, the deviations from it and their sum
    of squares.  A range keys a contiguous run by its ends alone, and an
    increasing one of positive indices reads the logdomain ln axis; other
    index lists key by their tuple."""
    if type(indices) is range and indices.start > 0 and indices.step > 0:
        xs = ln_axis(indices[-1])[indices.start:indices.stop:indices.step]
    else:
        xs = [math.log(i) for i in indices]
    mx = math.fsum(xs) / len(xs)
    dx = array("d", [x - mx for x in xs])
    return mx, dx, math.fsum(d ** 2 for d in dx)


def log_fit(indices: list | range, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of ys against ln(index) over
    nonempty indices; (0, mean of ys) when every index is the same.

    The centred ln axis is cached: the trajectories and power-fit tails of
    one run share a few index lists.  A range keys the cache as it is, any
    other list by its tuple.
    """
    mx, dx, sxx = _log_axis(indices if type(indices) is range
                            else tuple(indices))
    my = math.fsum(ys) / len(dx)
    if sxx == 0.0:
        return 0.0, my
    slope = math.fsum(map(mul, dx, map(sub, ys, repeat(my)))) / sxx
    return slope, my - slope * mx


FROZEN = "frozen"
FLAT = "flat"
UP = "up"
DOWN = "down"


def _max_scan(values) -> tuple[list | range, float, int]:
    """values as a nonempty list or range, their max and the position
    where it is first attained."""
    vals = _as_list(values)
    if not vals:
        raise ValueError("empty trajectory")
    sup = max(vals)
    return vals, sup, vals.index(sup)


def classify_trajectory(indices, values) -> dict:
    """Evidence of a defect trajectory sampled at increasing indices.

    stabilized and log_constant are the running-sup rule over every value
    (_running_sup), defects a thinned copy of them.  trend and slope are
    added whenever at least two points remain in the fit in ln(index): a
    point at index 0 counts toward the sup and the defects but stays out of
    the fit.  slope is the least-squares slope of value against ln(index)
    over the last half of the fitted points, and trend reads:

    frozen: from eight fitted points on, the max is first attained before
        the last quarter.
    up, down or flat: otherwise the slope decides.  Above LOG_SLOPE_TOL the
        trajectory is growing beyond anything a bounded defect produces on
        this window (up), below the negative tolerance it is sinking
        (down), else flat.  Slower-than-log growth is indistinguishable
        from convergence on a finite window; that boundary is exactly what
        the tolerance encodes.  Under eight fitted points only an exact
        freeze at the first one reads flat, anything else up.

    One scan for the max serves both; it is repeated without the index-0
    point only when that point held the max or a NaN follows it.
    """
    vals, sup, pos = _max_scan(values)
    if len(indices) != len(vals):
        raise ValueError("indices and values must have equal length")
    stab, last = _running_sup(vals, sup, pos)
    entry = {"stabilized": stab, "log_constant": last,
             "defects": decimate(vals)}
    if indices[0] == 0:
        if len(vals) < 3:
            return entry
        indices = indices[1:]
        if pos and vals[1] == vals[1]:
            vals, pos = vals[1:], pos - 1
        else:  # the dropped point held the max, or a NaN now comes first
            vals, _, pos = _max_scan(vals[1:])
    elif len(vals) < 2:
        return entry
    entry["trend"], entry["slope"] = _summary(indices, vals, pos)
    return entry


def _summary(indices, vals, pos: int) -> tuple[str, float]:
    """classify_trajectory's trend and slope of vals at indices, given
    pos = vals.index(max(vals))."""
    n = len(vals)
    slope = log_fit(_as_list(indices)[n // 2:], vals[n // 2:])[0]
    if n < 8:
        # window too short to call growth; only an exact freeze counts
        frozen = all(v <= vals[0] + COMPARISON_SLACK for v in vals)
        return FLAT if frozen else UP, slope
    if pos < (3 * n) // 4:
        return FROZEN, slope
    if slope > LOG_SLOPE_TOL:
        return UP, slope
    if slope < -LOG_SLOPE_TOL:
        return DOWN, slope
    return FLAT, slope


def _running_sup(vals, sup, pos: int) -> tuple[bool, float]:
    """The stabilization rule of a nonempty vals, given sup = max(vals)
    and pos = vals.index(sup), and the last running sup.

    The running sup is non-decreasing; stabilized means it moved by less
    than STABILIZE_REL over the last quarter of the window, relative
    to the trajectory's own scale (max of 1, |sup| and the value range, so
    a sup crawling through the last fraction of a large initial climb
    still counts as settled).
    """
    q3 = (3 * len(vals)) // 4
    if sup != sup:
        # a NaN first value: max returns it, but the running sup is seeded
        # with -inf and keeps its value unless an item is strictly
        # greater, so a NaN never becomes a sup (and the NaN value range
        # never sets the scale)
        anchor = max(chain((-math.inf,), islice(vals, q3 + 1)))
        last = max(chain((anchor,), islice(vals, q3 + 1, None)))
        return last - anchor <= STABILIZE_REL * max(1.0, abs(last)), last
    # otherwise the running sup ends at sup, and it stands there at 3n/4
    # unless sup is first attained in the last quarter; the value range
    # is read only when 1 and |sup| leave the move unsettled
    moved = sup - (sup if pos <= q3 else max(islice(vals, q3 + 1)))
    scale = max(1.0, abs(sup))
    if moved <= STABILIZE_REL * scale:
        return True, sup
    return moved <= STABILIZE_REL * max(scale, sup - min(vals)), sup


def quarter_minima(values) -> tuple[list[float], bool]:
    """Minimum of each quarter of the window, and whether they decay.

    Decaying means the last three quarter minima shrink steadily, each by
    the factor 1 - STABILIZE_REL: a gap vanishing at infinity even when
    its last value still sits above a floor.
    """
    quarter = max(1, len(values) // 4)
    mins = [min(values[i * quarter:(i + 1) * quarter] or values[-1:])
            for i in range(4)]
    shrink = 1.0 - STABILIZE_REL
    return mins, mins[3] <= mins[2] * shrink and mins[2] <= mins[1] * shrink
