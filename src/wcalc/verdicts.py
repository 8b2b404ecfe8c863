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
from itertools import chain, islice
from operator import mul

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
    one run share a few index lists.  A range keys the cache as it is, a
    list of consecutive ints as the range it spells.
    """
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


FROZEN = "frozen"
FLAT = "flat"
UP = "up"
DOWN = "down"


def classify_trajectory(indices, values) -> dict:
    """Classify a defect trajectory sampled at increasing integer indices.

    Returns the summary that the mg, dc, preceq and triangle evidence
    embeds: trend, sup (the max value), sup_position (where the max is
    first attained, as a position in the index list, not an index value),
    log_slope (the fit over the last half), and tail_first and tail_last
    (the ends of the last quarter).

    frozen: from eight points on, the max is first attained before the
        last quarter.
    Otherwise the least-squares slope of value against ln(index) over the
    last half decides: above LOG_SLOPE_TOL the trajectory is growing
    beyond anything a bounded defect produces on this window (up), below
    the negative tolerance it is sinking (down), else flat.  Slower-than-log
    growth is indistinguishable from convergence on a finite window; that
    boundary is exactly what the tolerance encodes.
    """
    vals = _as_list(values)
    idx = _as_list(indices)
    n = len(vals)
    if n == 0:
        raise ValueError("empty trajectory")
    if n != len(idx):
        raise ValueError("indices and values must have equal length")
    sup = max(vals)
    sup_pos = vals.index(sup)
    q3 = (3 * n) // 4
    tail = vals[q3:] or vals[-1:]
    slope = log_fit(idx[n // 2:], vals[n // 2:])[0]
    if n >= 8 and sup_pos < q3:
        trend = FROZEN
    elif n < 8:
        # window too short to call growth; only an exact freeze counts
        trend = FLAT if all(v <= vals[0] + COMPARISON_SLACK for v in vals) else UP
    elif slope > LOG_SLOPE_TOL:
        trend = UP
    elif slope < -LOG_SLOPE_TOL:
        trend = DOWN
    else:
        trend = FLAT
    return {
        "trend": trend,
        "sup": sup,
        "sup_position": sup_pos,
        "log_slope": slope,
        "tail_first": tail[0],
        "tail_last": tail[-1],
    }


def running_sup_stabilized(values) -> tuple[bool, float]:
    """Stabilization rule for running-sup trajectories.

    The running sup is non-decreasing; stabilized means it moved by less
    than STABILIZE_REL over the last quarter of the window, relative
    to the trajectory's own scale (max of 1, |sup| and the value range, so
    a sup crawling through the last fraction of a large initial climb
    still counts as settled).
    """
    vals = _as_list(values)
    if not vals:
        raise ValueError("empty trajectory")
    # the running sup at 3n/4 and at the end; seeded with -inf, and max
    # keeps its current value unless an item is strictly greater, so a NaN
    # never becomes a sup
    q3 = (3 * len(vals)) // 4
    anchor = max(chain((-math.inf,), islice(vals, q3 + 1)))
    last = max(chain((anchor,), islice(vals, q3 + 1, None)))
    moved = last - anchor
    scale = max(1.0, abs(last), max(vals) - min(vals))
    return moved <= STABILIZE_REL * scale, last


def trajectory_entry(indices, values) -> dict:
    """Evidence of a defect trajectory sampled at increasing indices.

    stabilized and log_constant are the running-sup rule over every value,
    defects a thinned copy of them; from three points on, trend and slope
    come from classify_trajectory.  A point at index 0 counts toward the
    sup and the defects but stays out of the fit in ln(index).
    """
    stab, sup = running_sup_stabilized(values)
    entry = {"stabilized": stab, "log_constant": sup,
             "defects": decimate(values)}
    if len(values) >= 3:
        if indices[0] == 0:
            indices, values = indices[1:], values[1:]
        rep = classify_trajectory(indices, values)
        entry["trend"] = rep["trend"]
        entry["slope"] = rep["log_slope"]
    return entry


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
