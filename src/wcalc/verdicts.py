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
from dataclasses import dataclass, field
from itertools import chain
from operator import mul

from .config import COMPARISON_SLACK, LOG_SLOPE_TOL, STABILIZE_REL

HOLDS = "Holds"
FAILS = "Fails"
UNDETERMINED = "Undetermined"


@dataclass
class Verdict:
    subject: str
    status: str
    horizon: int
    witness: object = None
    evidence: dict = field(default_factory=dict)

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


def decimate(values) -> list:
    """Evenly thinned copy for evidence payloads, ends kept."""
    vals = list(values)
    if len(vals) <= _DECIMATE_LIMIT:
        return vals
    step = (len(vals) - 1) / (_DECIMATE_LIMIT - 1)
    return [vals[round(i * step)] for i in range(_DECIMATE_LIMIT)]


def _centre(xs) -> tuple[float, array, float]:
    """Mean of xs, the deviations from it, and their sum of squares."""
    mx = math.fsum(xs) / len(xs)
    dx = array("d", [x - mx for x in xs])
    return mx, dx, math.fsum(d ** 2 for d in dx)


def _centred_fit(dx, sxx: float, ys) -> tuple[float, float]:
    """Least-squares slope of ys against xs given as the deviations dx from
    their mean, with sxx the sum of their squares, and the mean of ys; the
    slope is 0 for degenerate xs (sxx == 0)."""
    my = math.fsum(ys) / len(dx)
    if sxx == 0.0:
        return 0.0, my
    return math.fsum(map(mul, dx, [y - my for y in ys])) / sxx, my


def fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares slope/intercept; returns (0, mean) for degenerate xs."""
    if len(xs) == 0:
        return 0.0, 0.0
    mx, dx, sxx = _centre(xs)
    slope, my = _centred_fit(dx, sxx, ys)
    return slope, (my - slope * mx if sxx != 0.0 else my)


@functools.lru_cache(maxsize=8)
def _log_axis(indices: range | tuple) -> tuple[array, float]:
    """Centred ln(index) axis of a fit over indices, and its sum of squares.
    A range keys a contiguous run by its ends alone; other index lists key
    by their tuple."""
    _, dx, sxx = _centre([math.log(i) for i in indices])
    return dx, sxx


def _log_slope(hidx: list, half: list) -> float:
    """fit_line([ln i for i in hidx], half)[0] on a cached ln axis: the
    trajectories of one run share a few index lists."""
    first = hidx[0]
    run = range(first, first + len(hidx)) if type(first) is int else None
    dx, sxx = _log_axis(run if run is not None and hidx == list(run)
                        else tuple(hidx))
    return _centred_fit(dx, sxx, half)[0]


FROZEN = "frozen"
FLAT = "flat"
UP = "up"
DOWN = "down"


@dataclass
class TailReport:
    trend: str
    sup: float
    sup_index: int  # position in the index list, not the index value
    slope: float
    tail_first: float
    tail_last: float

    def summary(self) -> dict:
        return {
            "trend": self.trend,
            "sup": self.sup,
            "sup_position": self.sup_index,
            "log_slope": self.slope,
            "tail_first": self.tail_first,
            "tail_last": self.tail_last,
        }


def classify_trajectory(indices, values) -> TailReport:
    """Classify a defect trajectory sampled at increasing integer indices.

    frozen: the max was attained before the last quarter and the last
        quarter never reaches it again.
    Otherwise the least-squares slope of value against ln(index) over the
    last half decides: above LOG_SLOPE_TOL the trajectory is growing
    beyond anything a bounded defect produces on this window (up), below
    the negative tolerance it is sinking (down), else flat.  Slower-than-log
    growth is indistinguishable from convergence on a finite window; that
    boundary is exactly what the tolerance encodes.
    """
    vals = list(values)
    idx = list(indices)
    n = len(vals)
    if n == 0:
        raise ValueError("empty trajectory")
    if n != len(idx):
        raise ValueError("indices and values must have equal length")
    sup = max(vals)
    sup_pos = vals.index(sup)
    q3 = (3 * n) // 4
    tail = vals[q3:] or vals[-1:]
    half = vals[n // 2:]
    hidx = idx[n // 2:]
    slope = _log_slope(hidx, half)
    if n >= 8 and sup_pos < q3 and max(tail) <= sup + COMPARISON_SLACK:
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
    return TailReport(
        trend=trend,
        sup=sup,
        sup_index=sup_pos,
        slope=slope,
        tail_first=tail[0],
        tail_last=tail[-1],
    )


def running_sup_stabilized(values) -> tuple[bool, float]:
    """Stabilization rule for running-sup trajectories.

    The running sup is non-decreasing; stabilized means it moved by less
    than STABILIZE_REL over the last quarter of the window, relative
    to the trajectory's own scale (max of 1, |sup| and the value range, so
    a sup crawling through the last fraction of a large initial climb
    still counts as settled).
    """
    vals = list(values)
    if not vals:
        raise ValueError("empty trajectory")
    # the running sup at 3n/4 and at the end; seeded with -inf, and max
    # keeps its current value unless an item is strictly greater, so a NaN
    # never becomes a sup
    q3 = (3 * len(vals)) // 4
    anchor = max(chain((-math.inf,), vals[:q3 + 1]))
    last = max(chain((anchor,), vals[q3 + 1:]))
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
        entry["trend"] = rep.trend
        entry["slope"] = rep.slope
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
