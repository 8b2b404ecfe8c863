"""Evaluation settings and the finite-horizon thresholds.

Only one value is settable: the default index horizon (Config, and
WCALC_HORIZON).  The thresholds below are this library's own heuristics
around the paper's conditions, fixed constants that no call changes.
Every report records them next to the horizon (Config.to_dict), so a
rerun with the same horizon is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import os

from .errors import HorizonError, InvalidParameterError

ENV_HORIZON = "WCALC_HORIZON"

DEFAULT_HORIZON = 512  # default index horizon of finite checks
# a running-sup trajectory is stabilized when it moves by less than this
# relative amount over the last quarter
STABILIZE_REL = 1e-3
# a defect trajectory is diverging when its least-squares slope against
# ln j over the last half exceeds this; slower-than-log growth is below
# the honesty boundary of a finite window and classifies as stabilized
LOG_SLOPE_TOL = 0.25
# a fitted quotient exponent must exceed 1 by this before a series tail
# is declared summable
POWERFIT_MARGIN = 0.1
# log gap between first-quarter max and last-quarter min of the roots
# before they count as empirically divergent
ROOT_MARGIN = math.log(2.0)
# absolute slack of order comparisons of computed logs (last-ulp jitter)
COMPARISON_SLACK = 1e-12
# default geometric grid of associated functions: [t_min, t_max], points
GRID_T_MIN, GRID_T_MAX, GRID_POINTS = 1.0, 1e8, 200
FDB_HORIZON = 60  # cap of composition-sequence (FdB) checks
OMEGA_INDEX_CAP = 1 << 26  # hard cap of the index search in sup evaluations
# largest index a term window or a window horizon may reach; a window fill
# allocates its whole block before checking a term, so this bounds memory.
# Not a threshold: reports leave it out of their config block.
WINDOW_CAP = 1 << 20
# largest derivative-bound count of a theta_bounds call, whose work is
# O(count^2): 9.5 s for gevrey(1) at 4096 on a 2-vCPU x86-64 guest.  Not
# a threshold either.
THETA_COUNT_CAP = 1 << 12
# largest (count + 1) * (truncation + 1) of a theta_bounds call with an
# explicit truncation: the terms the largest default call reads (orders
# 0..THETA_COUNT_CAP, order k truncated at k + 50), 8,599,603
THETA_TERM_CAP = (THETA_COUNT_CAP + 1) * (THETA_COUNT_CAP + 102) // 2
# partner candidates a quantifier search adds beyond its index grid
CONTINUATION_STEPS = 4
# constants standing in for "for all C > 0" in scaling-stability checks
L_CONSTANTS = (2.0, 8.0)


class Config:
    """The one setting, the default index horizon of finite checks,
    compared by value."""

    __slots__ = ("horizon",)

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        self.horizon = horizon

    def __eq__(self, other) -> bool:
        return type(other) is Config and self.horizon == other.horizon

    def to_dict(self) -> dict:
        """The horizon and every threshold, as a report records them."""
        return {
            "horizon": self.horizon,
            "stabilize_rel": STABILIZE_REL,
            "log_slope_tol": LOG_SLOPE_TOL,
            "powerfit_margin": POWERFIT_MARGIN,
            "root_margin": ROOT_MARGIN,
            "comparison_slack": COMPARISON_SLACK,
            "grid_t_min": GRID_T_MIN,
            "grid_t_max": GRID_T_MAX,
            "grid_points": GRID_POINTS,
            "fdb_horizon": FDB_HORIZON,
            "omega_index_cap": OMEGA_INDEX_CAP,
            "continuation_steps": CONTINUATION_STEPS,
            "l_constants": list(L_CONSTANTS),
        }


def _unmet_rule(horizon, floor: int, omega: bool) -> str | None:
    """The horizon rule a value breaks, or None when it meets them all."""
    if type(horizon) is not int or horizon < floor:
        return f"need an integer >= {floor}"
    cap = OMEGA_INDEX_CAP if omega else WINDOW_CAP
    if horizon > cap:
        return f"need an integer <= {cap}"
    return None


def need_horizon(horizon, floor: int, *, omega: bool = False) -> int:
    """The index horizon a call runs at, the one rule every entry point
    that takes a horizon applies.

    None means the default: DEFAULT_HORIZON, or OMEGA_INDEX_CAP for the
    index search of an omega evaluation (omega=True).  Any other value
    must be an int (a bool is not one) of at least floor, and at most
    WINDOW_CAP for a window horizon or OMEGA_INDEX_CAP for an index search.
    """
    if horizon is None:
        return OMEGA_INDEX_CAP if omega else DEFAULT_HORIZON
    rule = _unmet_rule(horizon, floor, omega)
    if rule is not None:
        raise HorizonError(f"{rule}, got {horizon!r}")
    return horizon


def need_grid_points(points) -> None:
    """Reject a log-grid point count that is not an int (a bool is not
    one) in [2, WINDOW_CAP], before any grid point is made."""
    if type(points) is not int or not 2 <= points <= WINDOW_CAP:
        raise InvalidParameterError(
            "points", f"need an integer in [2, {WINDOW_CAP}], got {points!r}")


def need_sigma(sigma: float) -> float:
    """sigma itself when it is a finite float >= 1, the growth exponent
    rule of ptt, power_exponents and sigma_matrix."""
    if not (sigma >= 1.0 and math.isfinite(sigma)):
        raise InvalidParameterError("sigma", f"need sigma >= 1, got {sigma!r}")
    return sigma


def default_config() -> Config:
    """Config with the WCALC_HORIZON environment override applied; a value
    that is not an integer in [16, WINDOW_CAP] raises HorizonError, as an
    explicit horizon does, naming the variable and its raw value."""
    env = os.environ.get(ENV_HORIZON)
    if env is None:
        return Config()
    try:
        horizon = int(env)
    except ValueError:
        horizon = env  # text, which the integer rule rejects
    rule = _unmet_rule(horizon, 16, False)
    if rule is not None:
        raise HorizonError(f"{rule}, got {ENV_HORIZON}={env!r}")
    return Config(horizon=horizon)
