"""Associated weight functions and their Young conjugates.

This module is the boundary between the two scales the library works in:
weight-sequence terms travel as logs (LogReal), while the associated
function omega(t) = sup_j (j log t - log M_j) is already a log-scale
quantity and is therefore stored as a plain float.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from .config import (
    GOLDEN_ITERS,
    GRID_POINTS,
    GRID_T_MAX,
    GRID_T_MIN,
    need_horizon,
)
from .errors import (
    InvalidParameterError,
    MaximizerOnBoundaryError,
    PreconditionError,
    SupNotAttainedError,
    WcalcError,
)
from .sequences import WeightSequence
from .verdicts import (
    HOLDS,
    UNDETERMINED,
    Verdict,
    decimate,
    trajectory_entry,
)
from . import conditions as _conditions

# chord slack for the convexity-in-log-t batch assertion
_SHAPE_TOL = 1e-9

# golden ratio step for section search
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LogGrid:
    """Geometric evaluation grid on [t_min, t_max]."""

    t_min: float = GRID_T_MIN
    t_max: float = GRID_T_MAX
    points: int = GRID_POINTS

    def __post_init__(self) -> None:
        if not (self.t_min > 0.0 and math.isfinite(self.t_min)):
            raise InvalidParameterError("t_min", f"need t_min > 0, got {self.t_min}")
        if not (self.t_max > self.t_min and math.isfinite(self.t_max)):
            raise InvalidParameterError(
                "t_max", f"need t_max > t_min, got {self.t_max}")
        if self.points < 2:
            raise InvalidParameterError("points", f"need >= 2 points, got {self.points}")

    def log_points(self) -> list[float]:
        lo = math.log(self.t_min)
        hi = math.log(self.t_max)
        step = (hi - lo) / (self.points - 1)
        return [lo + i * step for i in range(self.points)]

    def values(self) -> list[float]:
        return [math.exp(u) for u in self.log_points()]


class OmegaValue(NamedTuple):
    value: float
    attained_at: int


class ConjugateValue(NamedTuple):
    value: float
    log_t_star: float


class OmegaFunction:
    """sup_j (j log t - log M_j) of one certified weight sequence.

    from_sequence verifies the certificate: the input was log-convex with
    empirically divergent roots at construction time, which is what makes
    the maximizer-localized evaluation sound.

    Two memos live on the instance and die with it.  _cache maps an index
    cap (last_index of eval's horizon) to {t: (omega(t), maximizer)}, so
    an entry is what a fresh search at that cap returns and no answer
    depends on the queries before it; it grows by one entry per distinct
    (cap, t) that eval answers.  _columns maps a (LogGrid, horizon) pair
    to the grid column that young_conjugate reads: omega at the grid's log
    points up to the cut where the maximizer leaves the horizon, and the
    maximizer at the last of them.  It grows only with the distinct grids
    and horizons that conjugate, recover and from_omega calls use on this
    omega, by at most one float per grid point each.
    """

    def __init__(self, sequence: WeightSequence, normalized: bool) -> None:
        self._m = sequence
        self._normalized = normalized
        self._cache: dict[int, dict[float, tuple[float, int]]] = {}
        self._columns: dict[tuple[LogGrid, int], tuple[list[float], int]] = {}

    @classmethod
    def from_sequence(cls, m: WeightSequence,
                      check_horizon: int | None = None) -> "OmegaFunction":
        h = m.last_index(need_horizon(check_horizon, 4))
        lc = _conditions.check_condition(m, "lc", h)
        if not lc.holds:
            raise PreconditionError(
                f"sequence {m.label()} is not log-convex up to {h}",
                witness={"lc": lc.status, "witness": lc.witness})
        profile = _conditions.root_growth_profile(m, h)
        if not profile["divergent"]:
            raise PreconditionError(
                f"roots of {m.label()} not empirically divergent up to {h}",
                witness={"root_last_quarter_min": profile["root_last_quarter_min"],
                         "root_first_quarter_max": profile["root_first_quarter_max"]})
        normalized = _conditions.check_condition(m, "normalized", h).holds
        return cls(m, normalized)

    @property
    def sequence(self) -> WeightSequence:
        return self._m

    @property
    def normalized(self) -> bool:
        return self._normalized

    def label(self) -> str:
        return self._m.label()

    # -- evaluation ---------------------------------------------------------

    def _argmax_index(self, log_t: float, cap: int) -> int:
        """Largest j <= cap with log mu_j <= log t.

        Sound because the quotients were certified non-decreasing at
        construction; doubling plus bisection touches O(log j*) terms.
        """
        m = self._m
        if m.quotient_log(cap) <= log_t:
            raise SupNotAttainedError(
                f"maximizer of {m.label()} at log t = {log_t:.6g} reaches "
                f"index {cap}; raise the horizon")
        hi = 1
        while hi < cap and m.quotient_log(hi) <= log_t:
            hi = min(2 * hi, cap)
        lo = hi // 2
        # invariant: quotient(lo) <= log_t (or lo == 0), quotient(hi) > log_t
        # (the loop read it, or hi == cap, read above)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if m.quotient_log(mid) <= log_t:
                lo = mid
            else:
                hi = mid
        return lo

    def eval(self, t: float, horizon: int | None = None) -> OmegaValue:
        """omega(t) with the index j that attains it; horizon caps the
        index search (default OMEGA_INDEX_CAP)."""
        h = need_horizon(horizon, 1, omega=True)
        if not (math.isfinite(t) and t >= 0.0):
            raise InvalidParameterError("t", f"need finite t >= 0, got {t}")
        if t == 0.0:
            return OmegaValue(0.0, 0)
        cap = self._m.last_index(h)
        memo = self._cache.setdefault(cap, {})
        hit = memo.get(t)
        if hit is None:
            log_t = math.log(t)
            j = self._argmax_index(log_t, cap)
            hit = memo[t] = (max(0.0, j * log_t - self._m.log_term(j)), j)
        return OmegaValue(*hit)

    def table(self, grid: LogGrid,
              horizon: int | None = None) -> list[tuple[float, float, int]]:
        """Evaluate on a grid and assert the shape invariants of the batch."""
        rows = []
        for t in grid.values():
            v = self.eval(t, horizon)
            rows.append((t, v.value, v.attained_at))
        _assert_shape(rows, self.label())
        return rows


def _assert_shape(rows, label: str) -> None:
    for i in range(1, len(rows)):
        if rows[i][1] < rows[i - 1][1] - _SHAPE_TOL:
            raise WcalcError(
                f"{label} decreased between t={rows[i-1][0]:.6g} and "
                f"t={rows[i][0]:.6g}")
    for i in range(1, len(rows) - 1):
        u1, u2, u3 = (math.log(rows[i - 1][0]), math.log(rows[i][0]),
                      math.log(rows[i + 1][0]))
        w1, w2, w3 = rows[i - 1][1], rows[i][1], rows[i + 1][1]
        chord = (w1 * (u3 - u2) + w3 * (u2 - u1)) / (u3 - u1)
        if w2 > chord + _SHAPE_TOL:
            raise WcalcError(
                f"{label} breaks the chord inequality at t={rows[i][0]:.6g}")


# ---------------------------------------------------------------------------
# Young conjugate of u -> omega(e^u)


def _grid_column(omega: OmegaFunction, grid: LogGrid, us: list[float],
                 horizon: int | None) -> tuple[list[float], int]:
    """omega(e^u) at the log points us of grid, cut where the inner sup
    leaves the horizon, with the maximizer at the last point scanned.

    The column is kept per (grid, horizon) and returned as stored: eval
    answers each point as a fresh search at the horizon's cap does, so a
    second scan would read the same column.  A scan that raises at its
    first point stores nothing."""
    h = need_horizon(horizon, 1, omega=True)
    col = omega._columns.get((grid, h))
    if col is not None:
        return col
    ws, j_last = [], 0
    for u in us:
        try:
            w = omega.eval(math.exp(u), h)
        except SupNotAttainedError:
            if not ws:
                raise
            break
        ws.append(w.value)
        j_last = w.attained_at
    col = omega._columns[grid, h] = ws, j_last
    return col


def young_conjugate(omega: OmegaFunction, s: float, grid: LogGrid | None = None,
                    horizon: int | None = None) -> ConjugateValue:
    if not (math.isfinite(s) and s >= 0.0):
        raise InvalidParameterError("s", f"need finite s >= 0, got {s}")
    grid = grid or LogGrid()
    us = grid.log_points()
    # g(u) = s*u - omega(e^u) on the grid.  For points beyond the cut g is
    # non-increasing (the inner maximizer already exceeds s there), so they
    # cannot host the max.
    ws, j_last = _grid_column(omega, grid, us, horizon)
    vals = [s * u - w for u, w in zip(us, ws)]
    best = max(range(len(vals)), key=vals.__getitem__)
    last = len(vals) - 1
    if best == last:
        # right edge: safe only when the cut already certifies descent
        cut = len(vals) < len(us)
        if not (cut and j_last >= s):
            raise MaximizerOnBoundaryError(
                f"conjugate maximizer for s={s:.6g} sits at the grid end "
                f"t={math.exp(us[best]):.6g}; enlarge the grid")
    if best == 0:
        plateau = len(vals) > 1 and vals[1] >= vals[0] - 1e-12
        if not (omega.normalized or plateau):
            raise MaximizerOnBoundaryError(
                f"conjugate maximizer for s={s:.6g} sits at the grid start "
                f"t={grid.t_min:.6g}; extend the grid downward")
        # for normalized omega the sup over (0, t_min] equals g(u_min) exactly
        return ConjugateValue(vals[0], us[0])

    lo = us[best - 1]
    hi = us[min(best + 1, last)]

    def g(u: float) -> float:
        return s * u - omega.eval(math.exp(u), horizon).value

    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = g(x1)
    u_star = x1 if f1 >= f2 else x2
    refined = max(f1, f2)
    if refined >= vals[best]:
        return ConjugateValue(refined, u_star)
    return ConjugateValue(vals[best], us[best])


def recover_term(omega: OmegaFunction, j: int, grid: LogGrid | None = None,
                 horizon: int | None = None) -> float:
    """Rebuild log M_j as the conjugate at integer argument.

    For a log-convex normalized source with divergent roots the conjugate
    is flat on the whole quotient gap [mu_j, mu_{j+1}], so the grid search
    lands on the exact value rather than a discretization of it.
    """
    if j < 0:
        raise InvalidParameterError("j", f"need j >= 0, got {j}")
    return young_conjugate(omega, float(j), grid, horizon).value


def assoc_matrix_term(omega: OmegaFunction, ell: float, j: int,
                      grid: LogGrid | None = None,
                      horizon: int | None = None) -> float:
    """Term of the conjugate-generated weight matrix: (1/ell) * conj(ell*j)."""
    if not (ell > 0.0 and math.isfinite(ell)):
        raise InvalidParameterError("ell", f"need ell > 0, got {ell}")
    if j < 0:
        raise InvalidParameterError("j", f"need j >= 0, got {j}")
    return young_conjugate(omega, ell * j, grid, horizon).value / ell


def from_omega(omega: OmegaFunction, ell: float = 1.0,
               grid: LogGrid | None = None,
               horizon: int | None = None) -> WeightSequence:
    """Weight sequence generated by the conjugate at scale ell."""
    if not (ell > 0.0 and math.isfinite(ell)):
        raise InvalidParameterError("ell", f"need ell > 0, got {ell}")

    def term(j: int) -> float:
        return assoc_matrix_term(omega, ell, j, grid, horizon)

    return WeightSequence(
        "from_omega", {"ell": ell, "omega": omega.label()}, term)


# ---------------------------------------------------------------------------
# relation checks between sequences through their associated functions


def _ratio_probe(num, den, grid: LogGrid):
    """(ts, ratios, (tail min, tail max)) of num(t) / den(t) over the grid
    points where both are positive, numerator first, up to the first
    unattained sup; the tail is the last quarter of the ratios, and its
    bounds are None when no point qualifies."""
    ts, ratios = [], []
    for t in grid.values():
        try:
            a = num(t)
            b = den(t)
        except SupNotAttainedError:
            break
        if a <= 0.0 or b <= 0.0:
            continue
        ts.append(t)
        ratios.append(a / b)
    tail = ratios[(3 * len(ratios)) // 4:] or ratios
    return ts, ratios, (min(tail), max(tail)) if tail else (None, None)


def assoc_relation_check(m: WeightSequence, n: WeightSequence, mode: str,
                         c_max: int = 4, horizon: int | None = None,
                         grid: LogGrid | None = None) -> Verdict:
    """Certify the sequence-side renderings of the associated-function
    comparison: an index-dilation inequality with a single witness scale
    (bigO), the same for every scale up to c_max (smallO), or the direct
    numeric ratio probe of the two associated functions.
    """
    h = need_horizon(horizon, 4)
    if mode not in ("bigO", "smallO", "numeric_ratio"):
        raise InvalidParameterError("mode", f"unknown mode {mode!r}")
    subject = f"assoc_{mode}({m.label()}, {n.label()})"
    for seq in (m, n):
        v = _conditions.check_sc(seq, min(h, 256))
        if not v.holds:
            raise PreconditionError(
                f"{seq.label()} must be log-convex, normalized, with "
                f"divergent roots up to {min(h, 256)}", witness=v.evidence)

    if mode == "numeric_ratio":
        grid = grid or LogGrid(10.0, 1e6)
        # check_sc above is the certificate from_sequence would repeat
        om, on = (OmegaFunction(seq, True) for seq in (m, n))
        ts, ratios, (lo, hi) = _ratio_probe(
            lambda t: om.eval(t).value, lambda t: on.eval(t).value, grid)
        ev = {
            "mode": mode,
            "points": len(ratios),
            "ratio_tail_min": lo,
            "ratio_tail_max": hi,
            "ts": ts,
            "ratios": ratios,
        }
        status = HOLDS if len(ratios) >= 8 else UNDETERMINED
        return Verdict(subject, status, h, evidence=ev)

    if c_max < 1:
        raise InvalidParameterError("c_max", f"need c_max >= 1, got {c_max}")
    if h // c_max < 16:
        raise InvalidParameterError(
            "horizon", f"horizon {h} too small for c_max {c_max} "
            "(need at least 16 usable indices)")

    mt, nt = m.log_terms(h), n.log_terms(h)
    per_c: dict[int, dict] = {}
    if mode == "bigO":
        witness_c = None
        for c in range(1, c_max + 1):
            jmax = h // c
            defects = [nt[j] - mt[c * j] / c for j in range(jmax + 1)]
            per_c[c] = trajectory_entry(range(jmax + 1), defects)
            if witness_c is None and per_c[c]["stabilized"]:
                witness_c = c
        ev = {"mode": mode, "per_c": per_c}
        if witness_c is not None:
            ev["c"] = witness_c
            ev["log_constant"] = per_c[witness_c]["log_constant"]
            return Verdict(subject, HOLDS, h, witness=witness_c, evidence=ev)
        return Verdict(subject, UNDETERMINED, h, evidence=ev)

    # smallO: every scale up to c_max must stabilize
    failing = []
    for c in range(1, c_max + 1):
        jmax = h // c
        defects = [mt[c * j] / c - nt[j] for j in range(jmax + 1)]
        per_c[c] = trajectory_entry(range(jmax + 1), defects)
        if not per_c[c]["stabilized"]:
            failing.append(c)
    ev = {"mode": mode, "per_c": per_c, "c_max": c_max}
    if not failing:
        return Verdict(subject, HOLDS, h, evidence=ev)
    ev["unstabilized"] = failing
    return Verdict(subject, UNDETERMINED, h, evidence=ev)


def omega_doubling_probe(omega: OmegaFunction, grid: LogGrid | None = None,
                         horizon: int | None = None) -> dict:
    """Ratio omega(2t)/omega(t) across the grid; a bounded tail is the
    empirical face of the doubling condition."""
    ts, ratios, (lo, hi) = _ratio_probe(
        lambda t: omega.eval(2.0 * t, horizon).value,
        lambda t: omega.eval(t, horizon).value, grid or LogGrid(10.0, 1e6))
    return {
        "points": len(ratios),
        "tail_min": lo,
        "tail_max": hi,
        "ts": decimate(ts),
        "ratios": decimate(ratios),
    }


def export_csv(omega: OmegaFunction, grid: LogGrid, path: str,
               horizon: int | None = None) -> int:
    """Write (t, omega, attaining index) rows; returns the row count."""
    rows = omega.table(grid, horizon)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "omega", "attained_at"])
        for t, v, j in rows:
            writer.writerow([repr(t), repr(v), j])
    return len(rows)
