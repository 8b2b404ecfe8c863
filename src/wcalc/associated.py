"""Associated weight functions and their Young conjugates.

This module is the boundary between the two scales the library works in:
weight-sequence terms travel as logs (LogReal), while the associated
function omega(t) = sup_j (j log t - log M_j) is already a log-scale
quantity and is therefore stored as a plain float.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple

from .config import (
    GRID_POINTS,
    GRID_T_MAX,
    GRID_T_MIN,
    need_grid_points,
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
    FAILS,
    HOLDS,
    UNDETERMINED,
    UP,
    Verdict,
    classify_trajectory,
    decimate,
)
from . import conditions as _conditions

# chord slack for the convexity-in-log-t batch assertion
_SHAPE_TOL = 1e-9


class LogGrid:
    """Geometric evaluation grid on [t_min, t_max]."""

    __slots__ = ("t_min", "t_max", "points")

    def __init__(self, t_min: float = GRID_T_MIN, t_max: float = GRID_T_MAX,
                 points: int = GRID_POINTS) -> None:
        if not (t_min > 0.0 and math.isfinite(t_min)):
            raise InvalidParameterError("t_min", f"need t_min > 0, got {t_min}")
        if not (t_max > t_min and math.isfinite(t_max)):
            raise InvalidParameterError(
                "t_max", f"need t_max > t_min, got {t_max}")
        need_grid_points(points)
        self.t_min = t_min
        self.t_max = t_max
        self.points = points

    def __repr__(self) -> str:
        return f"LogGrid({self.t_min!r}, {self.t_max!r}, {self.points!r})"

    def log_points(self) -> list[float]:
        lo = math.log(self.t_min)
        hi = math.log(self.t_max)
        step = (hi - lo) / (self.points - 1)
        return [lo + i * step for i in range(self.points)]

    def values(self) -> list[float]:
        return [math.exp(u) for u in self.log_points()]


OmegaValue = namedtuple("OmegaValue", "value attained_at")
ConjugateValue = namedtuple("ConjugateValue", "value log_t_star")


class OmegaFunction:
    """sup_j (j log t - log M_j) of one certified weight sequence.

    from_sequence verifies the certificate: the input was log-convex with
    empirically divergent roots at construction time, which is what makes
    the maximizer search and young_conjugate's two-term reading sound.
    """

    def __init__(self, sequence: WeightSequence) -> None:
        self._m = sequence

    @classmethod
    def from_sequence(cls, m: WeightSequence,
                      check_horizon: int | None = None) -> "OmegaFunction":
        h = m.last_index(need_horizon(check_horizon, 4))
        drop = m.first_drop(need_horizon(h, 4))  # a short table's h < 4
        if drop:
            raise PreconditionError(
                f"sequence {m.label()} is not log-convex up to {h}",
                witness={"lc": FAILS, "witness": drop})
        profile = _conditions.root_growth_profile(m, h)
        if not profile["divergent"]:
            raise PreconditionError(
                f"roots of {m.label()} not empirically divergent up to {h}",
                witness={"root_last_quarter_min": profile["root_last_quarter_min"],
                         "root_first_quarter_max": profile["root_first_quarter_max"]})
        return cls(m)

    def label(self) -> str:
        return self._m.label()

    # -- evaluation ---------------------------------------------------------

    def _argmax_index(self, log_t: float, cap: int, start: int = 0,
                      guess: int = 0, cap_key: float | None = None) -> int:
        """Largest j <= cap with log mu_j <= log t, searched from guess
        above start (see _last_index); cap_key is log mu_cap when the
        caller has read it already."""
        m = self._m
        if (m.quotient_log(cap) if cap_key is None else cap_key) <= log_t:
            raise SupNotAttainedError(
                f"maximizer of {m.label()} at log t = {log_t:.6g} "
                f"reaches index {cap}; raise the horizon")
        return self._last_index(m.quotient_log, log_t, cap, start, guess)

    @staticmethod
    def _last_index(key, bound: float, cap: int, start: int = 0,
                    guess: int = 0) -> int:
        """Largest j < cap with key(j) <= bound, for a key that the
        certified quotients keep non-decreasing on [1, cap] and a caller
        that has read key(cap) > bound.

        start must satisfy key(start) <= bound (0 always does: it is never
        read), and guess lies in [start, cap).  The search reads key(guess)
        unless guess is start, gallops from guess with steps 1, 2, 4, ...
        upward while the keys pass, or downward toward start while they
        fail, then bisects the last step; it reads O(log |j - guess|)
        keys.  With start = guess = 0 it is plain doubling plus bisection
        from the origin.
        """
        if guess > start and key(guess) > bound:
            hi, step, lo = guess, 1, guess - 1
            while lo > start and key(lo) > bound:
                hi, step = lo, 2 * step
                lo = max(start, guess - step)
        else:
            lo, hi = guess, min(guess + 1, cap)
            while hi < cap and key(hi) <= bound:
                lo, hi = hi, min(guess + 2 * (hi - guess), cap)
            # the midpoint of the last doubling, as plain doubling takes it
            # (below the last passing probe when the cap clipped hi), unless
            # no probe passed
            lo = min(lo, guess + (hi - guess) // 2)
        # invariant: key(lo) <= bound (lo is start or no larger than a
        # probe that passed), key(hi) > bound (the search read it, or hi ==
        # cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if key(mid) <= bound:
                lo = mid
            else:
                hi = mid
        return lo

    def eval(self, t: float, horizon: int | None = None) -> OmegaValue:
        """omega(t) with the index j that attains it; horizon caps the
        index search (default OMEGA_INDEX_CAP)."""
        return next(self.sweep((t,), horizon))

    def sweep(self, ts, horizon: int | None = None):
        """Yield eval(t, horizon) for each t of an ascending sequence.

        Each search starts from the previous maximizer, which a larger t
        keeps at or below its bound.  From the third positive t on, it
        first reads the index that the last two (log t, maximizer) pairs
        extrapolate to, a straight line in log t and log j, clamped to
        [previous maximizer + 1, cap - 1]; the guess is formed in log
        space, so it cannot overflow, and the cap bounds it and the gallop
        from it.  A grid thus reads far fewer quotients than cold evals;
        the first search, and so eval's, starts from 0 with no guess.  The
        values and errors are eval's, point by point; a t below the one
        before it raises InvalidParameterError.  Nothing is kept between
        calls.
        """
        m = self._m
        cap = m.last_index(need_horizon(horizon, 1, omega=True))
        cap_key = None
        # (log t, maximizer) at the last two positive t: (u0, j0), (u, j)
        u0 = u = prev = 0.0
        j0 = j = 0
        for t in ts:
            if not (math.isfinite(t) and t >= 0.0):
                raise InvalidParameterError("t", f"need finite t >= 0, got {t}")
            if t < prev:
                raise InvalidParameterError(
                    "t", f"sweep needs ascending t, got {t} after {prev}")
            prev = t
            if t == 0.0:
                yield OmegaValue(0.0, 0)
                continue
            log_t = math.log(t)
            if cap_key is None:  # read once, where eval's search reads it
                cap_key = m.quotient_log(cap)
            guess = j
            if j0 and u0 < u:  # j >= j0 > 0
                log_j = math.log(j)
                lg = log_j + (log_j - math.log(j0)) * (log_t - u) / (u - u0)
                guess = min(max(j + 1, int(math.exp(min(lg, math.log(cap))))),
                            cap - 1)
            u0, j0, u = u, j, log_t
            j = self._argmax_index(log_t, cap, j, guess, cap_key)
            yield OmegaValue(max(0.0, j * log_t - m.log_term(j)), j)

    def table(self, grid: LogGrid,
              horizon: int | None = None) -> list[tuple[float, float, int]]:
        """Evaluate on a grid and assert the shape invariants of the batch."""
        ts = grid.values()
        rows = [(t, v.value, v.attained_at)
                for t, v in zip(ts, self.sweep(ts, horizon))]
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


def young_conjugate(omega: OmegaFunction, s: float, grid: LogGrid | None = None,
                    horizon: int | None = None) -> ConjugateValue:
    """sup_u (s*u - omega(e^u)), read off the certified sequence.

    g(u) = s*u - omega(e^u) is concave and piecewise linear, with slope
    s - j between log mu_j and log mu_{j+1}.  With k = ceil(s) it peaks at
    log mu_k, where its value is log M_k + (s - k) log mu_k; an integer s
    peaks on the whole gap [log mu_s, log mu_{s+1}] (log mu_0 = -inf, and
    log mu_s alone at the index cap) with the value log M_s.  The grid
    only bounds where the peak may sit: a peak wholly past its end or
    wholly before its start raises MaximizerOnBoundaryError, and k past
    the horizon's index cap raises SupNotAttainedError.
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise InvalidParameterError("s", f"need finite s >= 0, got {s}")
    grid = grid or LogGrid()
    m = omega._m
    cap = m.last_index(need_horizon(horizon, 1, omega=True))
    k = math.ceil(s)
    if k > cap:
        raise SupNotAttainedError(
            f"conjugate maximizer for s={s:.6g} sits at index {k}, past the "
            f"index cap {cap}; raise the horizon")
    lo = m.quotient_log(k) if k else -math.inf
    hi = m.quotient_log(k + 1) if k == s and k < cap else lo
    value = m.log_term(k) if k == s else m.log_term(k) + (s - k) * lo
    # omega clamps sup_j (j u - log M_j) at 0, binding only where M_0 > 1:
    # if the sup is negative at lo, g is s*u below its zero u0, so the peak
    # moves to u0 ((-inf, u0] at s = 0) or, if it crosses u0, starts there
    if m.log_term(0) > 0.0 and (k * lo if k else 0.0) < m.log_term(k):
        def key(i):
            return i * m.quotient_log(i) - m.log_term(i)

        if key(cap) <= 0.0:
            raise SupNotAttainedError(
                f"omega of {m.label()} is 0 up to index {cap}; raise the "
                "horizon")
        j = omega._last_index(key, 0.0, cap)
        u0 = m.log_term(j) / j
        if s and u0 < hi:
            lo = u0
        else:
            lo, hi, value = u0 if s else -math.inf, u0, s * u0
    if lo > math.log(grid.t_max):
        raise MaximizerOnBoundaryError(
            f"conjugate maximizer for s={s:.6g} sits at the grid end "
            f"t={grid.t_max:.6g}; enlarge the grid")
    log_t_min = math.log(grid.t_min)
    if hi < log_t_min:
        raise MaximizerOnBoundaryError(
            f"conjugate maximizer for s={s:.6g} sits at the grid start "
            f"t={grid.t_min:.6g}; extend the grid downward")
    return ConjugateValue(value, max(lo, log_t_min))


def recover_term(omega: OmegaFunction, j: int, grid: LogGrid | None = None,
                 horizon: int | None = None) -> float:
    """Rebuild log M_j as the conjugate at integer argument.

    For M_0 <= 1 the conjugate is flat at log M_j on the gap [mu_j,
    mu_{j+1}], so this is log M_j bit for bit once grid and horizon reach it.
    """
    return assoc_matrix_term(omega, 1.0, j, grid, horizon)


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


def _ratio_probe(ts, nums, dens):
    """(ts, ratios, (tail min, tail max)) of num / den over the points of
    ts where both are positive, read from two streams of OmegaValues that
    run along ts, numerator first, up to the first unattained sup; the tail
    is the last quarter of the ratios, and its bounds are None when no
    point qualifies."""
    kept, ratios = [], []
    try:
        for t, a, b in zip(ts, nums, dens):
            if a.value <= 0.0 or b.value <= 0.0:
                continue
            kept.append(t)
            ratios.append(a.value / b.value)
    except SupNotAttainedError:
        pass
    tail = ratios[(3 * len(ratios)) // 4:] or ratios
    return kept, ratios, (min(tail), max(tail)) if tail else (None, None)


def assoc_relation_check(m: WeightSequence, n: WeightSequence, mode: str,
                         c_max: int = 4, horizon: int | None = None,
                         grid: LogGrid | None = None) -> Verdict:
    """Certify the sequence-side renderings of the associated-function
    comparison: an index-dilation inequality with a single witness scale
    (bigO), the same for every scale up to c_max (smallO), or the direct
    numeric ratio probe of the two associated functions, which holds once
    the running sup of the ratio settles over the grid.
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
        om, on = (OmegaFunction(seq) for seq in (m, n))
        ts = grid.values()
        ts, ratios, (lo, hi) = _ratio_probe(ts, om.sweep(ts), on.sweep(ts))
        ev = {
            "mode": mode,
            "points": len(ratios),
            "ratio_tail_min": lo,
            "ratio_tail_max": hi,
            "ts": decimate(ts),
            "ratios": decimate(ratios),
        }
        if len(ratios) >= 8:  # the ratio against ln t must settle
            ev["trajectory"] = traj = classify_trajectory(ts, ratios)
            if traj["stabilized"]:
                return Verdict(subject, HOLDS, h, evidence=ev)
            if traj["trend"] == UP:
                ev["diverging"] = True
        return Verdict(subject, UNDETERMINED, h, evidence=ev)

    if c_max < 1:
        raise InvalidParameterError("c_max", f"need c_max >= 1, got {c_max}")
    if h // c_max < 16:
        raise InvalidParameterError(
            "horizon", f"horizon {h} too small for c_max {c_max} "
            "(need at least 16 usable indices)")

    mt, nt = m.log_terms(h), n.log_terms(h)
    per_c: dict[int, dict] = {}
    for c in range(1, c_max + 1):
        jmax = h // c
        if mode == "bigO":
            defects = [nt[j] - mt[c * j] / c for j in range(jmax + 1)]
        else:
            defects = [mt[c * j] / c - nt[j] for j in range(jmax + 1)]
        per_c[c] = classify_trajectory(range(jmax + 1), defects)
    ev = {"mode": mode, "per_c": per_c}
    if mode == "bigO":  # one stabilized scale is the witness
        witness_c = next((c for c, e in per_c.items() if e["stabilized"]), None)
        if witness_c is None:
            return Verdict(subject, UNDETERMINED, h, evidence=ev)
        ev["c"] = witness_c
        ev["log_constant"] = per_c[witness_c]["log_constant"]
        return Verdict(subject, HOLDS, h, witness=witness_c, evidence=ev)
    # smallO: every scale up to c_max must stabilize
    ev["c_max"] = c_max
    failing = [c for c, e in per_c.items() if not e["stabilized"]]
    if not failing:
        return Verdict(subject, HOLDS, h, evidence=ev)
    ev["unstabilized"] = failing
    return Verdict(subject, UNDETERMINED, h, evidence=ev)


def omega_doubling_probe(omega: OmegaFunction, grid: LogGrid | None = None,
                         horizon: int | None = None) -> dict:
    """Ratio omega(2t)/omega(t) across the grid; a bounded tail is the
    empirical face of the doubling condition."""
    ts = (grid or LogGrid(10.0, 1e6)).values()
    ts, ratios, (lo, hi) = _ratio_probe(
        ts, omega.sweep((2.0 * t for t in ts), horizon),
        omega.sweep(ts, horizon))
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
