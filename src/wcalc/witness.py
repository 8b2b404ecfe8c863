"""Lacunary witness series, seminorms on derivative-bound data, membership.

The witness series for a sequence N has term j equal to
N_j / (2^j nu_j^j) * exp(2 i nu_j t), nu_j the quotients with nu_0 := 1.
Log-convexity plus normalization force every modulus below 2^-j, so a
truncation at T carries a guaranteed tail below 2^-T and the k-th
derivative at 0 is a plain positive sum in log scale.
"""

from __future__ import annotations

import csv
import json
import math

from .config import THETA_COUNT_CAP, THETA_TERM_CAP, need_horizon
from .errors import InvalidParameterError, PreconditionError
from .logdomain import log_sum
from .sequences import ExponentSequence, WeightSequence, linear_exponents
from .verdicts import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    UP,
    Verdict,
    classify_trajectory,
)
from . import conditions as _conditions
from .matrices import WeightMatrix, _index_grid

SOURCES = ("synthetic", "theta", "user")

# beyond this the linear-scale frequency overflows; the skipped moduli are
# below 2^-j and vanish against the 2^-truncation budget
_PHASE_EXP_LIMIT = 700.0

_LN2 = math.log(2.0)


class DerivBounds:
    """Log sup-norms of successive derivatives on a fixed compact set."""

    __slots__ = ("bounds", "label", "source")

    def __init__(self, bounds: tuple, label: str = "", source: str = "user") -> None:
        vals = tuple(float(v) for v in bounds)
        if not vals:
            raise InvalidParameterError("bounds", "need at least one bound")
        for j, v in enumerate(vals):
            if not math.isfinite(v):
                raise InvalidParameterError(
                    "bounds", f"bound {j} is not finite: {v}")
        if source not in SOURCES:
            raise InvalidParameterError(
                "source", f"unknown source {source!r}; expected {SOURCES}")
        self.bounds = vals
        self.label = label
        self.source = source

    def top_index(self) -> int:
        return len(self.bounds) - 1


def synthetic_bounds(m: WeightSequence, count: int) -> DerivBounds:
    """Bounds that saturate a sequence exactly: bound_j = log M_j."""
    if count < 0:
        raise InvalidParameterError("count", f"need count >= 0, got {count}")
    return DerivBounds(tuple(m.log_terms(count)),
                       label=f"synthetic({m.label()})",
                       source="synthetic")


def _utf8_lines(fh, path: str):
    """The lines of a bounds file opened as UTF-8; a byte that is not
    UTF-8 raises InvalidParameterError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            "path", f"{path} is not UTF-8: byte "
            f"{exc.object[exc.start]:#04x}") from None


def load_bounds_csv(path: str) -> DerivBounds:
    """Columns j, log_bound; rows may arrive unordered but must cover 0..J,
    each order once."""
    table: dict[int, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(_utf8_lines(fh, path))
        names = reader.fieldnames or ()
        if "j" not in names or "log_bound" not in names:
            raise InvalidParameterError(
                "path", f"need columns j, log_bound in {path}, got {list(names)}")
        for row in reader:
            jv, bv = row.get("j"), row.get("log_bound")
            if jv is None or bv is None:
                raise InvalidParameterError("path", f"short row in {path}")
            try:
                j, bound = int(jv), float(bv)
            except ValueError:
                j = -1
            if j < 0:
                raise InvalidParameterError(
                    "path", f"need an integer j >= 0 and a number log_bound "
                    f"in {path}, got {jv!r}, {bv!r}")
            if j in table:
                raise InvalidParameterError(
                    "path", f"derivative order {j} appears twice in {path}")
            table[j] = bound
    if not table:
        raise InvalidParameterError("path", f"no rows in {path}")
    top = max(table)
    missing = [j for j in range(top + 1) if j not in table]
    if missing:
        raise InvalidParameterError(
            "path", f"missing derivative orders {missing[:5]} in {path}")
    return DerivBounds(tuple(table[j] for j in range(top + 1)),
                       label=path, source="user")


def load_bounds_json(path: str) -> DerivBounds:
    """A list of log bounds, or an object with that list under "bounds"
    and optional "label" and "source"."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.loads("".join(_utf8_lines(fh, path)))
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(
                "path", f"{path} is not JSON: {exc}") from None
    if isinstance(data, list):
        data = {"bounds": data}
    bounds = data.get("bounds") if isinstance(data, dict) else None
    try:
        if not isinstance(bounds, list):
            raise TypeError
        vals = tuple(float(v) for v in bounds)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "path", f'need a list of numbers, or an object with one under '
            f'"bounds", in {path}') from None
    return DerivBounds(vals, label=data.get("label", path),
                       source=data.get("source", "user"))


# ---------------------------------------------------------------------------
# witness series


def _require_witness_preconditions(n: WeightSequence, truncation: int) -> None:
    """lc, read from n's first_drop, then normalized, on [0, truncation]."""
    drop = n.first_drop(need_horizon(truncation, 4))
    v = (Verdict("lc", FAILS, truncation, witness=drop) if drop
         else _conditions.check_condition(n, "normalized", truncation))
    if not v.holds:
        raise PreconditionError(
            f"witness series needs {v.subject} to hold on {n.label()} "
            f"up to {truncation}; got {v.status}", witness=v.witness)


def _freq_log(terms: list[float], j: int) -> float:
    """log nu_j, with nu_0 := 1."""
    return terms[j] - terms[j - 1] if j else 0.0


def theta_eval(n: WeightSequence, t: float,
               truncation: int) -> tuple[float, float]:
    """Truncated witness series value; tail error below 2^-truncation."""
    if truncation < 1:
        raise InvalidParameterError("truncation", f"need >= 1, got {truncation}")
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError("t", f"need finite t, got {t}")
    _require_witness_preconditions(n, truncation)
    log_2t = math.log(2.0 * abs(t)) if t != 0.0 else None
    terms = n.log_terms(truncation)
    re_parts, im_parts = [], []
    for j in range(truncation + 1):
        freq = _freq_log(terms, j)
        mag = math.exp(terms[j] - j * (_LN2 + freq))
        if t == 0.0:
            re_parts.append(mag)
            im_parts.append(0.0)
            continue
        if freq + log_2t > _PHASE_EXP_LIMIT:
            continue
        try:
            phase = 2.0 * math.exp(freq) * t
        except OverflowError:
            phase = math.inf
        if math.isinf(phase):
            # 2 nu_j overflows while |phase| stays below e^_PHASE_EXP_LIMIT:
            # only then is the phase formed in log space
            phase = math.copysign(math.exp(freq + log_2t), t)
        re_parts.append(mag * math.cos(phase))
        im_parts.append(mag * math.sin(phase))
    return math.fsum(re_parts), math.fsum(im_parts)


def _order_truncation(k: int, truncation: int | None) -> int:
    """The truncation of the order-k bound: k + 50 by default, and at
    least k + 10."""
    if truncation is None:
        return k + 50
    if truncation < k + 10:
        raise InvalidParameterError(
            "truncation", f"need truncation >= k + 10 = {k + 10}, got {truncation}")
    return truncation


def theta_derivative_log_bound(n: WeightSequence, k: int,
                               truncation: int | None = None) -> float:
    """log |theta^(k)(0)|: every term shares the phase i^k, so the modulus
    is the log-sum over j of log N_j + (k-j)(ln 2 + log nu_j)."""
    if k < 0:
        raise InvalidParameterError("k", f"need k >= 0, got {k}")
    return _theta_log_bounds(n, (k,), truncation)[0]


def _theta_log_bounds(n: WeightSequence, orders,
                      truncation: int | None) -> list[float]:
    """theta_derivative_log_bound(n, k, truncation) for each k of the
    ascending orders, with the values and errors of checking lc and
    normalized at every order's truncation.

    The first order runs both checks at its truncation.  normalized reads
    only N_0 and N_1, so a later truncation reruns them only where n's
    first_drop finds a drop, and a term that is not finite raises from
    first_drop at the first truncation that reaches it."""
    tops = [_order_truncation(orders[0], truncation)]
    _require_witness_preconditions(n, tops[0])
    tops += [_order_truncation(k, truncation) for k in orders[1:]]
    for top in tops[1:]:
        if n.first_drop(top):
            _require_witness_preconditions(n, top)
    last = tops[-1]
    window = n.log_terms(last)
    steps = [_LN2 + _freq_log(window, j) for j in range(last + 1)]
    return [log_sum([window[j] + (k - j) * steps[j] for j in range(top + 1)])
            for k, top in zip(orders, tops)]


def theta_bounds(n: WeightSequence, count: int,
                 truncation: int | None = None) -> DerivBounds:
    """Derivative-bound data of the witness series of n at 0, for the
    orders 0..count (count at most THETA_COUNT_CAP).  An explicit
    truncation reads truncation + 1 terms per order, so (count + 1) *
    (truncation + 1) may not pass THETA_TERM_CAP."""
    if count < 0:
        raise InvalidParameterError("count", f"need count >= 0, got {count}")
    if count > THETA_COUNT_CAP:
        raise InvalidParameterError(
            "count", f"need count <= {THETA_COUNT_CAP}, got {count}")
    if truncation is not None and (count + 1) * (truncation + 1) > THETA_TERM_CAP:
        raise InvalidParameterError(
            "truncation", f"need (count + 1) * (truncation + 1) <= "
            f"{THETA_TERM_CAP}, got {(count + 1) * (truncation + 1)}")
    return DerivBounds(_theta_log_bounds(n, range(count + 1), truncation),
                       label=f"theta({n.label()})", source="theta")


# ---------------------------------------------------------------------------
# seminorms and membership


def _seminorm_trajectories(bounds, terms: list[float], phis: list[float],
                           hs) -> list[list[float]]:
    """[bound_j - Phi_j log h - log M_j over the orders j] at each h of hs,
    from the terms and phi values read at those orders."""
    return [[b - p * ln_h - t for b, p, t in zip(bounds, phis, terms)]
            for ln_h in map(math.log, hs)]


def seminorm(f: DerivBounds, m: WeightSequence, phi: ExponentSequence | None,
             h: float) -> float:
    """sup_j of bound_j - Phi_j log h - log M_j over the orders of f; an
    M or phi table that ends below f's top order raises
    TableExhaustedError."""
    if not (h > 0.0 and math.isfinite(h)):
        raise InvalidParameterError("h", f"need h > 0, got {h}")
    phi = phi or linear_exponents()
    top = f.top_index()
    terms = m.log_terms(top)
    return max(_seminorm_trajectories(f.bounds, terms, phi.values(0, top),
                                      (h,))[0])


class MembershipReport:
    __slots__ = ("subject", "roumieu", "beurling", "table")

    def __init__(self, subject: str, roumieu: Verdict, beurling: Verdict,
                 table: dict | None = None) -> None:
        self.subject = subject
        self.roumieu = roumieu
        self.beurling = beurling
        self.table = {} if table is None else table

    def to_json(self) -> dict:
        cells = [{"c": c, "h": h, **cell} for (c, h), cell in
                 sorted(self.table.items())]
        return {"subject": self.subject,
                "roumieu": self.roumieu.to_json(),
                "beurling": self.beurling.to_json(),
                "table": cells}


DEFAULT_H_GRID = (0.5, 1.0, 2.0, 4.0)


def classify_membership(f: DerivBounds, mm: WeightMatrix,
                        phi: ExponentSequence | None = None,
                        index_grid=None) -> MembershipReport:
    """Seminorm stabilization over a (c, h) grid, h from DEFAULT_H_GRID.

    Roumieu membership needs one stabilized cell anywhere; Beurling needs
    every h to stabilize at the smallest index, since shrinking the index
    only tightens the Beurling class.  An element or phi table that ends
    below f's top order raises TableExhaustedError.
    """
    phi = phi or (mm.phi if mm.phi is not None else linear_exponents())
    grid = _index_grid(mm.index_grid if index_grid is None else index_grid, 1)

    table: dict[tuple[float, float], dict] = {}
    horizon = f.top_index()
    phis = None  # read once, for the grid, after the first element's terms
    for c in grid:
        terms = mm.element(c).log_terms(horizon)
        if phis is None:
            phis = phi.values(0, horizon)
        rows = _seminorm_trajectories(f.bounds, terms, phis, DEFAULT_H_GRID)
        for h, vals in zip(DEFAULT_H_GRID, rows):
            entry = classify_trajectory(range(len(vals)), vals)
            cell = {"sup": entry["log_constant"],
                    "stabilized": entry["stabilized"]}
            if "trend" in entry:
                cell["trend"] = entry["trend"]
            table[(c, h)] = cell

    subject = f"membership({f.label or f.source}, {mm.label()})"

    found = next((key for key, cell in table.items() if cell["stabilized"]),
                 None)
    if found is not None:
        r = Verdict(subject + ":roumieu", HOLDS, horizon, witness=found,
                    evidence={"sup": table[found]["sup"]})
    elif all(cell.get("trend") == UP for cell in table.values()):
        r = Verdict(subject + ":roumieu", FAILS, horizon,
                    evidence={"diverging": True})
    else:
        r = Verdict(subject + ":roumieu", UNDETERMINED, horizon)

    c0 = grid[0]
    b_cells = {h: table[(c0, h)] for h in DEFAULT_H_GRID}
    b_bad = next((h for h in DEFAULT_H_GRID if b_cells[h].get("trend") == UP
                  and not b_cells[h]["stabilized"]), None)
    if all(cell["stabilized"] for cell in b_cells.values()):
        b = Verdict(subject + ":beurling", HOLDS, horizon, witness=c0,
                    evidence={"sup": max(cell["sup"] for cell in b_cells.values())})
    elif b_bad is not None:
        b = Verdict(subject + ":beurling", FAILS, horizon, witness=(c0, b_bad),
                    evidence={"diverging": True})
    else:
        b = Verdict(subject + ":beurling", UNDETERMINED, horizon, witness=c0)

    return MembershipReport(subject, r, b, table)
