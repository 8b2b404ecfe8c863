"""One-parameter families of weight sequences and their order-level checks.

A matrix is a map c -> weight sequence that is pointwise non-decreasing in
c.  The universally/existentially quantified matrix conditions are rendered
finitely: for each grid index alpha a partner beta is searched upward
(Roumieu) or downward (Beurling) through the grid, then geometrically
beyond it for a few steps, and the first partner whose defect trajectory
stabilizes is reported together with the constant it certifies.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Callable

from .config import (
    CONTINUATION_STEPS,
    FDB_HORIZON,
    L_CONSTANTS,
    OFFDIAG_SAMPLES,
    need_horizon,
)
from .errors import InvalidParameterError, OrderViolationError
from .logdomain import slack
from .sequences import (
    ExponentFamily,
    ExponentSequence,
    WeightSequence,
    power_exponents,
    ptt,
    scaled,
)
from .verdicts import (
    HOLDS,
    UNDETERMINED,
    UP,
    Verdict,
    quarter_minima,
    trajectory_entry,
)
from . import conditions as _conditions
from . import relations as _relations

ROUMIEU = "roumieu"
BEURLING = "beurling"

MATRIX_CONDITIONS = ("L", "mg", "dc", "rai", "FdB", "BR", "sc", "constant")

# default index grid: geometric from 2^-4 to 2^8
DEFAULT_INDEX_GRID = tuple(2.0 ** k for k in range(-4, 9))

_ORDER_CHECK_HORIZON = 64
# relative slack of the pointwise order checks between grid neighbours
_ORDER_SLACK = 1e-9


def _index_grid(values, min_len: int) -> tuple[float, ...]:
    """values as an index grid: at least min_len finite, positive and
    strictly ascending floats.  The order is part of every matrix
    condition, since the Roumieu partner is searched above an index and the
    Beurling partner below it."""
    grid = tuple(float(c) for c in values)
    if len(grid) < min_len:
        raise InvalidParameterError(
            "index_grid", f"need at least {min_len} indices, got {len(grid)}")
    if not all(c > 0.0 and math.isfinite(c) for c in grid):
        raise InvalidParameterError(
            "index_grid", f"indices must be finite and positive: {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError(
            "index_grid", f"indices must be strictly ascending: {grid}")
    return grid


class MatrixConditionId:
    """A matrix condition and its flavor."""

    __slots__ = ("tag", "flavor")

    def __init__(self, tag: str, flavor: str = ROUMIEU) -> None:
        if tag not in MATRIX_CONDITIONS:
            raise InvalidParameterError(
                "tag", f"unknown matrix condition {tag!r}; "
                f"expected one of {MATRIX_CONDITIONS}")
        if flavor not in (ROUMIEU, BEURLING):
            raise InvalidParameterError(
                "flavor", f"unknown flavor {flavor!r}")
        self.tag = tag
        self.flavor = flavor


def condition_id(tag: str, flavor: str = ROUMIEU) -> MatrixConditionId:
    """Normalize user spellings like 'fdb'/'br'/'r'/'b'."""
    canon = {c.lower(): c for c in MATRIX_CONDITIONS}
    t = canon.get(tag.lower())
    if t is None:
        raise InvalidParameterError("tag", f"unknown matrix condition {tag!r}")
    f = {"r": ROUMIEU, "roumieu": ROUMIEU, "b": BEURLING, "beurling": BEURLING}.get(
        flavor.lower())
    if f is None:
        raise InvalidParameterError("flavor", f"unknown flavor {flavor!r}")
    return MatrixConditionId(t, f)


class WeightMatrix:
    """A map c -> weight sequence over a strictly ascending index grid;
    building one checks that grid neighbours are pointwise ordered up to
    index 64 and raises OrderViolationError otherwise.

    Two memos grow only with the statements run on the matrix, never past
    the elements and pairs those statements read: _memo maps an index c to
    its element, and _checks maps (tag, left element, right element or
    None, h, seed) to the result of one matrix-check computation (a pair
    test, the sc certificate of an element or the constant comparison),
    with seed None for every tag but mg, and ("composition", left element,
    k_top) to its FdB composition sequence.  Elements compare by identity,
    and _memo keeps them alive, so the Roumieu and Beurling searches of one
    condition run each pair and composition they share once.  A memoized
    result is read-only.

    Both die with the matrix.  A script releases a matrix after its last
    reader and calls drop_checks then: a matrix built on it by matrix_scale
    still reads its elements through _memo, but no statement reads its
    pair memo again.
    """

    def __init__(self, construction: str, params: dict,
                 element_fn: Callable[[float], WeightSequence],
                 index_grid, phi: ExponentSequence | None = None) -> None:
        self.construction = construction
        self.params = params
        self.index_grid = _index_grid(index_grid, 1)
        self._fn = element_fn
        self._phi = phi
        self._memo: dict[float, WeightSequence] = {}
        self._checks: dict[tuple, object] = {}
        _validate_order(self)

    def element(self, c: float) -> WeightSequence:
        c = float(c)
        if not (c > 0.0 and math.isfinite(c)):
            raise InvalidParameterError("c", f"need c > 0, got {c}")
        got = self._memo.get(c)
        if got is None:
            got = self._fn(c)
            self._memo[c] = got
        return got

    def drop_checks(self) -> None:
        """Forget every memoized matrix-check result; elements stay."""
        self._checks.clear()

    @property
    def phi(self) -> ExponentSequence | None:
        return self._phi

    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())
                          if not k.startswith("_"))
        return f"{self.construction}({inner})"


def _validate_order(mm: WeightMatrix) -> None:
    grid = mm.index_grid
    for a, b in zip(grid, grid[1:]):
        ea, eb = mm.element(a), mm.element(b)
        top = min(ea.last_index(_ORDER_CHECK_HORIZON),
                  eb.last_index(_ORDER_CHECK_HORIZON))
        wa, wb = ea.log_terms(top), eb.log_terms(top)
        for j in range(top + 1):
            ta, tb = wa[j], wb[j]
            if ta > tb + slack(_ORDER_SLACK, ta, tb):
                raise OrderViolationError(
                    f"matrix {mm.label()} not pointwise ordered",
                    witness=(a, b, j))


def scale_family(base: WeightSequence, phi: ExponentSequence,
                 index_grid=DEFAULT_INDEX_GRID) -> WeightMatrix:
    """Elements c -> base rescaled by c^(phi_j)."""
    return WeightMatrix(
        "scale_family",
        {"base": base.label(), "phi": phi.label(), "_base": base, "_phi": phi},
        lambda c: scaled(base, phi, c),
        index_grid, phi=phi)


def ptt_matrix(tau: float, sigma: float,
               index_grid=DEFAULT_INDEX_GRID) -> WeightMatrix:
    """Elements c -> c^(j^sigma) * j^(tau j^sigma)."""
    base = ptt(tau, sigma)
    phi = power_exponents(sigma)
    return WeightMatrix(
        "ptt_matrix", {"tau": float(tau), "sigma": float(sigma)},
        lambda c: scaled(base, phi, c),
        index_grid, phi=phi)


def sigma_matrix(sigma: float, index_grid=DEFAULT_INDEX_GRID) -> WeightMatrix:
    """Elements tau -> tau^(j^sigma) * j^(tau j^sigma): the index feeds both
    the geometric factor and the growth exponent.

    The matrix has Roumieu moderate growth, but a partner beta of index alpha
    must satisfy beta > 2^(sigma-1) * alpha: in the diagonal defect
    log M^alpha_{2j} - 2 log M^beta_j the coefficient of j^sigma log j is
    2^sigma alpha - 2 beta, and that term outgrows any log C^(2j+1) unless
    it is negative."""
    sigma = float(sigma)
    if not (sigma >= 1.0 and math.isfinite(sigma)):
        raise InvalidParameterError("sigma", f"need sigma >= 1, got {sigma}")

    def make(tau: float) -> WeightSequence:
        lt = math.log(tau)

        def term(j: int) -> float:
            if j == 0:
                return 0.0
            p = float(j) ** sigma
            return p * lt + tau * p * math.log(j)

        return WeightSequence(
            "sigma_element", {"tau": tau, "sigma": sigma}, term)

    return WeightMatrix("sigma_matrix", {"sigma": sigma}, make, index_grid)


def matrix_scale(base: WeightMatrix, phi: ExponentSequence,
                 index_grid=None) -> WeightMatrix:
    """Elements c -> c^(phi_j) * N^(c)_j for a base matrix N."""
    return WeightMatrix(
        "matrix_scale",
        {"base": base.label(), "phi": phi.label(), "_base": base, "_phi": phi},
        lambda c: scaled(base.element(c), phi, c),
        base.index_grid if index_grid is None else index_grid, phi=phi)


def _lockstep(p: ExponentSequence, q: ExponentSequence, lo: int, hi: int):
    """Pairs (p_j, q_j) for j = lo..hi from two block reads.  When either
    raises, the pairs come index by index instead, so the caller sees every
    pair below the lowest bad index before its error, p's before q's, as a
    loop reading p.value(j) then q.value(j) would."""
    try:
        return zip(p.values(lo, hi), q.values(lo, hi))
    except Exception:  # the per-index reads raise it again, in index order
        return ((p.value(j), q.value(j)) for j in range(lo, hi + 1))


def exponent_family_scale(base: WeightSequence, family: ExponentFamily,
                          index_grid=DEFAULT_INDEX_GRID) -> WeightMatrix:
    """Elements c -> c^(Phi^c_j) * M_j with a per-index exponent sequence.

    Requires the signed products Phi^a_j log(a) <= Phi^b_j log(b) on the
    grid; log(a) changes sign at 1, so no absolute values anywhere.
    """
    grid = _index_grid(index_grid, 1)
    for a, b in zip(grid, grid[1:]):
        pa, pb = family.sequence(a), family.sequence(b)
        la, lb = math.log(a), math.log(b)
        for j, (x, y) in enumerate(_lockstep(pa, pb, 0, _ORDER_CHECK_HORIZON)):
            va, vb = x * la, y * lb
            if va > vb + slack(_ORDER_SLACK, va, vb):
                raise OrderViolationError(
                    "exponent family breaks the signed ordering "
                    f"Phi^a_j log a <= Phi^b_j log b at (a={a}, b={b}, j={j})",
                    witness=(a, b, j))
    return WeightMatrix(
        "exponent_family_scale",
        {"base": base.label(), "family": family.label(),
         "_base": base, "_family": family},
        lambda c: scaled(base, family.sequence(c), c),
        grid)


def generic_matrix(pairs) -> WeightMatrix:
    """Explicit (index, sequence) list; rejects order violations."""
    items = sorted(((float(c), s) for c, s in pairs), key=lambda cs: cs[0])
    if not items:
        raise InvalidParameterError("pairs", "empty matrix")
    table = {c: s for c, s in items}
    if len(table) != len(items):
        raise InvalidParameterError("pairs", "duplicate indices")

    def fn(c: float) -> WeightSequence:
        got = table.get(float(c))
        if got is None:
            raise InvalidParameterError(
                "c", f"index {c} not in generic matrix grid {sorted(table)}")
        return got

    return WeightMatrix("generic", {"indices": [c for c, _ in items]}, fn,
                        [c for c, _ in items])


# ---------------------------------------------------------------------------
# condition checking


def _beta_candidates(grid, alpha: float, flavor: str):
    """(beta, beyond_grid) candidates: grid points on the search side of
    alpha, then CONTINUATION_STEPS of a geometric continuation past the
    grid edge."""
    steps = range(1, CONTINUATION_STEPS + 1)
    if flavor == ROUMIEU:
        near = [b for b in grid if b >= alpha]
        far = [grid[-1] * (grid[-1] / grid[-2]) ** i for i in steps]
    else:
        near = [b for b in reversed(grid) if b <= alpha]
        far = [grid[0] / (grid[1] / grid[0]) ** i for i in steps]
    return [(b, False) for b in near] + [(b, True) for b in far]


def _partner_search(candidates, test, ok, key):
    """The partner search of every for-all/exists question: test the
    candidates in order up to the first whose entry is ok.  Returns that
    (candidate, entry) or None; the one with the least key(entry) tried
    before it (the earlier of a tie; a None key neither replaces the best
    nor is replaced; None when key is None); and whether every entry
    tried has trend up."""
    best = best_key = None
    all_up = True
    for cand in candidates:
        entry = test(cand)
        if entry.get("trend") != UP:
            all_up = False
        if ok(entry):
            return (cand, entry), best, all_up
        if key is not None:
            k = key(entry)
            if best is None or (k is not None and best_key is not None
                                and k < best_key):
                best, best_key = (cand, entry), k
    return None, best, all_up


@functools.lru_cache(maxsize=64)
def _mg_points(h: int, seed: int):
    """Diagonal and sampled (j, k) points sorted by j + k, as the arrays of
    their j + k, j and k, and the largest j or k: flat machine ints keep
    the cached copy at about 8 KB for h = 512, where a tuple of pairs would
    hold about 20 KB."""
    pts = [(j, j) for j in range(1, h // 2 + 1)]
    pts.extend(_conditions.sample_pairs(h, OFFDIAG_SAMPLES, seed))
    # (j + k, j) in lexicographic order, as one int: 1 <= j <= h
    pts.sort(key=lambda jk: (jk[0] + jk[1]) * (h + 1) + jk[0])
    return (array("l", [j + k for j, k in pts]), array("l", [j for j, _ in pts]),
            array("l", [k for _, k in pts]), max(max(jk) for jk in pts))


def _test_mg(left: WeightSequence, right: WeightSequence, h: int, seed: int) -> dict:
    sums, js, ks, top = _mg_points(h, seed)
    tl, tr = left.log_terms(sums[-1]), right.log_terms(top)
    vals = [(tl[n] - tr[j] - tr[k]) / (n + 1) for n, j, k in zip(sums, js, ks)]
    return trajectory_entry(sums, vals)


def _test_dc(left: WeightSequence, right: WeightSequence, h: int) -> dict:
    tl, tr = left.log_terms(h), right.log_terms(h - 1)
    vals = [(tl[j + 1] - tr[j]) / (j + 1) for j in range(h)]
    return trajectory_entry(range(1, h + 1), vals)


def _test_l(left: WeightSequence, right: WeightSequence, h: int) -> dict:
    per_c = {}
    ok = True
    worst = None
    tl, tr = left.log_terms(h), right.log_terms(h)
    for cconst in L_CONSTANTS:
        lc = math.log(cconst)
        vals = [j * lc + tl[j] - tr[j] for j in range(h + 1)]
        entry = trajectory_entry(range(1, h + 1), vals[1:])
        per_c[cconst] = entry
        ok = ok and entry["stabilized"]
        if worst is None or entry["log_constant"] > worst:
            worst = entry["log_constant"]
    return {"stabilized": ok, "log_constant": worst, "per_factor": per_c,
            "trend": max((e.get("trend", "") for e in per_c.values()),
                         key=lambda t: t == UP)}


def _test_rai(left: WeightSequence, right: WeightSequence, h: int) -> dict:
    tl, tr = left.log_terms(h), right.log_terms(h)
    suffmin = [tr[k] / k for k in range(1, h + 1)]
    for i in range(len(suffmin) - 2, -1, -1):
        if suffmin[i + 1] < suffmin[i]:
            suffmin[i] = suffmin[i + 1]
    vals = [tl[j] / j - suffmin[j - 1] for j in range(1, h + 1)]
    return trajectory_entry(range(1, h + 1), vals)


def _test_fdb(left: WeightSequence, right: WeightSequence, h: int,
              checks: dict) -> dict:
    k_top = min(h, FDB_HORIZON)
    key = ("composition", left, k_top)
    comp = checks.get(key)
    if comp is None:
        tl = left.log_terms(k_top)
        reduced = [tl[j] - math.lgamma(j + 1) for j in range(k_top + 1)]
        comp = checks[key] = composition_sequence(reduced, k_top)
    tr = right.log_terms(k_top)
    vals = [(comp[k] - (tr[k] - math.lgamma(k + 1))) / k for k in range(1, k_top + 1)]
    entry = trajectory_entry(range(1, k_top + 1), vals)
    entry["k_top"] = k_top
    return entry


def _test_br(left: WeightSequence, right: WeightSequence, h: int) -> dict:
    v = _relations.compare(left, right, "triangle", h)
    return {"stabilized": v.holds, "log_constant": None,
            "trend": v.evidence.get("trend"), "relation_status": v.status}


_PAIR_TESTS = {
    "mg": _test_mg,
    "dc": _test_dc,
    "L": _test_l,
    "rai": _test_rai,
    "FdB": _test_fdb,
    "BR": _test_br,
}


def check_matrix_condition(mm: WeightMatrix, cond: MatrixConditionId,
                           index_grid=None, horizon: int | None = None,
                           *, seed: int = 0) -> dict:
    """Per-grid-index verdicts for a matrix-level condition; seed is
    the off-diagonal pair sample of mg."""
    h = need_horizon(horizon, 16)
    grid = _index_grid(mm.index_grid if index_grid is None else index_grid,
                       1 if cond.tag in ("sc", "constant") else 3)

    growth = _conditions.exponent_growth_report(mm.phi, h) \
        if cond.tag == "L" and mm.phi is not None else None
    tag_seed = seed if cond.tag == "mg" else None

    def checked(left, right, run, *args):
        # run(*args) once per matrix, whichever flavor or grid asks first
        key = (cond.tag, left, right, h, tag_seed)
        got = mm._checks.get(key)
        if got is None:
            got = mm._checks[key] = run(*args)
        return got

    test = _PAIR_TESTS.get(cond.tag)
    if cond.tag == "mg":
        test = functools.partial(test, seed=seed)
    elif cond.tag == "FdB":
        test = functools.partial(test, checks=mm._checks)

    def pair(alpha, beta):
        # the Roumieu partner absorbs on the right, the Beurling one is
        # absorbed on the left
        if cond.flavor == ROUMIEU:
            left, right = mm.element(alpha), mm.element(beta)
        else:
            left, right = mm.element(beta), mm.element(alpha)
        return checked(left, right, test, left, right, h)

    out: dict[float, Verdict] = {}
    for alpha in grid:
        subject = f"{mm.label()}:{cond.tag}-{cond.flavor}@{alpha:g}"
        if cond.tag == "sc":
            e = mm.element(alpha)
            v = checked(e, None, _conditions.check_sc, e, h)
            out[alpha] = Verdict(subject, v.status, v.horizon, v.witness, v.evidence)
            continue
        if cond.tag == "constant":
            anchor = grid[0]
            a, b = mm.element(alpha), mm.element(anchor)
            v = checked(a, b, _relations.compare, a, b, "approx", h)
            ev = {"partner": anchor, "left": v.evidence.get("left"),
                  "right": v.evidence.get("right")}
            out[alpha] = Verdict(subject, v.status, h, witness=v.witness,
                                 evidence=ev)
            continue

        found, best, all_up = _partner_search(
            _beta_candidates(grid, alpha, cond.flavor),
            lambda cand: pair(alpha, cand[0]),
            lambda entry: entry["stabilized"],
            lambda entry: entry.get("log_constant"))
        if found is not None:
            (beta, beyond), entry = found
            ev = {"alpha": alpha, "beta": beta, "beyond_grid": beyond,
                  "flavor": cond.flavor, "condition": cond.tag}
            ev.update(entry)
            v = Verdict(subject, HOLDS, h, witness=beta, evidence=ev)
        else:
            ev = {"alpha": alpha, "flavor": cond.flavor, "condition": cond.tag,
                  "diverging": all_up}
            if best is not None:
                ev["best_beta"] = best[0][0]
                ev["best"] = best[1]
            v = Verdict(subject, UNDETERMINED, h, evidence=ev)
        if growth is not None:
            ev["exponent_growth"] = growth
        out[alpha] = v
    return out


def matrix_report_json(cond: MatrixConditionId, results: dict) -> dict:
    per_index = []
    for alpha in sorted(results):
        v = results[alpha]
        per_index.append({
            "alpha": alpha,
            "status": v.status,
            "beta": v.evidence.get("beta"),
            "constant": v.evidence.get("log_constant"),
            "evidence": v.to_json()["evidence"],
        })
    return {"condition": cond.tag, "flavor": cond.flavor, "per_index": per_index}


# ---------------------------------------------------------------------------
# composition sequence (partition maximum)


def composition_sequence(m: list[float], K: int) -> list[float]:
    """Partition-maximum transform of a reduced sequence.

    Entry k is the max over all partitions k = j_1 + ... + j_l (parts >= 1)
    of log m_l + log m_{j_1} + ... + log m_{j_l}; entry 0 is log 1 = 0.

    O(K) when log m_1, ..., log m_K are finite and convex (with a margin
    over rounding, see _convex_from_one): the maximum over l parts then
    sits at the composition with one part k - l + 1 and l - 1 ones, and
    over l at l = 1 or l = k, so entry k is the larger of the one-part and
    the k-ones sums, added in the order the dynamic program adds them (the
    result is bit-identical).  Any other input runs the dynamic program
    over (remaining sum, parts used), O(K^3).

    m is the list of log values of the reduced sequence, at least K + 1
    of them.
    """
    if K < 0:
        raise InvalidParameterError("K", f"need K >= 0, got {K}")
    logs = [float(v) for v in m]
    if len(logs) < K + 1:
        raise InvalidParameterError(
            "m", f"need {K + 1} reduced terms, got {len(logs)}")
    if not _convex_from_one(logs, K):
        return _composition_dp(logs, K)
    out = [0.0]
    ones = 0.0
    for k in range(1, K + 1):
        ones = logs[1] + ones
        out.append(max(logs[1] + (logs[k] + 0.0), logs[k] + ones))
    return out


def _convex_from_one(logs: list[float], K: int) -> bool:
    """logs[1..K] are finite, too small for a sum of K + 1 of them to
    overflow, and convex with room for rounding.

    On convex input every composition of k other than the one-part and the
    k-ones one falls short of the better of those two by at least
    |logs[1]| plus the least second difference.  The convex path agrees
    with the dynamic program bit for bit when that gap exceeds the
    rounding error of the sums the program forms (at most K + 1 terms) and
    of the second differences measured here; 16 (K+1)^2 ulps of the
    largest |logs[j]| bound both.  Near-affine input with logs[1] close to
    0 ties within rounding and stays on the dynamic program.
    """
    a = logs[1:K + 1]
    top = max(map(abs, a), default=0.0)
    if not (all(map(math.isfinite, a)) and math.isfinite(4.0 * (K + 1) * top)):
        return False
    d = [y - x for x, y in zip(a, a[1:])]
    curv = min((y - x for x, y in zip(d, d[1:])), default=math.inf)
    return curv >= 0.0 and (
        K < 3 or abs(a[0]) + curv > 16 * (K + 1) ** 2 * math.ulp(top))


def _composition_dp(logs: list[float], K: int) -> list[float]:
    """composition_sequence by dynamic program on any input, O(K^3); the
    reference the convex path is tested against."""
    neg = float("-inf")
    # best[k][l]: max sum of logs over l parts summing to k
    best = [[neg] * (K + 1) for _ in range(K + 1)]
    best[0][0] = 0.0
    for k in range(1, K + 1):
        for parts in range(1, k + 1):
            b = neg
            for j in range(1, k - parts + 2):
                prev = best[k - j][parts - 1]
                if prev != neg:
                    cand = logs[j] + prev
                    if cand > b:
                        b = cand
            best[k][parts] = b
    out = [0.0]
    for k in range(1, K + 1):
        out.append(max(logs[parts] + best[k][parts]
                       for parts in range(1, k + 1)))
    return out


# ---------------------------------------------------------------------------
# exponent family absorption


def check_exponent_family_absorption(family: ExponentFamily, flavor: str,
                                     index_grid=DEFAULT_INDEX_GRID,
                                     horizon: int | None = None) -> Verdict:
    """For each grid index c, search a partner d (above for Roumieu, below
    for Beurling) whose per-index gap [Phi^d_j log d - Phi^c_j log c] / j
    keeps a uniform positive tail; Holds reports the worst found tail as
    the uniform margin."""
    h = need_horizon(horizon, 16)
    grid = _index_grid(index_grid, 2)
    if flavor not in (ROUMIEU, BEURLING):
        raise InvalidParameterError("flavor", f"unknown flavor {flavor!r}")
    subject = f"absorption-{flavor}({family.label()})"

    def gap(lo, hi):
        # [Phi^hi_j log hi - Phi^lo_j log lo] / j for lo < hi: the partner
        # is hi for Roumieu, lo for Beurling
        p_lo, p_hi = family.sequence(lo), family.sequence(hi)
        l_lo, l_hi = math.log(lo), math.log(hi)
        mins, decaying = quarter_minima([
            (x * l_hi - y * l_lo) / j
            for j, (x, y) in enumerate(_lockstep(p_hi, p_lo, 1, h), 1)])
        return {"tail_min": mins[3], "decaying": decaying and mins[3] > 0.0,
                "quarter_mins": mins}

    pairs = {}
    epsilons = []
    vanishing = False
    for c in grid:
        found, best, _ = _partner_search(
            [(d, far) for d, far in _beta_candidates(grid, c, flavor) if d != c],
            lambda cand: gap(*sorted((c, cand[0]))),
            lambda e: (e["tail_min"] >= _conditions.EXPONENT_GAP_FLOOR
                       and not e["decaying"]),
            lambda e: -e["tail_min"])
        if found is not None:
            (d, beyond), e = found
            pairs[c] = {"partner": d, "beyond_grid": beyond,
                        "tail_min": e["tail_min"]}
            epsilons.append(e["tail_min"])
        else:  # the continuation past the grid edge is always tried
            (d, beyond), e = best
            pairs[c] = {"partner": d, "beyond_grid": beyond, **e}
            vanishing = vanishing or e["decaying"]
    ev = {"flavor": flavor, "pairs": {repr(c): p for c, p in pairs.items()}}
    if len(epsilons) == len(grid):
        ev["epsilon"] = min(epsilons)
        return Verdict(subject, HOLDS, h, evidence=ev)
    ev["vanishing_gap"] = vanishing
    return Verdict(subject, UNDETERMINED, h, evidence=ev)
