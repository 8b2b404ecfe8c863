"""Associated functions, Young conjugates, and term recovery."""

import csv
import gc
import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wcalc import (
    HOLDS,
    UNDETERMINED,
    InvalidParameterError,
    LogGrid,
    MaximizerOnBoundaryError,
    OmegaFunction,
    PreconditionError,
    SupNotAttainedError,
    WcalcError,
    assoc_matrix_term,
    assoc_relation_check,
    export_csv,
    from_omega,
    dsl,
    gevrey,
    omega_doubling_probe,
    ptt,
    linear_exponents,
    power_exponents,
    recover_term,
    scaled,
    table,
    young_conjugate,
)
from wcalc.associated import ConjugateValue, _assert_shape
from wcalc.config import OMEGA_INDEX_CAP, WINDOW_CAP
from wcalc.conditions import check_condition
from wcalc.sequences import WeightSequence

WIDE = LogGrid(1.0, 1e70, 400)


def brute_omega(m, t, top):
    log_t = math.log(t)
    vals = [j * log_t - m.log_term(j) for j in range(top + 1)]
    best = max(vals)
    return max(0.0, best), vals.index(best)


@pytest.fixture(scope="module")
def om_g1(g1):
    return OmegaFunction.from_sequence(g1)


@pytest.fixture(scope="module")
def om_g2(g2):
    return OmegaFunction.from_sequence(g2)


def test_log_grid_shape_and_validation():
    g = LogGrid(1.0, 100.0, 3)
    assert g.values() == pytest.approx([1.0, 10.0, 100.0])
    assert g.log_points()[0] == 0.0
    with pytest.raises(InvalidParameterError):
        LogGrid(0.0, 10.0, 5)
    with pytest.raises(InvalidParameterError):
        LogGrid(10.0, 10.0, 5)
    with pytest.raises(InvalidParameterError):
        LogGrid(1.0, 10.0, 1)


def test_log_grid_repr_rebuilds_the_grid():
    """A falsifying example prints a grid that can be pasted back."""
    g = LogGrid(0.2614958549399046, 1884066557461.5544, 63)
    assert repr(g) == "LogGrid(0.2614958549399046, 1884066557461.5544, 63)"
    assert eval(repr(g)).log_points() == g.log_points()


@pytest.mark.parametrize("points", [10**11, WINDOW_CAP + 1, 2.5, 200.0, True])
def test_log_grid_points_are_an_int_up_to_the_window_cap(points):
    """Checked before any grid point is made, so a huge count allocates
    nothing."""
    with pytest.raises(InvalidParameterError) as err:
        LogGrid(1.0, 10.0, points)
    assert err.value.field == "points"
    assert LogGrid(1.0, 10.0, WINDOW_CAP).points == WINDOW_CAP


def test_eval_matches_exhaustive_sup(g1, g2, p12, om_g1, om_g2):
    cases = [(g1, om_g1, [math.exp(u / 4.0) for u in range(1, 14)]),
             (g2, om_g2, [math.exp(u / 2.0) for u in range(1, 16)]),
             (p12, OmegaFunction.from_sequence(p12),
              [math.exp(float(u)) for u in range(1, 13)])]
    for m, om, ts in cases:
        for t in ts:
            want, arg = brute_omega(m, t, 64)
            got = om.eval(t)
            assert got.value == pytest.approx(want, abs=1e-10)
            # localized argmax attains the same sup as full enumeration
            assert arg * math.log(t) - m.log_term(arg) == pytest.approx(
                got.attained_at * math.log(t) - m.log_term(got.attained_at),
                abs=1e-10)


def test_eval_known_point(om_g1):
    v = om_g1.eval(math.e)
    assert v.value == pytest.approx(2.0 - math.log(2.0), abs=1e-12)
    assert v.attained_at == 2


def test_eval_at_zero_and_one(om_g1):
    assert om_g1.eval(0.0) == (0.0, 0)
    assert om_g1.eval(1.0).value == 0.0


def test_eval_validation(om_g1):
    for t in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError):
            om_g1.eval(t)


def test_eval_horizon_contract(om_g2):
    with pytest.raises(SupNotAttainedError):
        om_g2.eval(1e6, horizon=512)
    v = om_g2.eval(1e6)
    assert v.value == pytest.approx(1991.2542009879471, abs=1e-9)
    assert v.attained_at == 999
    # the cached maximizer does not leak below a smaller later horizon
    with pytest.raises(SupNotAttainedError):
        om_g2.eval(1e6, horizon=512)


def test_from_sequence_preconditions():
    humped = table(log_values=[0.0, 1.0, 3.0, 4.0, 6.0, 9.0, 12.5, 16.5, 21.0])
    with pytest.raises(PreconditionError):
        OmegaFunction.from_sequence(humped)  # quotient drop at index 3
    flat = table(log_values=[0.0] * 65)
    with pytest.raises(PreconditionError):
        OmegaFunction.from_sequence(flat)  # roots never diverge


def test_table_shape_guard(om_g1):
    rows = om_g1.table(LogGrid(1.0, 1e4, 50))
    assert len(rows) == 50
    assert all(b[1] >= a[1] for a, b in zip(rows, rows[1:]))


def test_shape_assertion_rejects_dips_and_chord_breaks():
    """Rows at log t = 0, 1, 2: omega must not decrease and must lie on or
    under each chord, both up to the shape tolerance."""
    def rows(*ws):
        return [(math.exp(u), w, 0) for u, w in enumerate(ws)]

    _assert_shape(rows(0.0, 1.0, 2.0), "line")
    _assert_shape(rows(1.0, 1.0 - 1e-10, 1.0), "dip within tolerance")
    with pytest.raises(WcalcError, match="decreased"):
        _assert_shape(rows(0.0, 1.0, 0.5), "dip")
    with pytest.raises(WcalcError, match="chord"):
        _assert_shape(rows(0.0, 1.5, 2.0), "bulge")


def test_young_conjugate_interpolates_log_terms(om_g1):
    """The conjugate of a log-convex sequence's omega is the linear
    interpolation of its log terms, with the sup at the next quotient."""
    for s in (2.5, 7.25):
        j, frac = int(s), s - int(s)
        want = (1.0 - frac) * math.lgamma(j + 1) + frac * math.lgamma(j + 2)
        got = young_conjugate(om_g1, s)
        assert got.value == pytest.approx(want, abs=1e-9), s
        assert got.log_t_star == pytest.approx(math.log(j + 1), abs=1e-4), s


def test_young_conjugate_validation_and_boundaries(om_g1):
    with pytest.raises(InvalidParameterError):
        young_conjugate(om_g1, -1.0)
    # the sup for s = 50 sits at mu_51 = 51, past the grid end
    with pytest.raises(MaximizerOnBoundaryError):
        young_conjugate(om_g1, 50.0, LogGrid(1.0, 10.0, 50))
    # M_0 = e: omega is 0 up to t = sqrt(2e) = 2.33, so for s = 0 the sup
    # sits on (0, 2.33], wholly below the grid start
    shifted = OmegaFunction.from_sequence(WeightSequence(
        "shifted", {}, lambda j: math.lgamma(j + 1) + 1.0))
    with pytest.raises(MaximizerOnBoundaryError, match="grid start"):
        young_conjugate(shifted, 0.0, LogGrid(10.0, 1e4, 50))


def test_conjugate_at_zero_for_normalized(om_g1):
    # normalized source: the sup over the left tail is exactly the edge value
    assert young_conjugate(om_g1, 0.0).value == 0.0
    assert recover_term(om_g1, 0) == 0.0


def test_recover_terms_exactly_on_quotient_gaps(om_g1):
    for j in range(16):
        assert recover_term(om_g1, j) == pytest.approx(math.lgamma(j + 1), abs=1e-9)
    with pytest.raises(InvalidParameterError):
        recover_term(om_g1, -1)


def test_recover_terms_all_families(g1, g2, p12, om_g1, om_g2):
    for m, om, grid in ((g1, om_g1, None), (g2, om_g2, None),
                        (p12, OmegaFunction.from_sequence(p12), WIDE)):
        for j in range(1, 21):
            got = recover_term(om, j, grid)
            assert got == pytest.approx(m.log_term(j), abs=1e-2), (m.label(), j)


def test_recover_ptt_needs_wide_grid(p12):
    om = OmegaFunction.from_sequence(p12)
    assert recover_term(om, 3) == pytest.approx(p12.log_term(3), abs=1e-2)
    with pytest.raises(MaximizerOnBoundaryError):
        recover_term(om, 8)  # quotient gap far beyond the default grid


def test_numeric_ratio_stops_at_the_first_unattained_sup():
    """A 300-term table of log j! has its last quotient at log 299: omega
    past t = 299 has no attained sup, so the probe keeps the grid points
    below it and stops there."""
    t = table(log_values=[math.lgamma(j + 1) for j in range(300)])
    v = assoc_relation_check(t, t, "numeric_ratio", horizon=256)
    grid = LogGrid(10.0, 1e6).values()
    ts = v.evidence["ts"]
    assert v.status == HOLDS and v.evidence["points"] == len(ts) > 8
    assert ts == [x for x in grid if x < 299.0]
    assert v.evidence["ratios"] == [1.0] * len(ts)
    with pytest.raises(SupNotAttainedError):
        OmegaFunction(t).eval(grid[len(ts)])


def test_numeric_ratio_skips_the_points_where_an_omega_is_zero():
    """omega of 100^j j! is 0 up to t = 100: the probe keeps only the grid
    points past it, where both omegas are positive."""
    v = assoc_relation_check(scaled(gevrey(1.0), linear_exponents(), 100.0),
                             gevrey(1.0), "numeric_ratio", horizon=256)
    grid = LogGrid(10.0, 1e6).values()
    assert v.status == HOLDS
    assert (v.evidence["points"], len(grid)) == (160, 200)
    assert v.evidence["ts"] == [t for t in grid if t > 100.0]


def test_from_omega_rejects_a_scale_that_is_not_positive(om_g1):
    for ell in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError) as err:
            from_omega(om_g1, ell)
        assert err.value.field == "ell"


def test_assoc_matrix_term_and_from_omega(om_g1):
    got = assoc_matrix_term(om_g1, 2.0, 3)
    assert got == pytest.approx(math.lgamma(7.0) / 2.0, abs=1e-9)
    with pytest.raises(InvalidParameterError):
        assoc_matrix_term(om_g1, 0.0, 3)
    one = from_omega(om_g1, 1.0)
    two = from_omega(om_g1, 2.0)
    assert one.family == "from_omega"
    for j in range(9):
        a, b = one.log_term(j), two.log_term(j)
        assert a == pytest.approx(math.lgamma(j + 1), abs=1e-9)
        # conjugate growth: larger generation scale dominates termwise
        assert b >= a - 1e-9


# --- the conjugate against the grid search it replaced -------------------

NEAR = LogGrid(0.5, 1e40, 250)


def golden_conjugate(omega, s, grid=None, horizon=None):
    """The grid-column and golden-section conjugate that young_conjugate
    replaced, kept as an oracle: omega on the grid's log points up to the
    cut where the maximizer leaves the horizon, the best point, then 40
    golden-section steps on its two neighbours, the cut point included.
    Its error is at most 0.618^40 times the bracket, 8.8e-9 times the
    grid step in log t."""
    if not (math.isfinite(s) and s >= 0.0):
        raise InvalidParameterError("s", f"need finite s >= 0, got {s}")
    grid = grid or LogGrid()
    us = grid.log_points()
    ws, j_last = [], 0
    for u in us:
        try:
            w = omega.eval(math.exp(u), horizon)
        except SupNotAttainedError:
            if not ws:
                raise
            break
        ws.append(w.value)
        j_last = w.attained_at
    vals = [s * u - w for u, w in zip(us, ws)]
    best = max(range(len(vals)), key=vals.__getitem__)
    last = len(vals) - 1
    if best == last and not (len(vals) < len(us) and j_last >= s):
        raise MaximizerOnBoundaryError("grid end")
    if best == 0:
        normalized = check_condition(omega._m, "normalized", 4).holds
        plateau = len(vals) > 1 and vals[1] >= vals[0] - 1e-12
        if not (normalized or plateau):
            raise MaximizerOnBoundaryError("grid start")
        return ConjugateValue(vals[0], us[0])

    def g(u):
        # past the cut the slope is s - j <= 0 for every j >= cap >= s, so
        # -inf there leaves the sup where it is
        try:
            return s * u - omega.eval(math.exp(u), horizon).value
        except SupNotAttainedError:
            return -math.inf

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    # a column cut right after its best point brackets up to the cut
    a, b = us[best - 1], us[min(best + 1, len(us) - 1)]
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(40):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = g(x1)
    if max(f1, f2) >= vals[best]:
        return ConjugateValue(max(f1, f2), x1 if f1 >= f2 else x2)
    return ConjugateValue(vals[best], us[best])


def answer(om, op, x, grid, horizon):
    try:
        if op == "recover":
            return recover_term(om, x, grid, horizon)
        return tuple(young_conjugate(om, x, grid, horizon))
    except WcalcError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("make", [lambda: gevrey(1.5), lambda: ptt(1.0, 2.0)])
def test_conjugate_and_recover_answer_alike_in_any_order(make):
    """One omega serving every (grid, horizon) pair, in either order,
    answers each call as a fresh omega does; horizon 64 puts recover(100)
    past the cap."""
    calls = [(op, x, grid, h)
             for grid, h in ((WIDE, 512), (NEAR, 512), (WIDE, 64), (NEAR, 64))
             for op, x in (("recover", 3), ("conjugate", 2.5), ("recover", 6),
                           ("conjugate", 7.25), ("recover", 100))]
    fresh = [answer(OmegaFunction.from_sequence(make()), *c) for c in calls]
    assert any(isinstance(a, float) for a in fresh)
    for order in (calls, calls[::-1], calls[::2] + calls[1::2]):
        om = OmegaFunction.from_sequence(make())
        got = {c: answer(om, *c) for c in order}
        assert [got[c] for c in calls] == fresh


def test_young_conjugate_makes_no_eval_call(monkeypatch):
    def no_eval(self, t, horizon=None):
        raise AssertionError(f"eval({t!r}) called")

    m = ptt(1.0, 2.0)
    om = OmegaFunction.from_sequence(m)
    monkeypatch.setattr(OmegaFunction, "eval", no_eval)
    assert young_conjugate(om, 5.5, WIDE).value == pytest.approx(
        0.5 * (m.log_term(5) + m.log_term(6)), rel=1e-15)
    assert recover_term(om, 4, WIDE) == m.log_term(4)
    assert assoc_matrix_term(om, 2.0, 3, WIDE) == m.log_term(6) / 2.0
    assert from_omega(om, 1.0, WIDE).log_terms(8) == m.log_terms(8)


def test_peak_below_the_grid_start_raises_on_every_repeat(monkeypatch):
    """gevrey(1.5) at s = 2 peaks on [log mu_2, log mu_3], far below a grid
    starting at 1e30, whose first point is past horizon 64 as well."""
    om = OmegaFunction.from_sequence(gevrey(1.5))
    far = LogGrid(1e30, 1e70, 50)
    calls = []
    evaluate = OmegaFunction.eval

    def counted(self, t, horizon=None):
        calls.append(t)
        return evaluate(self, t, horizon)

    monkeypatch.setattr(OmegaFunction, "eval", counted)
    for _ in range(3):
        with pytest.raises(MaximizerOnBoundaryError, match="grid start"):
            young_conjugate(om, 2.0, far, 64)
        with pytest.raises(MaximizerOnBoundaryError, match="grid start"):
            recover_term(om, 2, far, 64)
    assert calls == []


def test_eval_retains_nothing_per_query():
    """eval keeps no answer: 2,000 evaluations at new points of a sequence
    whose window already holds every index they read leave the instance
    and its sequence as large as before."""
    m = gevrey(1)
    m.log_terms(4096)
    om = OmegaFunction(m)
    om.eval(2.0, 4096)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for i in range(2000):
            om.eval(3.0 + 0.37 * i, 4096)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert grown < 4096


def outcome(call):
    try:
        return call()
    except WcalcError as exc:
        kind = type(exc).__name__
        for edge in ("grid start", "grid end"):
            if edge in str(exc):
                return kind, edge
        return kind


G1 = OmegaFunction.from_sequence(gevrey(1.0))


@pytest.mark.parametrize("args, was, now", [
    # a normalized omega whose peak lies below t_min: the grid search
    # answered g at t_min, not the sup; log 3! = 1.79
    ((G1, 3.0, LogGrid(100.0, 1e6, 50)), -82.9621,
     ("MaximizerOnBoundaryError", "grid start")),
    # the first grid point is past the cap while k = 2 <= 64 sits below it
    ((G1, 2.0, LogGrid(1e30, 1e70, 50), 64), "SupNotAttainedError",
     ("MaximizerOnBoundaryError", "grid start")),
    # k = 70 is past the cap 64; the grid search saw omega rise to its end
    ((G1, 70.0, LogGrid(1.0, 10.0, 50), 64),
     ("MaximizerOnBoundaryError", "grid end"), "SupNotAttainedError"),
    # k = 64 is the cap itself: the column was cut one point early
    ((G1, 64.0, WIDE, 64), ("MaximizerOnBoundaryError", "grid end"),
     math.lgamma(65.0)),
    # log mu_3 = log 3 < log 3.1, but the 7-point scan peaked at its end
    ((G1, 2.5, LogGrid(1.0, 3.1, 7)), ("MaximizerOnBoundaryError", "grid end"),
     0.5 * (math.lgamma(3.0) + math.lgamma(4.0))),
    # M_0 = 1/e, not normalized: the peak (-inf, log mu_1] reaches t_min = 1
    ((OmegaFunction.from_sequence(WeightSequence(
        "low", {}, lambda j: math.lgamma(j + 1) - 1.0)), 0.0),
     ("MaximizerOnBoundaryError", "grid start"), -1.0),
])
def test_each_changed_outcome(args, was, now):
    """One example of each outcome the two-term reading changes, with the
    grid search's outcome beside it."""
    def value(call):
        got = outcome(call)
        return got.value if isinstance(got, ConjugateValue) else got

    old = value(lambda: golden_conjugate(*args))
    new = value(lambda: young_conjugate(*args))
    if isinstance(was, float):
        assert old == pytest.approx(was, abs=1e-4)
    else:
        assert old == was
    if isinstance(now, float):
        assert new == pytest.approx(now, rel=1e-15)
    else:
        assert new == now


def test_omega_clamped_at_zero_moves_the_peak():
    """M_0 = e: omega = max(0, sup_j (j log t - log M_j)) is 0 up to the
    zero u0 = (1 + log 2) / 2 of the sup, so g = s*u there.  For s <= 1
    the peak moves to u0; at s = 2 the flat piece [log 2, log 3] is cut
    to [u0, log 3]."""
    om = OmegaFunction.from_sequence(WeightSequence(
        "shifted", {}, lambda j: math.lgamma(j + 1) + 1.0))
    u0 = (1.0 + math.log(2.0)) / 2.0
    grid = LogGrid(1e-3, 1e8, 300)
    for s, want, at in ((0.0, 0.0, math.log(1e-3)), (0.5, 0.5 * u0, u0),
                        (1.0, u0, u0), (2.0, 1.0 + math.log(2.0), u0),
                        (2.5, 1.0 + 0.5 * (math.log(2.0) + math.log(6.0)),
                         math.log(3.0))):
        got = young_conjugate(om, s, grid)
        assert got.value == pytest.approx(want, abs=1e-12), s
        assert got.log_t_star == pytest.approx(at, abs=1e-12), s
        assert got.value == pytest.approx(
            golden_conjugate(om, s, grid).value, abs=1e-8), s
    # the zero of the sup past the cap: omega is 0 on the whole search range
    with pytest.raises(SupNotAttainedError):
        young_conjugate(om, 0.5, grid, 2)


def _log_convex_table(head, steps):
    logs = [head]
    q = 0.0
    for step in steps:
        q += step
        logs.append(logs[-1] + q)
    return table(log_values=logs)


SOURCES = st.one_of(
    st.builds(gevrey, st.floats(0.5, 3.0)),
    st.builds(ptt, st.floats(0.5, 2.0), st.floats(1.1, 2.0)),
    st.builds(_log_convex_table,
              st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
              st.lists(st.floats(0.01, 2.0), min_size=8, max_size=90)),
)


@st.composite
def log_grids(draw):
    """Grids whose step in log t is at most 1, so the oracle is within
    8.8e-9 of the sup."""
    lo = draw(st.floats(-5.0, 10.0))
    span = draw(st.floats(0.5, 90.0))
    points = math.ceil(span) + 1 + draw(st.integers(0, 300))
    return LogGrid(math.exp(lo), math.exp(lo + span), points)


@settings(deadline=None, max_examples=120)
@given(SOURCES, log_grids(),
       st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0)),
       st.one_of(st.none(), st.integers(1, 600)))
# M_0 = e and the column cut at log mu_8 = 0.5, right after its best point
# 0.0912: the peak log M_6 / 6 = 0.3073 lies between that point and the cut
@example(_log_convex_table(1.0, [0.0625, 0.0625, 0.015625, 0.015625,
                                 0.015625, 0.015625, 0.25, 0.0625]),
         LogGrid(0.2614958549399046, 1884066557461.5544, 63), 1.0, None)
def test_conjugate_matches_the_grid_search(m, grid, s, horizon):
    """Where both answer, the oracle from its section search, they agree
    within 1e-8 max(1, |v|); the value is s u - omega(e^u) at log_t_star
    and at least that at every grid point eval answers, within the same
    bound; recover gives log M_j bit for bit when M_0 <= 1."""
    om = OmegaFunction(m)
    new = outcome(lambda: young_conjugate(om, s, grid, horizon))
    if not isinstance(new, ConjugateValue):
        return
    tol = 1e-8 * max(1.0, abs(new.value))
    old = outcome(lambda: golden_conjugate(om, s, grid, horizon))
    # the oracle's answer at t_min is g there, not the sup, when the peak
    # lies off the grid or between its first two points
    if isinstance(old, ConjugateValue) and old.log_t_star > grid.log_points()[0]:
        assert new.value == pytest.approx(old.value, abs=tol)
    try:
        w = om.eval(math.exp(new.log_t_star), horizon).value
    except SupNotAttainedError:
        pass  # the peak is mu_cap itself
    else:
        assert new.value == pytest.approx(s * new.log_t_star - w, abs=tol)
    for u in grid.log_points():
        try:
            w = om.eval(math.exp(u), horizon).value
        except SupNotAttainedError:
            break
        assert new.value >= s * u - w - tol
    if s == int(s):
        got = recover_term(om, int(s), grid, horizon)
        # M_0 > 1: omega's clamp at 0 pulls the small terms down
        assert (got == m.log_term(int(s)) if m.log_term(0) <= 0.0
                else got == new.value <= m.log_term(int(s)))


def test_maximizer_at_the_cap_raises_in_either_order():
    """On gevrey(1) the maximizer at t = 64.5 is 64, the cap itself: the
    search at cap 64 raises whether or not cap 65536 answered first."""
    small_first = OmegaFunction.from_sequence(gevrey(1.0))
    with pytest.raises(SupNotAttainedError):
        small_first.eval(64.5, 64)
    assert small_first.eval(64.5, 65536).attained_at == 64
    large_first = OmegaFunction.from_sequence(gevrey(1.0))
    assert large_first.eval(64.5, 65536).attained_at == 64
    with pytest.raises(SupNotAttainedError):
        large_first.eval(64.5, 64)


def searched_indices(q, cap, log_t):
    """The maximizer search of OmegaFunction._argmax_index, copied here:
    (largest j <= cap with q(j) <= log_t, or None where it raises, and the
    indices it read in order)."""
    reads = []

    def read(j):
        reads.append(j)
        return q(j)

    if read(cap) <= log_t:
        return None, reads
    hi = 1
    while hi < cap and read(hi) <= log_t:
        hi = min(2 * hi, cap)
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if read(mid) <= log_t:
            lo = mid
        else:
            hi = mid
    return lo, reads


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.floats(0.01, 2.0), min_size=8, max_size=90),
    st.integers(2, 60),
    st.one_of(st.none(), st.tuples(st.integers(0, 200), st.floats(-1.0, 1.0))),
    st.floats(-0.5, 1.5),
    st.integers(1, 100),
)
def test_argmax_reads_the_same_indices_as_before(steps, window, dip, where,
                                                 horizon):
    """Log-convex tables, some with a dip past the window that stands for
    the certificate; the search reads the same indices in the same order
    and finds the same maximizer as the copy above."""
    quotients = [sum(steps[:i + 1]) for i in range(len(steps))]
    window = min(window, len(steps))
    if dip is not None:
        at = window + dip[0] % (len(steps) - window + 1)
        if at < len(steps):
            quotients[at] = dip[1]
    logs = [0.0]
    for q in quotients:
        logs.append(logs[-1] + q)
    m, ref = table(log_values=logs), table(log_values=logs)
    m.log_terms(window)
    om = OmegaFunction(m)
    reads = []
    real = m.quotient_log

    def recording(j):
        reads.append(j)
        return real(j)

    m.quotient_log = recording
    log_t = quotients[0] + where * (quotients[-1] - quotients[0])
    want, want_reads = searched_indices(
        lambda j: ref.log_term(j) - ref.log_term(j - 1),
        m.last_index(horizon), log_t)
    try:
        got = om._argmax_index(log_t, m.last_index(horizon))
    except SupNotAttainedError:
        got = None
    assert (got, reads) == (want, want_reads)


# --- the omega certificate and the search cap -----------------------------
# The certificate covers [0, check horizon] while the search reads up to
# its cap; the first test pins the wanted outcome and fails until that is
# mended.  eval keeps no answer and searches afresh at each call's cap, so
# the second holds.


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="search reads past the certified range")
def test_omega_sees_a_dip_past_the_certificate():
    """A 520-entry table, log-convex on 0..512 (quotients 3.2 j / 513),
    with one dip at 513 (quotient 0.5, the trend gives about 3.2); t sits
    in the quotient gap at j = 500, which the search returns, while the
    sup over the table is at 513."""
    quotients = [3.2 * j / 513 for j in range(1, 520)]
    quotients[512] = 0.5
    logs = [0.0]
    for q in quotients:
        logs.append(logs[-1] + q)
    om = OmegaFunction.from_sequence(table(log_values=logs))
    t = math.exp(3.2 * 500.5 / 513)
    want = max(j * math.log(t) - v for j, v in enumerate(logs))
    try:
        got = om.eval(t, 600).value
    except WcalcError:
        return
    assert got == pytest.approx(want, abs=1e-9)


def test_omega_outcome_does_not_depend_on_a_smaller_cap_first():
    """scale(gevrey(1), power(2), 0.9995) is log-convex at 512 but its
    quotients go to -inf, so omega is +inf.  The horizon-65536 query
    raises SupNotAttainedError, also after the cap-512 query returned
    7.9715."""
    head = ("seq g = gevrey(s=1); exp p = power(sigma=2); "
            "seq m = scale(base=g, phi=p, c=0.9995); omega w = assoc(m=m);\n")

    def last(*queries):
        rec = dsl.execute(dsl.parse(head + "\n".join(queries)))[-1]
        return rec.get("error", {}).get("type"), rec.get("value")

    query = "eval omega(w, 10) horizon 65536;"
    assert last(query) == last("eval omega(w, 10);", query)


# --- relation checks through the associated functions ---------------------


def test_big_o_direction(g1, g2):
    v = assoc_relation_check(g2, g1, "bigO", c_max=4, horizon=256)
    assert v.status == HOLDS
    assert v.witness == 1
    assert v.evidence["log_constant"] == pytest.approx(0.0, abs=1e-9)
    assert v.evidence["per_c"][2]["stabilized"]
    assert v.evidence["per_c"][2]["log_constant"] <= 1e-9
    w = assoc_relation_check(g1, g2, "bigO", c_max=4, horizon=256)
    assert w.status == UNDETERMINED
    assert all(not e["stabilized"] for e in w.evidence["per_c"].values())


def test_small_o_direction(g1, g2):
    v = assoc_relation_check(g1, g2, "smallO", c_max=4, horizon=256)
    assert v.status == HOLDS
    assert sorted(v.evidence["per_c"]) == [1, 2, 3, 4]
    w = assoc_relation_check(g2, g1, "smallO", c_max=4, horizon=256)
    assert w.status == UNDETERMINED
    assert 1 in w.evidence["unstabilized"]


def test_numeric_ratio_tail(g1, g2):
    v = assoc_relation_check(g2, g1, "numeric_ratio", horizon=256)
    assert v.status == HOLDS
    assert v.evidence["points"] >= 150
    assert v.evidence["ratio_tail_max"] < 0.02
    assert v.evidence["ratio_tail_min"] > 0.0


@pytest.mark.parametrize(("s", "tail"), [(2.0, (123.0, 502.2)),
                                         (1.5, (26.0, 66.7))])
def test_numeric_ratio_decides_from_its_ratio_trajectory(s, tail):
    """omega_M / omega_N of gevrey(1) over gevrey(s > 1) grows like a power
    of t, so its running sup never settles: Undetermined, diverging.  The
    reverse ratio sinks toward 0 and holds."""
    v = assoc_relation_check(gevrey(1.0), gevrey(s), "numeric_ratio",
                             horizon=128)
    traj = v.evidence["trajectory"]
    assert v.status == UNDETERMINED and v.evidence["diverging"] is True
    assert traj["trend"] == "up" and not traj["stabilized"]
    assert (v.evidence["ratio_tail_min"], traj["log_constant"]) == \
        pytest.approx(tail, abs=0.1)
    w = assoc_relation_check(gevrey(s), gevrey(1.0), "numeric_ratio",
                             horizon=128)
    assert w.status == HOLDS and w.evidence["trajectory"]["stabilized"]
    assert "diverging" not in w.evidence


def test_numeric_ratio_certifies_each_sequence_once(monkeypatch):
    from wcalc import conditions

    calls = []
    check, profile = conditions.check_condition, conditions.root_growth_profile

    def counted_check(m, cond, *a, **k):
        calls.append(cond)
        return check(m, cond, *a, **k)

    def counted_profile(*a, **k):
        calls.append("profile")
        return profile(*a, **k)

    monkeypatch.setattr(conditions, "check_condition", counted_check)
    monkeypatch.setattr(conditions, "root_growth_profile", counted_profile)
    v = assoc_relation_check(gevrey(1.5), gevrey(1.0), "numeric_ratio",
                             horizon=128)
    assert v.status == HOLDS
    assert sorted(calls) == ["lc", "lc", "normalized", "normalized",
                             "profile", "profile"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="numeric_ratio sweeps past the certified horizon")
def test_numeric_ratio_stays_inside_the_certified_horizon(monkeypatch):
    """numeric_ratio certifies both sequences up to min(h, 256) and reports
    horizon h, so no maximizer its sweeps reach may lie past min(h, 256).
    At h = 64 the sweep of gevrey(1.3) reaches index 41,246."""
    reached = []
    sweep = OmegaFunction.sweep

    def recording(self, ts, horizon=None):
        for v in sweep(self, ts, horizon):
            reached.append(v.attained_at)
            yield v

    monkeypatch.setattr(OmegaFunction, "sweep", recording)
    h = 64
    assoc_relation_check(gevrey(1.3), gevrey(2.3), "numeric_ratio", horizon=h)
    assert reached
    assert max(reached) <= min(h, 256)


def test_assoc_relation_validation(g1, g2):
    with pytest.raises(InvalidParameterError):
        assoc_relation_check(g1, g2, "tildeO")
    with pytest.raises(InvalidParameterError):
        assoc_relation_check(g1, g2, "bigO", c_max=0)
    with pytest.raises(InvalidParameterError):
        assoc_relation_check(g1, g2, "bigO", c_max=4, horizon=32)
    denormalized = WeightSequence(
        "denorm", {}, lambda j: math.lgamma(j + 1) + 1.0)
    with pytest.raises(PreconditionError):
        assoc_relation_check(denormalized, g2, "bigO", horizon=128)


def test_doubling_probe_factorial_scale(om_g1):
    rep = omega_doubling_probe(om_g1)
    assert rep["points"] == 200
    assert 1.5 < rep["tail_min"] <= rep["tail_max"] < 2.5


def test_export_csv(tmp_path, om_g1):
    path = tmp_path / "omega.csv"
    n = export_csv(om_g1, LogGrid(1.0, 1e4, 40), str(path))
    assert n == 40
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "omega", "attained_at"]
    assert len(rows) == 41
    t, val, j = rows[-1]
    assert float(t) == pytest.approx(1e4)
    assert float(val) == om_g1.eval(1e4).value
    assert int(j) == om_g1.eval(1e4).attained_at


# --- sweeps -----------------------------------------------------------------


def first_error_or_values(values):
    """The values a stream yields up to its first error, and that error's
    type and message (None when it ends cleanly)."""
    got = []
    try:
        for v in values:
            got.append(v)
    except WcalcError as exc:
        return got, (type(exc).__name__, str(exc))
    return got, None


SWEPT = st.one_of(
    st.builds(gevrey, st.floats(0.5, 3.0)),
    st.builds(ptt, st.floats(0.5, 2.0), st.floats(1.0, 2.0)),
    st.builds(scaled, st.builds(gevrey, st.floats(0.5, 3.0)),
              st.sampled_from([linear_exponents(), power_exponents(1.5)]),
              st.floats(0.5, 4.0)),
    st.builds(_log_convex_table,
              st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
              st.lists(st.floats(0.0, 2.0), min_size=1, max_size=90)),
)


@st.composite
def ascending_ts(draw):
    """Ascending t with zeros, repeats, and points far enough out to pass
    any cap drawn below."""
    ts = draw(st.lists(st.one_of(st.just(0.0), st.floats(-4.0, 14.0).map(math.exp)),
                       max_size=40))
    ts += draw(st.lists(st.sampled_from(ts), max_size=5)) if ts else []
    return sorted(ts)


@settings(deadline=None, max_examples=200)
@given(SWEPT, ascending_ts(), st.one_of(st.none(), st.integers(1, 3000)))
def test_sweep_matches_cold_evals_bit_for_bit(m, ts, horizon):
    """On sequences whose quotients do not decrease on [1, cap] (what the
    certificate vouches for), sweep yields what eval gives point by point,
    to the bit, and stops with the same first error, message included."""
    om = OmegaFunction(m)
    cap = m.last_index(horizon or OMEGA_INDEX_CAP)
    assume(cap <= 3000)  # with no horizon, only tables (cap: their length)
    q = [m.quotient_log(j) for j in range(1, cap + 1)]
    assume(all(a <= b for a, b in zip(q, q[1:])))
    want, want_error = first_error_or_values(om.eval(t, horizon) for t in ts)
    got, got_error = first_error_or_values(om.sweep(ts, horizon))
    assert got_error == want_error
    assert [(v.value.hex(), v.attained_at) for v in got] == [
        (v.value.hex(), v.attained_at) for v in want]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=300).map(sorted),
       st.floats(-6.0, 6.0), st.data())
def test_last_index_finds_the_boundary_from_any_guess(keys, bound, data):
    """On a non-decreasing key with key(cap) > bound, the search finds the
    largest j < cap with key(j) <= bound (0 counts as passing: it is never
    read) from any start at or below it and any guess in [start, cap),
    reading only indices in (start, cap) and at most 2 log2(|j - guess| +
    1) + 3 of them (the guess, then as many gallop steps as bisection
    steps, plus two)."""
    cap = len(keys) - 1
    assume(keys[cap] > bound)
    want = max(j for j in range(cap) if j == 0 or keys[j] <= bound)
    start = data.draw(st.integers(0, want))
    guess = data.draw(st.integers(start, cap - 1))
    reads = []

    def key(j):
        reads.append(j)
        return keys[j]

    assert OmegaFunction._last_index(key, bound, cap, start, guess) == want
    assert all(start < j < cap for j in reads)
    assert len(reads) <= 2 * math.log2(abs(want - guess) + 1) + 3


def test_sweep_rejects_a_descending_t(om_g1):
    with pytest.raises(InvalidParameterError, match="ascending"):
        list(om_g1.sweep([1.0, 5.0, 4.0]))
    with pytest.raises(InvalidParameterError, match="finite t"):
        list(om_g1.sweep([1.0, math.nan]))
    assert list(om_g1.sweep([])) == []


def test_numeric_ratio_reads_at_most_a_sixth_of_the_quotients_of_cold_evals(
        monkeypatch):
    """The 400 cold evals of gevrey(1.3) and gevrey(2.3) on the 200-point
    grid read 6,400 quotients; the two sweeps, each search started from
    an extrapolated guess, read about 860."""
    counted = []
    read = WeightSequence.quotient_log

    def counting(self, j):
        counted.append(j)
        return read(self, j)

    monkeypatch.setattr(WeightSequence, "quotient_log", counting)
    m, n = gevrey(1.3), gevrey(2.3)
    v = assoc_relation_check(m, n, "numeric_ratio")
    swept = len(counted)
    del counted[:]
    for seq in (m, n):
        om = OmegaFunction(seq)
        for t in LogGrid(10.0, 1e6).values():
            om.eval(t)
    assert v.evidence["points"] == 200
    assert swept <= len(counted) // 6


# --- scaling ----------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(st.builds(gevrey, st.floats(1.0, 3.0)),
              st.builds(ptt, st.floats(0.5, 2.0), st.floats(1.1, 2.0))),
    st.floats(1 / 8, 8.0),
    st.floats(-5.0, 9.0),
)
def test_omega_of_a_geometric_rescaling_reads_t_over_a(m, a, log_t):
    """omega of A^j M_j at t is omega_M(t / A) within 1e-9 max(1, |omega|),
    attained at the same index unless the quotients between the two
    indices lie within rounding of log(t / A)."""
    t = math.exp(log_t)
    got = OmegaFunction.from_sequence(scaled(m, linear_exponents(), a)).eval(t)
    want = OmegaFunction.from_sequence(m).eval(t / a)
    assert got.value == pytest.approx(want.value,
                                      abs=1e-9 * max(1.0, abs(want.value)))
    if got.attained_at != want.attained_at:
        lo, hi = sorted((got.attained_at, want.attained_at))
        at = math.log(t / a)
        for j in range(lo + 1, hi + 1):
            rounding = 1e-12 * max(1.0, abs(m.log_term(j)), abs(j * math.log(a)))
            assert abs(m.quotient_log(j) - at) <= rounding
