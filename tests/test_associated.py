"""Associated functions, Young conjugates, and term recovery."""

import csv
import math

import pytest
from hypothesis import given, settings, strategies as st

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
    recover_term,
    table,
    young_conjugate,
)
from wcalc.associated import _assert_shape, _grid_column
from wcalc.config import GOLDEN_ITERS
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
    # omega rises from the grid start, and without normalization the sup
    # over (0, t_min] is not the edge value
    shifted = OmegaFunction.from_sequence(WeightSequence(
        "shifted", {}, lambda j: math.lgamma(j + 1) + 1.0))
    assert not shifted.normalized
    with pytest.raises(MaximizerOnBoundaryError):
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


# --- the grid column and the maximizer search ----------------------------

NEAR = LogGrid(0.5, 1e40, 250)


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
    answers each call as a fresh omega does.  Horizon 64 cuts the gevrey
    scans and 512 cuts them further out; recover(100) needs the longer
    column."""
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


def test_repeat_scan_reads_its_column(p12):
    om = OmegaFunction.from_sequence(p12)
    first = young_conjugate(om, 5.5, WIDE)
    calls = []
    real = om.eval

    def counting(t, horizon=None):
        calls.append(t)
        return real(t, horizon)

    om.eval = counting
    assert young_conjugate(om, 5.5, WIDE) == first
    # the golden-section refinement only: no grid point is evaluated again
    assert len(calls) == GOLDEN_ITERS + 2
    assert not set(calls) & set(WIDE.values())


def test_scan_whose_first_point_raises_raises_on_every_repeat():
    om = OmegaFunction.from_sequence(gevrey(1.5))
    far = LogGrid(1e30, 1e70, 50)
    for _ in range(3):
        with pytest.raises(SupNotAttainedError):
            young_conjugate(om, 2.0, far, 64)
        with pytest.raises(SupNotAttainedError):
            recover_term(om, 2, far, 64)
    assert om._columns == {}


def test_cut_column_stays_cut_after_a_larger_cap():
    """An eval at a larger cap at the cut point of a column answers for
    that cap only: the column at the smaller cap stays cut."""
    om = OmegaFunction.from_sequence(gevrey(1.0))
    grid = LogGrid(1.0, 64.5 ** 2, 3)
    us = grid.log_points()
    ws, j_last = _grid_column(om, grid, us, 64)
    assert len(ws) == 1  # log mu_64 = log 64 <= log 64.5: cut at point 1
    assert om.eval(math.exp(us[1]), 65536).attained_at == 64
    assert _grid_column(om, grid, us, 64) == ([om.eval(1.0, 64).value], j_last)
    with pytest.raises(SupNotAttainedError):
        om.eval(math.exp(us[1]), 64)


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
    om = OmegaFunction(m, True)
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


# --- the omega certificate and eval's memo --------------------------------
# The certificate covers [0, check horizon] while the search reads up to
# its cap; the first test pins the wanted outcome and fails until that is
# mended.  eval's memo is kept per cap, so the second holds.


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
    v = assoc_relation_check(gevrey(1.0), gevrey(1.5), "numeric_ratio",
                             horizon=128)
    assert v.status == HOLDS
    assert sorted(calls) == ["lc", "lc", "normalized", "normalized",
                             "profile", "profile"]


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
