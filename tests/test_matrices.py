"""Weight matrices: constructors, per-index condition search, absorption."""

import collections
import gc
import hashlib
import itertools
import json
import math
import struct
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from wcalc import (
    BEURLING,
    FAILS,
    HOLDS,
    ROUMIEU,
    UNDETERMINED,
    HorizonError,
    InvalidParameterError,
    MatrixConditionId,
    OrderViolationError,
    check_exponent_family_absorption,
    check_matrix_condition,
    compare,
    composition_sequence,
    condition_id,
    constant_family,
    generic_matrix,
    gevrey,
    linear_exponents,
    matrix_report_json,
    matrix_scale,
    power_exponents,
    ptt_matrix,
    scale_family,
    sigma_matrix,
    table_exponents,
)
from wcalc import matrices
from wcalc.matrices import (
    DEFAULT_INDEX_GRID,
    MATRIX_CONDITIONS,
    _composition_dp,
    _concave_head,
    _convex_from_one,
    exponent_family_scale,
)
from wcalc.sequences import ExponentFamily

GRID4 = (0.5, 1.0, 2.0, 4.0)


def test_condition_id_normalization():
    cid = condition_id("fdb", "b")
    assert (cid.tag, cid.flavor) == ("FdB", BEURLING)
    assert condition_id("BR").flavor == ROUMIEU
    assert condition_id("mg", "roumieu").tag == "mg"
    with pytest.raises(InvalidParameterError):
        condition_id("nope")
    with pytest.raises(InvalidParameterError):
        condition_id("mg", "sideways")
    with pytest.raises(InvalidParameterError):
        MatrixConditionId("xyz")


def test_matrix_grid_validation(g1):
    with pytest.raises(InvalidParameterError):
        scale_family(g1, linear_exponents(), ())
    with pytest.raises(InvalidParameterError):
        scale_family(g1, linear_exponents(), (1.0, -2.0))
    with pytest.raises(InvalidParameterError):
        scale_family(g1, linear_exponents(), (2.0, 1.0))
    with pytest.raises(InvalidParameterError) as err:
        ptt_matrix(1, 2, (1, 1, 2))
    assert err.value.field == "index_grid"


@pytest.mark.parametrize("flavor", [ROUMIEU, BEURLING])
def test_a_continuation_past_the_float_range_is_an_index_grid_error(flavor):
    # the grid passes validation; its geometric continuation overflows
    mm = sigma_matrix(2.0, (1e-300, 1.0, 1e300))
    with pytest.raises(InvalidParameterError, match="overflows") as err:
        check_matrix_condition(mm, MatrixConditionId("mg", flavor), horizon=64)
    assert err.value.field == "index_grid"


def test_element_memoization_and_validation(g1):
    mm = scale_family(g1, linear_exponents(), GRID4)
    assert mm.element(2.0) is mm.element(2)
    with pytest.raises(InvalidParameterError):
        mm.element(0.0)
    assert mm.index_grid == GRID4


def test_label_hides_private_params(g1):
    mm = scale_family(g1, power_exponents(2.0), GRID4)
    assert "_base" in mm.params
    assert "_base" not in mm.label()


def test_sigma_matrix_terms():
    mm = sigma_matrix(2.0, (1.0, 2.0, 4.0))
    assert mm.element(2.0).log_term(3) == pytest.approx(
        9.0 * math.log(2.0) + 18.0 * math.log(3.0), rel=1e-15)
    assert mm.element(1.0).log_term(0) == 0.0
    with pytest.raises(InvalidParameterError):
        sigma_matrix(0.5)


def test_ptt_matrix_terms():
    mm = ptt_matrix(1.0, 2.0, GRID4)
    assert mm.element(0.5).log_term(3) == pytest.approx(
        9.0 * math.log(3.0) + 9.0 * math.log(0.5), rel=1e-14)
    assert mm.phi is not None


def test_matrix_scale_composes_scalings():
    base = ptt_matrix(1.0, 2.0, GRID4)
    mm = matrix_scale(base, power_exponents(2.0))
    assert mm.index_grid == base.index_grid
    got = mm.element(2.0).log_term(3)
    assert got == pytest.approx(9.0 * math.log(3.0) + 18.0 * math.log(2.0), rel=1e-14)


def test_generic_matrix_order_violation(g1, g2):
    with pytest.raises(OrderViolationError) as err:
        generic_matrix([(1.0, g2), (2.0, g1)])
    assert err.value.witness == (1.0, 2.0, 2)
    with pytest.raises(InvalidParameterError):
        generic_matrix([])
    with pytest.raises(InvalidParameterError):
        generic_matrix([(1.0, g1), (1.0, g1)])
    mm = generic_matrix([(1.0, g1), (2.0, g2)])
    with pytest.raises(InvalidParameterError):
        mm.element(3.0)


def test_exponent_family_scale_signed_order(g1):
    ok = exponent_family_scale(g1, constant_family(power_exponents(2.0)), GRID4)
    assert ok.element(0.5).log_term(2) == pytest.approx(
        math.lgamma(3.0) + 4.0 * math.log(0.5), rel=1e-14)
    mixed = ExponentFamily(
        "indexed", {"label": "mixed"},
        lambda a: power_exponents(2.0) if a <= 2.0 else linear_exponents())
    with pytest.raises(OrderViolationError) as err:
        exponent_family_scale(g1, mixed, (2.0, 4.0))
    assert err.value.witness == (2.0, 4.0, 3)


def test_scaling_law_is_exact():
    # term difference per index must be phi_j * log(c2/c1) to float accuracy
    mm = ptt_matrix(1.0, 2.0, DEFAULT_INDEX_GRID)
    for c1, c2 in ((1.0, 2.0), (0.5, 4.0)):
        e1, e2 = mm.element(c1), mm.element(c2)
        ratio = math.log(c2) - math.log(c1)
        worst = max(
            abs((e2.log_term(j) - e1.log_term(j)) / j - j * ratio)
            for j in range(1, 257))
        assert worst < 1e-9


# --- per-index condition search -------------------------------------------


def mg_roumieu(mm, grid, h=128):
    return check_matrix_condition(mm, MatrixConditionId("mg", ROUMIEU),
                                  index_grid=grid, horizon=h)


def test_sigma_matrix_mg_partner_map():
    grid = (1.0, 2.0, 4.0, 16.0, 256.0)
    out = mg_roumieu(sigma_matrix(2.0, grid), grid)
    want = {1.0: 4.0, 2.0: 16.0, 4.0: 16.0, 16.0: 256.0, 256.0: 4096.0}
    for alpha, beta in want.items():
        v = out[alpha]
        assert v.status == HOLDS, (alpha, v.evidence)
        assert v.witness == beta
        assert v.evidence["beyond_grid"] is (alpha == 256.0)
        assert v.evidence["stabilized"]


def test_elements_fill_from_the_shared_base_window():
    """Every element of ptt_matrix is the shared ptt base rescaled; mg at
    horizon 512 fills that base's one window and makes no point reads of
    it."""
    mm = ptt_matrix(1.0, 2.0)
    base = mm.element(1.0).params["_base"]
    point_reads = []
    base._fn = lambda j, fn=base._fn: point_reads.append(j) or fn(j)
    check_matrix_condition(mm, MatrixConditionId("mg", ROUMIEU), horizon=512)
    assert len(base._window) >= 513 and point_reads == []


def test_ptt_matrix_mg_diverges_everywhere():
    grid = (1.0, 2.0, 4.0, 8.0)
    out = mg_roumieu(ptt_matrix(1.0, 2.0, grid), grid)
    for alpha, v in out.items():
        assert v.status == UNDETERMINED
        assert v.evidence["diverging"] is True
        assert "best_beta" in v.evidence


def test_l_condition_scale_families(g1, g2):
    lin = scale_family(g1, linear_exponents(), GRID4)
    for flavor in (ROUMIEU, BEURLING):
        out = check_matrix_condition(lin, MatrixConditionId("L", flavor),
                                     horizon=128)
        for alpha, v in out.items():
            assert v.status == HOLDS, (flavor, alpha)
            assert v.evidence["exponent_growth"]["positive_gap"] is True
    # the linear family needs the full factor-8 stretch on the heavy side
    r = check_matrix_condition(lin, MatrixConditionId("L", ROUMIEU), horizon=128)
    assert r[1.0].witness == 8.0
    sq = scale_family(g2, power_exponents(2.0), GRID4)
    r2 = check_matrix_condition(sq, MatrixConditionId("L", ROUMIEU), horizon=128)
    assert r2[1.0].status == HOLDS
    assert r2[1.0].witness == 2.0  # quadratic exponents absorb in one step


def test_l_condition_sqrt_exponents_undetermined(g1):
    phi = table_exponents([math.ceil(math.sqrt(j)) for j in range(513)])
    mm = scale_family(g1, phi, GRID4)
    for flavor in (ROUMIEU, BEURLING):
        out = check_matrix_condition(mm, MatrixConditionId("L", flavor),
                                     horizon=512)
        for alpha, v in out.items():
            assert v.status == UNDETERMINED, (flavor, alpha)
            assert v.evidence["exponent_growth"]["decaying"] is True


def test_dc_and_br_take_next_grid_point():
    grid = (1.0, 2.0, 4.0, 8.0)
    mm = ptt_matrix(1.0, 2.0, grid)
    dc_r = check_matrix_condition(mm, MatrixConditionId("dc", ROUMIEU),
                                  index_grid=grid, horizon=64)
    assert dc_r[2.0].status == HOLDS and dc_r[2.0].witness == 4.0
    dc_b = check_matrix_condition(mm, MatrixConditionId("dc", BEURLING),
                                  index_grid=grid, horizon=64)
    assert dc_b[2.0].status == HOLDS and dc_b[2.0].witness == 1.0
    br = check_matrix_condition(mm, MatrixConditionId("BR", ROUMIEU),
                                index_grid=grid, horizon=64)
    assert br[2.0].status == HOLDS and br[2.0].witness == 4.0
    assert br[2.0].evidence["trend"] == "frozen"


def test_br_entry_reports_the_trend_of_its_triangle():
    # the partner search reads each entry's trend for diverging, so a BR
    # entry carries the trend of the triangle trajectory it was decided on
    pm = ptt_matrix(1.0, 2.0)
    for left, right, trend in ((pm.element(1.0), pm.element(2.0), "frozen"),
                               (gevrey(2.0), gevrey(1.0), "up")):
        entry = matrices._test_br(left, right, 512)
        v = compare(left, right, "triangle", 512)
        assert entry["trend"] == v.evidence["trajectory"]["trend"] == trend


def test_rai_holds_on_the_diagonal():
    grid = (1.0, 2.0, 4.0)
    mm = ptt_matrix(1.0, 2.0, grid)
    for flavor in (ROUMIEU, BEURLING):
        out = check_matrix_condition(mm, MatrixConditionId("rai", flavor),
                                     index_grid=grid, horizon=64)
        for alpha, v in out.items():
            assert v.status == HOLDS
            assert v.witness == alpha  # an element controls its own roots


def test_fdb_holds_at_same_index():
    grid = (1.0, 2.0, 4.0)
    out = check_matrix_condition(ptt_matrix(1.0, 2.0, grid),
                                 MatrixConditionId("FdB", ROUMIEU),
                                 index_grid=grid, horizon=48)
    for alpha, v in out.items():
        assert v.status == HOLDS
        assert v.witness == alpha
        assert v.evidence["k_top"] == 48


def test_sc_per_element(g2):
    mm = scale_family(g2, power_exponents(2.0), GRID4)
    out = check_matrix_condition(mm, MatrixConditionId("sc", ROUMIEU),
                                 horizon=64)
    assert out[0.5].status == FAILS
    assert out[0.5].witness == 3  # scaled-down head breaks log-convexity
    for alpha in (1.0, 2.0, 4.0):
        assert out[alpha].status == HOLDS


def test_constant_condition(g1):
    mm = ptt_matrix(1.0, 2.0, (1.0, 2.0, 4.0))
    out = check_matrix_condition(mm, MatrixConditionId("constant", ROUMIEU),
                                 horizon=64)
    assert out[1.0].status == HOLDS  # anchor compared with itself
    assert out[2.0].status == FAILS
    assert out[2.0].evidence["partner"] == 1.0
    flat = generic_matrix([(1.0, g1), (2.0, g1), (4.0, g1)])
    out2 = check_matrix_condition(flat, MatrixConditionId("constant", ROUMIEU),
                                  horizon=64)
    assert all(v.status == HOLDS for v in out2.values())


def test_check_matrix_condition_validation(g1):
    mm = scale_family(g1, linear_exponents(), GRID4)
    with pytest.raises(HorizonError):
        check_matrix_condition(mm, MatrixConditionId("mg"), horizon=8)
    with pytest.raises(InvalidParameterError):
        check_matrix_condition(mm, MatrixConditionId("mg"),
                               index_grid=(1.0, 2.0), horizon=64)
    for grid in ((4.0, 2.0, 1.0), (1.0, 1.0, 2.0)):
        with pytest.raises(InvalidParameterError) as err:
            check_matrix_condition(mm, MatrixConditionId("mg"),
                                   index_grid=grid, horizon=64)
        assert err.value.field == "index_grid"
    # element-wise conditions accept short grids
    out = check_matrix_condition(mm, MatrixConditionId("sc"),
                                 index_grid=(1.0,), horizon=64)
    assert out[1.0].status == HOLDS


def test_matrix_report_json_shape():
    grid = (1.0, 2.0, 4.0)
    cid = MatrixConditionId("dc", ROUMIEU)
    out = check_matrix_condition(ptt_matrix(1.0, 2.0, grid), cid,
                                 index_grid=grid, horizon=64)
    rep = matrix_report_json(cid, out)
    assert rep["condition"] == "dc" and rep["flavor"] == ROUMIEU
    assert [row["alpha"] for row in rep["per_index"]] == [1.0, 2.0, 4.0]
    for row in rep["per_index"]:
        assert {"alpha", "status", "beta", "constant", "evidence"} <= set(row)


# --- composition transform -------------------------------------------------


def brute_composition(logs, K):
    # enumerate partitions (non-increasing parts) of each k
    def partitions(k, cap):
        if k == 0:
            yield ()
            return
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    out = [0.0]
    for k in range(1, K + 1):
        out.append(max(logs[len(p)] + math.fsum(logs[q] for q in p)
                       for p in partitions(k, k)))
    return out


def test_composition_matches_enumeration_fixed():
    logs = [0.0] + [math.lgamma(j + 1) for j in range(1, 13)]
    got = composition_sequence(logs, 12)
    want = brute_composition(logs, 12)
    assert got == pytest.approx(want, abs=1e-9)
    assert got[0] == 0.0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=10, max_size=10))
def test_composition_matches_enumeration_random(increments):
    # normalized log-convex reduced input: increasing quotient increments
    q = sorted(increments)
    logs = [0.0, 0.0]
    for step in q:
        logs.append(logs[-1] + logs[-1] - logs[-2] + step)
    K = len(logs) - 1
    got = composition_sequence(logs, K)
    want = brute_composition(logs, K)
    assert got == pytest.approx(want, abs=1e-9)
    assert _composition_dp(logs, K) == pytest.approx(want, abs=1e-9)


def test_composition_accepts_sequence_views():
    logs = [0.0, 0.0, 1.0, 3.0, 6.0, 10.0]
    with pytest.raises(InvalidParameterError):
        composition_sequence(logs, -1)
    with pytest.raises(InvalidParameterError):
        composition_sequence([0.0, 1.0], 5)


def test_composition_dominates_single_block():
    logs = [0.0] + [math.lgamma(j + 1) for j in range(1, 21)]
    comp = composition_sequence(logs, 20)
    for k in range(1, 21):
        assert comp[k] >= logs[k] + logs[1] - 1e-12


def convex_logs(a0, a1, slope, bends):
    """[a0, a1, a1 + slope, ...] with the slope growing by each bend, each
    term nudged up by ulps until its float difference is no smaller than
    the one before, so the differences never decrease on 1..K."""
    logs = [a0, a1, a1 + slope]
    for b in bends:
        slope += b
        x = logs[-1] + slope
        while x - logs[-1] < logs[-1] - logs[-2]:
            x = math.nextafter(x, math.inf)
        logs.append(x)
    return logs, len(logs) - 1


@st.composite
def convex_reduced(draw):
    """Straight runs (zero bends), exact dyadic lines, a_1 = 0 on a line
    (every composition ties), negative a_1 and a_1 within rounding of 0."""
    K = draw(st.integers(0, 60))
    dyadic = st.integers(-40, 40).map(lambda n: n / 8)
    tiny = st.floats(1e-16, 1e-14)
    a1 = draw(st.one_of(st.just(0.0), dyadic, st.floats(-5.0, 5.0), tiny,
                        tiny.map(lambda x: -x)))
    slope = draw(st.one_of(dyadic, st.floats(-5.0, 5.0)))
    bend = draw(st.sampled_from([
        st.just(0.0),
        st.one_of(st.just(0.0), st.floats(0.0, 1e-13), st.floats(0.0, 2.0),
                  dyadic.map(abs))]))
    bends = draw(st.lists(bend, min_size=max(K - 2, 0), max_size=max(K - 2, 0)))
    logs, _ = convex_logs(draw(st.floats(-5.0, 5.0)), a1, slope, bends)
    return logs[:K + 1], K


# a line with a_1 within rounding of 0: every composition nearly ties, and
# the DP's sums round above both extremes unless the guard keeps a margin
@example(convex_logs(0.0, 1e-15, math.pi, [0.0] * 38))
@settings(deadline=None, max_examples=300)
@given(convex_reduced())
def test_composition_convex_path_equals_dp(case):
    logs, K = case
    assert composition_sequence(logs, K) == _composition_dp(logs, K)


def test_composition_convex_path_on_a_ptt_matrix_element():
    t = ptt_matrix(1.0, 2.0).element(1.0).log_terms(120)
    reduced = [t[j] - math.lgamma(j + 1) for j in range(121)]
    assert _convex_from_one(reduced, 120)
    assert composition_sequence(reduced, 120) == _composition_dp(reduced, 120)


def test_composition_of_non_finite_reduced_logs_runs_the_dp():
    # a -inf entry, and one whose sum of K + 1 copies overflows
    for logs in ([0.0, 1.0, -math.inf, 3.0, 4.0], [0.0, 1.0, 2.0, 1e308]):
        K = len(logs) - 1
        assert not _convex_from_one(logs, K)
        assert composition_sequence(logs, K) == brute_composition(logs, K)


def test_composition_non_convex_matches_enumeration():
    logs = [0.0] + [0.3 * j + (1.5 if j % 2 else 0.0) for j in range(1, 13)]
    assert not _convex_from_one(logs, 12)
    assert composition_sequence(logs, 12) == pytest.approx(
        brute_composition(logs, 12), abs=1e-9)


def old_composition_dp(logs, K):
    """_composition_dp as a triple loop over (k, parts, j), kept as the
    oracle of the slice-fed table."""
    neg = float("-inf")
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


def float_bits(xs):
    return [struct.pack("<d", x) for x in xs]


DP_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]


@st.composite
def dp_logs(draw):
    """K in 0..60 and K + 1 logs: finite, or with NaN, +-inf, +-0.0 and
    sums that overflow, logs[1] among them (the seeded reduction)."""
    K = draw(st.integers(0, 60))
    finite = st.floats(-50.0, 50.0)
    pool = draw(st.sampled_from([finite, finite | st.sampled_from(DP_SPECIALS)]))
    logs = draw(st.lists(pool, min_size=K + 1, max_size=K + 1))
    return logs, K


@example(([0.0, math.nan] + [1.0] * 59, 60))
@example(([0.0, math.inf] + [-math.inf, 2.0] * 29 + [1.0], 60))
@example(([0.0, -math.inf] + [math.inf, -0.0] * 29 + [1.0], 60))
@example(([0.0, -0.0, 0.0, -0.0, 0.0], 4))
@example(([0.0, 1e308, 1e308, -1e308, math.nan, 3.0], 5))
@example(([0.0], 0))
@settings(deadline=None, max_examples=120)
@given(dp_logs())
def test_composition_dp_matches_the_triple_loop(case):
    logs, K = case
    assert float_bits(_composition_dp(logs, K)) == float_bits(
        old_composition_dp(logs, K))


def reduced_element(mm, c, K):
    t = mm.element(c).log_terms(K)
    return [t[j] - math.lgamma(j + 1) for j in range(K + 1)]


SIGMA_SIXTEENTH = reduced_element(sigma_matrix(2.0), 1 / 16, 60)
PTT_SIXTEENTH = reduced_element(ptt_matrix(1.0, 2.0), 1 / 16, 60)


@st.composite
def concave_head_logs(draw):
    """K in 0..60 and a head logs[1..P], P in 0..K, whose slope falls by
    each bend, then a convex or an arbitrary tail.  A head bend is clear
    of the rounding margin, a dyadic step, 0, or small enough to sit
    inside the margin (near-affine heads)."""
    K = draw(st.integers(0, 60))
    P = draw(st.integers(0, K))
    dyadic = st.integers(-40, 40).map(lambda n: n / 8)
    head_bend = draw(st.sampled_from([
        st.floats(0.0, 2.0), dyadic.map(abs), st.floats(0.0, 1e-9),
        st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 2.0))]))
    tail = draw(st.sampled_from(["convex", "arbitrary"]))
    slope = draw(st.one_of(dyadic, st.floats(-5.0, 5.0)))
    logs = [draw(st.floats(-5.0, 5.0)), draw(st.one_of(dyadic, st.floats(-5.0, 5.0)))]
    for j in range(2, K + 1):
        if j <= P:
            slope -= draw(head_bend)
        elif tail == "convex":
            slope += draw(st.floats(0.0, 2.0))
        else:
            logs.append(draw(st.floats(-50.0, 50.0)))
            continue
        logs.append(logs[-1] + slope)
    return logs[:K + 1], K


@example((SIGMA_SIXTEENTH, 60))
@example((PTT_SIXTEENTH, 60))
@settings(deadline=None, max_examples=150)
@given(concave_head_logs())
def test_composition_dp_head_cells_match_the_triple_loop(case):
    logs, K = case
    assert float_bits(_composition_dp(logs, K)) == float_bits(
        old_composition_dp(logs, K))


def test_concave_head_of_the_reduced_matrix_elements():
    # the sigma element is concave on all 60 terms, the ptt one on 5
    assert _concave_head(SIGMA_SIXTEENTH, 60) == 60
    assert _concave_head(PTT_SIXTEENTH, 60) == 5


def test_concave_head_is_zero_past_the_guard():
    for bad in (math.nan, math.inf, -math.inf):
        assert _concave_head([0.0, -1.0, bad, -6.0, -10.0], 4) == 0
    # a sum of K + 1 terms of this size overflows
    assert _concave_head([0.0, 1e308, 1.5e308, 1.6e308], 3) == 0
    # the guard reads logs[1..K] only
    assert _concave_head([math.nan, -1.0, -3.0, -6.0, math.inf], 3) == 3


def test_concave_head_covers_strictly_concave_input():
    for K in range(8):
        assert _concave_head([0.0] + [-j * j / 2 for j in range(1, K + 1)], K) == K


def flat_at_seven(flat):
    """logs[0..12] with second differences -1, except flat at logs[6],
    logs[7], logs[8] and 0 at logs[10], logs[11], logs[12]."""
    slopes = [10.0 - i for i in range(1, 12)]
    slopes[6] = slopes[5] + flat
    slopes[10] = slopes[9]
    logs = [0.0, 0.0]
    for d in slopes:
        logs.append(logs[-1] + d)
    return logs


@pytest.mark.parametrize("share,head", ((0.0, 7), (0.5, 7), (2.0, 11)))
def test_concave_head_stops_at_the_first_second_difference_inside_the_margin(
        share, head):
    margin = matrices._rounding_margin(flat_at_seven(0.0), 12)
    logs = flat_at_seven(-share * margin)
    assert _concave_head(logs, 12) == head
    assert _concave_head(logs, head) == head
    assert float_bits(_composition_dp(logs, 12)) == float_bits(
        old_composition_dp(logs, 12))


def fdb_verdicts(mm, flavors):
    return {f: {a: v.to_json() for a, v in check_matrix_condition(
        mm, MatrixConditionId("FdB", f), horizon=128).items()} for f in flavors}


def test_fdb_composition_runs_once_per_left_element(monkeypatch):
    dp_inputs = collections.Counter()
    real_dp = matrices._composition_dp

    def counting_dp(logs, K):
        dp_inputs[tuple(logs)] += 1
        return real_dp(logs, K)

    monkeypatch.setattr(matrices, "_composition_dp", counting_dp)
    mm = sigma_matrix(2.0)
    got = fdb_verdicts(mm, (ROUMIEU, BEURLING))
    # the Beurling search revisits the grid elements the Roumieu one used
    assert dp_inputs and max(dp_inputs.values()) == 1
    assert got == fdb_verdicts(sigma_matrix(2.0), (BEURLING, ROUMIEU))

    # the compositions live in the matrix's own FdB memo, one per left
    # element at k_top = min(128, FDB_HORIZON), and go with the matrix
    comps = {key[1]: key[2] for key in mm._checks["FdB"]
             if key[0] == "composition"}
    assert (set(mm._memo.values()) >= set(comps)
            >= {mm.element(a) for a in mm.index_grid})
    assert set(comps.values()) == {60}
    assert sum(dp_inputs.values()) <= len(comps)
    elements = [weakref.ref(e) for e in mm._memo.values()]
    del mm, comps
    gc.collect()
    assert all(e() is None for e in elements)


def _report_bytes(cid, results):
    return json.dumps(matrix_report_json(cid, results), sort_keys=True)


@pytest.mark.parametrize("first", (ROUMIEU, BEURLING))
def test_both_flavors_on_one_matrix_match_fresh_matrices(first):
    second = BEURLING if first == ROUMIEU else ROUMIEU
    shared = sigma_matrix(2.0)
    for tag in MATRIX_CONDITIONS:
        for flavor in (first, second):
            cid = MatrixConditionId(tag, flavor)
            got = check_matrix_condition(shared, cid, horizon=128)
            fresh = check_matrix_condition(sigma_matrix(2.0), cid, horizon=128)
            assert _report_bytes(cid, got) == _report_bytes(cid, fresh), cid


def plain_partner_loop(entries, keyed):
    """(found index, best index, all up) of entries = [(ok, trend, key)],
    the way check_matrix_condition's own loop decided them."""
    best = None
    all_up = True
    for i, (ok, trend, k) in enumerate(entries):
        all_up = all_up and trend == "up"
        if ok:
            return i, best, all_up
        if keyed and (best is None or (k is not None and entries[best][2]
                                       is not None and k < entries[best][2])):
            best = i
    return None, best, all_up


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(["up", "flat", None]),
                          st.one_of(st.none(), st.integers(-2, 2))),
                max_size=10),
       st.booleans())
def test_partner_search_matches_a_plain_loop(entries, keyed):
    tested = []
    made = {}

    def test(i):
        tested.append(i)
        ok, trend, k = entries[i]
        made[i] = {"ok": ok, "k": k} if trend is None else \
            {"ok": ok, "k": k, "trend": trend}
        return made[i]

    found, best, all_up = matrices._partner_search(
        range(len(entries)), test, lambda e: e["ok"],
        (lambda e: e["k"]) if keyed else None)
    want_found, want_best, want_up = plain_partner_loop(entries, keyed)
    # first-found order, and nothing after the found candidate is tested
    stop = len(entries) if want_found is None else want_found + 1
    assert tested == list(range(stop))
    assert found == (None if want_found is None else (want_found, made[want_found]))
    assert best == (None if want_best is None else (want_best, made[want_best]))
    assert all_up == want_up
    if best is not None:
        tried = [e[2] for e in entries[:stop] if not e[0]]
        if tried[0] is not None:
            # the least key, the earliest of a tie; a None key never wins
            keys = [k for k in tried if k is not None]
            assert best[0] == [e[2] for e in entries].index(min(keys))
        else:
            assert best[0] == 0


def test_each_pair_test_runs_once_per_matrix(monkeypatch):
    calls = collections.Counter()

    def counting(tag, test):
        def run(left, right, h, **kw):
            calls[tag, left, right, h] += 1
            return test(left, right, h, **kw)
        return run

    for tag, test in list(matrices._PAIR_TESTS.items()):
        monkeypatch.setitem(matrices._PAIR_TESTS, tag, counting(tag, test))
    cids = [MatrixConditionId(tag, flavor) for tag in matrices._PAIR_TESTS
            for flavor in (ROUMIEU, BEURLING)]
    for cid in cids:
        check_matrix_condition(sigma_matrix(2.0), cid, horizon=64)
    alone = collections.Counter(tag for tag, *_ in calls)
    calls.clear()
    mm = sigma_matrix(2.0)
    for cid in cids:
        check_matrix_condition(mm, cid, horizon=64)
    assert max(calls.values()) == 1
    # the two searches share pairs for every tag
    shared = collections.Counter(tag for tag, *_ in calls)
    assert all(0 < shared[tag] < alone[tag] for tag in matrices._PAIR_TESTS)


def test_memo_keys_on_the_horizon():
    grid = (1.0, 2.0, 4.0, 8.0)
    mg = MatrixConditionId("mg", ROUMIEU)
    shared = sigma_matrix(2.0, grid)
    at128 = _report_bytes(mg, check_matrix_condition(shared, mg, horizon=128))
    assert at128 == _report_bytes(mg, check_matrix_condition(
        sigma_matrix(2.0, grid), mg, horizon=128))
    check_matrix_condition(shared, mg, horizon=256)
    at512 = _report_bytes(mg, check_matrix_condition(shared, mg, horizon=512))
    assert at512 == _report_bytes(mg, check_matrix_condition(
        sigma_matrix(2.0, grid), mg, horizon=512))


def test_mg_certifies_each_element_once_per_horizon(monkeypatch):
    """Both flavors of mg read each element's lc certificate, and each
    right element's convex minorant, from the mg memo: made once per
    element and horizon, and gone with the memo."""
    made = collections.Counter()
    for name in ("lc_certified", "convex_minorant"):
        def counted(*args, name=name, real=getattr(matrices._conditions, name)):
            made[name] += 1
            return real(*args)
        monkeypatch.setattr(matrices._conditions, name, counted)
    mm = ptt_matrix(1.0, 2.0)  # the elements below index 1/4 are not lc
    for h in (64, 128):
        for flavor in (ROUMIEU, BEURLING):
            check_matrix_condition(mm, MatrixConditionId("mg", flavor), horizon=h)
    kinds = collections.Counter(key[0] for key in mm._checks["mg"]
                                if isinstance(key[0], str))
    assert kinds == {"lc": made["lc_certified"],
                     "minorant": made["convex_minorant"]}
    assert made["convex_minorant"] > 0
    assert {key[1:] for key in mm._checks["mg"] if key[0] == "lc"} <= {
        (e, h) for e in mm._memo.values() for h in (64, 128)}
    mm.drop_checks("mg")
    assert "mg" not in mm._checks


def test_sc_flavors_keep_their_own_subject():
    mm = sigma_matrix(2.0, GRID4)
    out = {f: check_matrix_condition(mm, MatrixConditionId("sc", f),
                                     horizon=64) for f in (ROUMIEU, BEURLING)}
    for alpha in GRID4:
        r, b = out[ROUMIEU][alpha], out[BEURLING][alpha]
        assert r.subject.endswith(f":sc-{ROUMIEU}@{alpha:g}")
        assert b.subject.endswith(f":sc-{BEURLING}@{alpha:g}")
        assert r.evidence is b.evidence  # one certificate, run once


# --- exponent family absorption --------------------------------------------


def test_absorption_power_families():
    fam = constant_family(power_exponents(2.0))
    for flavor in (ROUMIEU, BEURLING):
        v = check_exponent_family_absorption(fam, flavor, GRID4, horizon=128)
        assert v.status == HOLDS, flavor
        assert v.evidence["epsilon"] > 1.0
    pairs = check_exponent_family_absorption(
        fam, ROUMIEU, GRID4, horizon=128).evidence["pairs"]
    assert pairs[repr(0.5)]["partner"] == 1.0
    assert pairs[repr(4.0)]["partner"] == 8.0
    assert pairs[repr(4.0)]["beyond_grid"] is True


def test_absorption_linear_constant_gap():
    fam = constant_family(linear_exponents())
    v = check_exponent_family_absorption(fam, ROUMIEU, GRID4, horizon=128)
    assert v.status == HOLDS
    assert v.evidence["epsilon"] == pytest.approx(math.log(2.0), abs=1e-12)
    b = check_exponent_family_absorption(fam, BEURLING, GRID4, horizon=128)
    assert b.status == HOLDS
    assert b.evidence["epsilon"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_absorption_sqrt_gap_vanishes():
    tab = table_exponents([math.ceil(math.sqrt(j)) for j in range(513)])
    fam = constant_family(tab)
    for flavor in (ROUMIEU, BEURLING):
        v = check_exponent_family_absorption(fam, flavor, GRID4, horizon=512)
        assert v.status == UNDETERMINED, flavor
        assert v.evidence["vanishing_gap"] is True


# sha256 of the sorted-key JSON of both flavors' verdicts, for the three
# families above: power and linear find a partner at every index (the
# power one past the grid edge), ceil(sqrt(j)) reports the best partner
# and a vanishing gap.  No report digest covers absorption, so these pin
# its evidence bytes across commits.  Recorded with CPython 3.11 on Linux
# x86-64.
ABSORPTION_SHA256 = {
    "power": "fbb37e1b6aa74e3b46e7c81c0c14e5302092dc79448e0a5bee1155e69ff7500e",
    "linear": "0d5a70573f6e2fafffaca58ddf71e674d4c1979355972435e5fc61cd9facdc6b",
    "sqrt": "2e4c88f35753f9a76601f205766a82c08dd5abb12e22b32f720809abcf9ad299",
}


@pytest.mark.parametrize("name", sorted(ABSORPTION_SHA256))
def test_absorption_verdict_digest(name):
    phi, h = {
        "power": (power_exponents(2.0), 128),
        "linear": (linear_exponents(), 128),
        "sqrt": (table_exponents([math.ceil(math.sqrt(j)) for j in range(513)]),
                 512),
    }[name]
    fam = constant_family(phi)
    got = json.dumps([check_exponent_family_absorption(fam, f, GRID4, horizon=h)
                      .to_json() for f in (ROUMIEU, BEURLING)], sort_keys=True)
    assert hashlib.sha256(got.encode()).hexdigest() == ABSORPTION_SHA256[name]


def test_absorption_validation():
    fam = constant_family(linear_exponents())
    with pytest.raises(HorizonError):
        check_exponent_family_absorption(fam, ROUMIEU, GRID4, horizon=8)
    with pytest.raises(InvalidParameterError):
        check_exponent_family_absorption(fam, ROUMIEU, (1.0,), horizon=64)
    with pytest.raises(InvalidParameterError):
        check_exponent_family_absorption(fam, "mixed", GRID4, horizon=64)
    # the partner side depends on the grid's order: a descending or
    # repeating grid raises instead of giving an order-dependent verdict
    fam2 = constant_family(power_exponents(2))
    for grid in ((4.0, 2.0, 1.0, 0.5), (0.5, 1.0, 1.0, 2.0)):
        for flavor in (ROUMIEU, BEURLING):
            with pytest.raises(InvalidParameterError) as err:
                check_exponent_family_absorption(fam2, flavor, grid)
            assert err.value.field == "index_grid"


def test_condition_tag_inventory():
    assert MATRIX_CONDITIONS == ("L", "mg", "dc", "rai", "FdB", "BR", "sc", "constant")
    for tag, flavor in itertools.product(("L", "mg"), (ROUMIEU, BEURLING)):
        MatrixConditionId(tag, flavor)  # constructible


def _old_test_rai_values(tl, tr, h):
    """The defects of _test_rai with its suffix minima taken by min()."""
    suffmin = [tr[k] / k for k in range(1, h + 1)]
    for i in range(len(suffmin) - 2, -1, -1):
        suffmin[i] = min(suffmin[i], suffmin[i + 1])
    return [tl[j] / j - suffmin[j - 1] for j in range(1, h + 1)]


class _Terms:
    def __init__(self, logs):
        self.logs = logs

    def log_terms(self, h):
        return self.logs


_TIED_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, -math.inf, 2.0, -2.0, 6.0]),
    st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda h: st.tuples(
    st.just(h), *(st.lists(_TIED_TERMS, min_size=h + 1, max_size=h + 1),) * 2)))
@example((4, [0.0] * 5, [0.0, -0.0, 0.0, -0.0, 0.0]))
@example((4, [1.0] * 5, [0.0, -math.inf, 3.0, -math.inf, 3.0]))
def test_rai_suffix_minima_equal_the_min_loop(case):
    h, tl, tr = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "classify_trajectory", lambda idx, vals: vals)
        got = matrices._test_rai(_Terms(tl), _Terms(tr), h)
    assert repr(got) == repr(_old_test_rai_values(tl, tr, h))
